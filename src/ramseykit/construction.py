"""Round-by-round construction of a {x, x+y, x*y} witness from a coloring.

This is the elementary recipe run literally on finite sets: pick the color
class B_0 with the smallest max-gap (the finite stand-in for syndeticity);
each round intersects shifted copies of the current set,

    D_i = B_{i-1}  intersect_j  (B_{i-1} - (y_j^2...y_{i-1}^2) y_i),

dilates (B_i = y_i * D_i, truncated to [1..N]) and re-colors by the class of
largest overlap.  When a color repeats (t_j = t_i, forced by pigeonhole once
enough rounds complete), x~ = min B_i with y = y_{j+1}...y_i yields
x = x~/y and the monochromatic set {x, x+y, x*y}.  On literally computed
sets the containment chain is exact, and y_1...y_i divides every element of
B_i, so x is an integer; a failed containment, divisibility or final
verification can only mean an implementation bug -- those raise
ConstructionInvariantError, while a round simply running out of usable y is
an expected outcome reported in the trace.

Sets over [1..N] are Python-int bitsets (bit v = membership of v); shifting
B - c is a single >> and the intersections are ANDs, so a round costs almost
nothing even at N = 10^6.  The class bitsets are packed straight from the
color array (one packbits of colors == t each), and a y = 1 round takes D
itself as 1*D; only a y > 1 round decodes D to values to scale it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .coloring import Coloring
from .families import preset_family
from .witnesses import Witness, verify_witness

__all__ = [
    "ConstructiveTrace",
    "ConstructionInvariantError",
    "run_construction",
    "bits_from_values",
    "values_from_bits",
]


class ConstructionInvariantError(RuntimeError):
    """The exact containment/divisibility chain failed: an implementation bug."""


# ---- bitset helpers ----


def bits_from_values(values: Iterable[int] | np.ndarray, n: int) -> int:
    arr = np.zeros(n + 1, dtype=np.uint8)
    idx = np.asarray(list(values) if not isinstance(values, np.ndarray) else values, dtype=np.int64)
    if idx.size:
        if idx.min() < 1 or idx.max() > n:
            raise ValueError(f"set elements must lie in [1..{n}]")
        arr[idx] = 1
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")


def values_from_bits(bits: int, n: int) -> np.ndarray:
    raw = bits.to_bytes((n + 8) // 8 + 1, "little")
    flat = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return np.flatnonzero(flat[: n + 1]).astype(np.int64)


# ---- gap statistics ----


def _max_gap_array(values: np.ndarray, lo: int, hi: int) -> int:
    """Largest distance between consecutive sorted values in [lo..hi], with
    the window edges as virtual neighbors at lo-1 and hi: an empty set scores
    the full window length, {50} in [1..100] scores 50."""
    if values.size == 0:
        return hi - lo + 1
    return int(max(values[0] - (lo - 1), hi - values[-1], np.diff(values).max(initial=0)))


def _class_sets(coloring: Coloring) -> tuple[list[int], list[int]]:
    """Each color class's bitset and max gap over [1..N], indexed by color
    (entry 0 unused).  Position p of colors holds the value p + 1, so the
    packed mask colors == t shifted up one bit is the bitset, and the gap
    is taken on the positions over [0..N-1]: a gap does not move with a shift."""
    bits, gaps = [0] * (coloring.r + 1), [0] * (coloring.r + 1)
    for t in range(1, coloring.r + 1):
        mask = coloring.colors == t
        bits[t] = int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little") << 1
        gaps[t] = _max_gap_array(np.flatnonzero(mask), 0, coloring.n - 1)
    return bits, gaps


# ---- shift-intersection search ----


def _select_y_bits(
    bits: int, multipliers: Sequence[int], y_max: int, size_floor: int
) -> tuple[int | None, int, int, int]:
    """Smallest y in [1..y_max] with |B and_k (B - m_k y)| >= size_floor, as
    (y, D, y, |D|) with D a bitset; B - c means {v - c : v in B, v > c}.
    Failure gives (None, 0, best_y, best_size): the best (y, |D|) seen."""
    best_y, best_size = 0, -1
    for y in range(1, y_max + 1):
        d = bits
        for m in multipliers:
            d &= bits >> (m * y)
            if not d:
                break
        size = d.bit_count()
        if size >= size_floor:
            return y, d, y, size
        if size > best_size:
            best_y, best_size = y, size
    return None, 0, best_y, best_size


# ---- the construction itself ----


@dataclass
class ConstructiveTrace:
    n: int
    r: int
    params: dict
    t: list[int] = field(default_factory=list)
    y: list[int] = field(default_factory=list)
    b0_size: int = 0
    set_sizes: list[dict] = field(default_factory=list)
    repeat_pair: tuple[int, int] | None = None
    witness: Witness | None = None
    failure_reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.witness is not None

    def to_json(self) -> dict:
        w = None
        if self.witness is not None:
            x, yv = self.witness.assignment
            w = {"x": int(x), "y": int(yv), "color": self.witness.color}
        return {
            "n": self.n,
            "r": self.r,
            "params": self.params,
            "t": list(self.t),
            "y": list(self.y),
            "b0_size": self.b0_size,
            "set_sizes": self.set_sizes,
            "repeat_pair": list(self.repeat_pair) if self.repeat_pair else None,
            "witness": w,
            "failure_reason": self.failure_reason,
        }


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConstructionInvariantError(message)


def run_construction(
    coloring: Coloring,
    *,
    y_max: int | None = None,
    size_floor: int = 1,
    max_rounds: int | None = None,
) -> ConstructiveTrace:
    """Run the shift-intersect-dilate rounds until a color repeats.

    Every round asserts the containment and divisibility invariants on the
    literal sets.  A repeat extracts and verifies the witness; running out of
    usable y or dilating to nothing ends the trace with failure_reason instead.
    y_max or size_floor below 1, or max_rounds below 0, raise ValueError.
    """
    n, r = coloring.n, coloring.r
    y_max = n if y_max is None else y_max
    max_rounds = r + 1 if max_rounds is None else max_rounds
    if y_max < 1:
        raise ValueError("y_max must be >= 1")
    if size_floor < 1:
        raise ValueError("size_floor must be >= 1")
    if max_rounds < 0:
        raise ValueError("max_rounds must be >= 0")
    trace = ConstructiveTrace(
        n, r, {"y_max": y_max, "size_floor": size_floor, "max_rounds": max_rounds}
    )

    class_bits, gaps = _class_sets(coloring)
    t0 = min(range(1, r + 1), key=lambda t: (gaps[t], t))
    trace.t.append(t0)
    b_bits = class_bits[t0]
    trace.b0_size = b_bits.bit_count()

    # carried across rounds: in round i, mults = (y_j^2 ... y_{i-1}^2)_{j=1..i},
    # the last being the empty product 1, and prods[k] = y_1 ... y_k for k < i
    mults, prods = [1], [1]
    for i in range(1, max_rounds + 1):
        # d_size is |D|, or on failure the best |D| seen
        y_i, d_bits, best_y, d_size = _select_y_bits(b_bits, mults, y_max, size_floor)
        if y_i is None:
            trace.failure_reason = (
                f"round {i}: no y <= {y_max} reaches |D| >= {size_floor} "
                f"(best: y={best_y} gives |D|={d_size})"
            )
            return trace
        trace.y.append(y_i)
        _require(d_bits & ~b_bits == 0, f"round {i}: D not inside B")
        for m in mults:
            _require(
                d_bits & ~(b_bits >> (m * y_i)) == 0,
                f"round {i}: D escapes B - {m}*{y_i}",
            )

        if y_i == 1:  # 1*D is D, inside [1..n] already
            dil_bits, truncated = d_bits, False
        else:  # y*D keeps the elements of D up to n // y, so only those are decoded
            low = d_bits & ((1 << (n // y_i + 1)) - 1)
            truncated = low != d_bits
            dil_bits = bits_from_values(values_from_bits(low, n // y_i) * y_i, n)
        if not dil_bits:
            trace.set_sizes.append({"D": d_size, "B": 0, "truncated": truncated})
            trace.failure_reason = f"round {i}: dilated set {y_i}*D is empty within [1..{n}]"
            return trace

        t_i = max(
            range(1, r + 1),
            key=lambda t: ((dil_bits & class_bits[t]).bit_count(), -t),
        )
        b_bits = dil_bits & class_bits[t_i]
        trace.t.append(t_i)
        trace.set_sizes.append(
            {"D": d_size, "B": b_bits.bit_count(), "truncated": truncated}
        )

        _require(b_bits & ~dil_bits == 0, f"round {i}: B not inside y*D")
        # y_1 ... y_i divides every element of B_i, so every suffix product
        # y_j ... y_i does too; B_i is non-empty and inside [1..n], so a
        # product above n already breaks the invariant.  A product of 1 skips
        # decoding B_i, which is most of a y = 1 round at N = 10^6.
        prods.append(prods[-1] * y_i)
        div = prods[i]
        _require(
            div == 1 or div <= n and not (values_from_bits(b_bits, n) % div).any(),
            f"round {i}: an element of B_{i} is not divisible by y_1*...*y_{i} = {div}",
        )
        mults = [m * y_i * y_i for m in mults] + [1]

        j = trace.t.index(t_i)
        if j < i:
            xt = (b_bits & -b_bits).bit_length() - 1
            yprod = prods[i] // prods[j]  # y_{j+1} ... y_i, which divides x~ by the invariant
            x = xt // yprod
            w = Witness((x, yprod), (x, x + yprod, x * yprod), t_i)
            check = verify_witness(preset_family("xyxy"), coloring, w)
            _require(bool(check), f"extracted witness failed verification: {check.reason}")
            trace.repeat_pair = (j, i)
            trace.witness = w
            return trace

    trace.failure_reason = f"no repeated color within {max_rounds} rounds"
    return trace
