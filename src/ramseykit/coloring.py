"""Finite colorings of [1..N] with colors 1..r.

The color array is a numpy int32 vector indexed by value-1 (colors[v-1] is
the color of the integer v).  Everything downstream treats a coloring as
read-only; helpers that "modify" return a new object.

File format: ``N r`` then the N colors, every token plain ASCII decimal digits
and tokens separated by ASCII whitespace (any line wrapping).  ``save`` writes
the header on its own line and then 20 colors per line, one space apart.
"""

from __future__ import annotations

import gc
import re
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# to_rle finds run boundaries in blocks of this many positions
_RLE_BLOCK = 1 << 12
# save writes this many colors per block (whole lines of 20); load cuts this
# many bytes per block, so no intermediate array of either grows with N
_IO_BLOCK = 20 * _RLE_BLOCK

_INT32_MAX = 2**31 - 1
# byte classes for load: 0 is rejected, 1 is ASCII whitespace, 2 a digit
_BYTE_CLASS = np.frombuffer(
    bytes(2 if 48 <= b <= 57 else 1 if b in b" \t\n\r\v\f" else 0 for b in range(256)),
    dtype=np.uint8,
)
_HEADER = re.compile(rb"\s*([0-9]+)\s+([0-9]+)(?![0-9])")
_NON_DIGIT = re.compile(rb"[^0-9]")
# 10**k for the places of a color's digits: 18 digits always fit in int64
_POW10 = np.array([10**k for k in range(18)], dtype=np.int64)

__all__ = ["Coloring"]


@dataclass(eq=False)
class Coloring:
    n: int
    r: int
    colors: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.colors)
        if self.n < 1:
            raise ValueError("N must be >= 1")
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if arr.shape != (self.n,):
            raise ValueError(f"expected {self.n} colors, got shape {arr.shape}")
        # checked in the input's own type: the int32 cast would wrap 2**32 + 1 to 1
        top = min(self.r, _INT32_MAX)
        if arr.min() < 1 or arr.max() > top:
            raise ValueError(f"colors must lie in 1..{top}")
        self.colors = arr.astype(np.int32, copy=False)

    # ---- constructors ----

    @classmethod
    def solid(cls, n: int, color: int = 1, r: int | None = None) -> "Coloring":
        r = color if r is None else r
        return cls(n, r, np.full(n, color, dtype=np.int32))

    @classmethod
    def modular(cls, n: int, b: int) -> "Coloring":
        """Residue coloring with b colors; b=2 is the parity coloring (odd->1, even->2)."""
        if b < 1:  # before the % b below, which would warn on 0
            raise ValueError("r must be >= 1")
        v = np.arange(1, n + 1, dtype=np.int32)
        return cls(n, b, (v - 1) % b + 1)

    @classmethod
    def random_uniform(cls, n: int, r: int, rng: np.random.Generator | int) -> "Coloring":
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        return cls(n, r, rng.integers(1, r + 1, size=n, dtype=np.int32))

    @classmethod
    def from_sequence(cls, colors: Sequence[int], r: int | None = None) -> "Coloring":
        # no int32 here: the constructor checks the range in the input's own type
        arr = np.asarray(list(colors))
        if not arr.size:  # before arr.max(), which has no value here
            raise ValueError("N must be >= 1")
        return cls(len(arr), int(arr.max()) if r is None else r, arr)

    # ---- queries ----

    def color_of(self, v: int) -> int:
        if not 1 <= v <= self.n:
            raise ValueError(f"value {v} outside [1..{self.n}]")
        return int(self.colors[v - 1])

    def class_values(self, t: int) -> np.ndarray:
        """All v in [1..N] colored t, ascending."""
        return np.flatnonzero(self.colors == t).astype(np.int64) + 1

    def class_sizes(self) -> list[int]:
        return [int((self.colors == t).sum()) for t in range(1, self.r + 1)]

    def permuted(self, perm: Sequence[int]) -> "Coloring":
        """Relabel colors: perm[c-1] is the new name of color c (perm is a bijection)."""
        p = list(perm)
        if sorted(p) != list(range(1, self.r + 1)):
            raise ValueError(f"perm must be a permutation of 1..{self.r}")
        table = np.asarray([0] + p, dtype=np.int32)
        return Coloring(self.n, self.r, table[self.colors])

    def __eq__(self, other):
        return (
            isinstance(other, Coloring)
            and self.n == other.n
            and self.r == other.r
            and bool(np.array_equal(self.colors, other.colors))
        )

    def __str__(self):
        return f"Coloring(n={self.n}, r={self.r}, sizes={self.class_sizes()})"

    # ---- run-length and file forms ----

    def to_rle(self) -> list[list[int]]:
        """The runs of equal colors as ``[color, length]`` lists of two Python
        ints, in position order: consecutive runs differ in color and the
        lengths sum to N."""
        # run boundaries a block at a time, so no intermediate grows with N
        arr, n = self.colors, self.n
        runs: list[list[int]] = []
        start = 0  # first position of the run still open
        # lists of two ints can form no cycle, so the cyclic collector has
        # nothing to find in them; paused, it does not rescan the heap as they pile up
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for lo in range(1, n, _RLE_BLOCK):
                block = arr[lo - 1 : lo + _RLE_BLOCK]
                changes = np.flatnonzero(block[1:] != block[:-1]) + lo
                if len(changes):
                    starts = np.concatenate(([start], changes))
                    runs += np.stack((arr[starts[:-1]], np.diff(starts)), axis=1).tolist()
                    start = int(changes[-1])
            runs.append([int(arr[start]), n - start])
        finally:
            if was_enabled:
                gc.enable()
        return runs

    @classmethod
    def from_rle(cls, n: int, r: int, runs: Iterable[Sequence[int]]) -> "Coloring":
        """The coloring of [1..n] with colors 1..r that the runs spell out, each
        run a ``[color, length]`` pair of integers, from any iterable of them.

        Raises ValueError for a run that is not a pair of integers (floats,
        bools and numeric strings included), a color outside 1..r, a length
        outside 0..n, or lengths that do not sum to n.
        """
        runs = list(runs)
        colors = np.empty(len(runs), dtype=np.int32)
        lengths = np.empty(len(runs), dtype=np.int64)
        top = min(r, _INT32_MAX)
        # a block at a time: the entries of every run in one flat list would
        # take about as much memory again as the runs themselves
        for lo in range(0, len(runs), _RLE_BLOCK):
            part = runs[lo : lo + _RLE_BLOCK]
            try:  # exactly int: numpy reads True as 1, and a mix of bools and ints as ints
                flat = list(chain.from_iterable(part))
                if set(map(len, part)) != {2} or set(map(type, flat)) != {int}:
                    raise TypeError
                block = np.array(flat, np.int64).reshape(-1, 2)
            except (TypeError, OverflowError):  # also a run with no length, an entry past int64
                raise ValueError("runs must be [color, length] pairs of integers") from None
            # checked in int64, before the int32 column could wrap them
            if ((block[:, 0] < 1) | (block[:, 0] > top)).any():
                raise ValueError(f"run colors must lie in 1..{top}")
            if ((block[:, 1] < 0) | (block[:, 1] > n)).any():
                raise ValueError(f"run lengths must lie in 0..{n}")
            colors[lo : lo + len(block)] = block[:, 0]
            lengths[lo : lo + len(block)] = block[:, 1]
        total = int(lengths.sum())
        if total != n:
            raise ValueError(f"run lengths sum to {total}, expected {n}")
        return cls(n, r, np.repeat(colors, lengths))

    def save(self, path: str | Path) -> None:
        with open(path, "wb") as fh:
            fh.write(f"{self.n} {self.r}\n".encode())
            for lo in range(0, self.n, _IO_BLOCK):
                fh.write(_encode_block(self.colors[lo : lo + _IO_BLOCK]))

    @classmethod
    def load(cls, path: str | Path) -> "Coloring":
        with open(path, "rb") as fh:
            raw = fh.read()
        head = _HEADER.match(raw)
        if head is None:
            raise ValueError(f"{path}: need a header line 'N r' of plain decimal digits")
        n, r = int(head[1]), int(head[2])
        body = np.frombuffer(raw, dtype=np.uint8)
        top = min(r, _INT32_MAX)
        parts = []
        lo = head.end()  # the header's last digit is followed by a non-digit
        # each block ends before a non-digit byte, so no color is cut in two
        while lo < len(raw):
            hi = lo + _IO_BLOCK
            cut = _NON_DIGIT.search(raw, hi) if hi < len(raw) else None
            hi = cut.start() if cut else len(raw)
            parts.append(_decode_block(body[lo:hi], path, lo, top))
            lo = hi
        colors = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int32)
        if len(colors) != n:
            raise ValueError(f"{path}: header says N={n} but found {len(colors)} colors")
        return cls(n, r, colors)


def _encode_block(colors: np.ndarray) -> bytes:
    """The text of colors[i] for each i, a newline after every 20th color and
    after the last one, a space after every other: the bytes of
    ``" ".join(...) + "\\n"`` per line of 20, built without a str per color."""
    width = len(str(int(colors.max())))
    vals = colors.astype(np.int64)
    cells = np.empty((len(vals), width + 1), dtype=np.uint8)
    for j in range(width):
        cells[:, j] = vals // 10 ** (width - 1 - j) % 10 + ord("0")
    cells[:, width] = ord(" ")
    cells[19::20, width] = ord("\n")
    cells[-1, width] = ord("\n")
    # drop each color's leading zero cells: a color below 10**k has width - k of them
    keep = np.ones_like(cells, dtype=bool)
    for j in range(width - 1):
        keep[:, j] = vals >= 10 ** (width - 1 - j)
    return cells[keep].tobytes()


def _decode_block(block: np.ndarray, path, offset: int, top: int) -> np.ndarray:
    """The values of the digit runs of block as int32, each checked to lie in
    1..top.  block starts with a non-digit byte and ends before one (or at
    the end of the file), so no run is cut in two."""
    kind = _BYTE_CLASS[block]
    if not kind.all():
        i = int(np.argmin(kind))
        raise ValueError(
            f"{path}: byte {bytes(block[i : i + 1])!r} at offset {offset + i} "
            "is neither an ASCII digit nor whitespace"
        )
    digit = kind == 2
    # run starts and ends alternate; block[0] is never a digit
    edges = np.flatnonzero(digit[1:] != digit[:-1]) + 1
    if digit[-1]:
        edges = np.append(edges, len(block))
    starts, ends = edges[0::2], edges[1::2]
    lengths = ends - starts
    if len(lengths) == 0:
        return np.zeros(0, dtype=np.int32)
    if lengths.max() > len(_POW10):
        raise ValueError(f"{path}: a color has more than {len(_POW10)} digits")
    vals = block[digit].astype(np.int64) - ord("0")
    if lengths.max() > 1:
        # place of each digit within its token: 0 for the last digit
        place = np.repeat(ends, lengths) - 1 - np.flatnonzero(digit)
        vals = np.add.reduceat(vals * _POW10[place], np.cumsum(lengths) - lengths)
    # checked in int64, before the int32 cast could wrap a color
    if vals.min() < 1 or vals.max() > top:
        raise ValueError(f"{path}: colors must lie in 1..{top}")
    return vals.astype(np.int32)
