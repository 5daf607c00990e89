"""Naive reference implementations used to cross-check the real engines.

Everything here is deliberately written from scratch against the definitions:
no pruning, no symmetry breaking, no shared enumeration code with
``witnesses``/``search``.  Assignment enumeration is a plain cartesian
product; coloring enumeration walks all r^N colorings (chunked through numpy
as base-r digit arrays, which changes speed, not semantics).  Feasible only
at desk scale -- the callers keep N small.
"""

from __future__ import annotations

import itertools

import numpy as np

from .coloring import Coloring
from .families import PatternFamily

__all__ = [
    "naive_instances",
    "naive_value_sets",
    "naive_count_witnesses",
    "naive_all_witnesses",
    "naive_exists_avoiding",
    "naive_avoiding_canonical",
    "naive_threshold",
]

_FEASIBLE_COLORINGS = 1 << 26
_CHUNK = 1 << 18  # colorings per numpy block


def naive_instances(family: PatternFamily, n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All admissible (assignment, term_values) pairs over [1..n]^s, lex order."""
    out = []
    for a in itertools.product(range(1, n + 1), repeat=family.num_vars):
        vals = tuple(t.evaluate(a) for t in family.terms)
        if all(1 <= v <= n for v in vals):
            out.append((a, vals))
    return out


def naive_value_sets(family: PatternFamily, n: int) -> list[tuple[int, ...]]:
    """Distinct admissible value sets (sorted tuples); honors distinct_required."""
    k = len(family.terms)
    seen = set()
    for _, vals in naive_instances(family, n):
        if family.distinct_required and len(set(vals)) != k:
            continue
        seen.add(tuple(sorted(set(vals))))
    return sorted(seen, key=lambda s: (len(s), s))


def naive_all_witnesses(
    family: PatternFamily, coloring: Coloring, distinct: bool | None = None
) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    if distinct is None:
        distinct = family.distinct_required
    out = []
    for a, vals in naive_instances(family, coloring.n):
        if distinct and len(set(vals)) != len(vals):
            continue
        cs = {coloring.color_of(v) for v in vals}
        if len(cs) == 1:
            out.append((a, vals, cs.pop()))
    return out


def naive_count_witnesses(
    family: PatternFamily, coloring: Coloring, distinct: bool | None = None
) -> int:
    return len(naive_all_witnesses(family, coloring, distinct))


def _digit_chunk(start: int, stop: int, n: int, r: int) -> np.ndarray:
    """Colorings start..stop-1 as an (m, n) array of colors 1..r.

    Coloring index idx assigns value v the color (idx // r^(v-1)) % r + 1.
    """
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((idx.size, n), dtype=np.int8)
    for v in range(n):
        out[:, v] = (idx // (r**v)) % r + 1
    return out


def _alive_mask(chunk: np.ndarray, value_sets: list[tuple[int, ...]]) -> np.ndarray:
    """True for rows (colorings) with no monochromatic value set."""
    alive = np.ones(chunk.shape[0], dtype=bool)
    for s in value_sets:
        mono = np.ones(chunk.shape[0], dtype=bool)
        first = chunk[:, s[0] - 1]
        for v in s[1:]:
            mono &= chunk[:, v - 1] == first
        alive &= ~mono
        if not alive.any():
            break
    return alive


def _avoiding_chunks(family: PatternFamily, r: int, n: int):
    """Every r-coloring of [1..n], _CHUNK at a time: (colorings, mask of those
    with no monochromatic admissible value set)."""
    total = r**n
    if total > _FEASIBLE_COLORINGS:
        raise ValueError(f"naive oracle infeasible: {r}^{n} colorings")
    sets = naive_value_sets(family, n)
    for start in range(0, total, _CHUNK):
        chunk = _digit_chunk(start, min(total, start + _CHUNK), n, r)
        yield chunk, _alive_mask(chunk, sets)


def naive_exists_avoiding(family: PatternFamily, r: int, n: int) -> bool:
    return any(alive.any() for _, alive in _avoiding_chunks(family, r, n))


def naive_avoiding_canonical(family: PatternFamily, r: int, n: int) -> list[tuple[int, ...]]:
    """All avoiding colorings in canonical color-introduction form, sorted.

    Canonical: value 1 gets color 1 and each new color label appears in
    increasing order along 1..N.
    """
    out = []
    for chunk, alive in _avoiding_chunks(family, r, n):
        canon = chunk[:, 0] == 1
        if n > 1:
            runmax = np.maximum.accumulate(chunk, axis=1)
            canon &= (chunk[:, 1:] <= runmax[:, :-1] + 1).all(axis=1)
        out.extend(map(tuple, chunk[alive & canon].tolist()))
    return sorted(out)


def naive_threshold(family: PatternFamily, r: int, max_n: int) -> int | None:
    """Smallest N <= max_n with no avoiding coloring, or None."""
    for n in range(1, max_n + 1):
        if not naive_exists_avoiding(family, r, n):
            return n
    return None
