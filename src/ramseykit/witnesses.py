"""Instance enumeration and monochromatic witness search over [1..N].

Semantics (finite truncation): an assignment x in box (default [1..N]^s) is
*admissible* when every family term evaluates into [1..N]; it is a *witness*
under a coloring when additionally all term values share one color (and are
pairwise distinct, if requested).  Absence of a witness is a value, not an
error.

One enumerator, _instance_chunks, serves every consumer: enumerate_instances,
iter_witnesses and find_witness, count_witnesses, and the search's instance
index.  It assigns one variable per depth, on numpy columns holding a row per
prefix, and prunes two ways, both sound over positive assignments:
  * a term whose coefficients are all positive is monotone in every variable,
    so its value at the prefix padded with ones is a lower bound over the
    subtree.  At depth d each row keeps x_d in [lo .. vmax], vmax being the
    largest value that holds every such term still open at depth d within N
    (one floor division when the term is linear in x_d, a short bisection
    otherwise);
  * once a term's variables are all assigned, its value must lie in [1..N];
    terms with a nonpositive coefficient filter the rows here.
The ragged ranges are expanded with repeat/cumsum, so the cost grows with the
admissible prefixes and instances (about N log N for {x, x+y, xy}), not with
the [1..N]^s box.

Chunks: at each depth the children are cut into windows, and each window is
finished depth-first before the next, which keeps the lexicographic order and
bounds memory.  The windows start at 2^10 rows, so find_witness builds little
beyond its answer, and double up to 2^16.  At that cap an int64 column is
512 KiB, so the columns one numpy operation touches stay in cache, and the
enumerator holds one window per depth whatever N is.  A window repeats each
parent's columns over its children (np.repeat) rather than building a parent
index and gathering through it.

Small enumerations are cached: _small_stream, an lru_cache of 64 entries
keyed by (terms, N, box), holds the read-only chunks of each stream of at
most _FIRST_CHUNK rows, or None for a stream that passes that bound, so at
most 64 * 2^10 = 2^16 rows in all (about 3 MB for six columns).  The
enumerator is deterministic, so a served stream equals a fresh run.  A
stream cached as None is enumerated afresh, lazily, on every request; the
first request for its key has already enumerated it past _FIRST_CHUNK rows
to learn that.

Overflow: when max_abs_on_box proves every term stays below 2^62 in absolute
value over the box the columns are int64; otherwise the same code runs on
object arrays of Python ints, exactly.  Value columns are int64 either way,
since admissible values lie in [1..N].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .coloring import Coloring
from .families import PatternFamily, _json_int, _json_ints
from .polynomials import IntPoly

__all__ = [
    "Instance",
    "Witness",
    "VerifyResult",
    "enumerate_instances",
    "iter_witnesses",
    "find_witness",
    "count_witnesses",
    "verify_witness",
    "witness_to_json",
    "witness_from_json",
]

Box = tuple[tuple[int, int], ...]

# the enumerator's windows start at this many rows and double up to the cap
_FIRST_CHUNK = 1 << 10
_MAX_CHUNK = 1 << 16
# int64 is safe while |term| stays below this (headroom under 2^63)
_INT64_SAFE = 1 << 62

Chunk = tuple[list[np.ndarray], list[np.ndarray]]


@dataclass(frozen=True)
class Instance:
    assignment: tuple[int, ...]
    term_values: tuple[int, ...]


@dataclass(frozen=True)
class Witness(Instance):
    color: int


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _normalize_box(family: PatternFamily, n: int, box: Sequence | None) -> Box:
    if box is None:
        return tuple((1, n) for _ in range(family.num_vars))
    if isinstance(box, int):
        return tuple((1, box) for _ in range(family.num_vars))
    out = []
    for entry in box:
        if isinstance(entry, int):
            out.append((1, entry))
        else:
            lo, hi = entry
            out.append((int(lo), int(hi)))
    if len(out) != family.num_vars:
        raise ValueError(f"box needs {family.num_vars} entries, got {len(out)}")
    for lo, hi in out:
        if lo < 1:
            raise ValueError("box lower bounds must be >= 1 (assignments are positive)")
    return tuple(out)


def _last_var(term: IntPoly) -> int:
    used = term.used_vars()
    return max(used) if used else -1


def _int64_safe(terms: tuple[IntPoly, ...], nb: Box) -> bool:
    bounds = [hi for _, hi in nb]
    return max(bounds) < _INT64_SAFE and all(
        t.max_abs_on_box(bounds) < _INT64_SAFE for t in terms
    )


def _eval_term_on_columns(term: IntPoly, cols: list[np.ndarray]) -> np.ndarray:
    """The term's value on every row of the columns, in the columns' dtype.

    The result may be one of the columns itself; callers never write into it.
    Only terms with a variable come here, so the term has a monomial.
    """
    total = None
    for exps, c in term.monomials:
        m = None
        for i, e in enumerate(exps):
            if e:
                f = cols[i] if e == 1 else cols[i] ** e
                m = f if m is None else m * f
        if m is None:
            m = np.full(cols[0].shape, c, dtype=cols[0].dtype)
        elif c != 1:
            m = m * c
        total = m if total is None else total + m
    return total


def _map_columns(f, cols: list[np.ndarray], vals: list[np.ndarray]):
    """(f of each assignment column, f of each value column).

    A value column that is an assignment column itself (a term that is
    exactly x_i) maps to that column's result, so it is built once and the
    two stay one array.
    """
    mapped = [f(c) for c in cols]
    shared = {id(c): m for c, m in zip(cols, mapped)}
    return mapped, [shared[id(x)] if id(x) in shared else f(x) for x in vals]


def _bound_coefficients(term: IntPoly, d: int) -> dict[int, int | IntPoly]:
    """The term at (x_0..x_{d-1}, v, 1, ..., 1) as a polynomial in v.

    Maps each power of v to its coefficient: an int when it does not depend
    on the prefix, else a polynomial in x_0..x_{d-1}.
    """
    nv = term.num_vars
    grouped: dict[int, list] = {}
    for exps, c in term.monomials:
        grouped.setdefault(exps[d], []).append((exps[:d] + (0,) * (nv - d), c))
    out: dict[int, int | IntPoly] = {}
    for e, monos in grouped.items():
        poly = IntPoly(nv, monos)
        out[e] = poly.constant_term() if not poly.used_vars() else poly
    return out


def _largest_v(coefs: dict, n: int, lo: int, hi: int, rows: int, dtype):
    """Per row, the largest v with sum_e coefs[e] * v**e <= n; below lo when
    v = lo already exceeds n.

    The coefficients are nonnegative (the term's coefficients are positive),
    so the sum is nondecreasing in v.  Linear sums are solved directly (one
    int for every row when no coefficient depends on the prefix) and may
    exceed hi; higher powers bisect in [lo-1 .. hi].
    """
    deg = max(coefs)
    if deg == 1:
        return (n - coefs.get(0, 0)) // coefs[1]
    below = np.full(rows, lo - 1, dtype=dtype)
    above = np.full(rows, hi, dtype=dtype)
    while (below < above).any():
        mid = (below + above + 1) // 2
        ok = sum(c * mid**e for e, c in coefs.items()) <= n
        below = np.where(ok, mid, below)
        above = np.where(ok, above, mid - 1)
    return below


@functools.lru_cache(maxsize=256)
def _depth_plan(terms: tuple[IntPoly, ...]):
    """What the enumerator needs at each depth d, for one term list.

    Returns (constants, positive, finishing, bounds): the value of each term
    without variables, by term index; whether each term has only positive
    coefficients; finishing[d], the terms whose last variable is x_d; and
    bounds[d], the _bound_coefficients of every positive term that uses x_d
    and is still open at depth d (its last variable is x_d or later).  A
    term without x_d needs no bound at depth d: its value at the padded
    prefix was bounded at the depth of its previous variable, and a term
    with none is bounded from its first variable on.
    """
    nv = terms[0].num_vars
    last = [_last_var(t) for t in terms]
    constants = {i: t.constant_term() for i, t in enumerate(terms) if last[i] == -1}
    positive = [t.all_coeffs_positive() for t in terms]
    finishing = [[i for i in range(len(terms)) if last[i] == d] for d in range(nv)]
    bounds = [
        [
            _bound_coefficients(t, d)
            for t, lv, pos in zip(terms, last, positive)
            if pos and lv >= d and d in t.used_vars()
        ]
        for d in range(nv)
    ]
    return constants, positive, finishing, bounds


@functools.lru_cache(maxsize=64)
def _small_stream(terms: tuple[IntPoly, ...], n: int, nb: Box) -> tuple[Chunk, ...] | None:
    """Every chunk of the stream over nb, read-only, when it has at most
    _FIRST_CHUNK rows in all; None once it passes that bound."""
    chunks, rows = [], 0
    for cols, vals in _enumerate_chunks(terms, n, nb):
        rows += len(cols[0])
        if rows > _FIRST_CHUNK:
            return None
        chunks.append((cols, vals))
    return tuple(chunks)


def _instance_chunks(
    family: PatternFamily, n: int, box: Sequence | None = None
) -> Iterator[Chunk]:
    """The admissible instances over the box, as column chunks in lex order.

    Each chunk is (assignment columns, term-value columns in term order); the
    value columns are int64, the assignment columns int64 or, when int64 is
    not provably safe, object arrays of Python ints.  No chunk is empty, and
    none has more than _MAX_CHUNK rows.  The columns are read-only, since a
    small stream's are served from the _small_stream cache; the two lists of
    each chunk are the caller's own.

    On the int64 path the value column of a term that is exactly x_i is the
    assignment column x_i itself, not a copy.
    """
    if n < 1:
        raise ValueError("N must be >= 1")
    nb = _normalize_box(family, n, box)
    small = _small_stream(family.terms, n, nb)
    if small is None:
        yield from _enumerate_chunks(family.terms, n, nb)
    else:
        for cols, vals in small:
            yield list(cols), list(vals)


def _enumerate_chunks(terms: tuple[IntPoly, ...], n: int, nb: Box) -> Iterator[Chunk]:
    """_instance_chunks without the cache, over the normalized box nb; the
    columns it yields are read-only."""
    nv = len(nb)
    constants, positive, finishing, bounds = _depth_plan(terms)
    # constant terms either kill everything or impose nothing
    if any(not 1 <= c <= n for c in constants.values()):
        return
    dtype = np.int64 if _int64_safe(terms, nb) else object
    carried = [i for f in finishing for i in f]  # order of the value columns carried down
    slot = {i: pos for pos, i in enumerate(carried)}

    def child_counts(d: int, cols: list[np.ndarray], rows: int) -> np.ndarray:
        # children of each row: v in [lo .. vmax], where vmax is hi lowered to
        # keep every positive term that is still open at depth d within n
        lo, hi = nb[d]
        vmax = np.full(rows, hi, dtype=dtype)
        for coefs in bounds[d]:
            evaluated = {
                e: c if isinstance(c, int) else _eval_term_on_columns(c, cols)
                for e, c in coefs.items()
            }
            vmax = np.minimum(vmax, _largest_v(evaluated, n, lo, hi, rows, dtype))
        return np.maximum(vmax - lo + 1, 0).astype(np.int64, copy=False)

    size = _FIRST_CHUNK

    def descend(d, cols, vals, counts):
        # cols/vals: rows at depth d (prefixes x_0..x_{d-1}); counts: their children
        nonlocal size
        lo = nb[d][0]
        cum = np.cumsum(counts)
        total = int(cum[-1])
        first = cum - counts  # global index of each row's first child
        start = 0
        while start < total:
            stop = min(total, start + size)
            size = min(2 * size, _MAX_CHUNK)
            if d == 0:
                kids, kvals = [np.arange(start, stop, dtype=np.int64)], []
            else:
                # the parents of children start..stop-1, and how many each has there
                p0 = int(np.searchsorted(cum, start, side="right"))
                p1 = int(np.searchsorted(cum, stop - 1, side="right")) + 1
                ends = np.minimum(cum[p0:p1], stop) - start
                reps = np.concatenate((ends[:1], ends[1:] - ends[:-1]))
                kids, kvals = _map_columns(lambda a: np.repeat(a[p0:p1], reps), cols, vals)
                kids.append(np.arange(start, stop, dtype=np.int64) - np.repeat(first[p0:p1], reps))
            start = stop
            # the new column holds offsets from lo so far; lo may exceed int64
            kids[-1] = (kids[-1] if dtype is not object else kids[-1].astype(object)) + lo
            keep = None
            for i in finishing[d]:
                val = _eval_term_on_columns(terms[i], kids)
                if not positive[i]:  # positive terms are within [1..n] by vmax
                    ok = (val >= 1) & (val <= n)
                    keep = ok if keep is None else keep & ok
                kvals.append(val)
            if keep is not None and not keep.all():
                if not keep.any():
                    continue
                kids, kvals = _map_columns(lambda a: a[keep], kids, kvals)
            fresh = len(finishing[d])
            if dtype is object and fresh:  # the values are in [1..n] now
                kvals[-fresh:] = [x.astype(np.int64) for x in kvals[-fresh:]]
            rows = len(kids[0])
            if d + 1 < nv:
                yield from descend(d + 1, kids, kvals, child_counts(d + 1, kids, rows))
                continue
            kvals = [
                kvals[slot[i]] if i in slot else np.full(rows, constants[i], dtype=np.int64)
                for i in range(len(terms))
            ]
            for a in (*kids, *kvals):
                a.flags.writeable = False
            yield kids, kvals

    counts0 = int(np.min(child_counts(0, [], 1)))
    if counts0 > 0:
        yield from descend(0, [], [], np.array([counts0], dtype=np.int64))


def enumerate_instances(
    family: PatternFamily, n: int, box: Sequence | None = None
) -> Iterator[Instance]:
    """Yield admissible instances in lexicographic assignment order."""
    for cols, vals in _instance_chunks(family, n, box):
        rows = zip(zip(*(c.tolist() for c in cols)), zip(*(x.tolist() for x in vals)))
        for assignment, values in rows:
            yield Instance(assignment, values)


def _color_table(coloring: Coloring) -> np.ndarray:
    """The colors indexed by value: table[v] is the color of v, table[0] unused."""
    return np.concatenate((np.zeros(1, dtype=coloring.colors.dtype), coloring.colors))


def _witness_mask(vals: list[np.ndarray], table: np.ndarray, distinct: bool):
    """(rows whose values share one color and, if asked, are distinct; that color).

    table is _color_table of the coloring.
    """
    c0 = table[vals[0]]
    ok = table[vals[1]] == c0 if len(vals) > 1 else np.ones(len(c0), dtype=bool)
    for v in vals[2:]:
        ok &= table[v] == c0
    if distinct:
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                ok &= vals[i] != vals[j]
    return ok, c0


def iter_witnesses(
    family: PatternFamily,
    coloring: Coloring,
    *,
    distinct: bool | None = None,
    box: Sequence | None = None,
) -> Iterator[Witness]:
    """Witnesses in lexicographic assignment order (streaming)."""
    if distinct is None:
        distinct = family.distinct_required
    table = _color_table(coloring)
    for cols, vals in _instance_chunks(family, coloring.n, box):
        ok, c0 = _witness_mask(vals, table, distinct)
        (hits,) = np.nonzero(ok)
        if not len(hits):
            continue
        assignments = zip(*(c[hits].tolist() for c in cols))
        values = zip(*(x[hits].tolist() for x in vals))
        for a, v, c in zip(assignments, values, c0[hits].tolist()):
            yield Witness(a, v, c)


def find_witness(
    family: PatternFamily,
    coloring: Coloring,
    *,
    distinct: bool | None = None,
    box: Sequence | None = None,
) -> Witness | None:
    """Lexicographically smallest witness, or None."""
    return next(iter_witnesses(family, coloring, distinct=distinct, box=box), None)


def count_witnesses(
    family: PatternFamily,
    coloring: Coloring,
    *,
    distinct: bool | None = None,
    box: Sequence | None = None,
) -> int:
    """Exact witness count."""
    if distinct is None:
        distinct = family.distinct_required
    table = _color_table(coloring)
    total = 0
    for _, vals in _instance_chunks(family, coloring.n, box):
        total += int(np.count_nonzero(_witness_mask(vals, table, distinct)[0]))
    return total


def _check_instance(
    family: PatternFamily, n: int, instance: Instance, distinct: bool | None
) -> str | None:
    """verify_witness without the colors: why the instance fails, or None."""
    if distinct is None:
        distinct = family.distinct_required
    if len(instance.assignment) != family.num_vars:
        return "assignment arity mismatch"
    if any(v < 1 for v in instance.assignment):
        return "assignment entries must be positive"
    if len(instance.term_values) != len(family.terms):
        return "term value count mismatch"
    for i, t in enumerate(family.terms):
        val = t.evaluate(instance.assignment)
        if val != instance.term_values[i]:
            return f"term {i + 1} value {instance.term_values[i]} != recomputed {val}"
        if not 1 <= val <= n:
            return f"term {i + 1} out of range"
    if distinct and len(set(instance.term_values)) != len(instance.term_values):
        return "term values not pairwise distinct"
    return None


def verify_witness(
    family: PatternFamily,
    coloring: Coloring,
    witness: Witness,
    *,
    distinct: bool | None = None,
) -> VerifyResult:
    """Re-check a witness from scratch; the reason pinpoints the first failure.

    Term positions in reasons are 1-based.
    """
    reason = _check_instance(family, coloring.n, witness, distinct)
    if reason is not None:
        return VerifyResult(False, reason)
    for i, val in enumerate(witness.term_values):
        c = coloring.color_of(val)
        if c != witness.color:
            return VerifyResult(False, f"term {i + 1} colored {c} != {witness.color}")
    return VerifyResult(True, None)


def witness_to_json(family: PatternFamily, coloring: Coloring, witness: Witness) -> dict:
    return {
        "family_name": family.name,
        "family": family.to_json(),
        "n": coloring.n,
        "r": coloring.r,
        "assignment": list(witness.assignment),
        "term_values": list(witness.term_values),
        "color": witness.color,
    }


def witness_from_json(data: dict) -> tuple[Witness, PatternFamily | None]:
    """Rebuild a witness (and the embedded family, when present)."""
    w = Witness(
        tuple(_json_ints(data["assignment"], "witness 'assignment'")),
        tuple(_json_ints(data["term_values"], "witness 'term_values'")),
        _json_int(data["color"], "witness 'color'"),
    )
    fam = PatternFamily.from_json(data["family"]) if "family" in data else None
    return w, fam
