"""Avoiding-coloring search and threshold numbers.

An r-coloring of [1..N] *avoids* a family when no admissible instance is
monochromatic; the threshold T(P, r) is the least N with no avoiding
coloring.  The search is a backtracking DFS over positions 1..N in fixed
order, with forward checking (Haralick & Elliott, AIJ 1980):

  * every admissible value set is indexed once by its second-largest member
    p, as (top, lower members other than p), sorted by top; a singleton set
    {v} is stored under 0 and leaves position v no color at all;
  * each position keeps a bitmask of the colors still open to it.  Placing
    color c at p removes c from the top of every set indexed under p whose
    lower members are all colored c (the top is that set's only uncolored
    member), and the branch dies as soon as some mask is empty.  The
    removals are trailed per position and restored on backtracking;
  * symmetry breaking is the canonical color-introduction rule -- position 1
    takes color 1 and each new color label appears in increasing order --
    which divides the tree by up to r! and keeps the first avoider
    deterministic (forward checking prunes dead subtrees earlier but never
    reorders them, so the lexicographically first avoider is unchanged);
  * a node is one color placed; node and wall-clock budgets surface as
    SearchBudgetExceeded, a first-class outcome distinct from "no avoider".

threshold runs one search that grows with N (incremental as in Een &
Sorensson, SAT 2003).  It yields the lex-first avoider at N and opens N+1 in
place: each color that some set with top N+1 has on all lower members is
struck from N+1.  If that empties N+1, the search undoes N down to the p of
the emptying strike and tries p's next color, where a fresh search at N+1
would first fail.  The index doubles (capped at max_n) whenever N outgrows
it; for a box-complete family the sets at N are those with top <= N, so the
live state stays valid.  Only the reported avoider goes through
count_witnesses.  When a budget runs out, the exception carries the partial
ThresholdResult: the bound proven so far.

There is no parallel mode; ``jobs`` is accepted only as 1.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .coloring import Coloring
from .families import PatternFamily, _json_bool, _json_int
from .witnesses import _instance_chunks, count_witnesses

__all__ = [
    "AvoidCertificate",
    "ThresholdResult",
    "SearchStats",
    "SearchBudgetExceeded",
    "IncompleteBoxError",
    "build_instance_index",
    "exists_avoiding",
    "find_all_avoiding",
    "threshold",
    "greedy_avoider",
    "verify_certificate",
]


class IncompleteBoxError(ValueError):
    """The family admits assignments outside [1..N]^s, so [1..N]-search is unsound."""


class SearchBudgetExceeded(RuntimeError):
    """Node or time budget ran out before the question was decided.

    Raised by threshold, it carries the bound proven so far in ``partial``
    (exact=False, with the verified avoider below the undecided N).
    """

    def __init__(
        self, message: str, nodes: int = 0, partial: "ThresholdResult | None" = None
    ):
        super().__init__(message)
        self.nodes = nodes
        self.partial = partial


@dataclass
class SearchStats:
    nodes: int = 0


@dataclass
class AvoidCertificate:
    """An avoiding coloring of a family, self-contained for re-verification.
    box_relative: the family is not box-complete, so only [1..n]^s is covered."""

    family: PatternFamily
    coloring: Coloring

    @property
    def n(self) -> int:
        return self.coloring.n

    @property
    def r(self) -> int:
        return self.coloring.r

    @property
    def rle(self) -> list[list[int]]:
        return self.coloring.to_rle()

    @property
    def box_relative(self) -> bool:
        return not self.family.box_complete()

    def to_json(self) -> dict:
        return {
            "family_name": self.family.name,
            "family": self.family.to_json(),
            "fingerprint": self.family.fingerprint(),
            "n": self.n,
            "r": self.r,
            "coloring_rle": self.rle,
            "verified": True,  # the package writes only the certificates _certify checked
            "box_relative": self.box_relative,
        }

    @classmethod
    def from_json(cls, data: dict) -> "AvoidCertificate":
        """The certificate a JSON object holds: ValueError unless n and r are JSON
        integers, the runs decode (Coloring.from_rle), the flags are JSON booleans
        and box_relative is "not box-complete".  "verified" is never trusted."""
        family = PatternFamily.from_json(data["family"])
        coloring = Coloring.from_rle(_json_int(data["n"], "certificate 'n'"),
                                     _json_int(data["r"], "certificate 'r'"), data["coloring_rle"])
        _json_bool(data.get("verified", False), "certificate 'verified'")
        box_relative = _json_bool(data.get("box_relative", False), "certificate 'box_relative'")
        if box_relative == family.box_complete():
            raise ValueError(f"certificate has box_relative={str(box_relative).lower()} for "
                             f"a family that is {'' if box_relative else 'not '}box-complete")
        return cls(family, coloring)


@dataclass
class ThresholdResult:
    family_name: str | None
    fingerprint: str
    r: int
    value: int
    exact: bool
    certificate: AvoidCertificate | None
    nodes: int = 0

    def describe(self) -> str:
        return f"T = {self.value}" if self.exact else f"T >= {self.value}"

    def to_json(self) -> dict:
        return {
            "family_name": self.family_name,
            "fingerprint": self.fingerprint,
            "r": self.r,
            "value": self.value,
            "exact": self.exact,
            "certificate": self.certificate.to_json() if self.certificate else None,
            "nodes": self.nodes,
        }


# threshold's first index size; it doubles whenever N outgrows it
_FIRST_INDEX_SIZE = 16


def build_instance_index(
    family: PatternFamily, n: int
) -> list[list[tuple[int, tuple[int, ...]]]]:
    """buckets[p] = sorted (top, others) of the admissible value sets whose
    second-largest member is p: top is the largest member, others the members
    below p.  A singleton set {v} is stored as (v, ()) in buckets[0].

    Sorting by top makes the sets inside [1..m] a prefix of every bucket.
    """
    value_sets: set[tuple[int, ...]] = set()
    for _, vals in _instance_chunks(family, n):
        table = np.sort(np.stack(vals, axis=1), axis=1)
        repeated = table[:, 1:] == table[:, :-1]
        if family.distinct_required:
            table = table[~repeated.any(axis=1)]
        else:
            # a repeated member becomes 0, and the zeros sort to the front
            table[:, 1:][repeated] = 0
            table.sort(axis=1)
        value_sets.update(map(tuple, table.tolist()))
    buckets: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(n + 1)]
    for row in value_sets:
        vs = row[row.count(0):]
        if len(vs) == 1:
            buckets[0].append((vs[0], ()))
        else:
            buckets[vs[-2]].append((vs[-1], vs[:-2]))
    for bucket in buckets:
        bucket.sort()
    return buckets


class _Search:
    """One forward-checking search over positions 1..n, where n grows to max_n.

    Per position: its color (kept after an undo, so the next color to try is
    one above it; a fresh position is set to 0), the bitmask of colors still
    open (``dom``), the tops its color struck (``removed``) and the largest
    color below it (``used``).  ``index[p]`` holds the value sets by
    second-largest member p; ``by_top[t]`` holds their (p, others) by top t,
    in ascending p.  Only the sets with top <= n take part.  It refuses
    r < 1, max_n < 1 and, unless box_relative, a box-incomplete family.
    ``run`` yields the avoiders; ``nodes`` is all that is read back.
    """

    def __init__(self, family: PatternFamily, r: int, max_n: int, *, n: int, size: int,
                 box_relative: bool = False):
        if r < 1 or max_n < 1:
            raise ValueError("need r >= 1 and n >= 1")
        if not family.box_complete() and not box_relative:
            missing = sorted(set(range(family.num_vars)) - set(family.bounded_vars()))
            raise IncompleteBoxError(f"variables {missing} are not bounded by any all-positive "
                                     "term; a box-relative search needs allow_box_relative=True "
                                     "(avoid --box-relative)")
        self.family, self.r, self.max_n, self.n = family, r, max_n, n
        self.colors, self.dom, self.removed, self.used = [], [], [], []
        self._grow(size)

    def _grow(self, size: int) -> None:
        """Index the value sets inside [1..size] and make room for its positions."""
        self.index = build_instance_index(self.family, size)
        self.by_top: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(size + 1)]
        for p in range(1, size + 1):
            for top, others in self.index[p]:
                self.by_top[top].append((p, others))
        extra = size + 2 - len(self.colors)
        self.colors += [0] * extra
        self.dom += [(1 << self.r) - 1] * extra
        self.removed += [[] for _ in range(extra)]
        self.used += [0] * extra
        for top, _ in self.index[0]:  # a singleton {top} leaves top no color
            self.dom[top] = 0
        self.size = size

    def place(self, p: int, c: int) -> bool:
        """Color p with c and strike c from each top it completes; False once a mask empties."""
        colors, dom, n = self.colors, self.dom, self.n
        colors[p] = c
        bit = 1 << (c - 1)
        removed = self.removed[p]
        for top, others in self.index[p]:
            if top > n:
                break
            if dom[top] & bit:
                for o in others:
                    if colors[o] != c:
                        break
                else:
                    dom[top] ^= bit
                    removed.append(top)
                    if not dom[top]:
                        return False
        return True

    def undo(self, p: int) -> None:
        bit = 1 << (self.colors[p] - 1)
        dom = self.dom
        removed = self.removed[p]
        for top in removed:
            dom[top] |= bit
        removed.clear()

    def open(self) -> int:
        """Open position n+1 next to the colored 1..n: strike each color that
        some set with top n+1 has on all lower members, on the trail of the
        lowest such p.  Returns the p whose strike empties n+1, else 0."""
        m = self.n = self.n + 1
        if m > self.size:
            self._grow(min(self.max_n, max(2 * self.size, _FIRST_INDEX_SIZE)))
        colors, dom, removed = self.colors, self.dom, self.removed
        for p, others in self.by_top[m]:
            c = colors[p]
            bit = 1 << (c - 1)
            if dom[m] & bit:
                for o in others:
                    if colors[o] != c:
                        break
                else:
                    dom[m] ^= bit
                    removed[p].append(m)
                    if not dom[m]:
                        return p
        return 0

    def run(self, cap: float, deadline: float) -> Iterator[list[int]]:
        """Canonical DFS from position 1, as color lists: the lex-first avoider
        at each n < max_n it holds, opening n+1 after it, then every avoider at
        max_n in lex order; it ends when [1..n] has none.  ``nodes``, the
        colors placed so far, is current at each item and at the end."""
        r, max_n = self.r, self.max_n
        colors, dom, used = self.colors, self.dom, self.used
        place, undo = self.place, self.undo
        n, nodes, tick = self.n, 0, 2048  # the clock is read every 2048 nodes
        pos = 1
        while pos:
            c = colors[pos] + 1
            limit = min(r, used[pos] + 1)
            open_colors = dom[pos]
            while c <= limit:
                if open_colors >> (c - 1) & 1:
                    nodes += 1
                    if nodes > cap:
                        raise SearchBudgetExceeded("node budget exceeded", nodes)
                    if nodes >= tick:
                        if time.monotonic() > deadline:
                            raise SearchBudgetExceeded("time limit exceeded", nodes)
                        tick = nodes + 2048
                    if place(pos, c):
                        break
                    undo(pos)
                c += 1
            else:
                pos -= 1
                if pos:
                    undo(pos)
                continue
            used[pos + 1] = max(used[pos], c)
            if pos < n:
                pos += 1
                colors[pos] = 0
                continue
            self.nodes = nodes
            yield colors[1 : n + 1]
            if n == max_n:
                undo(pos)  # keep scanning siblings
            else:
                p = self.open()
                n += 1
                colors[n] = 0
                pos = p or n  # if n emptied, p is where a fresh search would fail
                for q in range(n - 1, pos - 1, -1):
                    undo(q)
        self.nodes = nodes


def _budget(max_nodes: int | None, time_limit: float | None) -> tuple[float, float]:
    """(node cap, deadline) of a search; a budget of 0 is valid, a negative one is not."""
    if (max_nodes or 0) < 0 or (time_limit or 0) < 0:
        raise ValueError(f"need budgets >= 0 (max_nodes={max_nodes}, time_limit={time_limit})")
    cap = float("inf") if max_nodes is None else max_nodes
    return cap, float("inf") if time_limit is None else time.monotonic() + time_limit


def _require_single_job(jobs: int) -> None:
    if jobs != 1:
        raise ValueError(f"jobs={jobs}: the search runs in one process, so jobs must be 1")


def _certify(family: PatternFamily, solution: list[int], r: int) -> AvoidCertificate:
    """The certificate of a search answer, passed by verify_certificate (which
    is not independent of the search)."""
    cert = AvoidCertificate(family, Coloring.from_sequence(solution, r))
    if not verify_certificate(cert):
        raise RuntimeError("internal error: search returned a non-avoiding coloring")
    return cert


def exists_avoiding(
    family: PatternFamily,
    r: int,
    n: int,
    *,
    jobs: int = 1,
    max_nodes: int | None = None,
    time_limit: float | None = None,
    allow_box_relative: bool = False,
    stats: SearchStats | None = None,
) -> AvoidCertificate | None:
    """First avoiding coloring in canonical order, as a verified certificate.

    Box-incomplete families are rejected unless allow_box_relative is set, in
    which case the certificate has box_relative=True (the search then
    only rules out instances with assignments inside [1..N]^s).
    """
    _require_single_job(jobs)
    cap, deadline = _budget(max_nodes, time_limit)
    search = _Search(family, r, n, n=n, size=n, box_relative=allow_box_relative)
    first = next(search.run(cap, deadline), None)
    if stats is not None:
        stats.nodes += search.nodes
    return None if first is None else _certify(family, first, r)


def find_all_avoiding(family: PatternFamily, r: int, n: int) -> list[tuple[int, ...]]:
    """Every canonical avoiding coloring (for naive-equivalence checks)."""
    return list(map(tuple, _Search(family, r, n, n=n, size=n).run(float("inf"), float("inf"))))


def threshold(
    family: PatternFamily,
    r: int,
    max_n: int,
    *,
    jobs: int = 1,
    max_nodes: int | None = None,
    time_limit: float | None = None,
) -> ThresholdResult:
    """Least N <= max_n with no avoiding coloring; lower bound when none.

    Exact results carry the avoider at T-1; lower bounds (exact=False,
    value = max_n+1) carry the avoider at max_n.  The budgets cover the whole
    run; when one runs out at N, the SearchBudgetExceeded raised carries
    ``partial``: T >= N with the avoider at N-1.

    One search runs from N=1 up and opens N+1 in place once it holds the
    avoider at N.  ``nodes``, which max_nodes bounds, counts the colors it
    places.
    """
    _require_single_job(jobs)
    cap, deadline = _budget(max_nodes, time_limit)
    search = _Search(family, r, max_n, n=1, size=min(max_n, _FIRST_INDEX_SIZE))

    def result(value: int, exact: bool, avoider: list[int] | None, nodes: int) -> ThresholdResult:
        cert = _certify(family, avoider, r) if avoider else None
        return ThresholdResult(family.name, family.fingerprint(), r, value, exact, cert, nodes)

    avoider = None  # the latest yielded: the lex-first at search.n - 1 until one at max_n
    try:
        for avoider in search.run(cap, deadline):
            if len(avoider) == max_n:
                return result(max_n + 1, False, avoider, search.nodes)
    except SearchBudgetExceeded as e:
        partial = result(search.n, False, avoider, e.nodes)
        raise SearchBudgetExceeded(
            f"threshold undecided at N={search.n}: {e}", e.nodes, partial
        ) from None
    return result(search.n, True, avoider, search.nodes)


def greedy_avoider(
    family: PatternFamily,
    r: int,
    n: int,
    strategy: str = "first-fit",
    *,
    seed: int = 0,
    restarts: int = 32,
) -> AvoidCertificate | None:
    """Heuristic avoider: no backtracking, so failure proves nothing.

    first-fit: each position takes the smallest color still open to it
    (deterministic, single pass).  random: uniform choice among the open
    colors, with restarts.  A successful coloring is certified through one
    count_witnesses check.
    """
    if r < 1 or restarts < 1:
        raise ValueError("need r >= 1 and restarts >= 1")
    if strategy not in ("first-fit", "random"):
        raise ValueError(f"unknown strategy {strategy!r} (first-fit or random)")
    search = _Search(family, r, n, n=0, size=n, box_relative=True)

    def one_pass(pick) -> list[int] | None:
        for pos in range(1, n + 1):
            search.open()
            legal = [c for c in range(1, r + 1) if search.dom[pos] >> (c - 1) & 1]
            if not legal:
                for placed in range(pos - 1, 0, -1):  # a restart starts from nothing
                    search.undo(placed)
                search.n = 0
                return None
            search.place(pos, pick(legal))
        return search.colors[1 : n + 1]

    pick = random.Random(seed).choice if strategy == "random" else lambda legal: legal[0]
    for _ in range(restarts if strategy == "random" else 1):
        result = one_pass(pick)
        if result is not None:
            return _certify(family, result, r)
    return None


def verify_certificate(cert: AvoidCertificate) -> bool:
    """Recompute the zero-witness claim: True when no admissible instance is
    monochromatic under the certificate's coloring.  AvoidCertificate.from_json
    checks its runs and its box_relative flag where a certificate is read.

    The recount runs the search's own instance enumerator, and for a small
    (family, N) the chunks it cached (witnesses._small_stream); a checker
    that shares nothing with the search is ROADMAP item 4."""
    return count_witnesses(cert.family, cert.coloring) == 0
