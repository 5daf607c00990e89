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
  * node and wall-clock budgets surface as SearchBudgetExceeded, a
    first-class outcome distinct from "no avoider".

threshold indexes once, at a size that doubles (capped at max_n) whenever N
outgrows it: for a box-complete family the sets at N are exactly those whose
top is <= N.  The search at N+1 resumes from the path of the lex-first
avoider at N, since every canonical coloring before that path was refuted at
N and the sets at N are among those at N+1.  Only an answer is checked with
count_witnesses: the avoider a search reports becomes a certificate through
one independent count over [1..N].  An intermediate avoider is only a resume
path, and the replay tests each of its colors against the mask it meets: a
color already struck from its position would complete a monochromatic set.
When a budget runs out, threshold keeps the bound it has proven: the
exception carries the partial ThresholdResult.

There is no parallel mode; ``jobs`` is accepted only as 1.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from .coloring import Coloring
from .families import PatternFamily
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
    """A checked avoiding coloring, self-contained for later re-verification."""

    family: PatternFamily
    n: int
    r: int
    rle: list[list[int]]
    verified: bool = False
    box_relative: bool = False

    def to_coloring(self) -> Coloring:
        return Coloring.from_rle(self.n, self.r, self.rle)

    def to_json(self) -> dict:
        return {
            "family_name": self.family.name,
            "family": self.family.to_json(),
            "fingerprint": self.family.fingerprint(),
            "n": self.n,
            "r": self.r,
            "coloring_rle": [list(run) for run in self.rle],
            "verified": self.verified,
            "box_relative": self.box_relative,
        }

    @classmethod
    def from_json(cls, data: dict) -> "AvoidCertificate":
        return cls(
            PatternFamily.from_json(data["family"]),
            int(data["n"]),
            int(data["r"]),
            [list(run) for run in data["coloring_rle"]],
            bool(data.get("verified", False)),
            bool(data.get("box_relative", False)),
        )


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


class _Domains:
    """Colors of positions 1..n and the bitmask of colors still open to each.

    Only the value sets of ``index`` whose top is <= n take part.
    """

    def __init__(self, index: list[list[tuple[int, tuple[int, ...]]]], n: int, r: int):
        self.index = index
        self.n = n
        self.colors = [0] * (n + 1)
        self.dom = [(1 << r) - 1] * (n + 1)
        for top, _ in index[0]:
            if top > n:
                break
            self.dom[top] = 0
        self.removed: list[list[int]] = [[] for _ in range(n + 1)]

    def place(self, p: int, c: int, complete: bool = False) -> bool:
        """Color p with c and take c from every top that c would complete.

        Returns False as soon as a mask empties; with ``complete`` the
        remaining removals are still made (greedy reads every later mask).
        """
        colors, dom, n = self.colors, self.dom, self.n
        colors[p] = c
        bit = 1 << (c - 1)
        removed = self.removed[p]
        alive = True
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
                        if not complete:
                            return False
                        alive = False
        return alive

    def undo(self, p: int) -> None:
        bit = 1 << (self.colors[p] - 1)
        dom = self.dom
        removed = self.removed[p]
        for top in removed:
            dom[top] |= bit
        removed.clear()
        self.colors[p] = 0


def _dfs(
    index: list[list[tuple[int, tuple[int, ...]]]],
    n: int,
    r: int,
    path: list[int] | tuple[int, ...],
    max_nodes: int | None,
    deadline: float | None,
    find_all: bool = False,
) -> tuple[list[list[int]], int]:
    """Canonical forward-checking DFS over [1..n], resuming at ``path``.

    ``path`` (shorter than n) is a canonical coloring of a prefix whose
    lexicographic predecessors are known dead; the DFS starts as if it had
    descended along it.  A path color already struck from its position
    completes a monochromatic set, so the path is no avoider and the replay
    raises RuntimeError.  Returns (solutions, nodes): the first avoiding
    coloring, or every one of them with find_all, as plain color lists.
    """
    cap = max_nodes if max_nodes is not None else float("inf")
    d = _Domains(index, n, r)
    colors, dom, place, undo = d.colors, d.dom, d.place, d.undo
    used = [0] * (n + 2)  # used[p] = largest color on 1..p-1
    trial = [1] * (n + 2)  # next color to try at p
    found: list[list[int]] = []
    nodes = 0
    pos = 1
    for c in path:
        if not dom[pos] >> (c - 1) & 1:
            raise RuntimeError(
                f"internal error: the resume path completes a monochromatic set at {pos}"
            )
        nodes += 1
        trial[pos] = c + 1
        if not place(pos, c):
            undo(pos)
            break
        used[pos + 1] = max(used[pos], c)
        pos += 1
    while pos >= 1:
        c = trial[pos]
        limit = min(r, used[pos] + 1)
        open_colors = dom[pos]
        while c <= limit:
            if open_colors >> (c - 1) & 1:
                nodes += 1
                if nodes > cap:
                    raise SearchBudgetExceeded("node budget exceeded", nodes)
                if nodes & 2047 == 0 and deadline is not None and time.monotonic() > deadline:
                    raise SearchBudgetExceeded("time limit exceeded", nodes)
                if place(pos, c):
                    break
                undo(pos)
            c += 1
        else:
            pos -= 1
            if pos:
                undo(pos)
            continue
        trial[pos] = c + 1
        if pos == n:
            found.append(colors[1:])
            if not find_all:
                return found, nodes
            undo(pos)  # keep scanning siblings
            continue
        used[pos + 1] = max(used[pos], c)
        pos += 1
        trial[pos] = 1
    return found, nodes


def _deadline(time_limit: float | None) -> float | None:
    return None if time_limit is None else time.monotonic() + time_limit


def _require_single_job(jobs: int) -> None:
    if jobs != 1:
        raise ValueError(f"jobs={jobs}: the search runs in one process, so jobs must be 1")


def _certify(
    family: PatternFamily, solution: list[int], r: int, box_relative: bool = False
) -> AvoidCertificate:
    """The certificate of a search answer, after one independent count_witnesses check."""
    coloring = Coloring.from_sequence(solution, r)
    if count_witnesses(family, coloring) != 0:
        raise RuntimeError("internal error: search returned a non-avoiding coloring")
    return AvoidCertificate(
        family, coloring.n, coloring.r, coloring.to_rle(), True, box_relative
    )


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
    which case the certificate is stamped box_relative=True (the search then
    only rules out instances with assignments inside [1..N]^s).
    """
    _require_single_job(jobs)
    if r < 1 or n < 1:
        raise ValueError("need r >= 1 and n >= 1")
    box_relative = not family.box_complete()
    if box_relative and not allow_box_relative:
        missing = sorted(set(range(family.num_vars)) - set(family.bounded_vars()))
        raise IncompleteBoxError(
            f"variables {missing} are not bounded by any all-positive term; "
            "pass allow_box_relative=True for a box-relative search"
        )
    deadline = _deadline(time_limit)
    buckets = build_instance_index(family, n)
    found, nodes = _dfs(buckets, n, r, (), max_nodes, deadline)
    if stats is not None:
        stats.nodes += nodes
    if not found:
        return None
    return _certify(family, found[0], r, box_relative)


def find_all_avoiding(family: PatternFamily, r: int, n: int) -> list[tuple[int, ...]]:
    """Every canonical avoiding coloring (for naive-equivalence checks)."""
    if not family.box_complete():
        raise IncompleteBoxError("find_all_avoiding needs a box-complete family")
    buckets = build_instance_index(family, n)
    found, _ = _dfs(buckets, n, r, (), None, None, find_all=True)
    return sorted(tuple(sol) for sol in found)


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

    Only the avoider that is reported goes through count_witnesses.  The
    avoider at every other N is not an answer: it is the path the search at
    N+1 resumes from, and _dfs replays it against the masks, which hold every
    set with top <= N+1.  A path color already struck from its position
    would complete a monochromatic set, so one bit test per replayed
    position refuses a corrupted path without a witness count at every N.
    """
    _require_single_job(jobs)
    if r < 1 or max_n < 1:
        raise ValueError("need r >= 1 and max_n >= 1")
    if not family.box_complete():
        raise IncompleteBoxError("threshold needs a box-complete family (else unsound)")
    deadline = _deadline(time_limit)
    nodes = 0
    path: list[int] = []  # lex-first avoider at n-1

    def result(value: int, exact: bool) -> ThresholdResult:
        cert = _certify(family, path, r) if path else None
        return ThresholdResult(family.name, family.fingerprint(), r, value, exact, cert, nodes)

    index: list[list[tuple[int, tuple[int, ...]]]] = []
    size = 0
    for n in range(1, max_n + 1):
        if n > size:
            size = min(max_n, max(2 * size, _FIRST_INDEX_SIZE))
            index = build_instance_index(family, size)
        try:
            found, k = _dfs(
                index,
                n,
                r,
                path,
                None if max_nodes is None else max(0, max_nodes - nodes),
                deadline,
            )
        except SearchBudgetExceeded as e:
            nodes += e.nodes
            raise SearchBudgetExceeded(
                f"threshold undecided at N={n}: {e}", nodes, result(n, False)
            ) from None
        nodes += k
        if not found:
            return result(n, True)
        path = found[0]
    return result(max_n + 1, False)


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
    buckets = build_instance_index(family, n)

    def one_pass(pick) -> list[int] | None:
        d = _Domains(buckets, n, r)
        for pos in range(1, n + 1):
            legal = [c for c in range(1, r + 1) if d.dom[pos] >> (c - 1) & 1]
            if not legal:
                return None
            d.place(pos, pick(legal), complete=True)
        return d.colors[1:]

    if strategy == "first-fit":
        result = one_pass(lambda legal: legal[0])
    elif strategy == "random":
        rng = random.Random(seed)
        result = None
        for _ in range(restarts):
            result = one_pass(rng.choice)
            if result is not None:
                break
    else:
        raise ValueError(f"unknown strategy {strategy!r} (first-fit or random)")
    if result is None:
        return None
    return _certify(family, result, r, not family.box_complete())


def verify_certificate(cert: AvoidCertificate) -> bool:
    """Recompute the zero-witness claim from the stored coloring, independently."""
    try:
        coloring = cert.to_coloring()
    except (ValueError, TypeError):
        return False
    return count_witnesses(cert.family, coloring) == 0
