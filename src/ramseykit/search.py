"""Avoiding-coloring search and threshold numbers.

An r-coloring of [1..N] *avoids* a family when no admissible instance is
monochromatic; the threshold T(P, r) is the least N with no avoiding
coloring.  One search state (_Search) colors positions 1..N with forward
checking (Haralick & Elliott, AIJ 1980), in one depth-first loop:

  * every admissible value set is read once per index size, in the form
    build_instance_index returns: its top, its second-largest member p and a
    bitmask of its members below p, listed by p and filed again by top; a
    singleton set {v} leaves position v no color at all;
  * each position keeps a bitmask of the colors still open to it, and each
    color a bitmask of the positions it is on.  Placing color c strikes c from
    the one member not colored c of every set whose other members all are,
    and the branch dies as soon as some mask is empty.  The strikes are kept
    per position and restored by one undo, last in first out;
  * the loop takes a used color or the least unused one (canonical color
    introduction), and two rules pick the next position.  The fixed order
    (``run``) takes the lowest uncolored one, so a set can only be completed
    at its top, and its first avoider is the lexicographically first one
    (forward checking prunes dead subtrees earlier but never reorders them).
    The fail-first order (``refutes``) takes the most constrained one, ties
    to the one in the most value sets.  It only decides whether [1..N] has any
    avoider, in far fewer nodes: 2,611 against 30,284 for vdw:3 at r=3, N=27;
  * a node is one color placed in either order; node and wall-clock budgets
    cover both and surface as SearchBudgetExceeded, a first-class outcome
    distinct from "no avoider".  One test per node covers both: the next
    check is at the node cap or the next clock read (every 2048 nodes).

threshold runs one search that grows with N (incremental as in Een &
Sorensson, SAT 2003).  It yields the lex-first avoider at N and opens N+1 in
place: each color that some set with top N+1 has on all lower members is
struck from N+1.  If that empties N+1, the search undoes N down to the p of
the emptying strike and tries p's next color, where a fresh search at N+1
would first fail.  The index doubles (capped at max_n) whenever N outgrows
it; for a box-complete family the sets at N are those with top <= N, so the
live state stays valid.

One dispatch rule, with no setting: when opening N leaves it no color (a
strike emptied it, or a singleton {N} gave it none), threshold first asks the
fail-first order, on a fresh state over [1..N], whether [1..N] has any
avoider.  "None" ends the run with T = N exact and the avoider at N-1 that the
fixed order holds; "some" lets the fixed order backtrack to the lex-first
avoider at N as before.  exists_avoiding, find_all_avoiding and
greedy_avoider use the fixed order only.

Only the reported avoider goes through count_witnesses.  A refutation, in
either order, is checked by nothing (ROADMAP item 4).  When a
budget runs out, the exception carries the partial ThresholdResult: the
bound proven so far.

There is no parallel mode; ``jobs`` is accepted only as 1.
"""

from __future__ import annotations

import copy
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
    """The family admits assignments outside [1..N]^s, so no search over [1..N] runs on it."""


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
    The searches make one only for a box-complete family, and only such a
    certificate is read back, so it rules out every instance in [1..n]."""

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

    def to_json(self) -> dict:
        return {
            "family_name": self.family.name,
            "family": self.family.to_json(),
            "fingerprint": self.family.fingerprint(),
            "n": self.n,
            "r": self.r,
            "coloring_rle": self.rle,
            "verified": True,  # the package writes only the certificates _certify checked
            "box_relative": False,  # kept so that certificate files keep their form
        }

    @classmethod
    def from_json(cls, data: dict) -> "AvoidCertificate":
        """The certificate a JSON object holds: ValueError unless n and r are JSON
        integers, the runs decode (Coloring.from_rle), the flags are JSON booleans,
        box_relative is false and the family is box-complete.  "verified" is
        never trusted."""
        family = PatternFamily.from_json(data["family"])
        coloring = Coloring.from_rle(_json_int(data["n"], "certificate 'n'"),
                                     _json_int(data["r"], "certificate 'r'"), data["coloring_rle"])
        _json_bool(data.get("verified", False), "certificate 'verified'")
        if _json_bool(data.get("box_relative", False), "certificate 'box_relative'"):
            raise ValueError("box-relative certificate: only whole-box certificates are read")
        if not family.box_complete():
            raise ValueError("certificate's family is not box-complete, so [1..n] does not "
                             "hold every instance")
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
) -> list[list[tuple[int, int, int]]]:
    """index[p] = sorted (top, p, below) of the admissible value sets whose
    second-largest member is p: top is the largest member, below a bitmask of
    the members below p, one mask shared by the sets with the same such
    members.  A singleton set {v} is stored as (v, 0, 0) in index[0].

    Sorting by top makes the sets inside [1..m] a prefix of every list.
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
    index: list[list[tuple[int, int, int]]] = [[] for _ in range(n + 1)]
    masks: dict[tuple[int, ...], int] = {}
    for row in value_sets:
        vs = row[row.count(0):]
        if len(vs) == 1:
            index[0].append((vs[0], 0, 0))
            continue
        others = vs[:-2]
        below = masks.get(others)
        if below is None:
            below = masks[others] = sum(1 << o for o in others)
        index[vs[-2]].append((vs[-1], vs[-2], below))
    for entries in index:
        entries.sort()
    return index


class _Search:
    """One forward-checking search state over positions 1..n, where n grows to
    max_n, and the loop that colors it in either order.

    Per position: its color (kept after an undo, so the loop tries the one
    above it next; 0 while uncolored), the bitmask of colors still open
    (``dom``) and the positions its color struck (``removed``); ``on[c]`` has
    bit q for each q colored c.  Each color placed has one ``undo``, taken
    last in, first out.  Both orders introduce colors in increasing order, so
    the colors in use are always 1..k, and k + 1 is the first c >= 1 with
    ``on[c]`` zero.

    ``fixed`` is build_instance_index at the index size, and ``by_top[t]``
    files its entries again by top, in ascending p.  ``member_of[q]`` holds,
    for each set with q as a member, a bitmask of its other members; the
    first refutation builds it and later ones extend it as n grows.  Only the
    sets with top <= n take part.  It refuses r < 1, max_n < 1 and, with
    IncompleteBoxError, a box-incomplete family.  ``run`` yields the avoiders
    and ``refutes`` decides whether there is any, both through ``_walk``;
    ``nodes`` is all that is read back.
    """

    def __init__(self, family: PatternFamily, r: int, max_n: int, *, n: int, size: int):
        if r < 1 or max_n < 1:
            raise ValueError("need r >= 1 and n >= 1")
        if not family.box_complete():
            missing = sorted(set(range(family.num_vars)) - set(family.bounded_vars()))
            raise IncompleteBoxError(f"variables {missing} are not bounded by any all-positive "
                                     "term, so [1..N] does not hold every instance")
        self.family, self.r, self.max_n, self.n = family, r, max_n, n
        self.size, self.fixed, self.member_of, self.members_top = 0, [[]], [[]], 0
        self._clear()
        self._grow(size)

    def _grow(self, size: int) -> None:
        """Read the value sets inside [1..size] and make room for its positions."""
        self.fixed = fixed = build_instance_index(self.family, size)
        self.by_top = by_top = [[] for _ in range(size + 1)]
        for entries in fixed[1:]:
            for entry in entries:
                by_top[entry[0]].append(entry)
        self.member_of += [[] for _ in range(size - self.size)]
        self.size = size
        self._room()

    def _clear(self) -> None:
        """Nothing colored."""
        self.colors, self.dom, self.removed = [], [], []
        self.on = [0] * (self.r + 2)  # on[0] and on[r + 1] stay 0
        self._room()

    def _room(self) -> None:
        """Positions up to size + 1, each new one with every color open."""
        extra = self.size + 2 - len(self.colors)
        self.colors += [0] * extra
        self.dom += [(1 << self.r) - 1] * extra
        self.removed += [[] for _ in range(extra)]
        for top, _, _ in self.fixed[0]:  # a singleton {top} leaves top no color
            self.dom[top] = 0

    def place(self, p: int, c: int) -> bool:
        """Color p with c, all of 1..p-1 colored and none above: strike c from
        each top it completes; False once a mask empties."""
        dom, n = self.dom, self.n
        self.colors[p] = c
        self.on[c] = on = self.on[c] | 1 << p
        bit = 1 << (c - 1)
        removed = self.removed[p]
        for top, _, below in self.fixed[p]:
            if top > n:
                break
            if dom[top] & bit and on & below == below:
                dom[top] ^= bit
                removed.append(top)
                if not dom[top]:
                    return False
        return True

    def place_any(self, p: int, c: int) -> bool:
        """Color p with c, in any order: strike c from the one member not colored
        c of each set that has one; False once a mask empties.  A struck member
        that is colored keeps its own color, so only an uncolored one can empty,
        and its strike is undone before it is uncolored."""
        dom = self.dom
        self.colors[p] = c
        self.on[c] = on = self.on[c] | 1 << p
        off, bit = ~on, 1 << (c - 1)
        removed = self.removed[p]
        for mask in self.member_of[p]:
            rest = mask & off  # the other members not colored c: never none
            if rest & (rest - 1):
                continue
            q = rest.bit_length() - 1
            if dom[q] & bit:
                dom[q] ^= bit
                removed.append(q)
                if not dom[q]:
                    return False
        return True

    def undo(self, p: int) -> None:
        """Take back p's color and its strikes; the color stays in colors[p]."""
        c = self.colors[p]
        bit, dom, removed = 1 << (c - 1), self.dom, self.removed[p]
        for q in removed:
            dom[q] |= bit
        removed.clear()
        self.on[c] ^= 1 << p

    def open(self) -> int:
        """Open position n+1 next to the colored 1..n: strike each color that
        some set with top n+1 has on all lower members, as a strike of the
        lowest such p.  Returns the p whose strike empties n+1, else 0."""
        m = self.n = self.n + 1
        if m > self.size:
            self._grow(min(self.max_n, max(2 * self.size, _FIRST_INDEX_SIZE)))
        colors, dom, on, removed = self.colors, self.dom, self.on, self.removed
        for _, p, below in self.by_top[m]:
            c = colors[p]
            bit = 1 << (c - 1)
            if dom[m] & bit and on[c] & below == below:
                dom[m] ^= bit
                removed[p].append(m)
                if not dom[m]:
                    return p
        return 0

    def run(self, cap: float, deadline: float) -> Iterator[list[int]]:
        """The fixed order from position 1, as color lists: the lex-first
        avoider at each n < max_n it holds, opening n+1 after it, then every
        avoider at max_n in lex order; it ends when [1..n] has none, which
        ``refutes`` decides for an opened n left no color.  ``nodes``, the
        colors placed so far in both orders, is current at each item and at
        the end."""
        return self._walk(False, 0, cap, deadline)

    def refutes(self, nodes: int, cap: float, deadline: float) -> bool:
        """True when no r-coloring of [1..n] avoids, False at the first avoider
        of the fail-first order, which it walks on a fresh state.  ``nodes``
        continues the caller's count under the same budgets and is left in
        ``self.nodes``.  n never falls between two calls, so member_of only
        grows.
        """
        n, member_of = self.n, self.member_of
        for top in range(self.members_top + 1, n + 1):
            for _, p, below in self.by_top[top]:
                whole = rest = below | 1 << p | 1 << top
                while rest:
                    low = rest & -rest
                    member_of[low.bit_length() - 1].append(whole ^ low)
                    rest ^= low
        self.members_top = n
        state = copy.copy(self)  # the value sets, with nothing colored
        state._clear()
        found = next(state._walk(True, nodes, cap, deadline), None)
        self.nodes = state.nodes
        return found is None

    def _walk(
        self, fail_first: bool, nodes: int, cap: float, deadline: float
    ) -> Iterator[list[int]]:
        """Depth-first over positions 1..n from nothing colored, yielding each
        avoider as a color list; ``nodes`` continues the count given and is
        left in ``self.nodes``.  A stack holds the positions colored.  Each
        position tries its open colors above the one it last held; when none
        is left, it is zeroed and the loop backs up to the top of the stack.
        The fixed order colors position len(stack) + 1 with ``place``; the
        fail-first order colors the uncolored position with the fewest open
        colors, then the most value sets (dom/deg), then the lowest, so node
        counts repeat, with ``place_any``.
        """
        r, max_n, n = self.r, self.max_n, self.n
        colors, dom, on, undo = self.colors, self.dom, self.on, self.undo
        if fail_first:
            place, member_of = self.place_any, self.member_of
            order = sorted(range(1, n + 1), key=lambda q: (-len(member_of[q]), q))
        else:
            place = self.place
        stack: list[int] = []
        p = tick = 0  # p: the position to color, 0 to pick the next; tick: the next budget check
        while True:
            if not p:
                if fail_first:
                    fewest = r + 1
                    for q in order:
                        if not colors[q]:
                            k = dom[q].bit_count()
                            if k < fewest:
                                p, fewest = q, k
                                if k <= 1:
                                    break
                elif len(stack) < n:
                    p = len(stack) + 1
                    colors[p] = 0
                if not p:  # all of 1..n colored
                    self.nodes = nodes
                    yield colors[1 : n + 1]
                    if fail_first or n == max_n:  # its next sibling
                        p = stack.pop()
                        undo(p)
                        continue
                    q = self.open()
                    n += 1
                    if not dom[n]:  # the avoider at n-1 leaves n no color: is there any at n?
                        if self.refutes(nodes, cap, deadline):
                            return
                        nodes = self.nodes
                    if q:  # n emptied at q's strike, where a fresh search at n would first fail
                        while len(stack) >= q:  # the stack holds 1..n-1
                            undo(stack.pop())
                        p = q
                    continue
            limit = min(r, on.index(0, 1))  # a used color or the least unused one
            open_colors, c = dom[p], colors[p] + 1
            while c <= limit:
                if open_colors >> (c - 1) & 1:
                    nodes += 1
                    if nodes >= tick:
                        tick = _check_budgets(nodes, cap, deadline)
                    if place(p, c):
                        break
                    undo(p)
                c += 1
            else:
                colors[p] = 0
                if not stack:
                    self.nodes = nodes
                    return
                p = stack.pop()
                undo(p)
                continue
            stack.append(p)
            p = 0


def _check_budgets(nodes: int, cap: float, deadline: float) -> float:
    """Raise SearchBudgetExceeded once ``nodes`` colors placed pass cap, or the
    clock, read at every multiple of 2048 nodes, passes deadline; else return
    the node count of the next check (a search tests ``nodes >= tick``)."""
    if nodes > cap:
        raise SearchBudgetExceeded("node budget exceeded", nodes)
    if not nodes % 2048 and time.monotonic() > deadline:
        raise SearchBudgetExceeded("time limit exceeded", nodes)
    return min(nodes - nodes % 2048 + 2048, cap + 1)


def _budget(max_nodes: int | None, time_limit: float | None) -> tuple[float, float]:
    """(node cap, deadline) of a search; a budget of 0 is valid, a negative or NaN one is not."""
    if not ((max_nodes or 0) >= 0 and (time_limit or 0) >= 0):
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
    stats: SearchStats | None = None,
) -> AvoidCertificate | None:
    """First avoiding coloring in canonical order, as a verified certificate.

    A box-incomplete family raises IncompleteBoxError.
    """
    _require_single_job(jobs)
    cap, deadline = _budget(max_nodes, time_limit)
    search = _Search(family, r, n, n=n, size=n)
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
    avoider at N; where that avoider leaves N+1 no color, the fail-first
    order decides whether [1..N+1] has any.  ``nodes``, which max_nodes
    bounds, counts the colors both orders place.
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
    count_witnesses check.  A box-incomplete family raises IncompleteBoxError,
    as in exists_avoiding.
    """
    if r < 1 or restarts < 1:
        raise ValueError("need r >= 1 and restarts >= 1")
    if strategy not in ("first-fit", "random"):
        raise ValueError(f"unknown strategy {strategy!r} (first-fit or random)")
    search = _Search(family, r, n, n=0, size=n)
    colors, dom = search.colors, search.dom

    def one_pass(pick) -> list[int] | None:
        for pos in range(1, n + 1):
            if pos > search.n:  # later passes strike it from place's forward checking
                search.open()
            legal = [c for c in range(1, r + 1) if dom[pos] >> (c - 1) & 1]
            if not legal:
                for placed in range(pos - 1, 0, -1):  # a restart starts from nothing
                    search.undo(placed)
                return None
            search.place(pos, pick(legal))
        return colors[1 : n + 1]

    pick = random.Random(seed).choice if strategy == "random" else lambda legal: legal[0]
    for _ in range(restarts if strategy == "random" else 1):
        result = one_pass(pick)
        if result is not None:
            return _certify(family, result, r)
    return None


def verify_certificate(cert: AvoidCertificate) -> bool:
    """Recompute the zero-witness claim: True when no admissible instance is
    monochromatic under the certificate's coloring.  AvoidCertificate.from_json
    checks its runs, and that its family is box-complete, where a certificate
    is read.

    The recount runs the search's own instance enumerator, and for a small
    (family, N) the chunks it cached (witnesses._small_stream); a checker
    that shares nothing with the search is ROADMAP item 4."""
    return count_witnesses(cert.family, cert.coloring) == 0
