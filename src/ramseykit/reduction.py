"""Monochromatic solutions of c_1 a_1^2 + ... + c_k a_k^2 = a_0 via witnesses.

For a zero-sum integer vector c the substitution a_l = (x + u_l y)/b turns a
monochromatic instance of the four-term pattern {x, x*y, x+y, x+u_l*y} into a
solution of the quadratic equation, provided u solves sum c_l u_l^2 = 0 and
b = 2 sum c_l u_l > 0.  Such u come from a non-zero rational root of

    p(t) = sum_l c_l (1 + l t)^2      (or q, which replaces the last
                                       addend by c_k (1 + 2k t)^2)

by clearing the denominator: t = num/d gives u_l = d + l*num (and
d + 2k*num for the last entry under q).  The zero-sum kills the constant
term, so each candidate is alpha*t + beta*t^2, and:

- its only non-zero root is t = -alpha/beta, which exists exactly when
  alpha*beta != 0;
- the entries of u are then distinct, since num != 0;
- the cross sum is sum c_l u_l = num*alpha/2 for p and q alike, never 0,
  so negating u when it is negative gives b > 0;
- if p is identically zero, q = c_k (2k t + 3k^2 t^2) has the root
  -2/(3k), so some candidate always works unless both have alpha*beta = 0,
  and then the vector is rejected as degenerate.

The coloring side needs no lift.  Color [1..bN] by chi(n/b) on multiples
of b and by a fresh color per residue elsewhere: x and x+y then share a
color only if b | y, and x and x*y only if b | x.  So its witnesses are the
(bX, bY) for which {X, X+Y, b*X*Y, X+u_l*Y} is monochromatic under chi, in
the same lexicographic order, and the search runs on chi itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coloring import Coloring
from .families import PatternFamily
from .polynomials import IntPoly
from .witnesses import VerifyResult, _normalize_box, iter_witnesses

__all__ = [
    "ReductionData",
    "QuadSolution",
    "DegenerateCoefficientsError",
    "quadratic_setup",
    "lift_coloring",
    "exp_lift",
    "solve_quadratic",
    "verify_quad_solution",
    "solution_to_json",
]


class DegenerateCoefficientsError(ValueError):
    """Neither candidate polynomial yields a usable substitution vector."""


@dataclass(frozen=True)
class ReductionData:
    """The substitution a_l = (x + u_l y)/b for the coefficient vector c."""

    c: tuple[int, ...]
    u: tuple[int, ...]
    b: int


@dataclass(frozen=True)
class QuadSolution:
    a: tuple[int, ...]
    color: int
    source_witness: tuple[int, int]


def _candidate_coeffs(c: tuple[int, ...], variant: str) -> tuple[int, int]:
    """(alpha, beta) of the candidate polynomial alpha*t + beta*t^2."""
    k = len(c)
    alpha = 2 * sum(l * cl for l, cl in enumerate(c, 1))
    beta = sum(l * l * cl for l, cl in enumerate(c, 1))
    if variant == "q":
        alpha += 2 * k * c[-1]
        beta += 3 * k * k * c[-1]
    return alpha, beta


def quadratic_setup(c) -> ReductionData:
    """Find u with sum c u^2 = 0, all entries distinct, and b = 2 sum c u > 0.

    Tries p first, then q, each with its root t = -alpha/beta; a negative
    sum c_l u_l is repaired by negating all of u.  Raises
    DegenerateCoefficientsError when neither candidate has a non-zero root.
    """
    c = tuple(int(v) for v in c)
    k = len(c)
    if k < 2:
        raise ValueError("need at least two coefficients")
    if any(v == 0 for v in c):
        raise ValueError("coefficients must be non-zero")
    if sum(c) != 0:
        raise ValueError(f"coefficients must sum to zero (got {sum(c)})")

    for tag in ("p", "q"):
        alpha, beta = _candidate_coeffs(c, tag)
        if not (alpha and beta):
            continue
        t = Fraction(-alpha, beta)
        d, num = t.denominator, t.numerator
        u = [d + l * num for l in range(1, k + 1)]
        if tag == "q":
            u[-1] = d + 2 * k * num
        if sum(cl * ul * ul for cl, ul in zip(c, u)) != 0:
            raise AssertionError("root did not clear the quadratic form")
        s = sum(cl * ul for cl, ul in zip(c, u))
        if s < 0:
            u = [-v for v in u]
            s = -s
        return ReductionData(c, tuple(u), 2 * s)

    raise DegenerateCoefficientsError(
        "no usable substitution vector: "
        "p has no non-zero rational root; q has no non-zero rational root"
    )


def lift_coloring(chi: Coloring, b: int) -> Coloring:
    """Stretch chi by b: multiples of b inherit chi(n/b), the rest get
    fresh colors r+1 .. r+b-1 by residue.  The result colors [1..b*N]."""
    if b < 2:
        raise ValueError("b must be >= 2")
    r = chi.r
    v = np.arange(1, b * chi.n + 1, dtype=np.int64)
    rem = v % b
    base = chi.colors[np.maximum(v // b, 1) - 1]
    lifted = np.where(rem == 0, base, r + rem).astype(np.int32)
    return Coloring(b * chi.n, r + b - 1, lifted)


def exp_lift(chi: Coloring, base: int) -> Coloring:
    """Pull back chi along i -> base^i: position i gets chi(base^i)."""
    if base < 2:
        raise ValueError("base must be >= 2")
    powers = []
    p = base
    while p <= chi.n:
        powers.append(p)
        p *= base
    if not powers:
        raise ValueError(f"domain too small: {base}^1 exceeds N={chi.n}")
    return Coloring(len(powers), chi.r, [chi.color_of(v) for v in powers])


def _direct_box(fam: PatternFamily, n: int, box, b: int):
    """The (X, Y) box whose (bX, bY) are the multiples of b in an (x, y) box."""
    if box is None:
        return None
    return [(-(-lo // b), hi // b) for lo, hi in _normalize_box(fam, n, box)]


def solve_quadratic(c, chi: Coloring, search_box=None) -> QuadSolution | None:
    """Monochromatic solution of sum c_l a_l^2 = a0 under chi, if one exists
    within reach of the witness search.

    Streams witnesses of {X, X+Y, b*X*Y, X+u_l*Y} under chi in lexicographic
    order and decodes the first whose a-values (a0 = b*X*Y, a_l = X+u_l*Y)
    are pairwise distinct; its source witness is (bX, bY).  search_box
    bounds (x, y) = (bX, bY) and is mapped to (X, Y) by ceil(lo/b) and
    floor(hi/b).  Returns None when the stream ends without a usable witness.
    """
    rd = quadratic_setup(c)
    x, y = IntPoly.var(2, 0), IntPoly.var(2, 1)
    a_terms = [rd.b * x * y] + [x + ul * y for ul in rd.u]
    fam = PatternFamily(2, (x, x + y, *a_terms))
    # the family drops duplicate terms (u_l = 0 or 1), so look each one up
    position = {t: i for i, t in enumerate(fam.terms)}
    pick = [position[t] for t in a_terms]
    box = _direct_box(fam, chi.n, search_box, rd.b)
    for w in iter_witnesses(fam, chi, distinct=False, box=box):
        a = tuple(w.term_values[i] for i in pick)
        if len(set(a)) == len(a):
            return QuadSolution(a, w.color, tuple(rd.b * v for v in w.assignment))
    return None


def _check_solution(c, a) -> str | None:
    """Why a is not a distinct positive solution of sum c_l a_l^2 = a_0, or None."""
    if len(a) != len(c) + 1:
        return f"expected {len(c) + 1} values, got {len(a)}"
    if any(v < 1 for v in a):
        return "values must be positive"
    if len(set(a)) != len(a):
        return "values must be pairwise distinct"
    lhs = sum(cl * al * al for cl, al in zip(c, a[1:]))
    if lhs != a[0]:
        return f"equation fails: lhs={lhs} != a0={a[0]}"
    return None


def verify_quad_solution(c, chi: Coloring, sol: QuadSolution) -> VerifyResult:
    """Re-check a solution from scratch: equation, positivity, distinctness,
    one color.  Shares no arithmetic with the solver."""
    reason = _check_solution(tuple(int(v) for v in c), sol.a)
    if reason is not None:
        return VerifyResult(False, reason)
    if any(v > chi.n for v in sol.a):
        return VerifyResult(False, "a value falls outside the coloring's domain")
    cols = {chi.color_of(v) for v in sol.a}
    if cols != {sol.color}:
        return VerifyResult(False, f"colors {sorted(cols)} do not all equal {sol.color}")
    return VerifyResult(True, None)


def solution_to_json(rd: ReductionData, sol: QuadSolution) -> dict:
    return {
        "c": list(rd.c),
        "u": list(rd.u),
        "b": rd.b,
        "a": list(sol.a),
        "color": sol.color,
        "source_witness": list(sol.source_witness),
    }
