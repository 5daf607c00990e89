"""Quadratic-form substitution data, coloring lifts, and end-to-end solving.

Exactness bar: everything here is checked in exact integer/rational
arithmetic, and solver outputs are re-verified by verify_quad_solution,
which shares no arithmetic with the solver.
"""

import itertools
import re
from fractions import Fraction

import pytest

from ramseykit import reduction
from ramseykit.coloring import Coloring
from ramseykit.families import reduction_family
from ramseykit.reduction import (
    DegenerateCoefficientsError,
    QuadSolution,
    exp_lift,
    lift_coloring,
    quadratic_setup,
    solution_to_json,
    solve_quadratic,
    verify_quad_solution,
)
from ramseykit.witnesses import iter_witnesses


class TestQuadraticSetup:
    DEGENERATE_MESSAGE = (
        "no usable substitution vector: p has no non-zero rational root; "
        "q has no non-zero rational root"
    )

    def test_pinned_1_m1(self):
        rd = quadratic_setup((1, -1))
        assert rd.u == (1, -1)
        assert rd.b == 4
        assert rd.u == self.substitution((1, -1), "p")

    def test_pinned_1_1_m2(self):
        rd = quadratic_setup((1, 1, -2))
        assert rd.u == (7, 1, -5)
        assert rd.b == 36
        # 49 + 1 - 50 = 0
        assert 1 * 49 + 1 * 1 - 2 * 25 == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            quadratic_setup((1,))
        with pytest.raises(ValueError):
            quadratic_setup((1, 0, -1))
        with pytest.raises(ValueError):
            quadratic_setup((1, 1))

    def test_falls_to_q_when_p_is_zero(self):
        # c = (-1, 3, -3, 1): both alpha and beta vanish, so p is the zero
        # polynomial; the variant with the doubled last index takes over
        rd = quadratic_setup((-1, 3, -3, 1))
        c = (-1, 3, -3, 1)
        assert rd.u == self.substitution(c, "q")
        assert sum(cl * ul * ul for cl, ul in zip(c, rd.u)) == 0
        assert rd.b == 2 * sum(cl * ul for cl, ul in zip(c, rd.u)) > 0

    def test_falls_to_q_when_p_has_only_zero_root(self):
        # c = (-1, 2, -1): alpha = 0 but beta != 0, so p = beta*t^2
        rd = quadratic_setup((-1, 2, -1))
        assert rd.u == (23, 17, -7) == self.substitution((-1, 2, -1), "q")

    @pytest.mark.parametrize("c", [
        (-1, 3, -3, 1), (1, -4, 6, -4, 1), (-1, 5, -10, 10, -5, 1),
    ])
    def test_p_identically_zero_takes_q_root(self, c):
        # p == 0 leaves q = c_k (2k t + 3k^2 t^2), whose root is -2/(3k)
        k = len(c)
        assert self.candidate(c, "p") == (0, 0)
        alpha, beta = self.candidate(c, "q")
        assert Fraction(-alpha, beta) == Fraction(-2, 3 * k)
        assert quadratic_setup(c).u == self.substitution(c, "q")

    def test_both_degenerate_raises(self):
        # k = 4 vector where neither variant has a non-zero rational root
        with pytest.raises(DegenerateCoefficientsError) as exc:
            quadratic_setup((-25, 51, -27, 1))
        assert str(exc.value) == self.DEGENERATE_MESSAGE

    def test_negation_branch(self):
        rd = quadratic_setup((1, -2, 1))
        assert rd.u == (-23, -17, 7)
        assert sum(cl * ul for cl, ul in zip((1, -2, 1), rd.u)) > 0

    @staticmethod
    def candidate(c, tag):
        """(alpha, beta) of alpha*t + beta*t^2 = sum_l c_l (1 + l' t)^2, where
        l' = l except l' = 2k for the last entry of q; read off at t = +-1."""
        k = len(c)
        ls = list(range(1, k + 1))
        if tag == "q":
            ls[-1] = 2 * k

        def at(t):
            return sum(cl * (1 + l * t) ** 2 for cl, l in zip(c, ls))

        plus, minus = at(Fraction(1)), at(Fraction(-1))
        return (plus - minus) / 2, (plus + minus) / 2

    @classmethod
    def substitution(cls, c, tag):
        """u from the root t = -alpha/beta of candidate ``tag``, as num/d:
        u_l = d + l'*num, negated when sum c_l u_l < 0."""
        alpha, beta = cls.candidate(c, tag)
        t = -alpha / beta
        ls = list(range(1, len(c) + 1))
        if tag == "q":
            ls[-1] = 2 * len(c)
        u = [t.denominator + l * t.numerator for l in ls]
        if sum(cl * ul for cl, ul in zip(c, u)) < 0:
            u = [-v for v in u]
        return tuple(u)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_exhaustive_grid(self, k):
        vectors = [
            c for c in itertools.product(range(-6, 7), repeat=k)
            if 0 not in c and sum(c) == 0
        ]
        if k == 4:
            # the grid holds no degenerate vector; these two are
            vectors += [(-25, 51, -27, 1), (9, -13, 3, 1)]
        for c in vectors:
            usable = [tag for tag in ("p", "q") if all(self.candidate(c, tag))]
            if not usable:
                with pytest.raises(DegenerateCoefficientsError):
                    quadratic_setup(c)
                continue
            rd = quadratic_setup(c)
            # the first usable candidate, with its own root t = -alpha/beta
            alpha, beta = self.candidate(c, usable[0])
            t = -alpha / beta
            assert t != 0 and alpha * t + beta * t * t == 0
            assert rd.u == self.substitution(c, usable[0])
            assert len(set(rd.u)) == k
            assert sum(cl * ul * ul for cl, ul in zip(c, rd.u)) == 0
            assert rd.b == 2 * sum(cl * ul for cl, ul in zip(c, rd.u)) > 0
            # the cross sum is num * alpha / 2, whichever candidate was chosen
            assert rd.b == abs(t.numerator * alpha)


class TestLiftColoring:
    def test_multiples_inherit(self):
        chi = Coloring.modular(10, 2)
        lifted = lift_coloring(chi, 4)
        assert lifted.n == 40 and lifted.r == 2 + 4 - 1
        for m in range(1, 11):
            assert lifted.color_of(4 * m) == chi.color_of(m)

    def test_residues_get_fresh_colors(self):
        chi = Coloring.modular(10, 2)
        lifted = lift_coloring(chi, 4)
        # 7 = 4*1 + 3 -> fresh color r + 3 = 5
        assert lifted.color_of(7) == 5
        assert lifted.color_of(1) == 2 + 1
        assert lifted.color_of(6) == 2 + 2

    def test_b_lower_bound(self):
        with pytest.raises(ValueError):
            lift_coloring(Coloring.solid(5), 1)

    def test_no_witness_leaks_off_multiples(self):
        # monochromatic witnesses of the u-pattern under the lift sit on
        # multiples of b; spot-check color classes are as designed
        chi = Coloring.solid(20)
        lifted = lift_coloring(chi, 2)
        odd_colors = {lifted.color_of(v) for v in range(1, 41, 2)}
        assert odd_colors == {2}  # r + 1


class TestExpLift:
    def test_powers_of_two(self):
        chi = Coloring.modular(20, 2)
        lifted = exp_lift(chi, 2)
        # 2, 4, 8, 16 are all even
        assert lifted.n == 4
        assert [lifted.color_of(i) for i in range(1, 5)] == [2, 2, 2, 2]

    def test_mixed_colors(self):
        chi = Coloring.from_sequence([1, 2, 1, 1, 1, 1, 1, 2, 2])
        lifted = exp_lift(chi, 3)
        # 3 -> color 1, 9 -> color 2
        assert [lifted.color_of(i) for i in range(1, 3)] == [1, 2]

    def test_domain_too_small(self):
        with pytest.raises(ValueError):
            exp_lift(Coloring.solid(1), 2)
        with pytest.raises(ValueError):
            exp_lift(Coloring.solid(5), 1)


class TestSolveQuadratic:
    def test_all_one_coloring(self):
        chi = Coloring.solid(200)
        sol = solve_quadratic((1, -1), chi)
        assert sol is not None
        assert sol.a == (8, 3, 1)
        assert sol.color == 1
        assert sol.source_witness == (8, 4)
        assert verify_quad_solution((1, -1), chi, sol).ok

    def test_parity_coloring(self):
        chi = Coloring.modular(200, 2)
        sol = solve_quadratic((1, -1), chi)
        assert sol is not None
        assert verify_quad_solution((1, -1), chi, sol).ok
        # a1^2 - a2^2 = a0 with all entries even-colored
        a0, a1, a2 = sol.a
        assert a1 * a1 - a2 * a2 == a0

    def test_three_term_equation(self):
        chi = Coloring.solid(3000)
        sol = solve_quadratic((1, 1, -2), chi)
        assert sol is not None
        a0, a1, a2, a3 = sol.a
        assert a1 * a1 + a2 * a2 - 2 * a3 * a3 == a0
        assert verify_quad_solution((1, 1, -2), chi, sol).ok

    def test_returns_none_when_domain_too_small(self):
        assert solve_quadratic((1, -1), Coloring.solid(3)) is None

    def test_search_box_limits_scan(self):
        chi = Coloring.solid(200)
        sol = solve_quadratic((1, -1), chi, search_box=4)
        # box caps assignments at 4 < b = 4's first useful multiple pair (8,4)
        assert sol is None

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_colorings_verify(self, seed):
        chi = Coloring.random_uniform(300, 2, seed)
        sol = solve_quadratic((1, -1), chi)
        if sol is not None:
            assert verify_quad_solution((1, -1), chi, sol).ok


def lifted_reference(c, chi, box=None):
    """The lifted search: chi stretched by b, its witnesses decoded by 1/b."""
    rd = quadratic_setup(c)
    lifted = lift_coloring(chi, rd.b)
    for w in iter_witnesses(reduction_family(rd.u), lifted, distinct=False, box=box):
        x, y = w.assignment
        assert x % rd.b == 0 and y % rd.b == 0 and w.color <= chi.r
        a = (x * y // rd.b,) + tuple((x + ul * y) // rd.b for ul in rd.u)
        if min(a) >= 1 and len(set(a)) == len(a):
            return QuadSolution(a, w.color, (x, y))
    return None


class TestDirectSearch:
    """solve_quadratic searches chi itself and gives what the lifted search gives."""

    # (-3, 4, -1) has u = (0, 1, 2): two of its a-terms are x0 and x0 + x1 again;
    # (-2, 3, -1) has u = (1, 3, 5), b = 4: at (1, 1) a0 = 4 = a2, not distinct
    VECTORS = [(1, -1), (1, 1, -2), (-3, 4, -1), (-2, 3, -1), (-1, 3, -3, 1), (1, 2, -3)]

    @staticmethod
    def colorings(n):
        yield Coloring.solid(n)
        for r in (2, 3):
            yield Coloring.modular(n, r)
            for seed in (0, 1):
                yield Coloring.random_uniform(n, r, seed)

    def test_same_answers_as_the_lifted_search(self):
        found = {}
        for c in self.VECTORS:
            b = quadratic_setup(c).b
            boxes = [None, 4, [10, 20], [(2, 40), (1, 30)], [(b + 1, 5 * b), (b, 3 * b)]]
            for n in (3, 50, 300, 1000):
                for chi in self.colorings(n):
                    for box in boxes:
                        ref = lifted_reference(c, chi, box)
                        assert solve_quadratic(c, chi, box) == ref, (c, n, chi.r, box)
                        found.setdefault(c, []).append(ref is not None)
        # every vector has questions with a solution and questions without one
        assert all(any(v) and not all(v) for v in found.values())

    @pytest.mark.parametrize("box", [[(0, 10), 5], [5], [1, 2, 3], 0])
    def test_box_errors_unchanged(self, box):
        chi = Coloring.solid(50)
        try:
            ref = lifted_reference((1, -1), chi, box)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                solve_quadratic((1, -1), chi, box)
        else:
            assert solve_quadratic((1, -1), chi, box) == ref

    def test_duplicate_terms_read_by_polynomial(self):
        # u = (0, 1, 2): a_1 = X and a_2 = X + Y are not terms of their own
        chi = Coloring.solid(50)
        sol = solve_quadratic((-3, 4, -1), chi)
        assert sol == QuadSolution((4, 1, 2, 3), 1, (4, 4))
        assert verify_quad_solution((-3, 4, -1), chi, sol).ok

    def test_never_lifts(self, monkeypatch):
        def lift(*args, **kwargs):
            raise AssertionError("solve_quadratic lifted the coloring")

        monkeypatch.setattr(reduction, "lift_coloring", lift)
        assert solve_quadratic((1, -1), Coloring.solid(200)) == QuadSolution((8, 3, 1), 1, (8, 4))
        assert solve_quadratic((1, -1), Coloring.modular(200, 2)).source_witness == (16, 8)


class TestVerifyQuadSolution:
    def setup_method(self):
        self.chi = Coloring.solid(200)
        self.sol = solve_quadratic((1, -1), self.chi)

    def test_rejects_wrong_equation(self):
        from ramseykit.reduction import QuadSolution

        bad = QuadSolution((9, 3, 1), 1, (8, 4))
        res = verify_quad_solution((1, -1), self.chi, bad)
        assert not res.ok and "equation" in res.reason

    def test_rejects_duplicates(self):
        from ramseykit.reduction import QuadSolution

        bad = QuadSolution((8, 3, 3), 1, (8, 4))
        assert "distinct" in verify_quad_solution((1, -1), self.chi, bad).reason

    def test_rejects_wrong_color(self):
        chi = Coloring.modular(200, 2)
        sol = solve_quadratic((1, -1), chi)
        from ramseykit.reduction import QuadSolution

        bad = QuadSolution(sol.a, 1 if sol.color == 2 else 2, sol.source_witness)
        assert not verify_quad_solution((1, -1), chi, bad).ok

    def test_rejects_out_of_domain(self):
        from ramseykit.reduction import QuadSolution

        bad = QuadSolution((399, 20, 1), 1, (1, 1))
        res = verify_quad_solution((1, -1), Coloring.solid(200), bad)
        assert not res.ok and "domain" in res.reason

    def test_rejects_nonpositive(self):
        from ramseykit.reduction import QuadSolution

        bad = QuadSolution((8, 3, 0), 1, (8, 4))
        assert "positive" in verify_quad_solution((1, -1), self.chi, bad).reason

    def test_length_mismatch(self):
        from ramseykit.reduction import QuadSolution

        bad = QuadSolution((8, 3), 1, (8, 4))
        assert not verify_quad_solution((1, -1), self.chi, bad).ok


class TestSolutionJson:
    def test_shape(self):
        chi = Coloring.solid(200)
        rd = quadratic_setup((1, -1))
        sol = solve_quadratic((1, -1), chi)
        data = solution_to_json(rd, sol)
        assert data == {
            "c": [1, -1],
            "u": [1, -1],
            "b": 4,
            "a": [8, 3, 1],
            "color": 1,
            "source_witness": [8, 4],
        }
