"""Acceptance suite: the package's headline claims, one summary line each.

Every numeric constant asserted here was recomputed by the in-repo naive
oracle (tests cross-check where feasible) rather than copied from anywhere.
"""

import itertools
import time

import numpy as np

from ramseykit.bruteforce import (
    naive_exists_avoiding,
    naive_threshold,
)
from ramseykit.coloring import Coloring
from ramseykit.construction import ConstructionInvariantError, run_construction
from ramseykit.families import (
    PatternFamily,
    preset_family,
    preset_from_string,
    prefix_product_family,
)
from ramseykit.polynomials import parse_poly
from ramseykit.reduction import (
    DegenerateCoefficientsError,
    quadratic_setup,
    solve_quadratic,
    verify_quad_solution,
)
from ramseykit.search import (
    exists_avoiding,
    greedy_avoider,
    threshold,
    verify_certificate,
)
from ramseykit.witnesses import count_witnesses, verify_witness


def test_criterion_1_sum_triple_thresholds(criterion):
    fam = preset_family("schur")
    t0 = time.perf_counter()
    r2 = threshold(fam, 2, 20)
    e2 = time.perf_counter() - t0
    t0 = time.perf_counter()
    r3 = threshold(fam, 3, 20)
    e3 = time.perf_counter() - t0
    naive2 = naive_threshold(fam, 2, 20)
    naive3 = naive_threshold(fam, 3, 14)
    ok = (
        r2.exact and r2.value == 5 and naive2 == 5 and e2 < 1.0
        and r3.exact and r3.value == 14 and naive3 == 14 and e3 < 60.0
    )
    criterion(
        "CRITERION 1",
        ok,
        f"T({{x,y,x+y}}, r=2) = {r2.value} in {e2:.2f}s and "
        f"T(r=3) = {r3.value} in {e3:.2f}s, naive enumerator agrees",
    )


def test_criterion_2_progression_threshold(criterion):
    fam = preset_family("vdw", 3)  # 3-term arithmetic progressions
    t0 = time.perf_counter()
    res = threshold(fam, 2, 20)
    elapsed = time.perf_counter() - t0
    naive = naive_threshold(fam, 2, 20)
    ok = res.exact and res.value == 9 and naive == 9 and elapsed < 1.0
    criterion(
        "CRITERION 2",
        ok,
        f"T(3-term progressions, r=2) = {res.value} in {elapsed:.2f}s, "
        "naive enumerator agrees",
    )


def test_criterion_3a_consecutive_pair_parity(criterion):
    fam = preset_family("x_xp1")
    n = 10**6
    chi = Coloring.modular(n, 2)
    t0 = time.perf_counter()
    hits = count_witnesses(fam, chi)
    elapsed = time.perf_counter() - t0
    ok = hits == 0 and elapsed < 1.0
    criterion(
        "CRITERION 3a",
        ok,
        f"parity coloring of [1..10^6] has {hits} monochromatic {{x, x+1}} "
        f"instances, checked in {elapsed:.2f}s",
    )


def test_criterion_3b_linear_triple_avoider_at_50(criterion):
    # {x, y, 3x-y} encodes y + z = 3x. Its coefficients (1, 1, -3) fail Rado's
    # columns condition, yet no 2-coloring of [1..9] avoids it. By hand, with
    # chi(1) = A:
    #   1. x = y gives the pairs {x, 2x}, forcing chi(2) = B and chi(4) = A.
    #   2. {2, 3} (x=2, y=3) forces chi(3) = A; then {3, 6} forces chi(6) = B.
    #   3. {3, 4, 5} forces chi(5) = B.
    #   4. {5, 6, 9} forces chi(9) = A.
    #   5. {4, 3, 9} (x=4, y=3) is then monochromatic.
    # An avoider of [1..50] restricts to one of [1..9], so the naive oracle's
    # refutation at T (it shares no code with the search) carries to N = 50.
    # Requiring pairwise distinct values removes steps 1-2 and moves T to 15.
    base = preset_family("x_y_3xmy")
    distinct = PatternFamily(
        base.num_vars, base.terms, "x_y_3xmy_distinct", distinct_required=True
    )
    n = 50
    ok = True
    found = []
    for fam, expected in ((base, 9), (distinct, 15)):
        t0 = time.perf_counter()
        at_n = exists_avoiding(fam, 2, n)
        elapsed = time.perf_counter() - t0
        res = threshold(fam, 2, n)
        naive = naive_threshold(fam, 2, n)
        below = exists_avoiding(fam, 2, expected - 1)
        ok = ok and (
            at_n is None
            and elapsed < 10.0
            and res.exact
            and res.value == naive == expected
            and below is not None
            and verify_certificate(below)
            and naive_exists_avoiding(fam, 2, expected - 1)
            and not naive_exists_avoiding(fam, 2, expected)
        )
        found.append((res.describe(), naive, elapsed))
    (t_any, naive_any, e_any), (t_dist, naive_dist, e_dist) = found
    criterion(
        "CRITERION 3b",
        ok,
        f"no 2-coloring of [1..{n}] avoids {{x, y, 3x-y}}: {t_any} "
        f"({t_dist} with distinct values); naive oracle gives {naive_any} / "
        f"{naive_dist}, avoiding just below T and refuting T; "
        f"avoiders below T verify; N={n} searches exhausted in "
        f"{e_any:.2f}s / {e_dist:.2f}s",
    )


def test_criterion_4_product_sum_threshold(criterion):
    fam = preset_family("xyxy")  # {x, x+y, xy}
    res = threshold(fam, 2, 12)
    ok = res.exact
    value = res.value
    cert_ok = False
    naive_ok = False
    if ok:
        cert = exists_avoiding(fam, 2, value - 1)
        cert_ok = cert is not None and verify_certificate(cert)
        naive_ok = all(
            naive_exists_avoiding(fam, 2, n) == (exists_avoiding(fam, 2, n) is not None)
            for n in range(1, min(value, 12) + 1)
        ) and naive_threshold(fam, 2, 12) == value
    criterion(
        "CRITERION 4",
        ok and cert_ok and naive_ok,
        f"T({{x, x+y, xy}}, r=2) = {value} exactly; the N={value - 1} avoiding "
        "certificate verifies and the naive oracle agrees for all smaller N",
    )


def test_criterion_5_generator_fidelity(criterion):
    # s=4, every slot offering the zero function and the full product of its
    # variables, must give exactly these 15 terms
    fam15 = prefix_product_family(
        [["0", "x0"], ["0", "x0*x1"], ["0", "x0*x1*x2"], ["0", "x0*x1*x2*x3"]],
    )
    expected = {
        str(parse_poly(t, 5))
        for t in [
            "x0",
            "x0*x1",
            "x0*x1*x2",
            "x0*x1*x2*x3",
            "x0*x1*x2*x3*x4",
            "x0 + x1",
            "x0 + x1*x2",
            "x0 + x1*x2*x3",
            "x0 + x1*x2*x3*x4",
            "x0*x1 + x2",
            "x0*x1 + x2*x3",
            "x0*x1 + x2*x3*x4",
            "x0*x1*x2 + x3",
            "x0*x1*x2 + x3*x4",
            "x0*x1*x2*x3 + x4",
        ]
    }
    got = set(fam15.canonical_texts())
    # s=1 with {zero, identity} must collapse to the product/sum triple
    fam3 = prefix_product_family([["0", "x0"]])
    triple_ok = fam3.fingerprint() == preset_family("xyxy").fingerprint()
    ok = len(got) == 15 and got == expected and triple_ok
    criterion(
        "CRITERION 5",
        ok,
        f"s=4 zero-or-product family has exactly {len(got)}/15 expected terms; "
        "s=1 {0, id} family equals {x, x+y, xy}",
    )


def test_criterion_6_construction_soundness(criterion):
    fam = preset_family("xyxy")
    n = 10**4
    runs = 1000
    completed = 0
    verify_failures = 0
    invariant_failures = 0
    for i in range(runs):
        r = 2 if i % 2 == 0 else 3
        chi = Coloring.random_uniform(n, r, np.random.default_rng(i))
        try:
            trace = run_construction(chi)
        except ConstructionInvariantError:
            invariant_failures += 1
            continue
        if trace.ok:
            completed += 1
            if not verify_witness(fam, chi, trace.witness):
                verify_failures += 1
    ok = (
        completed > 0
        and verify_failures == 0
        and invariant_failures == 0
    )
    criterion(
        "CRITERION 6",
        ok,
        f"{completed}/{runs} random-coloring runs (r in {{2,3}}, N=10^4) "
        f"completed; all {completed} emitted witnesses verify independently; "
        f"{invariant_failures} invariant violations",
    )


def test_criterion_7_reduction_grid(criterion):
    succeeded = 0
    degenerate = 0
    total = 0
    for k in (2, 3):
        for c in itertools.product(range(-5, 6), repeat=k):
            if 0 in c or sum(c) != 0:
                continue
            total += 1
            try:
                rd = quadratic_setup(c)
            except DegenerateCoefficientsError:
                degenerate += 1
                continue
            succeeded += 1
            assert sum(ci * ui * ui for ci, ui in zip(c, rd.u)) == 0
            weighted = sum(ci * ui for ci, ui in zip(c, rd.u))
            assert weighted > 0 and rd.b == 2 * weighted
    pin1 = quadratic_setup((1, -1))
    pin2 = quadratic_setup((1, 1, -2))
    ok = (
        succeeded + degenerate == total
        and pin1.u == (1, -1) and pin1.b == 4
        and pin2.u == (7, 1, -5) and pin2.b == 36
    )
    criterion(
        "CRITERION 7",
        ok,
        f"exhaustive grid (k<=3, |c|<=5, sum 0): {succeeded} succeed with exact "
        f"shift identities, {degenerate} error explicitly, of {total}; pinned "
        "cases (1,-1) -> u=(1,-1), b=4 and (1,1,-2) -> u=(7,1,-5), b=36 hold",
    )


def test_criterion_8_end_to_end_quadratic(criterion):
    c = (1, -1)
    doubling = PatternFamily.from_texts(1, ["x0", "2*x0"], "doubling")
    gap7 = PatternFamily.from_texts(1, ["x0", "x0 + 7"], "gap7")
    roster = [
        (preset_family("x_xp1"), "first-fit", 0),
        (preset_family("x_xp1"), "random", 1),
        (preset_family("x_xp1"), "random", 2),
        (doubling, "first-fit", 0),
        (doubling, "random", 3),
        (gap7, "first-fit", 0),
        (gap7, "random", 4),
    ]
    colorings = [Coloring.solid(200)]
    for fam, strategy, seed in roster:
        cert = greedy_avoider(fam, 2, 200, strategy, seed=seed)
        assert cert is not None, f"greedy {strategy} found no avoider for {fam.name}"
        colorings.append(cert.to_coloring())
    failures = 0
    for chi in colorings:
        sol = solve_quadratic(c, chi)
        if sol is None or not verify_quad_solution(c, chi, sol):
            failures += 1
            continue
        a0, a1, a2 = sol.a
        if a1 * a1 - a2 * a2 != a0:
            failures += 1
    ok = failures == 0
    criterion(
        "CRITERION 8",
        ok,
        f"a1^2 - a2^2 = a0 solved with distinct positive monochromatic entries "
        f"on the all-one coloring and {len(roster)} greedy 2-colorings of "
        f"[1..200]; {failures} verification failures",
    )


def test_criterion_9_property_suites(criterion):
    # threshold grows with the number of colors
    schur = preset_family("schur")
    mono_ok = threshold(schur, 2, 20).value <= threshold(schur, 3, 20).value
    xyxy = preset_family("xyxy")
    r3 = threshold(xyxy, 3, 12)  # lower bound is enough for the comparison
    mono_ok = mono_ok and threshold(xyxy, 2, 12).value <= r3.value

    # adding a term can only shrink the avoider space, so T can only grow
    base = preset_family("vdw", 3)
    extended = base.with_terms("x0 + 3*x1")
    ext_ok = threshold(extended, 2, 40).value >= threshold(base, 2, 20).value

    # renaming colors changes nothing
    chi = Coloring.random_uniform(30, 3, 7)
    perm_ok = all(
        count_witnesses(schur, chi) == count_witnesses(schur, chi.permuted(perm))
        for perm in ([2, 3, 1], [3, 2, 1], [1, 3, 2])
    )
    cert = exists_avoiding(schur, 2, 4)
    perm_ok = perm_ok and count_witnesses(schur, cert.to_coloring().permuted([2, 1])) == 0

    # the pruned search and the naive enumerator agree on avoidability
    presets = ("schur", "vdw:3", "geometric:2", "x_xp1", "x_y_3xmy", "xyxy")
    equiv_ok = all(
        naive_exists_avoiding(preset_from_string(name), 2, n)
        == (exists_avoiding(preset_from_string(name), 2, n) is not None)
        for name in presets
        for n in range(1, 13)
    )

    ok = mono_ok and ext_ok and perm_ok and equiv_ok
    criterion(
        "CRITERION 9",
        ok,
        "threshold monotone in r, family extension antitone, color-permutation "
        "equivariance, and pruned-vs-naive agreement (N<=12, r=2, all presets) "
        "all hold",
    )
