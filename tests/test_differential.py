"""A seeded random-family differential: the engines against the naive oracles.

The families are drawn once from fixed seeds: 1-3 variables and 1-3 random
terms of degree <= 2, half of them with the bare variables added (which makes
them box-complete) and 30 % requiring distinct values.  The first 300 take
their coefficients from {-2..3}, and most of them admit no instance in a small
box, since a term with a negative coefficient is rarely positive; 150 more take
them from {0..3}, so that most of those do.  On the box-complete families,
threshold is checked against naive_threshold, and the fail-first engine that
refutes for it against naive_exists_avoiding.  Each check walks every family
and names the first one that differs.  A family found failing here becomes a named
regression case elsewhere.
"""

import itertools
import random

import pytest

from ramseykit.bruteforce import (
    naive_avoiding_canonical,
    naive_count_witnesses,
    naive_exists_avoiding,
    naive_instances,
    naive_threshold,
)
from ramseykit.coloring import Coloring
from ramseykit.families import PatternFamily
from ramseykit.polynomials import IntPoly
from ramseykit.search import (
    IncompleteBoxError,
    _FailFirst,
    _Search,
    exists_avoiding,
    find_all_avoiding,
    greedy_avoider,
    threshold,
)
from ramseykit.witnesses import count_witnesses, enumerate_instances

SEED = 20261020
FAMILY_COUNT = 300
NONNEGATIVE_COUNT = 150


def random_family(rng: random.Random, low: int = -2) -> PatternFamily:
    num_vars = rng.randint(1, 3)
    monomials = [e for e in itertools.product(range(3), repeat=num_vars) if sum(e) <= 2]
    terms = []
    for _ in range(rng.randint(1, 3)):
        picked = rng.sample(monomials, rng.randint(1, min(3, len(monomials))))
        terms.append(IntPoly(num_vars, {e: rng.randint(low, 3) for e in picked}))
    if rng.random() < 0.5:
        terms += [IntPoly.var(num_vars, i) for i in range(num_vars)]
    return PatternFamily(num_vars, tuple(terms), distinct_required=rng.random() < 0.3)


_rng, _nonnegative = random.Random(SEED), random.Random(SEED + 3)
FAMILIES = ([random_family(_rng) for _ in range(FAMILY_COUNT)]
            + [random_family(_nonnegative, 0) for _ in range(NONNEGATIVE_COUNT)])
COMPLETE = [f for f in FAMILIES if f.box_complete()]
INCOMPLETE = [f for f in FAMILIES if not f.box_complete()]


def test_both_kinds_are_drawn():
    assert len(COMPLETE) >= FAMILY_COUNT // 4 and len(INCOMPLETE) >= FAMILY_COUNT // 4


def test_most_families_have_instances():
    # otherwise the comparisons below mostly compare empty with empty
    have = [next(iter(enumerate_instances(fam, 12)), None) is not None for fam in FAMILIES]
    assert sum(have) >= len(FAMILIES) // 2


@pytest.mark.parametrize("n", [1, 3, 7, 12])
def test_enumerate_instances_matches_naive(n):
    for fam in FAMILIES:
        got = [(i.assignment, i.term_values) for i in enumerate_instances(fam, n)]
        assert got == naive_instances(fam, n), str(fam)


def test_count_witnesses_matches_naive():
    rng = random.Random(SEED + 1)
    for fam in FAMILIES:
        for _ in range(2):
            n, r = rng.randint(1, 12), rng.randint(1, 3)
            chi = Coloring.random_uniform(n, r, rng.randrange(1 << 30))
            assert count_witnesses(fam, chi) == naive_count_witnesses(fam, chi), (str(fam), chi)


def test_searches_match_naive_on_box_complete_families():
    rng = random.Random(SEED + 2)
    answers = {True: 0, False: 0}  # found an avoider, or showed there is none
    for fam in COMPLETE:
        r, n = rng.randint(1, 3), rng.randint(1, 7)
        canonical = naive_avoiding_canonical(fam, r, n)
        cert = exists_avoiding(fam, r, n)
        got = None if cert is None else tuple(cert.coloring.colors.tolist())
        assert got == (canonical[0] if canonical else None), (str(fam), r, n)
        answers[cert is not None] += 1
        for strategy in ("first-fit", "random"):
            cert = greedy_avoider(fam, r, n, strategy, seed=rng.randrange(1 << 30), restarts=4)
            assert cert is None or naive_count_witnesses(fam, cert.coloring) == 0, str(fam)
    assert min(answers.values()) >= len(COMPLETE) // 10, answers


def test_threshold_matches_naive_on_box_complete_families():
    # value, exactness and the lex-first avoider at T-1 (at max_n for a bound);
    # threshold's refutations come from the fail-first engine
    rng = random.Random(SEED + 4)
    exact = 0
    for fam in COMPLETE:
        r = rng.randint(1, 3)
        max_n = {1: 12, 2: 10, 3: 8}[r]
        res = threshold(fam, r, max_n)
        t = naive_threshold(fam, r, max_n)
        assert (res.value, res.exact) == ((t, True) if t else (max_n + 1, False)), (str(fam), r)
        below = res.value - 1
        if below:
            got = tuple(res.certificate.coloring.colors.tolist())
            assert got == naive_avoiding_canonical(fam, r, below)[0], (str(fam), r)
        else:
            assert res.certificate is None, (str(fam), r)
        exact += res.exact
    assert min(exact, len(COMPLETE) - exact) >= len(COMPLETE) // 10, exact


def test_fail_first_engine_matches_naive():
    rng = random.Random(SEED + 5)
    answers = {True: 0, False: 0}  # refuted, or found an avoider
    for fam in COMPLETE:
        r, n = rng.randint(1, 3), rng.randint(1, 8)
        engine = _FailFirst(_Search(fam, r, n, n=n, size=n))
        refuted = engine.refutes(0, float("inf"), float("inf"))
        assert refuted == (not naive_exists_avoiding(fam, r, n)), (str(fam), r, n)
        answers[refuted] += 1
    assert min(answers.values()) >= len(COMPLETE) // 10, answers


@pytest.mark.parametrize("search", [exists_avoiding, threshold, find_all_avoiding, greedy_avoider])
def test_searches_refuse_box_incomplete_families(search):
    for fam in INCOMPLETE:
        with pytest.raises(IncompleteBoxError):
            search(fam, 2, 5)
