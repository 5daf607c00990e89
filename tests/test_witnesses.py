"""Witness enumeration, counting, verification, and serialization.

The pruned enumerator is cross-checked against the no-pruning oracle in
``bruteforce`` throughout; any divergence is a bug in the pruning logic.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from ramseykit import witnesses
from ramseykit.bruteforce import naive_all_witnesses, naive_count_witnesses, naive_instances
from ramseykit.coloring import Coloring
from ramseykit.families import PatternFamily, preset_family, reduction_family
from ramseykit.polynomials import IntPoly
from ramseykit.witnesses import (
    Instance,
    Witness,
    count_witnesses,
    enumerate_instances,
    find_witness,
    iter_witnesses,
    verify_witness,
    witness_from_json,
    witness_to_json,
)

ALL_PRESETS = [
    preset_family("schur"),
    preset_family("vdw", 3),
    preset_family("geometric", 2),
    preset_family("x_xp1"),
    preset_family("x_y_3xmy"),
    preset_family("xyxy"),
]


class TestEnumerateInstances:
    @pytest.mark.parametrize("fam", ALL_PRESETS, ids=lambda f: f.name)
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_matches_naive_oracle(self, fam, n):
        pruned = [(i.assignment, i.term_values) for i in enumerate_instances(fam, n)]
        assert pruned == naive_instances(fam, n)

    def test_lex_order(self):
        got = [inst.assignment for inst in enumerate_instances(preset_family("schur"), 4)]
        assert got == sorted(got)
        assert got[0] == (1, 1)

    def test_box_restricts_assignments(self):
        fam = preset_family("xyxy")
        boxed = list(enumerate_instances(fam, 20, box=[(2, 3), (2, 3)]))
        assert all(2 <= v <= 3 for inst in boxed for v in inst.assignment)
        assert len(boxed) == 4

    def test_uniform_int_box(self):
        fam = preset_family("schur")
        a = list(enumerate_instances(fam, 10, box=4))
        b = list(enumerate_instances(fam, 10, box=[(1, 4), (1, 4)]))
        assert a == b

    def test_negative_coefficient_admissibility(self):
        # 3*x0 - x1 must stay in [1..n]
        fam = preset_family("x_y_3xmy")
        for inst in enumerate_instances(fam, 10):
            assert all(1 <= v <= 10 for v in inst.term_values)

    def test_empty_when_constant_exceeds_n(self):
        fam = PatternFamily.from_texts(1, ["x0", "x0 + 7"])
        assert list(enumerate_instances(fam, 7)) == []
        assert len(list(enumerate_instances(fam, 8))) == 1

    @pytest.mark.parametrize("terms", [["x0", "0"], ["x0", "x1 - x1", "x0 + x1"]])
    def test_zero_term_admits_nothing(self, terms):
        # 0 lies outside every [1..n], whatever the variables are
        fam = PatternFamily.from_texts(2, terms)
        chi = Coloring.solid(10)
        assert list(enumerate_instances(fam, 10)) == []
        assert count_witnesses(fam, chi) == 0 and find_witness(fam, chi) is None
        assert list(iter_witnesses(fam, chi)) == []

    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError) as info:
            list(enumerate_instances(preset_family("schur"), 0))
        assert str(info.value) == "N must be >= 1"


class TestFindAndIterate:
    def test_first_witness_all_one_xyxy(self):
        # (1,1) gives values (1, 2, 1): the lex-least witness
        w = find_witness(preset_family("xyxy"), Coloring.solid(6))
        assert w.assignment == (1, 1)
        assert w.term_values == (1, 2, 1)
        assert w.color == 1

    def test_distinct_skips_collapsing_assignments(self):
        # (1,1) gives (1,2,1): rejected; (1,2) gives (1,3,2): first distinct hit
        w = find_witness(preset_family("xyxy"), Coloring.solid(6), distinct=True)
        assert w.assignment == (1, 2)
        assert w.term_values == (1, 3, 2)
        assert len(set(w.term_values)) == len(w.term_values)

    def test_family_distinct_default(self):
        fam = PatternFamily.from_texts(2, ["x0", "x0 + x1", "x0*x1"], distinct_required=True)
        w = find_witness(fam, Coloring.solid(6))
        assert len(set(w.term_values)) == 3

    def test_no_witness_on_avoider(self):
        chi = Coloring.from_sequence([1, 2, 2, 1])  # schur avoider at n=4
        assert find_witness(preset_family("schur"), chi) is None

    @pytest.mark.parametrize("fam", ALL_PRESETS, ids=lambda f: f.name)
    def test_iter_matches_naive(self, fam):
        chi = Coloring.random_uniform(9, 2, 3)
        mine = [(w.assignment, w.term_values, w.color) for w in iter_witnesses(fam, chi)]
        assert mine == naive_all_witnesses(fam, chi)

    def test_find_witnesses_list(self):
        ws = list(iter_witnesses(preset_family("schur"), Coloring.solid(4)))
        assert [w.assignment for w in ws] == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]


class TestCounting:
    @pytest.mark.parametrize("fam", ALL_PRESETS, ids=lambda f: f.name)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_vectorized_count_matches_naive(self, fam, seed):
        chi = Coloring.random_uniform(11, 2, seed)
        assert count_witnesses(fam, chi) == naive_count_witnesses(fam, chi)

    def test_count_with_distinct(self):
        chi = Coloring.solid(6)
        fam = preset_family("xyxy")
        assert count_witnesses(fam, chi, distinct=True) == naive_count_witnesses(
            fam, chi, distinct=True
        )

    def test_count_with_box(self):
        chi = Coloring.solid(10)
        fam = preset_family("schur")
        boxed = count_witnesses(fam, chi, box=3)
        assert boxed == sum(
            1 for _ in iter_witnesses(fam, chi, box=3)
        )

    def test_bignum_fallback_agrees(self):
        # term x0^40 overflows int64 instantly, forcing the Python-int path
        fam = PatternFamily.from_texts(1, ["x0", "x0^40"])
        chi = Coloring.solid(2)
        assert count_witnesses(fam, chi) == 1  # only x0=1 keeps x0^40 <= 2

    def test_zero_on_avoider(self):
        chi = Coloring.from_sequence([1, 2, 2, 1])
        assert count_witnesses(preset_family("schur"), chi) == 0


class TestVerifyWitness:
    def setup_method(self):
        self.fam = preset_family("schur")
        self.chi = Coloring.solid(10)
        self.good = Witness((2, 3), (2, 3, 5), 1)

    def test_good(self):
        res = verify_witness(self.fam, self.chi, self.good)
        assert res.ok and bool(res)

    def test_bad_recomputation(self):
        w = Witness((2, 3), (2, 3, 6), 1)
        res = verify_witness(self.fam, self.chi, w)
        assert not res.ok
        assert "term 3" in res.reason and "!=" in res.reason

    def test_out_of_range(self):
        w = Witness((9, 9), (9, 9, 18), 1)
        res = verify_witness(self.fam, self.chi, w)
        assert not res.ok and "out of range" in res.reason

    def test_wrong_color(self):
        chi = Coloring.modular(10, 2)
        w = Witness((2, 2), (2, 2, 4), 1)
        res = verify_witness(self.fam, chi, w)
        assert not res.ok
        assert "term 1 colored 2 != 1" in res.reason

    def test_arity_mismatch(self):
        w = Witness((2,), (2, 3, 5), 1)
        assert not verify_witness(self.fam, self.chi, w).ok

    @pytest.mark.parametrize("values", [(2, 3), (2, 3, 5, 5)])
    def test_term_value_count_mismatch(self, values):
        res = verify_witness(self.fam, self.chi, Witness((2, 3), values, 1))
        assert not res.ok and res.reason == "term value count mismatch"

    def test_distinct_enforced_when_required(self):
        fam = PatternFamily.from_texts(2, ["x0", "x0*x1"], distinct_required=True)
        w = Witness((2, 1), (2, 2), 1)
        res = verify_witness(fam, self.chi, w)
        assert not res.ok and "distinct" in res.reason

    def test_nonpositive_assignment(self):
        w = Witness((0, 3), (0, 3, 3), 1)
        assert not verify_witness(self.fam, self.chi, w).ok

    def test_witness_is_an_instance_with_a_color(self):
        assert isinstance(self.good, Instance)
        assert [f.name for f in dataclasses.fields(self.good)] == [
            "assignment", "term_values", "color"
        ]
        assert (self.good.assignment, self.good.term_values, self.good.color) == (
            (2, 3), (2, 3, 5), 1
        )


class TestSerialization:
    def test_round_trip_with_family(self):
        fam = preset_family("xyxy")
        chi = Coloring.solid(6)
        w = find_witness(fam, chi)
        data = witness_to_json(fam, chi, w)
        assert data["family_name"] == "xyxy"
        assert data["n"] == 6 and data["r"] == 1
        back, fam_back = witness_from_json(data)
        assert back == w and fam_back == fam

    def test_without_family(self):
        data = {"assignment": [1, 2], "term_values": [1, 2, 3], "color": 2}
        w, fam = witness_from_json(data)
        assert fam is None and w.assignment == (1, 2) and w.color == 2

    def test_reduction_family_witness_round_trip(self):
        fam = reduction_family((1, -1))
        chi = Coloring.solid(30)
        w = find_witness(fam, chi)
        back, fam_back = witness_from_json(witness_to_json(fam, chi, w))
        assert verify_witness(fam_back, chi, back).ok


# ---- the chunked enumerator against a plain cartesian product ----


def oracle_instances(family, n, box=None):
    """Admissible (assignment, values) pairs over the box, in lex order, by
    evaluating every term at every point of the box."""
    if box is None:
        box = n
    if isinstance(box, int):
        box = [(1, box)] * family.num_vars
    out = []
    for a in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
        vals = tuple(t.evaluate(a) for t in family.terms)
        if all(1 <= v <= n for v in vals):
            out.append((a, vals))
    return out


def oracle_witnesses(family, coloring, distinct, box):
    if distinct is None:
        distinct = family.distinct_required
    out = []
    for a, vals in oracle_instances(family, coloring.n, box):
        colors = {coloring.color_of(v) for v in vals}
        if len(colors) == 1 and not (distinct and len(set(vals)) != len(vals)):
            out.append((a, vals, colors.pop()))
    return out


def fam(num_vars, *terms, distinct=False):
    return PatternFamily.from_texts(num_vars, terms, distinct_required=distinct)


# (family, n, box); huge exponents put the object-dtype path to work
ENUMERATOR_CASES = (
    [(f, n, None) for f in ALL_PRESETS for n in (1, 2, 7, 30)]
    + [(preset_family(k, m), 30, None) for k, m in (("vdw", 4), ("geometric", 3))]
    + [(fam(2, "x0", "x1", "3*x0 - x1", distinct=True), n, None) for n in (9, 15, 30)]
    + [
        (fam(3, "x0", "x1", "x2", "x0 + x1 - x2"), 12, None),  # cancelling term
        (fam(3, "x0", "x0*x1*x2", "x1 + 2*x2^2"), 14, None),
        (fam(2, "x0", "x0 - x1"), 20, None),  # box-incomplete: x1 is unbounded
        (fam(2, "x0", "x0 - x1"), 20, [(1, 20), (1, 45)]),
        (fam(1, "x0", "x0 + 7"), 12, None),
        (fam(2, "x0", "x1", "5"), 6, None),
        (preset_family("xyxy"), 30, [(3, 9), (2, 20)]),  # lo > 1
        (preset_family("schur"), 25, [(4, 30), (7, 7)]),
        (preset_family("schur"), 20, 50),  # box wider than N
        (preset_family("x_y_3xmy"), 20, 45),
        (fam(2, "x0^30*x1^30", "x0"), 7, None),  # beyond int64
        (fam(2, "x0", "x1", "x0^30 - x1^30 + x1"), 25, None),
        (fam(2, "x0^2 + x1", "x1^3"), 30, 40),
        (preset_family("geometric", 2), 30, [(1, 30), (2, 30)]),  # x0 > 7 has no x1
        (fam(2, "x0", "x0 + x1 + 10^20"), 5, None),  # bound below any int64
        (fam(2, "x0 + 10^20 - x1", "x1"), 5, [(1, 5), (10**20 - 3, 10**20 + 2)]),
        (fam(2, "x0"), 3, [(1, 3), (10**20, 10**20 + 1)]),  # small terms, huge box
    ]
)


def case_id(case):
    f, n, box = case
    name = f.name or "|".join(f.canonical_texts())
    return f"{name}{'-distinct' if f.distinct_required else ''}-n{n}-box{box}"


@pytest.fixture(params=[False, True], ids=["chunks-default", "chunks-of-3"])
def chunking(request, monkeypatch):
    if request.param:  # chunk boundaries fall inside every level
        monkeypatch.setattr(witnesses, "_FIRST_CHUNK", 3)
        monkeypatch.setattr(witnesses, "_MAX_CHUNK", 6)


class TestChunkedEnumerator:
    @pytest.mark.parametrize("case", ENUMERATOR_CASES, ids=case_id)
    def test_matches_cartesian_oracle(self, case, chunking):
        family, n, box = case
        expected = oracle_instances(family, n, box)
        got = [(i.assignment, i.term_values) for i in enumerate_instances(family, n, box)]
        assert got == expected
        assert all(type(v) is int for a, vals in got for v in a + vals)
        for r, seed in ((1, 0), (2, 1), (3, 2)):
            chi = Coloring.random_uniform(n, r, seed)
            for distinct in (None, True, False):
                want = oracle_witnesses(family, chi, distinct, box)
                ws = list(iter_witnesses(family, chi, distinct=distinct, box=box))
                assert [(w.assignment, w.term_values, w.color) for w in ws] == want
                assert all(type(w.color) is int for w in ws)
                assert count_witnesses(family, chi, distinct=distinct, box=box) == len(want)
                first = find_witness(family, chi, distinct=distinct, box=box)
                if want:
                    assert (first.assignment, first.term_values, first.color) == want[0]
                else:
                    assert first is None

    def test_object_path_is_exercised(self):
        family = fam(2, "x0", "x1", "x0^30 - x1^30 + x1")
        assert not witnesses._int64_safe(family.terms, ((1, 25), (1, 25)))
        assert [i.assignment for i in enumerate_instances(family, 25)] == [
            (v, v) for v in range(1, 26)
        ]

    def test_find_is_lazy(self, monkeypatch):
        # the first witness comes from the first chunk; later ones are never built
        family, chi = preset_family("schur"), Coloring.solid(3000)
        sizes = []
        chunks = witnesses._instance_chunks

        def spy(*args, **kwargs):
            for cols, vals in chunks(*args, **kwargs):
                sizes.append(len(cols[0]))
                yield cols, vals

        monkeypatch.setattr(witnesses, "_instance_chunks", spy)
        assert find_witness(family, chi).assignment == (1, 1)
        assert sizes and sum(sizes) <= 2 * witnesses._FIRST_CHUNK


def numpy_count(kind, colors):
    """Monochromatic admissible (x, y) over [1..N]^2, straight from the outer
    sum and product: schur is {x, y, x+y}, xyxy is {x, x+y, xy}."""
    n = len(colors)
    a = np.arange(1, n + 1)
    lookup = np.concatenate(([0], colors))
    total = 0
    for lo in range(0, n, 500):  # row blocks keep the outer tables small
        x = a[lo : lo + 500]
        s = np.add.outer(x, a)
        if kind == "schur":
            terms = [np.broadcast_to(x[:, None], s.shape), np.broadcast_to(a, s.shape), s]
        else:
            terms = [np.broadcast_to(x[:, None], s.shape), s, np.multiply.outer(x, a)]
        ok = np.logical_and.reduce([t <= n for t in terms])
        c = [lookup[np.where(ok, t, 0)] for t in terms]
        total += int(np.count_nonzero(ok & (c[0] == c[1]) & (c[1] == c[2])))
    return total


class TestDefaultWindows:
    """The enumerator at its real window sizes: the windows grow to
    _MAX_CHUNK rows, and a large level is cut more than once."""

    @pytest.fixture
    def windows(self, monkeypatch):
        sizes = []
        chunks = witnesses._instance_chunks

        def spy(*args, **kwargs):
            for cols, vals in chunks(*args, **kwargs):
                sizes.append(len(cols[0]))
                yield cols, vals

        monkeypatch.setattr(witnesses, "_instance_chunks", spy)
        return sizes

    @pytest.mark.parametrize("kind, n", [("schur", 1000), ("xyxy", 3000)])
    @pytest.mark.parametrize("r", [2, 3])
    def test_count_matches_outer_tables(self, kind, n, r, windows):
        colors = np.random.default_rng([n, r]).integers(1, r + 1, size=n)
        got = count_witnesses(preset_family(kind), Coloring(n, r, colors))
        assert got == numpy_count(kind, colors)
        assert max(windows) <= witnesses._MAX_CHUNK
        if kind == "schur":  # about N^2/2 instances: a window boundary is crossed
            assert len(windows) >= 2

    def test_stream_matches_oracle(self, windows):
        family, chi = preset_family("schur"), Coloring.random_uniform(1000, 2, 7)
        got = [(w.assignment, w.term_values, w.color) for w in iter_witnesses(family, chi, box=300)]
        assert got == oracle_witnesses(family, chi, None, 300)
        assert len(windows) >= 2 and max(windows) <= witnesses._MAX_CHUNK


def assignments(chunks):
    return [a for cols, _ in chunks for a in zip(*(c.tolist() for c in cols))]


class TestColorRestriction:
    """Given a color table, the enumerator keeps below a term a + x_d only
    the x_d whose a + x_d has the color the row's values already share: it
    drops rows that are no witnesses, and nothing else."""

    @pytest.mark.parametrize("terms", [("x0", "x1 - x0", "x1 + 1"),
                                       ("x0", "2*x1 + 1", "x1 - x0")])
    @pytest.mark.parametrize("n", [50, 120])
    def test_shift_terms_whose_a_goes_below_one(self, terms, n):
        # x1 - x0 is a + x1 with a = -x0, so a + 1 <= 0 on every row: the
        # lower bound of the row's keys must be clamped to the value 1
        family = fam(2, *terms)
        assert witnesses._depth_plan(family.terms)[4][1] == -IntPoly.var(2, 0)
        for seed in range(3):
            chi = Coloring.random_uniform(n, 2, seed)
            want = naive_all_witnesses(family, chi)
            assert count_witnesses(family, chi) == len(want)
            got = [(w.assignment, w.term_values, w.color) for w in iter_witnesses(family, chi)]
            assert got == want

    @pytest.mark.parametrize("family", [preset_family("schur"), preset_family("vdw", 3),
                                        preset_family("xyxy"), fam(2, "x0", "x0 + x1 - 5")],
                             ids=lambda f: f.name or "shift-past-n")
    def test_only_rows_that_are_no_witnesses_go(self, family):
        # on the last family a + x1 with a = x0 - 5 has no bound but x1 <= N,
        # so the upper bound of the row's keys must be clamped to the value N
        n = 300
        chi = Coloring.random_uniform(n, 2, 11)
        full = assignments(witnesses._instance_chunks(family, n))
        kept = assignments(witnesses._instance_chunks(family, n, None, witnesses._color_table(chi)))
        assert len(full) > witnesses._FIRST_CHUNK  # not served from the cache
        wanted = [w[0] for w in oracle_witnesses(family, chi, False, None)]
        # kept lies between the witnesses and the full stream, in its order
        position = {a: i for i, a in enumerate(full)}
        assert [position[a] for a in kept] == sorted(position[a] for a in kept)
        assert set(wanted) <= set(kept)
        assert len(kept) < 0.6 * len(full)  # about half go at r = 2


def stream_rows(family, n, box=None):
    return sum(len(cols[0]) for cols, _ in witnesses._instance_chunks(family, n, box))


def cached(family, n, box=None):
    """The _small_stream entry of a stream, which must be in the cache."""
    nb = witnesses._normalize_box(family, n, box)
    hits = witnesses._small_stream.cache_info().hits
    entry = witnesses._small_stream(family.terms, n, nb)
    assert witnesses._small_stream.cache_info().hits == hits + 1, "not cached"
    return entry


def chunk_rows(chunks):
    return sum(len(cols[0]) for cols, _ in chunks)


class TestSmallEnumerationMemo:
    """_small_stream caches the chunks of a stream of at most _FIRST_CHUNK
    rows, and None for a larger one; the cache changes speed only."""

    @pytest.mark.parametrize(
        "family", ALL_PRESETS + [preset_family("vdw", 4), preset_family("geometric", 3),
                                 fam(2, "x0", "x1", "x0^30 - x1^30 + x1")],
        ids=lambda f: f.name or "object-path")
    def test_served_chunks_equal_a_cold_run(self, family):
        for n in range(1, 13):
            for box in (None, 5, [(2, n + 3)] * family.num_vars):
                first = list(witnesses._instance_chunks(family, n, box))
                assert chunk_rows(cached(family, n, box)) == chunk_rows(first)
                served = list(witnesses._instance_chunks(family, n, box))
                witnesses._small_stream.cache_clear()
                cold = list(witnesses._instance_chunks(family, n, box))
                assert len(served) == len(cold)
                for (sc, sv), (cc, cv) in zip(served, cold):
                    assert len(sc) == len(cc) and len(sv) == len(cv)
                    for s, c in zip(sc + sv, cc + cv):
                        assert s is not c and s.dtype == c.dtype
                        assert s.tolist() == c.tolist()

    def test_columns_are_read_only(self):
        # xyxy N=12 has 33 instances, so it is cached; schur N=60 has 1770
        for family, n in ((preset_family("xyxy"), 12), (preset_family("schur"), 60)):
            for _ in range(2):  # the first run and the run served from the cache
                chunks = list(witnesses._instance_chunks(family, n))
                for cols, vals in chunks:
                    for a in cols + vals:
                        assert not a.flags.writeable
                        with pytest.raises(ValueError):
                            a[0] = 99
            assert (cached(family, n) is None) == (n == 60)
            # the lists served are the caller's own
            rows = [len(c) for c, _ in chunks]
            cols, vals = chunks[0]
            cols.clear()
            vals.append(None)
            assert [len(c) for c, _ in witnesses._instance_chunks(family, n)] == rows
        assert witnesses._small_stream.cache_info().currsize == 2

    def test_early_stop_caches_the_small_stream(self):
        # _small_stream enumerates a small stream whole before its first
        # chunk is served, so a consumer that stops early still caches it
        family, chi = preset_family("schur"), Coloring.solid(8)
        assert find_witness(family, chi).assignment == (1, 1)
        assert chunk_rows(cached(family, 8)) == 28
        stream = witnesses._instance_chunks(family, 9)
        next(stream)
        stream.close()
        assert chunk_rows(cached(family, 9)) == 36
        assert count_witnesses(family, chi) == 28
        assert find_witness(family, chi).assignment == (1, 1)  # served from the cache
        assert witnesses._small_stream.cache_info().currsize == 2

    def test_only_streams_within_the_first_window_are_kept(self):
        family = preset_family("schur")  # (N - 1) N / 2 instances
        assert witnesses._FIRST_CHUNK == 1024
        for _ in range(2):  # computed, then cached as None: streamed in full both times
            assert stream_rows(family, 46) == 1035
            assert cached(family, 46) is None
        assert stream_rows(family, 45) == 990
        assert chunk_rows(cached(family, 45)) == 990

    def test_rows_stay_within_the_bound(self):
        maxsize = witnesses._small_stream.cache_info().maxsize
        assert maxsize * witnesses._FIRST_CHUNK == 1 << 16
        family = preset_family("schur")
        assert stream_rows(family, 1) == 0
        assert cached(family, 1) == ()  # no instances: kept, as no chunks
        for n in list(range(1, 100)) * 2:  # more keys than the cache holds
            rows = stream_rows(family, n)
            entry = cached(family, n)
            if rows > witnesses._FIRST_CHUNK:
                assert entry is None
            else:
                assert chunk_rows(entry) == rows
            assert witnesses._small_stream.cache_info().currsize <= maxsize
