"""Avoiding-coloring search, thresholds, certificates, and the greedy heuristic.

The backtracking search explores canonical colorings only (color t may appear
only after 1..t-1 all have), so its find-all output is compared against the
canonical filter of the full enumeration oracle, and its exists/threshold
answers against the unfiltered oracle.
"""

import json
import random
from pathlib import Path

import pytest

from ramseykit import search, witnesses
from ramseykit.bruteforce import (
    naive_avoiding_canonical,
    naive_exists_avoiding,
    naive_threshold,
    naive_value_sets,
)
from ramseykit.coloring import Coloring
from ramseykit.families import PatternFamily, preset_family
from ramseykit.search import (
    AvoidCertificate,
    IncompleteBoxError,
    SearchBudgetExceeded,
    SearchStats,
    build_instance_index,
    exists_avoiding,
    find_all_avoiding,
    greedy_avoider,
    threshold,
    verify_certificate,
)
from ramseykit.witnesses import count_witnesses

BOX_COMPLETE_PRESETS = [
    preset_family("schur"),
    preset_family("vdw", 3),
    preset_family("geometric", 2),
    preset_family("x_xp1"),
    preset_family("x_y_3xmy"),
    preset_family("xyxy"),
]


EQUIVALENCE_FAMILIES = BOX_COMPLETE_PRESETS + [
    PatternFamily.from_texts(2, ["x0", "x1", "3*x0 - x1"], "x_y_3xmy", distinct_required=True),
]


def _family_id(fam):
    return fam.name + (":distinct" if fam.distinct_required else "")


class TestInstanceIndex:
    @pytest.mark.parametrize("fam", EQUIVALENCE_FAMILIES + [
        PatternFamily.from_texts(3, ["x0", "x1", "x2", "x0 + x1 - x2"], "cancelling"),
        PatternFamily.from_texts(2, ["x0", "x1", "5"], "constant"),
        PatternFamily.from_texts(1, ["x0^2"], "one-term"),
    ], ids=_family_id)
    @pytest.mark.parametrize("small_chunks", [False, True])
    def test_buckets_match_naive_value_sets(self, fam, small_chunks, monkeypatch):
        if small_chunks:
            monkeypatch.setattr(witnesses, "_FIRST_CHUNK", 2)
            monkeypatch.setattr(witnesses, "_MAX_CHUNK", 4)
        for n in (1, 5, 12):
            expected = [[] for _ in range(n + 1)]
            for vs in naive_value_sets(fam, n):
                if len(vs) == 1:
                    expected[0].append((vs[0], ()))
                else:
                    expected[vs[-2]].append((vs[-1], vs[:-2]))
            assert build_instance_index(fam, n) == [sorted(b) for b in expected]


class TestExistsAvoiding:
    @pytest.mark.parametrize("fam", BOX_COMPLETE_PRESETS, ids=lambda f: f.name)
    @pytest.mark.parametrize("n", [1, 3, 6, 9, 12])
    def test_agrees_with_naive_r2(self, fam, n):
        got = exists_avoiding(fam, 2, n) is not None
        assert got == naive_exists_avoiding(fam, 2, n)

    @pytest.mark.parametrize("n", [1, 4, 8, 11])
    def test_agrees_with_naive_r3_schur(self, n):
        fam = preset_family("schur")
        got = exists_avoiding(fam, 3, n) is not None
        assert got == naive_exists_avoiding(fam, 3, n)

    def test_certificate_is_verified_and_reusable(self):
        cert = exists_avoiding(preset_family("schur"), 2, 4)
        assert cert is not None and verify_certificate(cert)
        assert count_witnesses(preset_family("schur"), cert.coloring) == 0

    def test_schur_n4_canonical_classes(self):
        # canonical-first search yields classes {1,4} and {2,3}
        cert = exists_avoiding(preset_family("schur"), 2, 4)
        chi = cert.coloring
        assert chi.class_values(1).tolist() == [1, 4]
        assert chi.class_values(2).tolist() == [2, 3]

    def test_none_when_forced(self):
        assert exists_avoiding(preset_family("schur"), 2, 5) is None
        assert exists_avoiding(preset_family("xyxy"), 2, 4) is None

    def test_box_incomplete_rejected(self):
        fam = PatternFamily.from_texts(2, ["x0", "x0 - x1"])
        with pytest.raises(IncompleteBoxError):
            exists_avoiding(fam, 2, 10)

    def test_box_relative_only_by_hand(self):
        # no search makes a certificate of a box-incomplete family; one built
        # by hand writes box_relative false like any other, and is not read back
        fam = PatternFamily.from_texts(2, ["x0", "x0 - x1"])
        data = AvoidCertificate(fam, Coloring.from_sequence([1, 2], 2)).to_json()
        assert data["box_relative"] is False
        with pytest.raises(ValueError, match="family is not box-complete"):
            AvoidCertificate.from_json(data)
        assert exists_avoiding(preset_family("schur"), 2, 4).to_json()["box_relative"] is False
        assert greedy_avoider(preset_family("x_xp1"), 2, 20).to_json()["box_relative"] is False

    def test_budget_raises(self):
        with pytest.raises(SearchBudgetExceeded):
            exists_avoiding(preset_family("schur"), 3, 13, max_nodes=50)

    # NaN compares false with everything: a test of "< 0" alone lets it through as no limit
    @pytest.mark.parametrize("budget", [{"max_nodes": -1}, {"time_limit": -1},
                                        {"time_limit": float("nan")}])
    def test_negative_budget_rejected(self, budget):
        with pytest.raises(ValueError, match="need budgets >= 0"):
            exists_avoiding(preset_family("schur"), 3, 13, **budget)
        with pytest.raises(ValueError, match="need budgets >= 0"):
            threshold(preset_family("schur"), 3, 20, **budget)

    def test_infinite_time_limit_is_no_limit(self):
        assert threshold(preset_family("schur"), 2, 10, time_limit=float("inf")).describe() == "T = 5"
        assert exists_avoiding(preset_family("schur"), 2, 4, time_limit=float("inf")) is not None

    def test_zero_budget_is_valid(self):
        with pytest.raises(SearchBudgetExceeded):
            exists_avoiding(preset_family("schur"), 2, 4, max_nodes=0)
        # the clock is first read at node 2048, and this search takes fewer
        assert exists_avoiding(preset_family("schur"), 2, 4, time_limit=0) is not None

    def test_stats_accumulate(self):
        stats = SearchStats()
        exists_avoiding(preset_family("schur"), 2, 5, stats=stats)
        assert stats.nodes > 0

    def test_single_job_only(self):
        assert exists_avoiding(preset_family("schur"), 2, 4, jobs=1) is not None
        with pytest.raises(ValueError):
            exists_avoiding(preset_family("schur"), 3, 10, jobs=2)
        with pytest.raises(ValueError):
            threshold(preset_family("schur"), 3, 10, jobs=2)

    @pytest.mark.parametrize("fam", EQUIVALENCE_FAMILIES, ids=_family_id)
    @pytest.mark.parametrize("r, max_n", [(2, 10), (3, 7)])
    def test_is_first_canonical_avoider(self, fam, r, max_n):
        # forward checking must not change which avoider comes first
        for n in range(1, max_n + 1):
            oracle = naive_avoiding_canonical(fam, r, n)
            cert = exists_avoiding(fam, r, n)
            got = None if cert is None else tuple(cert.coloring.colors.tolist())
            assert got == (oracle[0] if oracle else None), f"N={n}"


class TestFindAllAvoiding:
    @pytest.mark.parametrize("fam", BOX_COMPLETE_PRESETS, ids=lambda f: f.name)
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_matches_canonical_oracle(self, fam, n):
        mine = [list(c) for c in find_all_avoiding(fam, 2, n)]
        oracle = [list(c) for c in naive_avoiding_canonical(fam, 2, n)]
        assert mine == oracle

    @pytest.mark.parametrize("n", [4, 8, 11])
    def test_matches_canonical_oracle_r3(self, n):
        fam = preset_family("schur")
        mine = [list(c) for c in find_all_avoiding(fam, 3, n)]
        oracle = [list(c) for c in naive_avoiding_canonical(fam, 3, n)]
        assert mine == oracle

    def test_every_result_is_avoiding(self):
        fam = preset_family("xyxy")
        sols = find_all_avoiding(fam, 3, 6)
        assert sols
        for sol in sols:
            chi = Coloring.from_sequence(list(sol), r=3)
            assert count_witnesses(fam, chi) == 0


class TestThreshold:
    def test_schur_2(self):
        res = threshold(preset_family("schur"), 2, 20)
        assert res.exact and res.value == 5
        assert res.certificate.n == 4
        assert verify_certificate(res.certificate)

    def test_schur_3(self):
        res = threshold(preset_family("schur"), 3, 20)
        assert res.exact and res.value == 14

    def test_vdw3(self):
        res = threshold(preset_family("vdw", 3), 2, 20)
        assert res.exact and res.value == 9
        assert res.value == naive_threshold(preset_family("vdw", 3), 2, 12)

    def test_naive_threshold_none_below_t(self):
        assert naive_threshold(preset_family("schur"), 2, 4) is None  # T = 5
        assert threshold(preset_family("schur"), 2, 4).describe() == "T >= 5"

    @pytest.mark.parametrize("oracle, r, n, message", [
        (naive_exists_avoiding, 2, 27, "naive oracle infeasible: 2^27 colorings"),
        (naive_avoiding_canonical, 3, 17, "naive oracle infeasible: 3^17 colorings"),
    ])
    def test_naive_oracle_refuses_infeasible_sizes(self, oracle, r, n, message):
        with pytest.raises(ValueError) as info:
            oracle(preset_family("schur"), r, n)
        assert str(info.value) == message

    def test_xyxy(self):
        res = threshold(preset_family("xyxy"), 2, 20)
        assert res.exact and res.value == 4

    def test_geometric_is_trivial(self):
        # x0 alone with x0*x1 <= n forces x1 = 1 at n = 1: single-value sets
        # complete at N = 1 for every r
        for r in (1, 2, 3):
            res = threshold(preset_family("geometric", 2), r, 5)
            assert res.exact and res.value == 1

    def test_lower_bound_shape(self):
        res = threshold(preset_family("x_xp1"), 2, 12)
        assert not res.exact and res.value == 13
        assert res.describe() == "T >= 13"
        assert res.certificate.n == 12

    def test_monotone_in_r(self):
        fam = preset_family("schur")
        t2 = threshold(fam, 2, 20).value
        t3 = threshold(fam, 3, 20).value
        assert t2 <= t3

    def test_extension_antitone(self):
        # adding a term can only shrink the avoider space, so T can only drop
        base = preset_family("vdw", 3)
        extended = base.with_terms("x0 + 3*x1")  # vdw:4 superset
        t_base = threshold(base, 2, 20)
        t_ext = threshold(extended, 2, 40)
        assert t_ext.value >= t_base.value  # longer progressions are harder to force

    def test_box_incomplete_rejected(self):
        with pytest.raises(IncompleteBoxError):
            threshold(PatternFamily.from_texts(2, ["x0", "x0 - x1"]), 2, 10)

    def test_rejects_no_colors(self):
        with pytest.raises(ValueError, match="need r >= 1"):
            threshold(preset_family("schur"), 0, 5)

    def test_budget_propagates(self):
        with pytest.raises(SearchBudgetExceeded):
            threshold(preset_family("schur"), 3, 14, max_nodes=30)

    def test_budget_keeps_proven_bound(self):
        # a run to max_n=13 places 132 colors; the fail-first refutation of
        # N=14 places 69 more, so a budget that stops one short of them ends
        # inside it with the bound proven below
        fam = preset_family("schur")
        below = threshold(fam, 3, 13)
        assert not below.exact and below.value == 14 and below.nodes == 132
        assert threshold(fam, 3, 20, max_nodes=below.nodes + 69).describe() == "T = 14"
        with pytest.raises(SearchBudgetExceeded) as info:
            threshold(fam, 3, 20, max_nodes=below.nodes + 68)
        partial = info.value.partial
        assert partial.describe() == "T >= 14" and not partial.exact
        assert partial.certificate.n == 13 and verify_certificate(partial.certificate)
        assert partial.certificate.rle == below.certificate.rle
        assert info.value.nodes == partial.nodes == below.nodes + 69

    def test_budget_before_any_avoider(self):
        with pytest.raises(SearchBudgetExceeded) as info:
            threshold(preset_family("schur"), 2, 10, max_nodes=0)
        partial = info.value.partial
        assert partial.describe() == "T >= 1" and partial.certificate is None

    @pytest.mark.parametrize("fam", EQUIVALENCE_FAMILIES, ids=_family_id)
    @pytest.mark.parametrize("r", [2, 3])
    def test_matches_fresh_search_per_n(self, fam, r):
        # one live search, opening one position at a time on an index that
        # doubles, answers exactly as a fresh search at every N
        self._assert_matches_fresh(fam, r, 20)

    @pytest.mark.parametrize("fam", EQUIVALENCE_FAMILIES + [
        PatternFamily.from_texts(2, ["x0", "x0 + x1", "x0*x1"], "xyxy", distinct_required=True),
    ], ids=_family_id)
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_certificate_is_the_fresh_first_avoider(self, fam, r):
        # max_n = 40 crosses the index doublings at 16 and 32
        res = threshold(fam, r, 40)
        cert = res.certificate
        if cert is not None:
            fresh = exists_avoiding(fam, r, cert.n)
            assert fresh is not None and (fresh.n, fresh.rle) == (cert.n, cert.rle)
        if res.exact:
            assert exists_avoiding(fam, r, res.value) is None
        else:
            assert res.value == 41 and cert.n == 40

    @pytest.fixture
    def placed(self, monkeypatch):
        """The positions the DFS (_Search.place) and the refutation
        (_Search.place_any) color, in call order."""
        made = []
        for order in ("place", "place_any"):
            def counting(self, p, c, real=getattr(search._Search, order)):
                made.append(p)
                return real(self, p, c)

            monkeypatch.setattr(search._Search, order, counting)
        return made

    @pytest.mark.parametrize("name, r, max_n, answer, nodes", [
        ("schur", 2, 20, "T = 5", 13),
        ("schur", 3, 20, "T = 14", 201),
        ("xyxy", 3, 72, "T >= 73", 366),
        ("x_xp1", 3, 3000, "T >= 3001", 3000),
    ], ids=["schur-r2", "schur-r3", "xyxy-r3", "x_xp1-r3"])
    def test_nodes_are_the_colors_placed(self, placed, name, r, max_n, answer, nodes):
        res = threshold(preset_family(name), r, max_n)
        assert res.describe() == answer and res.nodes == len(placed) == nodes

    def test_no_replay_when_nothing_backtracks(self, placed):
        # {x, x+1} at r=3: every avoider extends, so each N places one color
        # and opening N+1 replays nothing
        res = threshold(preset_family("x_xp1"), 3, 3000, max_nodes=3000)
        assert res.describe() == "T >= 3001" and placed == list(range(1, 3001))
        with pytest.raises(SearchBudgetExceeded):
            threshold(preset_family("x_xp1"), 3, 3000, max_nodes=2999)

    def test_time_limit_read_across_opened_positions(self):
        # one node per opened position: the clock is read at node 2048, before
        # the search reaches N = 3000
        with pytest.raises(SearchBudgetExceeded, match="time limit exceeded") as info:
            threshold(preset_family("x_xp1"), 3, 3000, time_limit=0)
        assert info.value.partial.value < 3001

    def test_open_undoes_to_the_emptying_position(self):
        # xyxy at r=3: opening 36 empties its mask at p=20 (and 72 at p=27);
        # an open that only backtracks from N thrashes through 21..35.  Each
        # of the five N that empty (16, 36, 40, 52, 72) also asks the engine,
        # which finds an avoider in N nodes: 216 of the 366
        fam = preset_family("xyxy")
        res = threshold(fam, 3, 72, max_nodes=366)
        assert res.describe() == "T >= 73" and res.nodes == 366
        with pytest.raises(SearchBudgetExceeded) as info:
            threshold(fam, 3, 72, max_nodes=365)
        partial = info.value.partial
        assert partial.describe() == "T >= 72" and partial.nodes == 366
        assert partial.certificate.rle == exists_avoiding(fam, 3, 71).rle

    def test_node_budget_partials_are_deterministic(self):
        # whatever the budget, the partial T >= N carries the lex-first avoider
        # at N-1; the run places 201 colors, so budget 200 ends in the refutation
        fam = preset_family("schur")
        for budget in range(0, 201, 8):
            partials = []
            for _ in range(2):
                with pytest.raises(SearchBudgetExceeded) as info:
                    threshold(fam, 3, 20, max_nodes=budget)
                partials.append(info.value.partial)
            partial = partials[0]
            assert partial == partials[1] and partial.nodes == budget + 1
            if partial.value > 1:
                assert partial.certificate.rle == exists_avoiding(fam, 3, partial.value - 1).rle

    def test_matches_fresh_search_vdw3_r3(self):
        # T = 27: the index is built at 16 and again at 30 before the refutation
        self._assert_matches_fresh(preset_family("vdw", 3), 3, 30)

    @staticmethod
    def _assert_matches_fresh(fam, r, max_n):
        res = threshold(fam, r, max_n)
        value, exact, last = max_n + 1, False, None
        for n in range(1, max_n + 1):
            cert = exists_avoiding(fam, r, n)
            if cert is None:
                value, exact = n, True
                break
            last = cert
        assert (res.value, res.exact) == (value, exact)
        assert (res.certificate is None) == (last is None)
        if last is not None:
            assert res.certificate.n == last.n and res.certificate.rle == last.rle
            assert verify_certificate(res.certificate)

    def test_json_round_trip(self):
        res = threshold(preset_family("schur"), 2, 20)
        data = json.loads(json.dumps(res.to_json()))
        assert data["value"] == 5 and data["exact"] is True
        cert = AvoidCertificate.from_json(data["certificate"])
        assert verify_certificate(cert)


class TestFailFirst:
    """The fail-first refutation that decides [1..N] for threshold when the
    avoider at N-1 leaves N no color."""

    @staticmethod
    def _engine(fam, r, n):
        return search._Search(fam, r, n, n=n, size=n)

    @pytest.mark.parametrize("fam", EQUIVALENCE_FAMILIES, ids=_family_id)
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_matches_naive(self, fam, r):
        for n in range(1, 9 if r == 3 else 12):
            engine = self._engine(fam, r, n)
            refuted = engine.refutes(0, float("inf"), float("inf"))
            assert refuted == (not naive_exists_avoiding(fam, r, n)), (n, engine.nodes)

    @pytest.mark.parametrize("name, k, r, n, nodes", [
        ("schur", None, 3, 14, 69),  # the DFS: 197
        ("vdw", 3, 3, 27, 2611),  # the DFS: 30,284
        ("vdw", 4, 2, 35, 1246),
    ])
    def test_refutation_nodes(self, name, k, r, n, nodes):
        for _ in range(2):  # the order has no ties left, so the count repeats
            engine = self._engine(preset_family(name, k), r, n)
            assert engine.refutes(0, float("inf"), float("inf")) and engine.nodes == nodes

    @pytest.mark.parametrize("start", [0, 1000])
    def test_clock_read_at_multiples_of_2048(self, start):
        # the count continues the caller's, and so does the clock
        engine = self._engine(preset_family("vdw", 3), 3, 27)
        with pytest.raises(SearchBudgetExceeded, match="time limit exceeded") as info:
            engine.refutes(start, float("inf"), 0)
        assert info.value.nodes == 2048

    def test_asked_only_where_the_avoider_does_not_extend(self, monkeypatch):
        asked = []
        real = search._Search.refutes

        def recording(self, nodes, cap, deadline):
            answer = real(self, nodes, cap, deadline)
            asked.append((self.n, answer, self.nodes - nodes))
            return answer

        monkeypatch.setattr(search._Search, "refutes", recording)
        res = threshold(preset_family("vdw", 3), 3, 30)
        assert res.describe() == "T = 27" and res.nodes == 6573
        # N = 22..26 have avoiders (the DFS then finds the lex-first one);
        # N = 27 has none, so the run ends without the DFS's 30,284-node refutation
        assert asked == [(22, False, 22), (23, False, 23), (24, False, 28), (25, False, 222),
                         (26, False, 250), (27, True, 2611)]

    def test_member_lists_carry_across_index_sizes(self, monkeypatch):
        # vdw:4 at r=2 asks at 14 on the index of [1..16], at 19 and 25 on that
        # of [1..32] and at 34 and 35 on that of [1..40]: the member lists built
        # at 14 are extended as the index grows, and the refutation at 35 places
        # the 1,246 colors of one on a fresh state
        asked = []
        real = search._Search.refutes

        def recording(self, nodes, cap, deadline):
            answer = real(self, nodes, cap, deadline)
            asked.append((self.n, self.size, answer, self.nodes - nodes))
            return answer

        monkeypatch.setattr(search._Search, "refutes", recording)
        res = threshold(preset_family("vdw", 4), 2, 40)
        assert res.describe() == "T = 35" and res.nodes == 2561
        assert asked == [(14, 16, False, 14), (19, 32, False, 27), (25, 32, False, 25),
                         (34, 40, False, 446), (35, 40, True, 1246)]

    def test_asked_where_a_singleton_leaves_no_color(self):
        # {x+10, 2x} holds the singleton {20}: opening 20 strikes nothing, yet
        # 20 has no color.  The engine refutes in 0 nodes, where the DFS would
        # search all of [1..19] (5,631 nodes)
        fam = PatternFamily.from_texts(1, ["x0 + 10", "2*x0"], "singleton-20")
        res = threshold(fam, 2, 40)
        assert res.describe() == "T = 20" and res.nodes == 19
        assert res.certificate.rle == exists_avoiding(fam, 2, 19).rle

    @pytest.mark.parametrize("name, k, r, n, nodes", [
        ("schur", None, 4, 43, 3631),
        ("schur", None, 3, 13, 80),
        ("schur", None, 3, 14, 197),
        ("vdw", 3, 3, 26, 3295),
    ])
    def test_exists_avoiding_stays_on_the_dfs(self, name, k, r, n, nodes, monkeypatch):
        monkeypatch.setattr(search._Search, "refutes", None)  # any use would raise
        stats = SearchStats()
        exists_avoiding(preset_family(name, k), r, n, stats=stats)
        assert stats.nodes == nodes


class TestOneCheckPerAnswer:
    """count_witnesses checks only the avoider that is reported; the avoiders
    a threshold run outgrows are not answers."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []
        real = search.count_witnesses

        def counting(*args, **kwargs):
            made.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(search, "count_witnesses", counting)
        return made

    def test_threshold_checks_only_the_reported_avoider(self, calls):
        res = threshold(preset_family("schur"), 3, 20)
        assert res.exact and res.value == 14
        assert len(calls) == 1 and calls[0][1].n == 13

    def test_budget_partial_checks_only_its_avoider(self, calls):
        with pytest.raises(SearchBudgetExceeded) as info:
            threshold(preset_family("schur"), 3, 20, max_nodes=30)
        partial = info.value.partial
        assert partial.certificate is not None
        assert len(calls) == 1 and calls[0][1].n == partial.certificate.n

    def test_exists_and_greedy_check_once(self, calls):
        assert exists_avoiding(preset_family("schur"), 3, 13) is not None
        assert len(calls) == 1
        assert greedy_avoider(preset_family("x_xp1"), 2, 50) is not None
        assert len(calls) == 2

    @pytest.mark.parametrize("ask", [
        lambda fam: threshold(fam, 3, 8),  # T >= 9 reports the avoider at 8
        lambda fam: threshold(fam, 3, 20),  # T = 14 reports the avoider at 13
        lambda fam: exists_avoiding(fam, 3, 8),
    ], ids=["reported", "reported-exact", "exists"])
    def test_corrupted_avoider_raises(self, monkeypatch, ask):
        # color {1, 2} the same, which completes the Schur set 1 + 1 = 2
        real = search._Search.run

        def corrupting(self, *args, **kwargs):
            for avoider in real(self, *args, **kwargs):
                if len(avoider) > 1:
                    avoider[1] = avoider[0]
                yield avoider

        monkeypatch.setattr(search._Search, "run", corrupting)
        with pytest.raises(RuntimeError, match="search returned a non-avoiding coloring"):
            ask(preset_family("schur"))


class TestColorPermutationEquivariance:
    @pytest.mark.parametrize("fam", BOX_COMPLETE_PRESETS, ids=lambda f: f.name)
    def test_witness_count_invariant(self, fam):
        chi = Coloring.random_uniform(10, 3, 5)
        for perm in ([2, 3, 1], [3, 2, 1], [1, 3, 2]):
            assert count_witnesses(fam, chi) == count_witnesses(fam, chi.permuted(perm))

    def test_avoider_permutes_to_avoider(self):
        cert = exists_avoiding(preset_family("schur"), 2, 4)
        chi = cert.coloring.permuted([2, 1])
        assert count_witnesses(preset_family("schur"), chi) == 0


class TestGreedy:
    def test_first_fit_x_xp1(self):
        cert = greedy_avoider(preset_family("x_xp1"), 2, 200, "first-fit")
        assert cert is not None and verify_certificate(cert)

    def test_first_fit_dead_ends_on_schur(self):
        # first-fit paints itself into a corner: greedily feasible prefixes
        # reach a position where both colors complete a triple, and with no
        # backtracking the pass returns nothing
        assert greedy_avoider(preset_family("schur"), 2, 200, "first-fit") is None

    def test_random_strategy_seeded(self):
        a = greedy_avoider(preset_family("x_xp1"), 2, 50, "random", seed=11)
        b = greedy_avoider(preset_family("x_xp1"), 2, 50, "random", seed=11)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.coloring == b.coloring

    @pytest.mark.parametrize("fam, r, n", [
        (preset_family("schur"), 2, 4), (preset_family("schur"), 3, 12),
        (preset_family("vdw", 3), 2, 8), (preset_family("x_y_3xmy"), 3, 20),
    ], ids=lambda v: getattr(v, "name", v))
    def test_restarts_match_fresh_passes(self, fam, r, n):
        # each restart must see the masks of a fresh start: replay the same
        # random picks over the plain value sets, pass by pass
        sets = naive_value_sets(fam, n)

        def reference(seed, restarts):
            rng = random.Random(seed)
            for _ in range(restarts):
                colors = [0] * (n + 1)
                for pos in range(1, n + 1):
                    legal = [c for c in range(1, r + 1) if not any(
                        vs[-1] == pos and all(colors[v] == c for v in vs[:-1]) for vs in sets
                    )]
                    if not legal:
                        break
                    colors[pos] = rng.choice(legal)
                else:
                    return colors[1:]
            return None

        for seed in range(12):
            cert = greedy_avoider(fam, r, n, "random", seed=seed, restarts=6)
            got = None if cert is None else cert.coloring.colors.tolist()
            assert got == reference(seed, 6), f"seed={seed}"

    def test_random_finds_schur_avoider_small(self):
        cert = greedy_avoider(preset_family("schur"), 2, 4, "random", seed=0, restarts=64)
        assert cert is not None and verify_certificate(cert)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            greedy_avoider(preset_family("schur"), 2, 5, "clever")

    @pytest.mark.parametrize("strategy", ["first-fit", "random"])
    def test_rejects_no_colors_or_restarts(self, strategy):
        with pytest.raises(ValueError, match="need r >= 1"):
            greedy_avoider(preset_family("schur"), 0, 5, strategy)
        with pytest.raises(ValueError, match="restarts >= 1"):
            greedy_avoider(preset_family("schur"), 2, 5, strategy, restarts=0)


GREEDY_GOLDEN = Path(__file__).resolve().parent / "golden" / "greedy.json"

# criterion 8's roster (tests/test_acceptance.py), at r=2 and N=200
GREEDY_CRITERION_8 = [
    (preset_family("x_xp1"), "first-fit", 0),
    (preset_family("x_xp1"), "random", 1),
    (preset_family("x_xp1"), "random", 2),
    (PatternFamily.from_texts(1, ["x0", "2*x0"], "doubling"), "first-fit", 0),
    (PatternFamily.from_texts(1, ["x0", "2*x0"], "doubling"), "random", 3),
    (PatternFamily.from_texts(1, ["x0", "x0 + 7"], "gap7"), "first-fit", 0),
    (PatternFamily.from_texts(1, ["x0", "x0 + 7"], "gap7"), "random", 4),
]


def greedy_golden_entries():
    """greedy_avoider's colouring (RLE, or None) for every preset at r = 2, 3
    and N = 50, 200, first-fit and random with seeds 0-2, then criterion 8's
    inputs; tests/golden/greedy.json pins them."""
    questions = []
    for spec in ("schur", "vdw:3", "vdw:4", "geometric:2", "x_xp1", "x_y_3xmy", "xyxy"):
        name, _, k = spec.partition(":")
        fam = preset_family(name, int(k) if k else None)
        for r in (2, 3):
            for n in (50, 200):
                questions.append((fam, r, n, "first-fit", 0))
                questions += [(fam, r, n, "random", seed) for seed in range(3)]
    questions += [(fam, 2, 200, strategy, seed) for fam, strategy, seed in GREEDY_CRITERION_8]
    for fam, r, n, strategy, seed in questions:
        cert = greedy_avoider(fam, r, n, strategy, seed=seed)
        yield {"family": fam.name, "r": r, "n": n, "strategy": strategy, "seed": seed,
               "rle": None if cert is None else cert.rle}


def test_greedy_colorings_match_golden():
    want = json.loads(GREEDY_GOLDEN.read_text())
    got = list(greedy_golden_entries())
    assert len(got) == len(want)
    for k, (entry, expected) in enumerate(zip(got, want)):
        assert entry == expected, f"greedy question {k} differs"


# {x, y - x} with distinct values: y is bounded by no all-positive term
X_YMX = PatternFamily.from_texts(2, ["x0", "x1 - x0"], "x-ymx", distinct_required=True)

SEARCHES = {
    "exists_avoiding": exists_avoiding,
    "threshold": threshold,
    "find_all_avoiding": find_all_avoiding,
}


class TestAdmission:
    """The exhaustive searches refuse r < 1 and N < 1 alike, and every search
    refuses a box-incomplete family with the same error."""

    @pytest.mark.parametrize("name", SEARCHES)
    @pytest.mark.parametrize("r, n", [(0, 3), (2, 0), (-1, -1)])
    def test_no_colors_or_positions(self, name, r, n):
        with pytest.raises(ValueError, match="need r >= 1 and n >= 1"):
            SEARCHES[name](preset_family("schur"), r, n)

    @pytest.mark.parametrize("search", [*SEARCHES.values(), greedy_avoider],
                             ids=lambda f: f.__name__)
    def test_box_incomplete(self, search):
        with pytest.raises(IncompleteBoxError) as info:
            search(X_YMX, 2, 2)
        assert str(info.value) == ("variables [1] are not bounded by any all-positive term, "
                                   "so [1..N] does not hold every instance")


class TestCertificates:
    def test_box_relative_flag_must_match_family(self):
        # only box_relative=false with a box-complete family reads: the schur
        # avoider at N=4; the {x, y - x} one at N=2 is refused whatever its flag
        complete = exists_avoiding(preset_family("schur"), 2, 4).to_json()
        assert verify_certificate(AvoidCertificate.from_json(complete))
        incomplete = AvoidCertificate(X_YMX, Coloring.solid(2, r=2)).to_json()
        for data in (complete, incomplete):
            with pytest.raises(ValueError, match="^box-relative certificate: only whole-box "
                                                 "certificates are read$"):
                AvoidCertificate.from_json(dict(data, box_relative=True))
        with pytest.raises(ValueError, match=r"^certificate's family is not box-complete, so "
                                             r"\[1\.\.n\] does not hold every instance$"):
            AvoidCertificate.from_json(incomplete)

    def test_tampered_certificate_fails(self):
        cert = exists_avoiding(preset_family("schur"), 2, 4)
        data = cert.to_json()
        data["coloring_rle"] = [[1, 4]]  # all-one is not avoiding at n=4
        assert not verify_certificate(AvoidCertificate.from_json(data))

    @pytest.mark.parametrize("rle", [
        [[1, 1], [2, 2]],  # lengths sum to 3, not 4
        [[1, 1], [2, 2], [1, 2]],  # lengths sum to 5
        [[1, 1], [3, 2], [1, 1]],  # color 3 in a 2-coloring
        [[1, 1], [0, 2], [1, 1]],
        [[1, 4], [2, -1], [2, 1]],
    ])
    def test_runs_that_do_not_decode_fail(self, rle):
        data = exists_avoiding(preset_family("schur"), 2, 4).to_json()
        data["coloring_rle"] = rle
        with pytest.raises(ValueError, match="run"):
            AvoidCertificate.from_json(data)

    def test_fields_are_read_off_the_coloring(self):
        cert = AvoidCertificate(X_YMX, Coloring.solid(2, r=2))
        assert (cert.n, cert.r, cert.rle) == (2, 2, [[1, 2]])
        assert cert.rle == cert.coloring.to_rle()

    def test_verified_is_written_true_and_never_read(self):
        data = exists_avoiding(preset_family("schur"), 2, 4).to_json()
        assert data["verified"] is True
        data["coloring_rle"] = [[1, 4]]  # all-one is not avoiding at n=4
        for flag in (True, False):
            cert = AvoidCertificate.from_json(dict(data, verified=flag))
            assert not verify_certificate(cert)
            assert cert.to_json()["verified"] is True

    def test_json_round_trip(self):
        cert = exists_avoiding(preset_family("schur"), 2, 4)
        back = AvoidCertificate.from_json(json.loads(json.dumps(cert.to_json())))
        assert back.coloring == cert.coloring
        assert back.family == cert.family


class TestGeneratorContainment:
    """How the s=1 {0, id} generated family relates to the classic presets."""

    def test_generated_family_is_the_sum_product_preset(self):
        from ramseykit.families import prefix_product_family

        gen = prefix_product_family([["0", "x0"]])
        assert gen.fingerprint() == preset_family("xyxy").fingerprint()

    def test_term_subset_monotonicity(self):
        # dropping terms can only gain witnesses: every {x, x+y, xy} witness
        # assignment is a witness of the sub-family {x, x+y}
        from ramseykit.witnesses import iter_witnesses

        sub = PatternFamily.from_texts(2, ["x0", "x0 + x1"])
        chi = Coloring.random_uniform(20, 2, 9)
        sub_assignments = {w.assignment for w in iter_witnesses(preset_family("xyxy"), chi)}
        all_sub = {w.assignment for w in iter_witnesses(sub, chi)}
        assert sub_assignments <= all_sub

    def test_product_witness_is_not_a_sum_triple_witness(self):
        # {x, x+y, xy} monochromatic does NOT make {x, y, x+y} monochromatic:
        # at (2,4), colors of 2, 8, 6 agree while 4 differs
        from ramseykit.witnesses import Witness, verify_witness

        colors = [1] * 10
        colors[4 - 1] = 2
        chi = Coloring.from_sequence(colors)
        w = Witness((2, 4), (2, 6, 8), 1)
        assert verify_witness(preset_family("xyxy"), chi, w).ok
        schur_w = Witness((2, 4), (2, 4, 6), 1)
        assert not verify_witness(preset_family("schur"), chi, schur_w).ok


if __name__ == "__main__":
    # rewrite the greedy golden from the package in src/:
    #   PYTHONPATH=src python tests/test_search.py
    entries = [json.dumps(entry) for entry in greedy_golden_entries()]
    GREEDY_GOLDEN.write_text("[\n" + ",\n".join(entries) + "\n]\n")
