"""The shift-intersect-dilate rounds: gap statistics, y-selection, full runs.

Soundness bar: every completed run must emit a witness that verify_witness
accepts against the original coloring, and every round must pass the literal
containment/divisibility assertions -- across random colorings, not just the
handpicked ones.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from ramseykit.coloring import Coloring
from ramseykit.construction import (
    ConstructionInvariantError,
    ConstructiveTrace,
    _class_sets,
    _max_gap_array,
    _select_y_bits,
    bits_from_values,
    run_construction,
    values_from_bits,
)
from ramseykit.families import preset_family
from ramseykit.witnesses import verify_witness


def block_coloring(n, r, rng):
    """Runs of uniform length in [1..1999] (mean 1000), each one random colour."""
    lengths = rng.integers(1, 2000, size=2 * n // 1000 + 10)
    return Coloring(n, r, np.repeat(rng.integers(1, r + 1, size=lengths.size), lengths)[:n])


# colourings whose class bitsets and gaps are checked against the values
CLASS_COLORINGS = [
    Coloring.from_sequence([1, 2, 1, 2, 2], r=3),  # colour 3 unused
    Coloring.from_sequence([1] + [2] * 8, r=2),  # colour 1 only at 1
    Coloring.from_sequence([2] * 8 + [1], r=2),  # colour 1 only at N
    Coloring.from_sequence([1], r=1),
    Coloring.from_sequence([2], r=2),  # N = 1 with an empty class
    Coloring.random_uniform(10**6, 3, 7),
    block_coloring(10**6, 3, np.random.default_rng(7)),
]
CLASS_IDS = ["empty3", "only1", "onlyN", "n1", "n1empty", "uniform1e6", "block1e6"]


class TestBitsets:
    def test_round_trip(self):
        vals = [1, 5, 7, 100]
        bits = bits_from_values(vals, 100)
        assert values_from_bits(bits, 100).tolist() == vals

    def test_empty(self):
        assert bits_from_values([], 10) == 0
        assert values_from_bits(0, 10).tolist() == []

    def test_out_of_window_rejected(self):
        with pytest.raises(ValueError):
            bits_from_values([0], 10)
        with pytest.raises(ValueError):
            bits_from_values([11], 10)

    def test_large_n(self):
        bits = bits_from_values([1, 10**6], 10**6)
        assert bits.bit_count() == 2
        assert values_from_bits(bits, 10**6).tolist() == [1, 10**6]

    @pytest.mark.parametrize("chi", CLASS_COLORINGS, ids=CLASS_IDS)
    def test_class_bitsets_packed_from_colors(self, chi):
        bits, _ = _class_sets(chi)
        assert bits[0] == 0 and len(bits) == chi.r + 1
        for t in range(1, chi.r + 1):
            assert bits[t] == bits_from_values(chi.class_values(t), chi.n)


def padded_max_gap(values, lo, hi):
    """The gap as the window-padded diff: the reference _max_gap_array must match."""
    return int(np.diff(np.concatenate(([lo - 1], values, [hi]))).max())


def max_gap(elements, lo, hi):
    return _max_gap_array(np.asarray(elements, dtype=np.int64), lo, hi)


def select_y(b, n, multipliers, y_max, size_floor=1):
    """(y, D as a tuple, best_y, best_size) from _select_y_bits on B's bitset."""
    y, d_bits, best_y, best_size = _select_y_bits(
        bits_from_values(b, n), multipliers, y_max, size_floor
    )
    return y, tuple(values_from_bits(d_bits, n).tolist()), best_y, best_size


class TestMaxGap:
    def test_window_edges_count(self):
        # {50} in [1..100]: gap to the left edge is 50, to the right edge 50
        assert max_gap((50,), 1, 100) == 50

    def test_empty_set_scores_window_length(self):
        assert max_gap((), 1, 100) == 100

    def test_dense_set(self):
        assert max_gap(range(1, 11), 1, 10) == 1

    def test_interior_gap_dominates(self):
        assert max_gap((1, 2, 90, 91), 1, 100) == 88

    def test_singleton_window(self):
        assert max_gap((1,), 1, 1) == 1

    @pytest.mark.parametrize("chi", CLASS_COLORINGS, ids=CLASS_IDS)
    def test_class_gaps_match_padded_diff(self, chi):
        _, gaps = _class_sets(chi)
        for t in range(1, chi.r + 1):
            values = chi.class_values(t)
            want = padded_max_gap(values, 1, chi.n)
            assert gaps[t] == want == max_gap(values, 1, chi.n)


class TestSelectY:
    def test_single_shift(self):
        # B = odds in [1..9]; y=1 dies (odds - 1 = evens), y=2 survives
        y, d, _, _ = select_y([1, 3, 5, 7, 9], 9, [1], y_max=9)
        assert y == 2
        assert d == (1, 3, 5, 7)

    def test_smallest_y_wins(self):
        y, d, _, _ = select_y(list(range(1, 20)), 19, [1], y_max=19)
        assert y == 1
        assert d == tuple(range(1, 19))

    def test_size_floor(self):
        y, d, _, best_size = select_y([1, 3, 5, 7, 9], 9, [1], y_max=9, size_floor=5)
        assert y is None and d == ()
        assert best_size == 4  # y=2 was the best on offer

    def test_multiple_multipliers(self):
        # D = B cap (B - 4y) cap (B - y): needs both shifts to land back in B
        b = [2, 6, 10, 14, 18, 22, 26, 30]
        y, d, _, _ = select_y(b, 30, [4, 1], y_max=30)
        assert y == 4 and d
        assert all(v in b and v + 4 in b and v + 16 in b for v in d)

    def test_failure_reports_best_seen(self):
        y, _, _, best_size = select_y([1, 10], 10, [1], y_max=3)
        assert y is None and best_size == 0


class TestRunConstruction:
    def test_solid_coloring_first_repeat(self):
        trace = run_construction(Coloring.solid(1000))
        assert trace.ok
        assert trace.t == [1, 1]
        assert trace.y == [1]
        assert trace.repeat_pair == (0, 1)
        assert trace.witness.assignment == (1, 1)
        assert trace.witness.term_values == (1, 2, 1)

    def test_parity_coloring(self):
        chi = Coloring.modular(10**4, 2)
        trace = run_construction(chi)
        assert trace.ok
        assert trace.t == [1, 2, 2]
        assert trace.y == [2, 4]
        w = trace.witness
        assert w.assignment == (2, 4)
        assert w.term_values == (2, 6, 8)
        assert w.color == 2
        assert verify_witness(preset_family("xyxy"), chi, w).ok

    def test_engineered_failure_reports_round(self):
        chi = Coloring.from_sequence([((v - 1) % 3) + 1 for v in range(1, 11)])
        trace = run_construction(chi, y_max=1, size_floor=5)
        assert not trace.ok
        assert trace.failure_reason.startswith("round 1:")
        assert trace.witness is None

    def test_empty_dilation_reports_round(self):
        # round 1 picks y = 3 for D = {2}, and 3*D = {6} leaves [1..5]
        trace = run_construction(Coloring.from_sequence([1, 2, 3, 3, 2], 3))
        assert not trace.ok and trace.witness is None
        assert trace.failure_reason == "round 1: dilated set 3*D is empty within [1..5]"
        assert trace.y[-1] == 3 and trace.set_sizes[-1] == {"D": 1, "B": 0, "truncated": True}

    def test_trace_fields_populated(self):
        trace = run_construction(Coloring.modular(100, 2))
        assert trace.n == 100 and trace.r == 2
        assert trace.b0_size == 50
        assert len(trace.set_sizes) == len(trace.y)
        assert all(s["B"] >= 1 for s in trace.set_sizes)
        assert trace.params["max_rounds"] == 3

    def test_trace_json(self):
        trace = run_construction(Coloring.modular(100, 2))
        data = trace.to_json()
        assert data["witness"] == {
            "x": trace.witness.assignment[0],
            "y": trace.witness.assignment[1],
            "color": trace.witness.color,
        }
        assert data["t"] == trace.t and data["failure_reason"] is None

    def test_validation(self):
        chi = Coloring.solid(10)
        with pytest.raises(ValueError, match="y_max must be >= 1"):
            run_construction(chi, y_max=0)
        with pytest.raises(ValueError, match="size_floor must be >= 1"):
            run_construction(chi, size_floor=0)
        with pytest.raises(ValueError, match="max_rounds must be >= 0"):
            run_construction(chi, max_rounds=-1)

    def test_max_rounds_cap(self):
        # with max_rounds=0 no round runs, so no repeat can happen
        trace = run_construction(Coloring.solid(10), max_rounds=0)
        assert not trace.ok
        assert "0 rounds" in trace.failure_reason

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_colorings_always_sound(self, r, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            chi = Coloring.random_uniform(2000, r, rng)
            trace = run_construction(chi)  # invariants assert on every round
            if trace.ok:
                assert verify_witness(preset_family("xyxy"), chi, trace.witness).ok
            else:
                assert trace.failure_reason

    def test_y_max_and_size_floor_params_respected(self):
        chi = Coloring.modular(10**4, 2)
        trace = run_construction(chi, y_max=3)
        # parity needs y=4 in round 2 under the default floor, so y_max=3
        # either fails or finds another route; whatever happens must be sound
        if trace.ok:
            assert all(y <= 3 for y in trace.y)
            assert verify_witness(preset_family("xyxy"), chi, trace.witness).ok
        else:
            assert "y <= 3" in trace.failure_reason


# ---- pinned traces ----

GOLDEN_TRACES = Path(__file__).resolve().parent / "golden" / "construction_traces.jsonl"

TRACE_OPTIONS = [
    {},
    {"y_max": 3},
    {"size_floor": 4},
    {"max_rounds": 1},
    {"y_max": 6, "size_floor": 2, "max_rounds": 5},
]


def _two_adic(v):
    """The exponent of 2 in each entry of v (all positive)."""
    return np.log2(v & -v).astype(np.int32)


def golden_colorings():
    """The seeded colourings whose traces tests/golden/construction_traces.jsonl pins."""
    for n in (1, 7, 60, 250, 500):
        for b in (1, 2, 3, 4):
            yield Coloring.modular(n, b)
        yield Coloring.solid(n)
    # colour min(v_2(v), r - 1) + 1: each round dilates by a power of 2 into the
    # next class, so r = 3 and 4 reach a third round at N = 2000 and 5000
    for r in (2, 3, 4):
        for n in (500, 2000, 5000):
            v = np.arange(1, n + 1)
            yield Coloring(n, r, np.minimum(_two_adic(v), r - 1) + 1)
    rng = np.random.default_rng(20261019)
    for r in (1, 2, 3, 4):
        for n in (5, 40, 150, 500):
            for _ in range(3):
                yield Coloring.random_uniform(n, r, rng)
    # the benchmark's scale: a uniform and a block 3-colouring of [1..10^6]
    rng = np.random.default_rng(20261020)
    yield Coloring.random_uniform(10**6, 3, rng)
    yield block_coloring(10**6, 3, rng)


def golden_trace_lines():
    for chi in golden_colorings():
        for options in TRACE_OPTIONS:
            yield json.dumps(run_construction(chi, **options).to_json(), sort_keys=True)


def test_traces_match_golden():
    want = GOLDEN_TRACES.read_text().splitlines()
    got = list(golden_trace_lines())
    assert len(got) == len(want)
    for k, (line, expected) in enumerate(zip(got, want)):
        assert line == expected, f"trace {k} differs"


def test_divisibility_break_is_caught(monkeypatch):
    # the parity colouring dilates by y_1 = 2, the first set built from values
    # (the class bitsets are packed from the colour array); shifting every such
    # set up by one puts odd values in B_1, which must fail the divisibility
    # invariant
    import ramseykit.construction as construction

    real = construction.bits_from_values
    monkeypatch.setattr(construction, "bits_from_values", lambda values, n: real(values, n) << 1)
    with pytest.raises(ConstructionInvariantError, match="not divisible"):
        run_construction(Coloring.modular(1000, 2))


if __name__ == "__main__":
    # rewrite the golden traces from the package in src/:
    #   PYTHONPATH=src python tests/test_construction.py
    GOLDEN_TRACES.write_text("".join(line + "\n" for line in golden_trace_lines()))
