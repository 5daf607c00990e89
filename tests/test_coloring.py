"""Coloring construction, queries, permutations, and file/RLE round-trips."""

import contextlib
import gc
import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ramseykit import coloring as coloring_module
from ramseykit.coloring import Coloring
from ramseykit.construction import run_construction
from ramseykit.families import preset_family
from ramseykit.reduction import solve_quadratic
from ramseykit.witnesses import count_witnesses, find_witness, iter_witnesses

colorings = st.integers(1, 5).flatmap(
    lambda r: st.lists(st.integers(1, r), min_size=1, max_size=60).map(
        lambda cs: Coloring.from_sequence(cs, r=r)
    )
)


def reference_rle(chi):
    """Runs built one position at a time."""
    runs = []
    for c in chi.colors.tolist():
        if runs and runs[-1][0] == c:
            runs[-1][1] += 1
        else:
            runs.append([c, 1])
    return runs


def reference_save_text(chi):
    """The file text written one line of 20 colors at a time."""
    lines = [f"{chi.n} {chi.r}"]
    colors = chi.colors.tolist()
    for i in range(0, chi.n, 20):
        lines.append(" ".join(str(c) for c in colors[i : i + 20]))
    return "\n".join(lines) + "\n"


class TestConstruction:
    def test_solid(self):
        chi = Coloring.solid(5)
        assert chi.n == 5 and chi.r == 1
        assert chi.color_of(3) == 1

    def test_solid_with_wider_palette(self):
        chi = Coloring.solid(4, color=2, r=3)
        assert chi.r == 3 and chi.color_of(1) == 2

    def test_modular_parity(self):
        chi = Coloring.modular(6, 2)
        assert [chi.color_of(v) for v in range(1, 7)] == [1, 2, 1, 2, 1, 2]

    def test_random_uniform_seeded(self):
        a = Coloring.random_uniform(50, 3, 7)
        b = Coloring.random_uniform(50, 3, 7)
        assert a == b
        assert set(np.unique(a.colors)) <= {1, 2, 3}

    def test_validation(self):
        with pytest.raises(ValueError):
            Coloring(3, 2, [1, 2, 3])
        with pytest.raises(ValueError):
            Coloring(3, 2, [1, 2])
        with pytest.raises(ValueError):
            Coloring(2, 2, [0, 1])

    def test_range_is_checked_before_the_int32_cast(self):
        # 2**32 + 1 wraps to 1 in int32
        with pytest.raises(ValueError, match="1..2"):
            Coloring(2, 2, np.array([1, 2**32 + 1]))
        with pytest.raises(ValueError, match="1..2"):
            Coloring(2, 2, [1, 2**70])
        with pytest.raises(ValueError, match=f"1..{2**31 - 1}"):
            Coloring(1, 2**40, [2**32])
        chi = Coloring(2, 2, np.array([1, 2], dtype=np.int64))
        assert chi.colors.dtype == np.int32 and chi.colors.tolist() == [1, 2]

    @pytest.mark.parametrize("r", [None, 2])
    def test_from_sequence_rejects_empty(self, r):
        with pytest.raises(ValueError, match="N must be >= 1"):
            Coloring.from_sequence([], r=r)

    def test_modular_rejects_no_colors_without_a_numpy_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="r must be >= 1"):
                Coloring.modular(5, 0)

    def test_from_sequence_infers_r(self):
        chi = Coloring.from_sequence([1, 3, 2])
        assert chi.r == 3

    @pytest.mark.parametrize("big", [2**32 + 1, 2**63])
    def test_from_sequence_checks_the_range_before_the_int32_cast(self, big):
        with pytest.raises(ValueError, match="1..2"):
            Coloring.from_sequence([1, big], r=2)
        with pytest.raises(ValueError, match=f"1..{2**31 - 1}"):
            Coloring.from_sequence([1, big])
        chi = Coloring.from_sequence([1, 2], r=2)
        assert chi.colors.dtype == np.int32 and chi.colors.tolist() == [1, 2]


class TestQueries:
    def test_color_of_bounds(self):
        chi = Coloring.solid(3)
        with pytest.raises(ValueError):
            chi.color_of(0)
        with pytest.raises(ValueError):
            chi.color_of(4)

    def test_class_values_and_sizes(self):
        chi = Coloring.modular(7, 2)
        assert chi.class_values(1).tolist() == [1, 3, 5, 7]
        assert chi.class_values(2).tolist() == [2, 4, 6]
        assert chi.class_sizes() == [4, 3]

    def test_permuted(self):
        chi = Coloring.modular(4, 2)
        swapped = chi.permuted([2, 1])
        assert [swapped.color_of(v) for v in range(1, 5)] == [2, 1, 2, 1]
        with pytest.raises(ValueError):
            chi.permuted([1, 1])

    def test_equality(self):
        assert Coloring.modular(4, 2) == Coloring.from_sequence([1, 2, 1, 2])
        assert Coloring.modular(4, 2) != Coloring.from_sequence([1, 2, 1, 2], r=3)


class TestRoundTrips:
    @given(colorings)
    @settings(max_examples=80, deadline=None)
    def test_rle(self, chi):
        assert Coloring.from_rle(chi.n, chi.r, chi.to_rle()) == chi

    def test_rle_shape(self):
        assert Coloring.from_sequence([1, 1, 2, 2, 2, 1]).to_rle() == [[1, 2], [2, 3], [1, 1]]

    @given(colorings)
    @settings(max_examples=80, deadline=None)
    def test_to_rle_matches_position_by_position(self, chi):
        runs = chi.to_rle()
        assert runs == reference_rle(chi)
        assert all(type(c) is int and type(length) is int for c, length in runs)

    @pytest.mark.parametrize(
        "colors",
        [[2], [3] * 7, [1, 2] * 6, [2, 1, 1, 2]],
        ids=["n=1", "one-run", "alternating", "inner-run"],
    )
    def test_to_rle_small_cases(self, colors):
        chi = Coloring.from_sequence(colors, r=3)
        assert chi.to_rle() == reference_rle(chi)

    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    def test_to_rle_runs_across_blocks(self, block, monkeypatch):
        monkeypatch.setattr(coloring_module, "_RLE_BLOCK", block)
        rng = np.random.default_rng(block)
        for n in range(1, 30):
            for r in (1, 2, 3):
                # long runs make boundaries fall inside runs as well as between them
                colors = np.repeat(rng.integers(1, r + 1, n), rng.integers(1, 4, n))[:n]
                chi = Coloring(n, r, colors)
                assert chi.to_rle() == reference_rle(chi)

    def test_to_rle_large(self):
        chi = Coloring.random_uniform(100_000, 2, 9)
        assert chi.to_rle() == reference_rle(chi)

    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 4)), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_from_rle_matches_run_by_run(self, runs):
        expected = [color for color, length in runs for _ in range(length)]
        assume(expected)
        chi = Coloring.from_rle(len(expected), 3, [list(run) for run in runs])
        assert chi.colors.tolist() == expected

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_from_rle_across_blocks(self, block, monkeypatch):
        monkeypatch.setattr(coloring_module, "_RLE_BLOCK", block)
        chi = Coloring.from_sequence([1, 1, 2, 3, 3, 3, 1, 2, 2, 1])
        assert Coloring.from_rle(chi.n, chi.r, iter(reference_rle(chi))) == chi

    @pytest.mark.parametrize("runs", [[1, 3], [[1, 2, 0]], [[1, 2], [1]], [[1], [2]]])
    def test_from_rle_rejects_non_pairs(self, runs):
        with pytest.raises(ValueError):
            Coloring.from_rle(3, 2, runs)

    @pytest.mark.parametrize("runs", [
        [[1.5, 1], [2.5, 2]], [[1, 1.0], [2, 2]], [["1", 3]],
        # numpy would read these as 1 1 1 and 2 2 2
        [[True, 3]], [[1, False], [2, 3]],
        [[np.int64(1), 3]], [[2**64 + 1, 3]],
    ])
    def test_from_rle_rejects_runs_that_are_not_integers(self, runs):
        with pytest.raises(ValueError, match="pairs of integers"):
            Coloring.from_rle(3, 2, runs)

    def test_from_rle_rejects_negative_length(self):
        # [2, -1] would cancel one color of the first run in the sum
        with pytest.raises(ValueError, match="run lengths"):
            Coloring.from_rle(3, 2, [[1, 4], [2, -1]])

    def test_from_rle_rejects_wrong_total(self):
        with pytest.raises(ValueError, match="sum to 5, expected 6"):
            Coloring.from_rle(6, 2, [[1, 2], [2, 3]])
        with pytest.raises(ValueError):
            Coloring.from_rle(6, 2, [])

    def test_from_rle_rejects_colors_out_of_range(self):
        with pytest.raises(ValueError, match="run colors"):
            Coloring.from_rle(2, 2, [[3, 2]])
        with pytest.raises(ValueError, match="run colors"):
            Coloring.from_rle(2, 2, [[2**32 + 1, 2]])  # would wrap to 1 in int32

    @given(chi=colorings)
    @settings(max_examples=40, deadline=None)
    def test_save_load(self, chi, tmp_path_factory):
        path = tmp_path_factory.mktemp("col") / "c.txt"
        chi.save(path)
        assert Coloring.load(path) == chi

    def test_file_format(self, tmp_path):
        path = tmp_path / "c.txt"
        Coloring.from_sequence([1, 2, 1]).save(path)
        header = path.read_text().splitlines()[0]
        assert header.split() == ["3", "2"]

    def test_load_rejects_bad_counts(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("3 2\n1 2\n")
        with pytest.raises(ValueError):
            Coloring.load(path)

    @pytest.mark.parametrize("r", [1, 3, 9, 10, 12, 105])
    @pytest.mark.parametrize(
        "n", [1, 19, 20, 21, coloring_module._IO_BLOCK - 1, coloring_module._IO_BLOCK,
              coloring_module._IO_BLOCK + 1],
    )
    def test_save_matches_line_by_line_writer(self, r, n, tmp_path):
        chi = Coloring.random_uniform(n, r, r * 1000 + n)
        path = tmp_path / "c.txt"
        chi.save(path)
        assert path.read_bytes() == reference_save_text(chi).encode()

    @pytest.mark.parametrize("block", [20, 40])
    def test_save_and_load_across_small_blocks(self, block, tmp_path, monkeypatch):
        monkeypatch.setattr(coloring_module, "_IO_BLOCK", block)
        path = tmp_path / "c.txt"
        for n in (1, 19, 39, 40, 41, 100):
            for r in (1, 12, 105):
                chi = Coloring.random_uniform(n, r, n + r)
                chi.save(path)
                assert path.read_bytes() == reference_save_text(chi).encode()
                # tokens of 1 to 3 digits straddle the load blocks
                assert Coloring.load(path) == chi

    def test_load_accepts_any_ascii_whitespace(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes(b"\r\n 5\t3 \v1\f2\r\n\n03   2\t\t1")
        assert Coloring.load(path).colors.tolist() == [1, 2, 3, 2, 1]

    @pytest.mark.parametrize(
        "text,match",
        [
            ("3 2\n1 2 1 2\n", "found 4 colors"),
            ("", "header"),
            ("3\n", "header"),
            ("x 2\n1 2 1\n", "header"),
            ("3 2\n1 2 a\n", "offset 8"),
            ("3 2\n1 +2 1\n", "offset 6"),
            ("3 2\n1 1_0 1\n", "offset 7"),
            ("3 2\n1 \u0663 1\n", "neither an ASCII digit"),
            ("3 2\n1 0 1\n", "1..2"),
            ("3 2\n1 3 1\n", "1..2"),
            ("2 2\n1 99999999999\n", "1..2"),
            ("2 2\n1 4294967297\n", "1..2"),  # 2**32 + 1 wraps to 1 in int32
            ("2 2\n1 999999999999999999\n", "1..2"),
            ("2 2\n1 99999999999999999999999\n", "more than 18 digits"),
            ("2 2\n1 0000000000000000001\n", "more than 18 digits"),
        ],
    )
    def test_load_rejects(self, text, match, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=match):
            Coloring.load(path)

    def test_load_reads_leading_zeros(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("2 12\n" + "0" * 16 + "12 0007\n")
        assert Coloring.load(path).colors.tolist() == [12, 7]


@pytest.fixture(scope="module")
def million():
    """A random 3-coloring of [1..10^6]: about 667,000 runs."""
    return Coloring.random_uniform(10**6, 3, 22)


@contextlib.contextmanager
def collector(enabled):
    """The cyclic collector switched on or off for the block, then restored."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


class TestToRleCollector:
    """to_rle builds its runs with the cyclic collector paused, and leaves it
    as it found it."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_left_as_found(self, enabled):
        chi = Coloring.random_uniform(3 * coloring_module._RLE_BLOCK, 3, 5)
        with collector(enabled):
            assert chi.to_rle() == reference_rle(chi)
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_restored_after_a_failure(self, enabled, monkeypatch):
        chi = Coloring.random_uniform(3 * coloring_module._RLE_BLOCK, 3, 6)
        calls = []
        real = np.flatnonzero

        def fails_second(*args, **kwargs):
            calls.append(gc.isenabled())
            if len(calls) == 2:
                raise MemoryError("second block")
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "flatnonzero", fails_second)
        with collector(enabled):
            with pytest.raises(MemoryError, match="second block"):
                chi.to_rle()
            assert gc.isenabled() is enabled
        assert calls == [False, False]  # paused while the runs were built

    def test_large_runs_are_plain_int_pairs(self, million):
        runs = million.to_rle()
        assert all(type(run) is list and len(run) == 2 for run in runs)
        assert all(type(c) is int and type(length) is int for c, length in runs)
        assert json.loads(json.dumps(runs)) == runs
        assert runs == reference_rle(million)

    def test_no_collection_while_building(self, million):
        """No collection starts while to_rle is on the stack; the one that its
        new runs set off on a later allocation comes after it returns."""
        starts = []

        def count(phase, info):
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not Coloring.to_rle.__code__:
                frame = frame.f_back
            if phase == "start" and frame is not None:
                starts.append(info["generation"])

        gc.callbacks.append(count)
        try:
            with collector(True):
                runs = million.to_rle()
        finally:
            gc.callbacks.remove(count)
        assert len(runs) > 600_000 and starts == []


def read_only(chi):
    chi.colors.flags.writeable = False
    return chi


class TestReadOnlyDownstream:
    """Nothing downstream writes into a coloring's array: each call below
    raises if it tries, since the array is marked read-only."""

    @pytest.mark.parametrize("name", ["schur", "xyxy", "x_y_3xmy"])
    def test_witness_search(self, name):
        family, chi = preset_family(name), read_only(Coloring.random_uniform(400, 2, 5))
        before = chi.colors.copy()
        ws = list(iter_witnesses(family, chi))
        assert count_witnesses(family, chi) == len(ws)
        assert find_witness(family, chi) == (ws[0] if ws else None)
        assert np.array_equal(chi.colors, before)

    def test_reduction_and_construction(self):
        assert solve_quadratic((1, -1), read_only(Coloring.random_uniform(400, 2, 5))) is not None
        assert run_construction(read_only(Coloring.modular(10**5, 3))).ok

    def test_rle_and_permutation(self):
        chi = read_only(Coloring.random_uniform(400, 3, 5))
        assert Coloring.from_rle(chi.n, chi.r, chi.to_rle()) == chi
        assert chi.permuted([2, 3, 1]).permuted([3, 1, 2]) == chi
