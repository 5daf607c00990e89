"""Command-line interface: exit codes, frozen output strings, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ramseykit import cli
from ramseykit.cli import main, parse_box_arg, parse_coeffs
from ramseykit.coloring import Coloring
from ramseykit.families import PatternFamily, preset_family
from ramseykit.search import AvoidCertificate, threshold, verify_certificate
from ramseykit.storage import ResultRecord, ResultStore


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def solid6(tmp_path):
    path = tmp_path / "solid6.txt"
    Coloring.solid(6).save(path)
    return str(path)


@pytest.fixture
def solid200(tmp_path):
    path = tmp_path / "solid200.txt"
    Coloring.solid(200).save(path)
    return str(path)


@pytest.fixture
def parity32(tmp_path):
    path = tmp_path / "parity32.txt"
    Coloring.modular(32, 2).save(path)
    return str(path)


class TestArgHelpers:
    def test_box_forms(self):
        assert parse_box_arg(None) is None
        assert parse_box_arg("100") == 100
        assert parse_box_arg("10,20") == [10, 20]
        assert parse_box_arg("2:10,1:20") == [(2, 10), (1, 20)]

    def test_box_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_box_arg("ten")

    @pytest.mark.parametrize("text", [",", " , ,", ""])
    def test_box_rejects_empty(self, text):
        with pytest.raises(ValueError, match="--box must not be empty"):
            parse_box_arg(text)

    def test_coeffs(self):
        assert parse_coeffs("1,-1") == (1, -1)
        assert parse_coeffs(" 1, 1, -2 ") == (1, 1, -2)
        with pytest.raises(ValueError):
            parse_coeffs("1;2")


class TestFamily:
    @pytest.mark.parametrize("terms", [[5], 5])
    def test_non_string_terms_are_input_errors(self, capsys, tmp_path, terms):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"num_vars": 2, "terms": terms}))
        code, out, err = run(capsys, "family", "show", "--file", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "list of strings" in err

    @pytest.mark.parametrize(
        "data, says",
        [
            ([1, 2], "JSON object"),
            ("schur", "JSON object"),
            ({"num_vars": None, "terms": ["x0"]}, "'num_vars' must be an integer"),
            ({"num_vars": 1.7, "terms": ["x0"]}, "'num_vars' must be an integer"),
            ({"num_vars": True, "terms": ["x0"]}, "'num_vars' must be an integer"),
            ({"num_vars": "1", "terms": ["x0"]}, "'num_vars' must be an integer"),
            ({"num_vars": 1, "terms": ["x0"], "distinct_required": "false"}, "true or false"),
            ({"terms": ["x0"]}, "missing the key 'num_vars'"),
            ({"num_vars": 1}, "missing the key 'terms'"),
            ({"num_vars": 2, "terms": ["x0"], "name": 5}, "'name' must be a string or null"),
        ],
    )
    def test_malformed_family_files_are_input_errors(self, capsys, tmp_path, data, says):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "family", "show", "--file", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and says in err

    def test_show_preset(self, capsys):
        code, out, _ = run(capsys, "family", "show", "--preset", "schur")
        assert code == 0
        assert "name: schur" in out
        assert "terms (3):" in out
        assert "  x0 + x1" in out
        assert "fingerprint: " in out

    def test_show_file_round_trip(self, capsys, tmp_path):
        saved = tmp_path / "fam.json"
        code, out, _ = run(
            capsys, "family", "show", "--preset", "xyxy", "--out", str(saved)
        )
        assert code == 0 and f"family written to {saved}" in out
        code, out2, _ = run(capsys, "family", "show", "--file", str(saved))
        assert code == 0
        fp = preset_family("xyxy").fingerprint()
        assert f"fingerprint: {fp}" in out and f"fingerprint: {fp}" in out2

    def test_prefix_product_matches_preset(self, capsys, tmp_path):
        fn = tmp_path / "fns.json"
        fn.write_text(json.dumps([["0", "x0"]]))
        code, out, _ = run(capsys, "family", "prefix-product", "--functions", str(fn))
        assert code == 0
        assert f"fingerprint: {preset_family('xyxy').fingerprint()}" in out

    def test_prefix_product_s_mismatch(self, capsys, tmp_path):
        fn = tmp_path / "fns.json"
        for s in (2, "1"):
            fn.write_text(json.dumps({"s": s, "function_sets": [["0", "x0"]]}))
            code, out, err = run(capsys, "family", "prefix-product", "--functions", str(fn))
            assert code == 2 and out == ""
            assert err == f'error: "s": {s!r} is not the number of function sets, 1\n'
        fn.write_text(json.dumps({"s": 1, "function_sets": [["0", "x0"]]}))
        code, out, _ = run(capsys, "family", "prefix-product", "--functions", str(fn))
        assert code == 0
        assert f"fingerprint: {preset_family('xyxy').fingerprint()}" in out

    @pytest.mark.parametrize("spec", [
        5, [[5]], [["x0"], 3], {"s": 1}, {"function_sets": 5},
    ], ids=["int", "int-in-set", "int-as-set", "no-function_sets", "int-function_sets"])
    def test_malformed_functions_file_is_an_input_error(self, capsys, tmp_path, spec):
        fn = tmp_path / "fns.json"
        fn.write_text(json.dumps(spec))
        code, out, err = run(capsys, "family", "prefix-product", "--functions", str(fn))
        assert code == 2 and out == ""
        assert err == (
            "error: --functions must hold a list of lists of function texts, or an object "
            f'with such a list under "function_sets"; got {spec!r}\n'
        )

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "family", "show", "--preset", "nosuch")
        assert code == 2
        assert "error:" in err and "schur" in err  # names the valid presets

    @pytest.mark.parametrize("spec", ["schur:7", "xyxy:2", "x_xp1:5", "x_y_3xmy:1"])
    def test_preset_given_a_parameter_it_does_not_take(self, capsys, spec):
        name, _, k = spec.partition(":")
        assert run(capsys, "family", "show", "--preset", spec) == (
            2, "", f"error: preset '{name}' takes no parameter, got {k}\n")

    @pytest.mark.parametrize("spec", ["schur:", "vdw:", "geometric:"])
    def test_preset_given_an_empty_parameter(self, capsys, spec):
        assert run(capsys, "family", "show", "--preset", spec) == (
            2, "", f"error: bad preset parameter in '{spec}'\n")

    def test_preset_parameter_is_ascii_digits(self, capsys):
        # int() would run it as vdw:10
        assert run(capsys, "family", "show", "--preset", "vdw:1_0") == (
            2, "", "error: bad preset parameter in 'vdw:1_0'\n")


class TestWitness:
    def test_single(self, capsys, solid6):
        code, out, _ = run(
            capsys, "witness", "--family", "xyxy", "--coloring", solid6
        )
        assert code == 0
        assert "assignment=(1, 1) values=(1, 2, 1) color=1" in out

    def test_all_streams_and_counts(self, capsys, tmp_path):
        path = tmp_path / "solid2.txt"
        Coloring.solid(2).save(path)
        code, out, _ = run(
            capsys, "witness", "--family", "schur", "--coloring", str(path), "--all"
        )
        assert code == 0
        assert "assignment=(1, 1) values=(1, 1, 2) color=1" in out
        assert "found 1 witness(es)" in out

    def test_none_found_exits_one(self, capsys, tmp_path):
        path = tmp_path / "solid1.txt"
        Coloring.solid(1).save(path)
        code, out, _ = run(
            capsys, "witness", "--family", "schur", "--coloring", str(path)
        )
        assert code == 1 and "no monochromatic witness" in out
        code, out, _ = run(
            capsys, "witness", "--family", "schur", "--coloring", str(path), "--all"
        )
        assert code == 1 and "found 0 witness(es)" in out

    def test_out_file(self, capsys, solid6, tmp_path):
        out_path = tmp_path / "w.json"
        code, out, _ = run(
            capsys, "witness", "--family", "xyxy", "--coloring", solid6,
            "--out", str(out_path),
        )
        assert code == 0 and f"witness written to {out_path}" in out
        data = json.loads(out_path.read_text())
        assert data["assignment"] == [1, 1] and data["color"] == 1

    def test_all_out_file(self, capsys, tmp_path):
        path, out_path = tmp_path / "solid3.txt", tmp_path / "w.json"
        Coloring.solid(3).save(path)
        code, out, _ = run(
            capsys, "witness", "--family", "schur", "--coloring", str(path), "--all",
            "--out", str(out_path),
        )
        assert code == 0 and out.endswith(
            f"found 3 witness(es)\nwitnesses written to {out_path}\n")
        data = json.loads(out_path.read_text())
        assert list(data) == ["witnesses"]
        assert [w["assignment"] for w in data["witnesses"]] == [[1, 1], [1, 2], [2, 1]]
        assert all(w["color"] == 1 and w["family_name"] == "schur" for w in data["witnesses"])

    def test_cache_persists(self, capsys, solid6, tmp_path):
        cache = tmp_path / "store.jsonl"
        code, _, _ = run(
            capsys, "witness", "--family", "xyxy", "--coloring", solid6,
            "--cache", str(cache),
        )
        assert code == 0
        good, bad = ResultStore(cache).records()
        assert len(good) == 1 and not bad
        assert good[0][1].kind == "witness"

    def test_all_with_cache_is_usage_error(self, capsys, solid6, tmp_path):
        cache = tmp_path / "all.jsonl"
        code, out, err = run(
            capsys, "witness", "--family", "schur", "--coloring", solid6,
            "--all", "--box", "6", "--cache", str(cache),
        )
        assert code == 2 and out == ""
        assert err == "error: --cache stores one witness; it cannot be combined with --all\n"
        assert not cache.exists()

    def test_distinct_flag(self, capsys, solid6):
        code, out, _ = run(
            capsys, "witness", "--family", "xyxy", "--coloring", solid6, "--distinct"
        )
        assert code == 0
        assert "assignment=(1, 2) values=(1, 3, 2) color=1" in out

    def test_family_file_path(self, capsys, solid6, tmp_path):
        path = tmp_path / "fam.json"
        preset_family("schur").save(path)
        code, out, _ = run(
            capsys, "witness", "--family", str(path), "--coloring", solid6
        )
        assert code == 0 and "color=1" in out


class TestAvoid:
    def test_exhaustive_success(self, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        code, out, _ = run(
            capsys, "avoid", "--family", "schur", "--colors", "2", "--n", "4",
            "--certificate", str(cert_path),
        )
        assert code == 0
        assert "avoiding coloring found: N=4 r=2" in out
        assert "class sizes: 1:2 2:2" in out
        cert = AvoidCertificate.from_json(json.loads(cert_path.read_text()))
        assert verify_certificate(cert)

    def test_exhaustive_failure(self, capsys):
        code, out, _ = run(
            capsys, "avoid", "--family", "schur", "--colors", "2", "--n", "5"
        )
        assert code == 1
        assert (
            "no avoiding coloring: every 2-coloring of [1..5] contains a "
            "monochromatic instance" in out
        )

    def test_greedy_first_fit(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "avoid", "--family", "x_xp1", "--colors", "2", "--n", "50",
            "--greedy", "first-fit",
        )
        assert code == 0 and "avoiding coloring found: N=50 r=2" in out

    def test_greedy_dead_end(self, capsys):
        code, out, _ = run(
            capsys, "avoid", "--family", "schur", "--colors", "2", "--n", "10",
            "--greedy", "first-fit",
        )
        assert code == 1
        assert "greedy (first-fit) found no avoiding coloring; proves nothing" in out

    def test_cache_record_verifies(self, capsys, tmp_path):
        cache = tmp_path / "store.jsonl"
        run(
            capsys, "avoid", "--family", "schur", "--colors", "2", "--n", "4",
            "--cache", str(cache),
        )
        assert ResultStore(cache).verify_all() == []

    def test_box_incomplete_family_is_refused(self, capsys, tmp_path):
        fam = tmp_path / "x-ymx.json"
        fam.write_text(json.dumps({"num_vars": 2, "terms": ["x0", "x1 - x0"],
                                   "distinct_required": True}))
        cache = tmp_path / "store.jsonl"
        for argv in (["avoid", "--n", "2"], ["avoid", "--n", "2", "--greedy", "first-fit"],
                     ["threshold", "--max-n", "2"]):
            assert run(capsys, *argv, "--family", str(fam), "--colors", "2",
                       "--cache", str(cache)) == (
                2, "", "error: variables [1] are not bounded by any all-positive term, "
                       "so [1..N] does not hold every instance\n")
        assert not cache.exists()


class TestThreshold:
    def test_exact(self, capsys):
        code, out, _ = run(
            capsys, "threshold", "--family", "schur", "--colors", "2", "--max-n", "10"
        )
        assert code == 0 and out.startswith("T = 5\n")

    def test_lower_bound_exits_one(self, capsys):
        code, out, _ = run(
            capsys, "threshold", "--family", "schur", "--colors", "3", "--max-n", "5"
        )
        assert code == 1 and out.startswith("T >= 6\n")

    def test_cache_cold_warm_identical(self, capsys, tmp_path):
        cache = tmp_path / "store.jsonl"
        argv = (
            "threshold", "--family", "schur", "--colors", "2", "--max-n", "10",
            "--cache", str(cache),
        )
        code1, out1, _ = run(capsys, *argv)
        good, _ = ResultStore(cache).records()
        assert len(good) == 1
        code2, out2, _ = run(capsys, *argv)
        assert (code1, out1) == (code2, out2)
        good, _ = ResultStore(cache).records()
        assert len(good) == 1  # warm run reused the record, no second append

    def test_cached_exact_reused_for_larger_max_n(self, capsys, tmp_path):
        cache = tmp_path / "store.jsonl"
        run(capsys, "threshold", "--family", "schur", "--colors", "2",
            "--max-n", "10", "--cache", str(cache))
        code, out, _ = run(capsys, "threshold", "--family", "schur", "--colors", "2",
                           "--max-n", "500", "--cache", str(cache))
        assert code == 0 and out.startswith("T = 5\n")
        good, _ = ResultStore(cache).records()
        assert len(good) == 1

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "t.json"
        code, out, _ = run(
            capsys, "threshold", "--family", "xyxy", "--colors", "2",
            "--max-n", "10", "--out", str(out_path),
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["value"] == 4 and data["exact"] is True


class TestConstruct:
    def test_success(self, capsys, solid6):
        code, out, _ = run(capsys, "construct", "--coloring", solid6)
        assert code == 0
        assert "t sequence: 1, 1" in out
        assert "y sequence: 1" in out
        assert "witness: x=1 y=1 -> (1, 2, 1) color=1" in out

    def test_failure(self, capsys, tmp_path):
        path = tmp_path / "solid1.txt"
        Coloring.solid(1).save(path)
        code, out, _ = run(capsys, "construct", "--coloring", str(path))
        assert code == 1
        assert "y sequence: (none)" in out
        assert "failed: round 1: no y <= 1 reaches |D| >= 1" in out

    @pytest.mark.parametrize("flag, value, says", [
        ("--y-max", "0", "y_max must be >= 1"),
        ("--size-floor", "0", "size_floor must be >= 1"),
        ("--max-rounds", "-1", "max_rounds must be >= 0"),
    ])
    def test_out_of_range_parameters_are_input_errors(
        self, capsys, solid6, tmp_path, flag, value, says
    ):
        trace_path = tmp_path / "trace.json"
        code, out, err = run(
            capsys, "construct", "--coloring", solid6, flag, value, "--trace", str(trace_path),
        )
        assert code == 2 and out == ""
        assert err == f"error: {says}\n"
        assert not trace_path.exists()

    def test_trace_file_and_cache(self, capsys, solid6, tmp_path):
        # the trace is written to --trace; the store keeps no construction,
        # so --cache is a usage error that writes neither file
        trace_path = tmp_path / "trace.json"
        cache = tmp_path / "store.jsonl"
        code, out, _ = run(capsys, "construct", "--coloring", solid6, "--trace", str(trace_path))
        assert code == 0 and f"trace written to {trace_path}" in out
        data = json.loads(trace_path.read_text())
        assert data["witness"]["x"] == 1 and data["witness"]["y"] == 1
        trace_path.unlink()
        code, out, err = run(capsys, "construct", "--coloring", solid6,
                             "--trace", str(trace_path), "--cache", str(cache))
        assert code == 2 and out == "" and "unrecognized arguments: --cache" in err
        assert not trace_path.exists() and not cache.exists()


class TestReduce:
    def test_sum_of_two(self, capsys, solid200):
        code, out, _ = run(
            capsys, "reduce", "--coeffs", "1,-1", "--coloring", solid200
        )
        assert code == 0
        assert "u = (1, -1)" in out
        assert "b = 4" in out
        assert "a = (8, 3, 1) color=1 from witness (x=8, y=4)" in out

    # stdout of the lifted search that solve_quadratic replaced, byte for byte
    PINNED_A = {
        "solid": "a = (8, 3, 1) color=1 from witness (x=8, y=4)\n",
        "parity": "a = (32, 6, 2) color=2 from witness (x=16, y=8)\n",
        "random": "a = (80, 9, 1) color=1 from witness (x=20, y=16)\n",
    }
    NONE = "no solution found within the lifted search range\n"

    @pytest.mark.parametrize("box, found", [
        (None, {"solid", "parity", "random"}),
        ("4", set()),
        ("10,20", {"solid"}),
        ("2:40,1:30", {"solid", "parity", "random"}),
    ])
    def test_stdout_pinned(self, capsys, tmp_path, box, found):
        colorings = {
            "solid": Coloring.solid(200),
            "parity": Coloring.modular(200, 2),
            "random": Coloring.random_uniform(300, 2, 1),
        }
        for name, chi in colorings.items():
            path = tmp_path / f"{name}.txt"
            chi.save(path)
            argv = ["reduce", "--coeffs", "1,-1", "--coloring", str(path)]
            code, out, _ = run(capsys, *argv, *(["--box", box] if box else []))
            tail = self.PINNED_A[name] if name in found else self.NONE
            assert (code, out) == (0 if name in found else 1, "u = (1, -1)\nb = 4\n" + tail)

    @pytest.mark.parametrize("coeffs, code, out", [
        ("1,1,-2", 1, "u = (7, 1, -5)\nb = 36\n" + NONE),
        ("1,2,-3", 0, "u = (5, 1, -3)\nb = 32\n"
                      "a = (128, 9, 5, 1) color=1 from witness (x=128, y=32)\n"),
        ("-1,3,-3,1", 0, "u = (-5, -4, -3, 2)\nb = 8\n"
                         "a = (48, 1, 2, 3, 8) color=1 from witness (x=48, y=8)\n"),
        ("-1,2,-1", 1, "u = (23, 17, -7)\nb = 36\n" + NONE),
    ])
    def test_stdout_pinned_per_vector(self, capsys, solid200, coeffs, code, out):
        # p and q, a negated u, and p identically zero, byte for byte
        got, stdout, _ = run(capsys, "reduce", f"--coeffs={coeffs}", "--coloring", solid200)
        assert (got, stdout) == (code, out)

    def test_degenerate(self, capsys, solid200):
        # '=' form: a bare value starting with '-' would parse as an option
        code, out, _ = run(
            capsys, "reduce", "--coeffs=-25,51,-27,1", "--coloring", solid200
        )
        assert (code, out) == (1, (
            "degenerate coefficients: no usable substitution vector: "
            "p has no non-zero rational root; q has no non-zero rational root\n"
        ))

    def test_nonzero_sum_is_usage_error(self, capsys, solid200):
        code, _, err = run(
            capsys, "reduce", "--coeffs", "1,1", "--coloring", solid200
        )
        assert code == 2 and "sum to zero" in err

    def test_no_solution_in_small_domain(self, capsys, tmp_path):
        path = tmp_path / "solid3.txt"
        Coloring.solid(3).save(path)
        code, out, _ = run(capsys, "reduce", "--coeffs", "1,-1", "--coloring", str(path))
        assert code == 1
        assert "no solution found within the lifted search range" in out

    def test_out_and_cache(self, capsys, solid200, tmp_path):
        out_path = tmp_path / "sol.json"
        cache = tmp_path / "store.jsonl"
        code, out, _ = run(
            capsys, "reduce", "--coeffs", "1,-1", "--coloring", solid200,
            "--out", str(out_path), "--cache", str(cache),
        )
        assert code == 0 and f"solution written to {out_path}" in out
        data = json.loads(out_path.read_text())
        assert data["a"] == [8, 3, 1] and data["b"] == 4
        assert ResultStore(cache).verify_all() == []

    @pytest.mark.parametrize("box, says", [
        ("x", "invalid literal for int() with base 10: 'x'"),
        ("5:2", "box needs 2 entries, got 1"),
        ("1,2,3", "box needs 2 entries, got 3"),
        ("0:5,1:5", "box lower bounds must be >= 1 (assignments are positive)"),
    ])
    def test_bad_box_refused_before_any_output(self, capsys, solid200, tmp_path, box, says):
        out_path, cache = tmp_path / "sol.json", tmp_path / "store.jsonl"
        code, out, err = run(capsys, "reduce", "--coeffs", "1,-1", "--coloring", solid200,
                             "--box", box, "--out", str(out_path), "--cache", str(cache))
        assert (code, out, err) == (2, "", f"error: {says}\n")
        assert not out_path.exists() and not cache.exists()


class TestLiftExp:
    def test_powers_of_two(self, capsys, parity32, tmp_path):
        out_path = tmp_path / "lifted.txt"
        code, out, _ = run(
            capsys, "lift-exp", "--coloring", parity32, "--base", "2",
            "--out", str(out_path),
        )
        assert code == 0
        assert "exponent coloring: m=5 r=2" in out
        assert "colors: 2 2 2 2 2" in out
        lifted = Coloring.load(out_path)
        assert lifted.n == 5 and lifted.color_of(3) == 2

    def test_base_too_large(self, capsys, tmp_path):
        path = tmp_path / "solid1.txt"
        Coloring.solid(1).save(path)
        code, _, err = run(capsys, "lift-exp", "--coloring", str(path), "--base", "2")
        assert code == 2 and "error:" in err


class TestCache:
    def seeded(self, capsys, tmp_path):
        cache = tmp_path / "store.jsonl"
        run(capsys, "threshold", "--family", "schur", "--colors", "2",
            "--max-n", "10", "--cache", str(cache))
        run(capsys, "avoid", "--family", "schur", "--colors", "2", "--n", "4",
            "--cache", str(cache))
        return cache

    def test_list(self, capsys, tmp_path):
        cache = self.seeded(capsys, tmp_path)
        code, out, err = run(capsys, "cache", "list", "--cache", str(cache))
        assert code == 0
        assert "2 record(s), 0 quarantined" in out
        assert "  avoiding: 1" in out and "  threshold: 1" in out
        assert err == ""

    def test_verify_clean(self, capsys, tmp_path):
        cache = self.seeded(capsys, tmp_path)
        code, out, _ = run(capsys, "cache", "verify", "--cache", str(cache))
        assert code == 0 and "all 2 record(s) verified" in out

    def test_verify_tampered(self, capsys, tmp_path):
        cache = self.seeded(capsys, tmp_path)
        lines = cache.read_text().splitlines()
        obj = json.loads(lines[1])
        obj["payload"]["coloring_rle"] = [[1, 4]]
        lines[1] = json.dumps(obj)
        cache.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "cache", "verify", "--cache", str(cache))
        assert code == 1 and "1 record(s) failed verification" in out

    def test_quarantined_reported_on_stderr(self, capsys, tmp_path):
        cache = self.seeded(capsys, tmp_path)
        with open(cache, "a") as fh:
            fh.write("not json\n")
        code, out, err = run(capsys, "cache", "list", "--cache", str(cache))
        assert code == 0
        assert "2 record(s), 1 quarantined" in out
        assert "QUARANTINED" in err

    def test_threshold_record_without_colors_fails_verify(self, capsys, tmp_path):
        cache = self.seeded(capsys, tmp_path)
        fp = preset_family("schur").fingerprint()
        record = {"kind": "threshold", "fingerprint": fp, "params": {"r": 0},
                  "payload": {"family_name": "schur", "fingerprint": fp, "r": 0, "value": 1,
                              "exact": True, "certificate": None, "nodes": 0, "max_n": 5},
                  "provenance": {}}
        with open(cache, "a") as fh:
            fh.write(json.dumps(record) + "\n")
        code, out, _ = run(capsys, "cache", "verify", "--cache", str(cache))
        assert code == 1
        assert out == ("  #2 FAIL: threshold record: threshold needs r >= 1 colors\n"
                       "1 record(s) failed verification\n")

    def test_record_filed_under_other_colors_is_not_served(self, capsys, tmp_path):
        # the genuine schur r=2 result (T = 5) filed under r=3
        cache = self.seeded(capsys, tmp_path)
        obj = json.loads(cache.read_text().splitlines()[0])
        assert obj["kind"] == "threshold" and obj["payload"]["value"] == 5
        obj["params"] = {"r": 3}
        with open(cache, "a") as fh:
            fh.write(json.dumps(obj) + "\n")
        code, out, _ = run(capsys, "cache", "verify", "--cache", str(cache))
        assert code == 1
        assert out == ("  #2 FAIL: threshold record: params r=3 but the payload has 2\n"
                       "1 record(s) failed verification\n")
        code, out, _ = run(capsys, "threshold", "--family", "schur", "--colors", "3",
                           "--max-n", "20", "--cache", str(cache))
        assert code == 0 and out == "T = 14\n"

    def test_lower_bound_served_on_its_value_not_its_max_n(self, capsys, tmp_path):
        # a genuine T >= 6 for {x, x+1}, r=2, claiming max_n 1000: the store
        # verifies the value and the avoider at N=5, but nothing checks max_n
        cache = tmp_path / "store.jsonl"
        res = threshold(preset_family("x_xp1"), 2, 5)
        payload = dict(res.to_json(), max_n=1000)
        record = ResultRecord("threshold", res.fingerprint, {"r": 2}, payload, {})
        ResultStore(cache).append(record)
        code, out, _ = run(capsys, "cache", "verify", "--cache", str(cache))
        assert code == 0 and out == "all 1 record(s) verified\n"
        argv = ("threshold", "--family", "x_xp1", "--colors", "2", "--max-n", "20")
        fresh = run(capsys, *argv)
        assert fresh == (1, "T >= 21\n", "")
        assert run(capsys, *argv, "--cache", str(cache)) == fresh
        # the bound it proved is served from then on
        assert run(capsys, *argv, "--cache", str(cache)) == fresh
        assert len(ResultStore(cache).records()[0]) == 2

    def test_requires_cache_path(self, capsys):
        code, _, err = run(capsys, "cache", "list")
        assert code == 2 and "needs --cache" in err


class TestExitCodes:
    def test_usage_error_is_two(self, capsys):
        code, _, _ = run(capsys, "witness", "--family", "schur")  # missing --coloring
        assert code == 2

    def test_missing_file_is_two(self, capsys):
        code, _, err = run(
            capsys, "witness", "--family", "schur", "--coloring", "/nonexistent"
        )
        assert code == 2 and "error:" in err

    def test_color_beyond_int32_is_two(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("2 2\n1 99999999999\n")
        code, out, err = run(capsys, "witness", "--family", "schur", "--coloring", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_budget_exceeded_is_three(self, capsys):
        code, _, err = run(
            capsys, "threshold", "--family", "schur", "--colors", "2",
            "--max-n", "10", "--max-nodes", "1",
        )
        assert code == 3 and err.startswith("resource limit:")

    def test_budget_exceeded_outside_threshold_is_three(self, capsys):
        # avoid has no partial answer: main reports the budget and exits 3
        code, out, err = run(
            capsys, "avoid", "--family", "schur", "--colors", "4", "--n", "44",
            "--max-nodes", "100",
        )
        assert (code, out, err) == (3, "", "resource limit: node budget exceeded\n")

    def test_budget_threshold_prints_proven_bound(self, capsys, tmp_path):
        # a run to max_n=13 places 132 colors and the N=14 refutation 69
        # more, so a budget of 200 runs out inside the refutation
        from ramseykit.search import threshold

        assert threshold(preset_family("schur"), 3, 13).nodes == 132
        budget = 132 + 68
        cache = tmp_path / "store.jsonl"
        code, out, err = run(
            capsys, "threshold", "--family", "schur", "--colors", "3",
            "--max-n", "20", "--max-nodes", str(budget), "--cache", str(cache),
        )
        assert code == 3 and out == "T >= 14\n"
        assert err.startswith("resource limit: threshold undecided at N=14")
        good, bad = ResultStore(cache).records()
        assert good == [] and bad == []  # a partial bound is not cached
        code, out, _ = run(capsys, "threshold", "--family", "schur", "--colors", "3",
                           "--max-n", "20", "--max-nodes", str(budget + 1))
        assert (code, out) == (0, "T = 14\n")

    @pytest.mark.parametrize("argv", [
        ["threshold", "--family", "schur", "--colors", "0", "--max-n", "5"],
        ["avoid", "--family", "schur", "--colors", "0", "--n", "5"],
        ["avoid", "--family", "schur", "--colors", "0", "--n", "5", "--greedy", "first-fit"],
        ["avoid", "--family", "schur", "--colors", "2", "--n", "5", "--greedy", "random",
         "--restarts", "0"],
    ])
    def test_no_colors_or_restarts_is_an_input_error(self, capsys, tmp_path, argv):
        cache = tmp_path / "store.jsonl"
        for _ in range(2):  # nothing is cached, so a second call fails the same way
            code, out, err = run(capsys, *argv, "--cache", str(cache))
            assert code == 2 and out == "" and err.startswith("error: need r >= 1")
            assert not cache.exists()

    @pytest.mark.parametrize("argv", [
        ["threshold", "--family", "schur", "--colors", "3", "--max-n", "20",
         "--max-nodes", "-1"],
        ["threshold", "--family", "schur", "--colors", "3", "--max-n", "20",
         "--time-limit", "-1"],
        ["avoid", "--family", "schur", "--colors", "3", "--n", "13", "--max-nodes", "-3"],
        # NaN compares false with everything: a test of "< 0" alone lets it through as no limit
        ["threshold", "--family", "schur", "--colors", "2", "--max-n", "10",
         "--time-limit", "nan"],
        ["avoid", "--family", "schur", "--colors", "2", "--n", "4", "--time-limit", "nan"],
    ])
    def test_negative_budget_is_an_input_error(self, capsys, tmp_path, argv):
        cache = tmp_path / "store.jsonl"
        code, out, err = run(capsys, *argv, "--cache", str(cache))
        assert code == 2 and out == "" and err.startswith("error: need budgets >= 0")
        assert not cache.exists()

    @pytest.mark.parametrize("budget", [["--max-nodes", "-1"], ["--time-limit", "-1"]])
    def test_negative_budget_is_an_input_error_on_a_cache_hit(self, capsys, tmp_path, budget):
        cache = tmp_path / "store.jsonl"
        argv = ["threshold", "--family", "schur", "--colors", "2", "--max-n", "10",
                "--cache", str(cache)]
        assert run(capsys, *argv)[:2] == (0, "T = 5\n")
        stored = cache.read_text()
        code, out, err = run(capsys, *argv, *budget)
        assert code == 2 and out == "" and err.startswith("error: need budgets >= 0")
        assert cache.read_text() == stored

    def test_jobs_flag_removed(self, capsys):
        code, _, _ = run(
            capsys, "avoid", "--family", "schur", "--colors", "2", "--n", "4", "--jobs", "2"
        )
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["witness", "--family", "schur", "--coloring", "c.txt", "--seed", "1"],
        ["witness", "--family", "schur", "--coloring", "c.txt", "--max-nodes", "5"],
        ["threshold", "--family", "schur", "--colors", "2", "--max-n", "10", "--seed", "1"],
        ["construct", "--coloring", "c.txt", "--time-limit", "1"],
        ["reduce", "--coeffs", "1,-1", "--coloring", "c.txt", "--max-nodes", "5"],
        ["lift-exp", "--coloring", "c.txt", "--base", "2", "--seed", "1"],
        ["cache", "list", "--cache", "s.jsonl", "--time-limit", "1"],
        ["family", "show", "--preset", "schur", "--seed", "1"],
        ["avoid", "--family", "schur", "--colors", "2", "--n", "4", "--out", "x.json"],
        ["construct", "--coloring", "c.txt", "--out", "x.json"],
        ["construct", "--coloring", "c.txt", "--cache", "s.jsonl"],
        ["cache", "list", "--cache", "s.jsonl", "--out", "x.json"],
        ["family", "show", "--preset", "schur", "--cache", "s.jsonl"],
        ["family", "prefix-product", "--functions", "f.json", "--cache", "s.jsonl"],
        ["lift-exp", "--coloring", "c.txt", "--base", "2", "--cache", "s.jsonl"],
    ])
    def test_flags_a_command_never_reads_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "unrecognized arguments" in err

    def test_out_before_family_show_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        # `family show --out` writes its file (TestFamily::test_show_file_round_trip)
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "family", "--out", "f.json", "show", "--preset", "schur")
        assert code == 2 and out == "" and not Path("f.json").exists()

    def test_avoid_and_threshold_keep_seed_and_budgets(self, capsys):
        budgets = ("--max-nodes", "100000", "--time-limit", "60")
        code, out, _ = run(capsys, "avoid", "--family", "x_xp1", "--colors", "2", "--n", "20",
                           "--greedy", "random", "--seed", "3", *budgets)
        assert code == 0 and out.startswith("avoiding coloring found: N=20 r=2\n")
        code, out, _ = run(capsys, "avoid", "--family", "schur", "--colors", "2", "--n", "4",
                           *budgets)
        assert code == 0 and out.startswith("avoiding coloring found: N=4 r=2\n")
        code, out, _ = run(capsys, "threshold", "--family", "schur", "--colors", "2",
                           "--max-n", "10", *budgets)
        assert (code, out) == (0, "T = 5\n")


class TestDeterminism:
    def test_repeat_invocations_byte_identical(self, capsys, solid6):
        pairs = []
        for _ in range(2):
            pairs.append(run(capsys, "witness", "--family", "xyxy",
                             "--coloring", solid6, "--all"))
        assert pairs[0] == pairs[1]

    def test_threshold_stdout_stable(self, capsys):
        runs = [
            run(capsys, "threshold", "--family", "xyxy", "--colors", "2", "--max-n", "8")
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestParserReuse:
    """main builds its parser once; no option outlives the call that gave it."""

    # each call with an option is followed by one without it
    CALLS = [
        ["witness", "--family", "xyxy", "--coloring", "c6.txt", "--distinct", "--box", "2:4,3:5",
         "--out", "w.json", "--cache", "store.jsonl"],
        ["witness", "--family", "xyxy", "--coloring", "c6.txt"],
        ["witness", "--family", "schur", "--coloring", "c6.txt", "--all", "--box", "2"],
        ["witness", "--family", "schur", "--coloring", "c6.txt", "--all"],
        ["threshold", "--family", "schur", "--colors", "2", "--max-n", "8",
         "--cache", "store.jsonl"],
        ["threshold", "--family", "schur", "--colors", "2", "--max-n", "8"],
        ["avoid", "--family", "schur", "--colors", "2", "--n", "5"],
        ["cache", "list", "--cache", "store.jsonl"],
        ["family", "show", "--preset", "vdw:3"],
    ]

    @staticmethod
    def setup_dir(path):
        path.mkdir()
        Coloring.solid(6).save(path / "c6.txt")
        return path

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()

    def test_in_process_calls_match_fresh_processes(self, capsys, tmp_path, monkeypatch):
        fresh_dir = self.setup_dir(tmp_path / "fresh")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        fresh = []
        for argv in self.CALLS:
            proc = subprocess.run([sys.executable, "-m", "ramseykit.cli", *argv], cwd=fresh_dir,
                                  env=env, capture_output=True, text=True, timeout=120)
            fresh.append((proc.returncode, proc.stdout))

        monkeypatch.chdir(self.setup_dir(tmp_path / "reused"))
        reused, lines = [], 0
        for argv in self.CALLS:
            code, out, _ = run(capsys, *argv)
            reused.append((code, out))
            store = Path("store.jsonl")
            now = store.read_text().count("\n") if store.exists() else 0
            # only a call given --cache touches the store, only one given --out writes w.json
            assert now >= lines if "--cache" in argv else now == lines
            lines = now
            if "--out" in argv:
                Path("w.json").unlink()
            assert not Path("w.json").exists()
        assert lines == 2
        assert reused == fresh
        # --distinct and --box did not carry over into the plain calls
        assert "assignment=(2, 3) values=(2, 5, 6) color=1" in reused[0][1]
        assert "assignment=(1, 1) values=(1, 2, 1) color=1" in reused[1][1]
        assert "found 4 witness(es)" in reused[2][1]
        assert "found 15 witness(es)" in reused[3][1]


class TestStoreSessionMemos:
    """One store session, in-process with one main() per command, then with a
    process per command: the memos change speed only."""

    def session(self):
        """Commands, and edits of the store between them, as the session runs."""
        cache = ["--cache", "store.jsonl"]
        th = ["threshold", "--family", "schur", "--colors", "2", "--max-n", "6", *cache]
        return [
            ["avoid", "--family", "schur", "--colors", "2", "--n", "4", *cache],
            ["avoid", "--family", "vdw:3", "--colors", "2", "--n", "8", *cache],
            ["avoid", "--family", "schur", "--colors", "2", "--n", "4", *cache],
            ["avoid", "--family", "xyxy", "--colors", "2", "--n", "3", *cache],
            ["witness", "--family", "schur", "--coloring", "c120.txt", *cache],
            ["witness", "--family", "vdw:3", "--coloring", "c120.txt", *cache],
            th,  # a miss, which searches and stores
            th,  # a hit
            ["reduce", "--coeffs", "1,-1", "--coloring", "c120.txt", *cache],
            ["cache", "list", *cache],
            ["cache", "verify", *cache],
            "tamper",
            ["cache", "verify", *cache],
            ["avoid", "--family", "schur", "--colors", "2", "--n", "4", *cache],
            "quarantine",
            ["cache", "list", *cache],
            ["cache", "verify", *cache],
            th,
            ["threshold", "--family", "schur", "--colors", "2", "--max-n", "4", *cache],
        ]

    @staticmethod
    def edit(step):
        store = Path("store.jsonl")
        if step == "tamper":  # the first avoider becomes all one colour
            lines = store.read_text().splitlines()
            obj = json.loads(lines[0])
            obj["payload"]["coloring_rle"] = [[1, obj["payload"]["n"]]]
            lines[0] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
            store.write_text("\n".join(lines) + "\n")
        else:
            with open(store, "ab") as fh:
                fh.write(b"3\n\xff garbage\nnot json\n")

    @staticmethod
    def stored_lines():
        out = []
        for line in Path("store.jsonl").read_bytes().splitlines():
            try:
                obj = json.loads(line)
                obj.pop("provenance")
            except (ValueError, TypeError, AttributeError, KeyError):
                out.append(line)  # not a record: compared as it is
            else:
                out.append(json.dumps(obj, sort_keys=True))
        return out

    def test_in_process_matches_a_process_per_command(self, capsys, tmp_path, monkeypatch):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        results = {}
        for mode in ("processes", "in-process"):
            monkeypatch.chdir(tmp_path)
            work = tmp_path / mode
            work.mkdir()
            monkeypatch.chdir(work)
            Coloring.random_uniform(120, 2, 5).save("c120.txt")
            outcomes = []
            for step in self.session():
                if isinstance(step, str):
                    self.edit(step)
                elif mode == "processes":
                    proc = subprocess.run([sys.executable, "-m", "ramseykit.cli", *step],
                                          env=env, capture_output=True, text=True, timeout=120)
                    outcomes.append((proc.returncode, proc.stdout, proc.stderr))
                else:
                    outcomes.append(run(capsys, *step))
            results[mode] = (outcomes, self.stored_lines())
        assert results["in-process"] == results["processes"]
        outcomes, lines = results["in-process"]
        assert [code for code, _, _ in outcomes] == [0] * 11 + [1, 0, 0, 1, 0, 0]
        assert outcomes[7][1] == outcomes[6][1] == "T = 5\n"  # the hit stored nothing
        assert outcomes[9][1].startswith("8 record(s), 0 quarantined\n")
        assert outcomes[11][1].startswith("  #0 FAIL: avoiding record: certificate fails")
        assert outcomes[13][1].startswith("9 record(s), 3 quarantined\n")
        assert outcomes[13][2].startswith("  #9 QUARANTINED: not a JSON object\n"
                                          "  #10 QUARANTINED: not UTF-8: ")
        assert outcomes[14][1].endswith("4 record(s) failed verification\n")
        assert len(lines) == 12
