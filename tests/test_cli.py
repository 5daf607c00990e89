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
from ramseykit.search import AvoidCertificate, verify_certificate
from ramseykit.storage import ResultStore


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

    def test_coeffs(self):
        assert parse_coeffs("1,-1") == (1, -1)
        assert parse_coeffs(" 1, 1, -2 ") == (1, 1, -2)
        with pytest.raises(ValueError):
            parse_coeffs("1;2")


class TestFamily:
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
        fn.write_text(json.dumps([["0", "x0"]]))
        code, _, err = run(
            capsys, "family", "prefix-product", "--functions", str(fn), "--s", "2"
        )
        assert code == 2 and "error:" in err

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "family", "show", "--preset", "nosuch")
        assert code == 2
        assert "error:" in err and "schur" in err  # names the valid presets


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

    def test_trace_file_and_cache(self, capsys, solid6, tmp_path):
        trace_path = tmp_path / "trace.json"
        cache = tmp_path / "store.jsonl"
        code, out, _ = run(
            capsys, "construct", "--coloring", solid6,
            "--trace", str(trace_path), "--cache", str(cache),
        )
        assert code == 0 and f"trace written to {trace_path}" in out
        data = json.loads(trace_path.read_text())
        assert data["witness"]["x"] == 1 and data["witness"]["y"] == 1
        assert ResultStore(cache).verify_all() == []


class TestReduce:
    def test_sum_of_two(self, capsys, solid200):
        code, out, _ = run(
            capsys, "reduce", "--coeffs", "1,-1", "--coloring", solid200
        )
        assert code == 0
        assert "u = (1, -1)" in out
        assert "b = 4" in out
        assert "a = (8, 3, 1) color=1 from witness (x=8, y=4)" in out

    def test_degenerate(self, capsys, solid200):
        # '=' form: a bare value starting with '-' would parse as an option
        code, out, _ = run(
            capsys, "reduce", "--coeffs=-25,51,-27,1", "--coloring", solid200
        )
        assert code == 1 and out.startswith("degenerate coefficients:")

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

    def test_budget_threshold_prints_proven_bound(self, capsys, tmp_path):
        # the nodes of a run to max_n=13 leave 5 for the N=14 refutation
        from ramseykit.search import threshold

        budget = threshold(preset_family("schur"), 3, 13).nodes + 5
        cache = tmp_path / "store.jsonl"
        code, out, err = run(
            capsys, "threshold", "--family", "schur", "--colors", "3",
            "--max-n", "20", "--max-nodes", str(budget), "--cache", str(cache),
        )
        assert code == 3 and out == "T >= 14\n"
        assert err.startswith("resource limit: threshold undecided at N=14")
        good, bad = ResultStore(cache).records()
        assert good == [] and bad == []  # a partial bound is not cached

    def test_jobs_flag_removed(self, capsys):
        code, _, _ = run(
            capsys, "avoid", "--family", "schur", "--colors", "2", "--n", "4", "--jobs", "2"
        )
        assert code == 2


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
