"""Verified append-only results store: round-trips, quarantine, tampering."""

import contextlib
import gc
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseykit import storage
from ramseykit.cli import main
from ramseykit.coloring import Coloring
from ramseykit.families import PatternFamily, preset_family, reduction_family
from ramseykit.reduction import QuadSolution, quadratic_setup, verify_quad_solution
from ramseykit.search import AvoidCertificate, exists_avoiding, threshold
from ramseykit.storage import (
    ResultRecord,
    ResultStore,
    StoreVerificationError,
    make_provenance,
)
from ramseykit.witnesses import Witness, find_witness, verify_witness, witness_to_json


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "results.jsonl")


def witness_record():
    fam = preset_family("xyxy")
    chi = Coloring.solid(6)
    w = find_witness(fam, chi)
    return ResultRecord(
        "witness",
        fam.fingerprint(),
        {"n": 6, "r": 1, "distinct": False, "box": None},
        witness_to_json(fam, chi, w),
        make_provenance(),
    )


def avoiding_record():
    fam = preset_family("schur")
    cert = exists_avoiding(fam, 2, 4)
    return ResultRecord(
        "avoiding",
        fam.fingerprint(),
        {"n": 4, "r": 2, "box_relative": False},
        cert.to_json(),
        make_provenance(),
    )


class TestAppendLookup:
    def test_round_trip(self, store):
        rec = witness_record()
        store.append(rec)
        back = store.lookup("witness", rec.fingerprint, rec.params)
        assert back is not None
        assert back.payload == rec.payload

    def test_lookup_with_different_params_misses(self, store):
        rec = witness_record()
        store.append(rec)
        other = dict(rec.params, n=7)
        assert store.lookup("witness", rec.fingerprint, other) is None

    def test_lookup_with_different_kind_misses(self, store):
        rec = witness_record()
        store.append(rec)
        assert store.lookup("avoiding", rec.fingerprint, rec.params) is None

    def test_latest_wins(self, store):
        rec = witness_record()
        store.append(rec)
        changed = ResultRecord(
            rec.kind, rec.fingerprint, rec.params, rec.payload, {"note": "second"}
        )
        store.append(changed)
        assert store.lookup("witness", rec.fingerprint, rec.params).provenance == {
            "note": "second"
        }

    def test_missing_file_is_empty(self, store):
        good, bad = store.records()
        assert good == [] and bad == []

    def test_lock_file_created(self, store):
        store.append(witness_record())
        assert store.lock_path.exists()

    def test_append_returns_none_and_lock_file_stays_empty(self, store):
        for _ in range(3):
            assert store.append(witness_record()) is None
            assert store.lock_path.stat().st_size == 0
        good, _ = store.records()
        assert [i for i, _ in good] == [0, 1, 2]

    def test_append_leaves_no_file_open(self, store):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(3):
                store.append(witness_record())
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def write_unverified(store, record):
    """Plant a line as append would encode it, without append's verification."""
    line = json.dumps(record.to_json(), sort_keys=True, separators=(",", ":"))
    with open(store.path, "a") as fh:
        fh.write(line + "\n")


REDUCTION_FP = reduction_family([1, -1]).fingerprint()
# {x0}: every singleton is an instance, so T = 1 in any number of colors
SINGLE_FP = PatternFamily.from_texts(1, ["x0"], "singleton").fingerprint()


def plain_record(i, **params):
    """A record filed under params {"i": i}: the threshold T = 1 of {x0}, which
    needs no certificate, so that it checks in no time."""
    return ResultRecord("threshold", SINGLE_FP, {"i": i, **params},
                        {"exact": True, "r": 1, "value": 1}, {})


def stored_params(store):
    """The params of every line in the store, in file order."""
    return [json.loads(line)["params"] for line in store.path.read_text().splitlines()]


class TestLineIndexMemo:
    """Each append lands at the end of the store as it is now.  The line-count
    memo that older versions kept in the lock file is ignored, as is garbage."""

    def test_store_written_without_memo(self, store):
        store.path.write_text("".join(f'{{"params": {{"hand": {i}}}}}\n' for i in range(5)))
        store.append(plain_record(0))
        store.append(plain_record(1))
        assert stored_params(store) == [{"hand": i} for i in range(5)] + [{"i": 0}, {"i": 1}]

    def test_other_store_object_appended(self, store):
        other = ResultStore(store.path)
        store.append(plain_record(0))
        other.append(plain_record(1))
        store.append(plain_record(2))
        assert stored_params(store) == [{"i": i} for i in range(3)]

    @pytest.mark.parametrize(
        "garbage",
        [b"", b"\n", b"x" * 84, b"9" * 200, b"not a memo at all", (b"0" * 20 + b" ") * 4,
         b" ".join(b"%020d" % v for v in (10**6, 10**18, 12345, 7)) + b"\n"],
    )
    def test_garbage_lock_file(self, store, tmp_path, garbage):
        clean = ResultStore(tmp_path / "clean.jsonl")
        for i in range(3):
            store.append(plain_record(i))
            clean.append(plain_record(i))
        store.lock_path.write_bytes(garbage)
        for i in (3, 4):
            store.append(plain_record(i))
            clean.append(plain_record(i))
        assert store.path.read_bytes() == clean.path.read_bytes()
        assert store.lock_path.read_bytes() == garbage  # ignored, and left as it was

    def test_writer_that_skipped_the_memo(self, store):
        for i in range(3):
            store.append(plain_record(i))
        with open(store.path, "a") as fh:
            fh.write('{"params": "by hand"}\n')
        store.append(plain_record(3))
        assert stored_params(store)[3:] == ["by hand", {"i": 3}]

    def test_store_replaced(self, store, tmp_path):
        for i in range(3):
            store.append(plain_record(i))
        fresh = tmp_path / "fresh.jsonl"
        fresh.write_text('{"params": "fresh"}\n')
        os.replace(fresh, store.path)
        store.append(plain_record(3))
        assert stored_params(store) == ["fresh", {"i": 3}]

    def test_store_truncated(self, store):
        for i in range(3):
            store.append(plain_record(i))
        store.path.write_text("")
        store.append(plain_record(3))
        assert stored_params(store) == [{"i": 3}]

    def test_store_deleted(self, store):
        for i in range(3):
            store.append(plain_record(i))
        store.path.unlink()
        store.append(plain_record(3))
        assert stored_params(store) == [{"i": 3}]

    @pytest.mark.parametrize("count", [2, 4])
    def test_concurrent_processes(self, store, count):
        """50 appends from each process: every line is whole JSON, every record
        is stored once, and each process's records keep their order.  Four
        processes outnumber the cores of a small machine, so their appends
        interleave."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        go = store.path.with_name("go")
        script = (
            "import os, sys, time\n"
            "from ramseykit.families import PatternFamily\n"
            "from ramseykit.storage import ResultRecord, ResultStore\n"
            "fp = PatternFamily.from_texts(1, ['x0'], 'singleton').fingerprint()\n"
            "store = ResultStore(sys.argv[1])\n"
            "print('ready', flush=True)\n"
            "while not os.path.exists(sys.argv[3]):\n"
            "    time.sleep(0.001)\n"
            "for i in range(50):\n"
            "    rec = ResultRecord('threshold', fp, {'proc': sys.argv[2], 'i': i},\n"
            "                       {'exact': True, 'r': 1, 'value': 1}, {})\n"
            "    store.append(rec)\n"
        )
        names = "abcd"[:count]
        with contextlib.ExitStack() as stack:
            procs = [
                stack.enter_context(subprocess.Popen(
                    [sys.executable, "-c", script, str(store.path), name, str(go)],
                    env=env, stdout=subprocess.PIPE, text=True))
                for name in names
            ]
            try:
                # every process is up before any appends, so that their appends overlap
                assert [proc.stdout.readline() for proc in procs] == ["ready\n"] * count
            finally:
                go.touch()  # never leave a process waiting
            for proc in procs:
                proc.communicate(timeout=120)
                assert proc.returncode == 0
        stored = [(p["proc"], p["i"]) for p in stored_params(store)]  # each line parses
        assert sorted(stored) == sorted((name, i) for name in names for i in range(50))
        for name in names:
            assert [i for proc, i in stored if proc == name] == list(range(50))
        assert store.lock_path.stat().st_size == 0

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_append_leaves_no_fd_open(self, store):
        # a raw fd, unlike a file object, leaks without a ResourceWarning
        before = len(os.listdir("/proc/self/fd"))
        for i in range(3):
            store.append(plain_record(i))
        assert len(os.listdir("/proc/self/fd")) == before


class TestVerification:
    def test_bad_witness_blocked(self, store):
        rec = witness_record()
        payload = dict(rec.payload)
        payload["term_values"] = [1, 2, 999]
        bad = ResultRecord(rec.kind, rec.fingerprint, rec.params, payload, {})
        with pytest.raises(StoreVerificationError):
            store.append(bad)

    def test_bad_avoiding_blocked(self, store):
        rec = avoiding_record()
        payload = dict(rec.payload)
        payload["coloring_rle"] = [[1, 4]]  # all-one, not avoiding
        with pytest.raises(StoreVerificationError):
            store.append(ResultRecord(rec.kind, rec.fingerprint, rec.params, payload, {}))

    def test_threshold_record_verifies(self, store):
        res = threshold(preset_family("schur"), 2, 20)
        payload = res.to_json()
        payload["max_n"] = 20
        store.append(
            ResultRecord("threshold", res.fingerprint, {"r": 2}, payload, make_provenance())
        )
        assert store.verify_all() == []

    def test_threshold_record_without_colors_blocked(self, store):
        payload = threshold(preset_family("schur"), 1, 5).to_json()
        payload["r"] = 0
        bad = ResultRecord("threshold", payload["fingerprint"], {"r": 0}, payload, {})
        with pytest.raises(StoreVerificationError, match="r >= 1"):
            store.append(bad)
        assert not store.path.exists()
        write_unverified(store, bad)
        assert "r >= 1" in store.verify_all()[0][1]
        assert store.lookup("threshold", bad.fingerprint, {"r": 0}) is None

    def test_reduction_record_checks_arithmetic(self, store):
        good = {
            "c": [1, -1],
            "u": [1, -1],
            "b": 4,
            "a": [8, 3, 1],
            "color": 1,
            "source_witness": [8, 4],
        }
        store.append(ResultRecord("reduction", REDUCTION_FP, {"c": [1, -1]}, good, {}))
        bad = dict(good, a=[9, 3, 1])
        with pytest.raises(StoreVerificationError):
            store.append(ResultRecord("reduction", REDUCTION_FP, {"c": [1, -1]}, bad, {}))

    def test_certificate_under_another_fingerprint_blocked(self, store):
        rec = avoiding_record()  # a valid schur certificate
        vdw = preset_family("vdw", 3).fingerprint()
        forged = ResultRecord(rec.kind, vdw, rec.params, rec.payload, {})
        with pytest.raises(StoreVerificationError, match="embedded family"):
            store.append(forged)
        write_unverified(store, forged)
        failures = store.verify_all()
        assert len(failures) == 1 and "embedded family" in failures[0][1]

    def test_payload_fingerprint_field_checked(self, store):
        rec = avoiding_record()
        payload = dict(rec.payload, fingerprint=preset_family("vdw", 3).fingerprint())
        with pytest.raises(StoreVerificationError, match="payload fingerprint"):
            store.append(ResultRecord(rec.kind, rec.fingerprint, rec.params, payload, {}))

    def test_witness_under_another_fingerprint_blocked(self, store):
        rec = witness_record()
        forged = ResultRecord(rec.kind, preset_family("schur").fingerprint(), rec.params,
                              rec.payload, {})
        with pytest.raises(StoreVerificationError, match="embedded family"):
            store.append(forged)

    def test_threshold_under_another_fingerprint_blocked(self, store):
        res = threshold(preset_family("schur"), 2, 20)
        vdw = preset_family("vdw", 3).fingerprint()
        payload = res.to_json()
        with pytest.raises(StoreVerificationError, match="payload fingerprint"):
            store.append(ResultRecord("threshold", vdw, {"r": 2}, payload, {}))
        # the certificate's family is checked even when the payload field agrees
        payload["fingerprint"] = vdw
        with pytest.raises(StoreVerificationError, match="embedded family"):
            store.append(ResultRecord("threshold", vdw, {"r": 2}, payload, {}))
        write_unverified(store, ResultRecord("threshold", vdw, {"r": 2}, payload, {}))
        assert "embedded family" in store.verify_all()[0][1]

    def test_unknown_kind_rejected(self, store):
        with pytest.raises(ValueError):
            store.append(ResultRecord("mystery", "fp", {}, {}, {}))


def threshold_record(r, max_n=20):
    res = threshold(preset_family("schur"), r, max_n)
    payload = dict(res.to_json(), max_n=max_n)
    return ResultRecord("threshold", res.fingerprint, {"r": r}, payload, {})


def reduction_record():
    payload = {"c": [1, -1], "u": [1, -1], "b": 4, "a": [8, 3, 1], "color": 1,
               "source_witness": [8, 4]}
    return ResultRecord("reduction", REDUCTION_FP, {"c": [1, -1], "n": 200, "r": 1}, payload, {})


class TestParamsAgreeWithPayload:
    """lookup matches records on params, so a record whose params name other
    inputs than its payload holds is refused, skipped and reported."""

    @pytest.mark.parametrize("make, params", [
        (lambda: threshold_record(2), {"r": 3}),  # the genuine r=2 result, T = 5
        (avoiding_record, {"n": 5}),
        (avoiding_record, {"r": 3}),
        (avoiding_record, {"box_relative": True}),
        (witness_record, {"n": 7}),
        (witness_record, {"r": 2}),
        (reduction_record, {"c": [2, -2]}),
    ], ids=["threshold-r", "avoiding-n", "avoiding-r", "avoiding-box_relative", "witness-n",
            "witness-r", "reduction-c"])
    def test_misfiled_record_refused_skipped_and_reported(self, store, make, params):
        good = make()
        store.append(good)
        assert store.lookup(good.kind, good.fingerprint, good.params) == good
        bad = ResultRecord(good.kind, good.fingerprint, dict(good.params, **params),
                           good.payload, {})
        key = next(iter(params))
        with pytest.raises(StoreVerificationError, match=f"params {key}="):
            store.append(bad)
        write_unverified(store, bad)
        assert store.lookup(bad.kind, bad.fingerprint, bad.params) is None
        failures = store.verify_all()
        assert [i for i, _ in failures] == [1] and f"params {key}=" in failures[0][1]

    def test_threshold_certificate_of_other_colors_refused(self, store):
        # the r=2 avoider at N=4 under a payload that claims T(schur, 3) = 5
        bad = threshold_record(2)
        payload = dict(bad.payload, r=3)
        bad = ResultRecord("threshold", bad.fingerprint, {"r": 3}, payload, {})
        with pytest.raises(StoreVerificationError, match="certificate has r=2"):
            store.append(bad)
        write_unverified(store, bad)
        assert store.lookup("threshold", bad.fingerprint, {"r": 3}) is None
        assert "certificate has r=2" in store.verify_all()[0][1]


# {x, xy} with pairwise distinct values required
X_XY = PatternFamily.from_texts(2, ["x0", "x0*x1"], "x-xy", distinct_required=True)


def witness_of(fam, n, r, assignment, values, color, distinct):
    """A witness record as cmd_witness files it, for any claimed witness."""
    payload = {"family_name": fam.name, "family": fam.to_json(), "n": n, "r": r,
               "assignment": list(assignment), "term_values": list(values), "color": color}
    params = {"n": n, "r": r, "distinct": distinct, "box": None}
    return ResultRecord("witness", fam.fingerprint(), params, payload, {})


def reduction_of(c, u, b, a, source=(1, 1)):
    """A reduction record as cmd_reduce files it.  The default source (1, 1)
    decodes to no a; the records refused for their a fail before it is read."""
    payload = {"c": list(c), "u": list(u), "b": b, "a": list(a), "color": 1,
               "source_witness": list(source)}
    fp = reduction_family(u).fingerprint()
    return ResultRecord("reduction", fp, {"c": list(c)}, payload, {})


def accepted(store, record):
    try:
        store.append(record)
    except StoreVerificationError:
        return False
    return True


class TestOneCheckPerAnswer:
    """Witness and reduction records go through the package's own
    verify_witness and verify_quad_solution checks, colors aside."""

    @pytest.mark.parametrize("bad, reason", [
        (witness_of(preset_family("vdw", 3), 9, 1, (5, -1), (5, 4, 3), 1, False),
         "assignment entries must be positive"),
        (witness_of(preset_family("schur"), 2, 1, (1, 1), (1, 1, 2), 1, True),
         "term values not pairwise distinct"),
        (witness_of(X_XY, 4, 1, (2, 1), (2, 2), 1, False),
         "term values not pairwise distinct"),
        (reduction_of((1, -1), (1, -1), 4, (4, 2)), "expected 3 values, got 2"),
        (reduction_of((1, -4, 3), (-2, -1), 4, (17, 3, 1, 2)),
         "u=[-2, -1], b=4 are not quadratic_setup's u=[-2, -1, 0], b=4"),
    ], ids=["vdw3-nonpositive", "schur-distinct-param", "distinct-required-family",
            "reduction-short-a", "reduction-short-u"])
    def test_refused_skipped_and_reported(self, store, capsys, bad, reason):
        refused_skipped_and_reported(store, capsys, bad, reason)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_witness_record_accepted_iff_verify_witness_accepts(self, tmp_path_factory, data):
        fam = data.draw(st.sampled_from([preset_family("schur"), preset_family("vdw", 3),
                                         preset_family("xyxy"), X_XY]))
        r = data.draw(st.integers(1, 3))
        assignment = data.draw(st.lists(st.integers(1, 6), min_size=2, max_size=2))
        color, distinct = data.draw(st.integers(1, r)), data.draw(st.booleans())
        mutation = data.draw(st.sampled_from(
            ["none", "nonpositive", "value", "range", "repeat", "color"]))
        if mutation == "nonpositive":
            assignment[data.draw(st.integers(0, 1))] = data.draw(st.integers(-3, 0))
        if mutation == "repeat":
            assignment, distinct = [assignment[0]] * 2, True
        values = [t.evaluate(assignment) for t in fam.terms]
        if mutation == "value":
            values[data.draw(st.integers(0, len(values) - 1))] += data.draw(
                st.sampled_from([-2, -1, 1, 2]))
        top = max(1, max(values))
        n = max(1, top - 1) if mutation == "range" else top + data.draw(st.integers(0, 3))
        colors = data.draw(st.lists(st.integers(1, r), min_size=n, max_size=n))
        if mutation == "color":
            color = data.draw(st.sampled_from([0, r + 1]))
        else:  # a coloring that gives the claimed values the claimed color
            for v in values:
                if 1 <= v <= n:
                    colors[v - 1] = color
        w = Witness(tuple(assignment), tuple(values), color)
        expected = verify_witness(fam, Coloring(n, r, colors), w,
                                  distinct=True if distinct else None)
        store = ResultStore(tmp_path_factory.getbasetemp() / "one-check.jsonl")
        record = witness_of(fam, n, r, assignment, values, color, distinct)
        assert accepted(store, record) == expected.ok, expected.reason

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_reduction_record_accepted_iff_verify_quad_solution_accepts(
        self, tmp_path_factory, data
    ):
        c = data.draw(st.sampled_from([(1, -1), (1, 2, -3), (1, -4, 3), (2, -1, -1)]))
        rd = quadratic_setup(c)
        y = data.draw(st.integers(1, 4))
        x = y * max(map(abs, rd.u)) + data.draw(st.integers(1, 6))
        a = [rd.b * x * y] + [x + ul * y for ul in rd.u]  # a solution, as solve_quadratic decodes
        mutation = data.draw(st.sampled_from(
            ["none", "drop", "extra", "nonpositive", "repeat", "equation"]))
        i = data.draw(st.integers(0, len(a) - 1))
        if mutation == "drop":
            del a[i]
        if mutation == "extra":
            a.append(data.draw(st.integers(1, 50)))
        if mutation == "nonpositive":
            a[i] = data.draw(st.integers(-3, 0))
        if mutation == "repeat":
            a[i] = a[(i + 1) % len(a)]
        if mutation == "equation":
            a[0] += data.draw(st.sampled_from([-2, -1, 1, 2]))
        sol = QuadSolution(tuple(a), 1, (1, 1))
        expected = verify_quad_solution(c, Coloring.solid(max(a + [1])), sol)
        store = ResultStore(tmp_path_factory.getbasetemp() / "one-check.jsonl")
        record = reduction_of(c, rd.u, rd.b, a, (rd.b * x, rd.b * y))
        assert accepted(store, record) == expected.ok, expected.reason


def refused_skipped_and_reported(store, capsys, bad, reason):
    """append refuses the record, lookup skips it and cache verify reports it."""
    with pytest.raises(StoreVerificationError, match=re.escape(reason)):
        store.append(bad)
    assert not store.path.exists()
    write_unverified(store, bad)
    assert store.lookup(bad.kind, bad.fingerprint, bad.params) is None
    assert main(["cache", "verify", "--cache", str(store.path)]) == 1
    assert capsys.readouterr().out == (
        f"  #0 FAIL: {bad.kind} record: {reason}\n1 record(s) failed verification\n"
    )


SCHUR_FP = preset_family("schur").fingerprint()


def refiled(record, fingerprint=None, **payload):
    """The record under another fingerprint, or with payload fields replaced."""
    return ResultRecord(record.kind, fingerprint or record.fingerprint, record.params,
                        dict(record.payload, **payload), {})


class TestFiledUnderTheirFamily:
    """A reduction is filed under the family of its u, and its a must decode
    from its source witness."""

    @pytest.mark.parametrize("make, reason", [
        (lambda: refiled(reduction_record(), SCHUR_FP),
         "family of u does not match the record's fingerprint"),
        (lambda: refiled(reduction_record(), source_witness=[1, 1]),
         "source witness (1, 1) is not two positive multiples of b"),
        (lambda: refiled(reduction_record(), source_witness=[12, 4]),
         "a does not decode from the source witness (12, 4)"),
        (lambda: refiled(reduction_record(), source_witness=[8, 6]),
         "source witness (8, 6) is not two positive multiples of b"),
        (lambda: refiled(reduction_record(), source_witness=[-8, 4]),
         "source witness (-8, 4) is not two positive multiples of b"),
    ], ids=["reduction-under-schur", "reduction-source-1-1",
            "reduction-source-other-solution", "reduction-source-not-multiple",
            "reduction-source-negative"])
    def test_refused_skipped_and_reported(self, store, capsys, make, reason):
        refused_skipped_and_reported(store, capsys, make(), reason)

    def test_genuine_records_accepted(self, store):
        record = reduction_record()
        store.append(record)
        assert store.lookup(record.kind, record.fingerprint, record.params) == record
        assert store.verify_all() == []


def without_family(record):
    """The witness record with its embedded family left out."""
    payload = {k: v for k, v in record.payload.items() if k != "family"}
    return ResultRecord(record.kind, record.fingerprint, record.params, payload, {})


class TestPayloadChecks:
    """Each payload check of the store refuses, skips and reports the record
    it is there for."""

    @pytest.mark.parametrize("make, reason", [
        (lambda: without_family(witness_record()), "witness record must embed its family"),
        (lambda: refiled(threshold_record(2), value=0), "threshold value must be positive"),
        (lambda: refiled(threshold_record(2), value=-5), "threshold value must be positive"),
        (lambda: refiled(reduction_record(), u=[1, 2]),
         "u=[1, 2], b=4 are not quadratic_setup's u=[1, -1], b=4"),
        (lambda: refiled(reduction_record(), b=6),
         "u=[1, -1], b=6 are not quadratic_setup's u=[1, -1], b=4"),
        (lambda: refiled(reduction_record(), u=[-1, 1], b=-4),  # twice the cross sum, but negative
         "u=[-1, 1], b=-4 are not quadratic_setup's u=[1, -1], b=4"),
        # clears the form with b twice the positive cross sum, and a decodes; not setup's u
        (lambda: reduction_of((1, -1), (2, -2), 8, (40, 7, 3), (40, 8)),
         "u=[2, -2], b=8 are not quadratic_setup's u=[1, -1], b=4"),
    ], ids=["witness-no-family", "threshold-zero", "threshold-negative",
            "reduction-u-not-clearing", "reduction-b-not-twice",
            "reduction-b-negative", "reduction-u-not-setups"])
    def test_refused_skipped_and_reported(self, store, capsys, make, reason):
        refused_skipped_and_reported(store, capsys, make(), reason)


# {x, y - x} with distinct values: y is bounded by no all-positive term
X_YMX = PatternFamily.from_texts(2, ["x0", "x1 - x0"], "x-ymx", distinct_required=True)


def box_relative_record(family, flag):
    """An avoiding record of the family at N=2, r=2 (the colouring 1, 2, which
    avoids schur and X_YMX), filed under box_relative flag whatever its family is."""
    cert = AvoidCertificate(family, Coloring.from_sequence([1, 2], 2))
    return ResultRecord("avoiding", family.fingerprint(), {"n": 2, "r": 2, "box_relative": flag},
                        dict(cert.to_json(), box_relative=flag), {})


def box_relative_threshold():
    """The genuine schur r=2 threshold record, its certificate box-relative."""
    good = threshold_record(2)
    cert = dict(good.payload["certificate"], box_relative=True)
    return ResultRecord(good.kind, good.fingerprint, good.params,
                        dict(good.payload, certificate=cert), {})


BOX_RELATIVE = "box-relative certificate: only whole-box certificates are read"
INCOMPLETE = ("certificate's family is not box-complete, so [1..n] does not hold every "
              "instance")


class TestBoxRelativeMatchesFamily:
    """Only a certificate that covers the whole box is read: its box_relative
    flag is false and its family box-complete.  A box-relative one, such as
    earlier versions stored, is refused, skipped and reported, and so is a
    certificate of a box-incomplete family whatever its flag says."""

    @pytest.mark.parametrize("make, reason", [
        (lambda: box_relative_record(X_YMX, False), INCOMPLETE),
        (lambda: box_relative_record(X_YMX, True), BOX_RELATIVE),
        (lambda: box_relative_record(preset_family("schur"), True), BOX_RELATIVE),
        (box_relative_threshold, BOX_RELATIVE),
    ], ids=["incomplete-filed-false", "incomplete-filed-true", "schur-filed-true",
            "threshold-schur-true"])
    def test_refused_skipped_and_reported(self, store, capsys, make, reason):
        refused_skipped_and_reported(store, capsys, make(), reason)

    def test_genuine_records_accepted(self, store):
        record = box_relative_record(preset_family("schur"), False)
        store.append(record)
        assert store.lookup(record.kind, record.fingerprint, record.params) == record
        assert store.verify_all() == []


def lower_bound_record(**payload):
    """The genuine schur r=2 record T >= 4, its avoider at N=3 (the true T is 5)."""
    res = threshold(preset_family("schur"), 2, 3)
    assert (res.value, res.exact) == (4, False)
    return ResultRecord("threshold", res.fingerprint, {"r": 2},
                        dict(res.to_json(), max_n=3, **payload), {})


def recertified(record, params=None, **cert):
    """An avoiding record with certificate fields replaced, under its params
    or others."""
    return ResultRecord(record.kind, record.fingerprint, params or record.params,
                        dict(record.payload, **cert), {})


class TestJsonTypes:
    """A count must be a JSON integer, a flag true or false, and an RLE run a
    pair of integers; a record that holds another type is not coerced."""

    @pytest.mark.parametrize("make, reason", [
        (lambda: lower_bound_record(exact="false"), "'exact' must be true or false, got 'false'"),
        (lambda: recertified(avoiding_record(), n=4.5),
         "certificate 'n' must be an integer, got 4.5"),
        (lambda: recertified(avoiding_record(), r=2.9),
         "certificate 'r' must be an integer, got 2.9"),
        (lambda: recertified(avoiding_record(), coloring_rle=[[1.5, 1], [2.5, 2], [1.5, 1]]),
         "runs must be [color, length] pairs of integers"),
        (lambda: recertified(avoiding_record(), verified="yes"),
         "certificate 'verified' must be true or false, got 'yes'"),
        (lambda: recertified(avoiding_record(), dict(avoiding_record().params, box_relative=True),
                             box_relative="no"),
         "certificate 'box_relative' must be true or false, got 'no'"),
        (lambda: refiled(witness_record(), assignment=[1.0, 1.0]),
         "witness 'assignment' must be a list of integers, got [1.0, 1.0]"),
    ], ids=["threshold-exact-string", "avoiding-float-n", "avoiding-float-r",
            "avoiding-float-rle-colors", "avoiding-verified-string", "avoiding-box_relative-string",
            "witness-float-assignment"])
    def test_refused_skipped_and_reported(self, store, capsys, make, reason):
        refused_skipped_and_reported(store, capsys, make(), reason)

    def test_lower_bound_not_served_as_exact(self, store, capsys):
        write_unverified(store, lower_bound_record(exact="false"))
        cache = ["--cache", str(store.path)]
        assert main(["threshold", "--family", "schur", "--colors", "2", "--max-n", "10",
                     *cache]) == 0
        assert capsys.readouterr().out == "T = 5\n"
        good = lower_bound_record()
        store.append(good)
        assert store.lookup(good.kind, good.fingerprint, good.params) == good


def uncertified_threshold(value, exact, max_n):
    """A schur r=2 threshold record claiming the value with no certificate."""
    payload = {"family_name": "schur", "fingerprint": SCHUR_FP, "r": 2, "value": value,
               "exact": exact, "certificate": None, "nodes": 0, "max_n": max_n}
    return ResultRecord("threshold", SCHUR_FP, {"r": 2}, payload, {})


class TestThresholdRestsOnItsCertificate:
    """A threshold above 1 needs the avoider of [1..value-1] in r colors,
    exact or not: that avoider is what proves T >= value.  A threshold of 1
    needs none, and a certificate beside it is refused."""

    @pytest.mark.parametrize("make", [
        lambda: uncertified_threshold(1000, False, 1000),  # the true T is 5
        lambda: uncertified_threshold(5, True, 10),
    ], ids=["lower-bound-1000", "exact-5"])
    def test_uncertified_refused_and_recomputed(self, store, capsys, make):
        refused_skipped_and_reported(store, capsys, make(),
                                     "threshold above 1 requires a certificate")
        argv = ["threshold", "--family", "schur", "--colors", "2", "--max-n", "50"]
        assert main([*argv, "--cache", str(store.path)]) == 0
        assert capsys.readouterr().out == "T = 5\n"

    def test_certificate_beside_one_refused(self, store, capsys):
        bad = refiled(threshold_record(2), value=1)  # beside the avoider at N=4
        refused_skipped_and_reported(store, capsys, bad,
                                     "certificate colors [1..4], expected [1..0]")

    def test_genuine_records_accepted(self, store):
        single = PatternFamily.from_texts(1, ["x0"], "singleton")  # {1} is monochromatic
        res = threshold(single, 2, 5)
        assert (res.value, res.exact, res.certificate) == (1, True, None)
        one = ResultRecord("threshold", res.fingerprint, {"r": 2}, res.to_json(), {})
        for record in (one, threshold_record(2), lower_bound_record()):
            store.append(record)
            assert store.lookup(record.kind, record.fingerprint, record.params) == record
        assert store.verify_all() == []


GOLDEN = Path(__file__).resolve().parent / "golden"


class TestEarlierStore:
    """tests/golden/store.jsonl holds one record of each kind an earlier version
    stored (a witness, two avoiders, one of them box-relative, an exact
    threshold, a lower bound, a reduction and a construction), written by
    commit f22c7f9 with

        witness --family schur --coloring c12.txt
        avoid --family schur --colors 2 --n 4
        avoid --family x-ymx.json --colors 2 --n 2 --box-relative
        threshold --family schur --colors 2 --max-n 10
        threshold --family vdw:3 --colors 2 --max-n 5
        reduce --coeffs 1,-1 --coloring c200.txt
        construct --coloring solid6.txt

    each with --cache; c12.txt and c200.txt are Coloring.random_uniform(12, 2, 3)
    and (200, 2, 5), solid6.txt Coloring.solid(6), and x-ymx.json the family
    {x0, x1 - x0} with distinct values.  tests/golden/store.list is its
    `cache list` output.  `avoid --box-relative`, the construction kind and
    `construct --cache` are gone since: the box-relative avoider (#2) fails
    verification and the construction (#6) is quarantined as a kind the store
    does not keep; the other five records still verify and are served."""

    PATH = str(GOLDEN / "store.jsonl")

    def test_only_the_removed_forms_fail(self, capsys):
        assert main(["cache", "verify", "--cache", self.PATH]) == 1
        assert capsys.readouterr().out == (
            "  #6 FAIL: unknown kind 'construction'\n"
            f"  #2 FAIL: avoiding record: {BOX_RELATIVE}\n"
            "2 record(s) failed verification\n"
        )

    def test_list_unchanged(self, capsys):
        assert main(["cache", "list", "--cache", self.PATH]) == 0
        out, err = capsys.readouterr()
        assert out == (GOLDEN / "store.list").read_text()
        assert err == "  #6 QUARANTINED: unknown kind 'construction'\n"

    def test_every_record_served(self):
        """Every record of a kind and form the store keeps is served."""
        store = ResultStore(self.PATH)
        good, bad = store.records()
        assert [i for i, _ in good] == [0, 1, 2, 3, 4, 5] and bad == [
            (6, "unknown kind 'construction'")]
        for i, record in good:
            served = store.lookup(record.kind, record.fingerprint, record.params)
            assert served == (None if i == 2 else record)


def malformed_lines():
    """(line, the start of its quarantine reason) for lines that are JSON but
    not a record, or not readable JSON at all."""
    rec = dict(witness_record().to_json(), provenance={})
    cases = [
        ("int", "3", "not a JSON object"),
        ("null", "null", "not a JSON object"),
        ("bool", "true", "not a JSON object"),
        ("array", "[1, 2]", "not a JSON object"),
        ("string", '"kind fingerprint params payload"', "not a JSON object"),
        ("int-fingerprint", json.dumps(dict(rec, fingerprint=7)), "fingerprint 7 is not a string"),
        ("null-fingerprint", json.dumps(dict(rec, fingerprint=None)),
         "fingerprint None is not a string"),
        ("int-kind", json.dumps(dict(rec, kind=7)), "unknown kind 7"),
        ("deep", "[" * 100_000, "unparseable JSON"),  # deeper than the parser recurses
    ]
    if hasattr(sys, "get_int_max_str_digits"):
        cases.append(("long-int", '{"kind": ' + "9" * 5000 + "}", "unparseable JSON"))
    return [pytest.param(line, reason, id=name) for name, line, reason in cases]


class TestQuarantine:
    def test_corrupt_line_quarantined(self, store):
        store.append(witness_record())
        with open(store.path, "a") as fh:
            fh.write("this is not json\n")
        store.append(avoiding_record())
        good, bad = store.records()
        assert len(good) == 2
        assert len(bad) == 1 and "unparseable" in bad[0][1]

    def test_missing_fields_quarantined(self, store):
        with open(store.path, "w") as fh:
            fh.write(json.dumps({"kind": "witness"}) + "\n")
        good, bad = store.records()
        assert good == [] and "missing field" in bad[0][1]

    def test_tampered_payload_caught_by_verify_all(self, store):
        store.append(avoiding_record())
        lines = store.path.read_text().splitlines()
        obj = json.loads(lines[0])
        obj["payload"]["coloring_rle"] = [[1, 4]]
        store.path.write_text(json.dumps(obj) + "\n")
        failures = store.verify_all()
        assert len(failures) == 1
        assert "certificate" in failures[0][1]

    def test_quarantined_lines_invisible_to_lookup(self, store):
        rec = witness_record()
        store.append(rec)
        with open(store.path, "a") as fh:
            fh.write("garbage\n")
        assert store.lookup("witness", rec.fingerprint, rec.params) is not None

    @pytest.mark.parametrize("record, reason", [
        (ResultRecord("threshold", 7, {"r": 2}, {"value": 1, "exact": True, "r": 2}, {}),
         "fingerprint 7 is not a string"),
        (ResultRecord("threshold", SCHUR_FP, [1], {"value": 1, "exact": True, "r": 2}, {}),
         "params and payload must be objects"),
        (ResultRecord("mystery", "fp", {}, {}, {}), "unknown kind 'mystery'"),
    ], ids=["int-fingerprint", "list-params", "unknown-kind"])
    def test_append_refuses_what_the_reader_quarantines(self, store, record, reason):
        with pytest.raises(StoreVerificationError, match=re.escape(reason)):
            store.append(record)
        assert not store.path.exists()
        write_unverified(store, record)
        assert store.records() == ([], [(0, reason)])

    @pytest.mark.parametrize("line, reason", malformed_lines())
    def test_malformed_line_quarantined(self, store, capsys, line, reason):
        rec = threshold_record(2)
        store.append(rec)
        with open(store.path, "a") as fh:
            fh.write(line + "\n")
        store.append(rec)
        good, bad = store.records()
        assert [i for i, _ in good] == [0, 2]
        assert len(bad) == 1 and bad[0][0] == 1 and bad[0][1].startswith(reason)
        assert store.verify_all() == bad
        cache = ["--cache", str(store.path)]
        assert main(["cache", "list", *cache]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("2 record(s), 1 quarantined\n")
        assert err.startswith(f"  #1 QUARANTINED: {reason}")
        assert main(["cache", "verify", *cache]) == 1
        out, _ = capsys.readouterr()
        assert out.startswith(f"  #1 FAIL: {reason}")
        assert out.endswith("1 record(s) failed verification\n")
        assert main(["threshold", "--family", "schur", "--colors", "2", "--max-n", "4", *cache]) == 0
        assert capsys.readouterr().out == "T = 5\n"

    def test_line_that_is_not_utf8_quarantined_alone(self, store, capsys):
        """One undecodable line is quarantined; the lines around it, and their
        numbers, stay as they were, CRLF line ends included."""
        rec = threshold_record(2)
        store.append(rec)
        line = store.path.read_bytes().rstrip(b"\n")
        store.path.write_bytes(line + b"\r\n\xff\xfe garbage\r\n\r\n" + line + b"\r\n")
        good, bad = store.records()
        assert [i for i, _ in good] == [0, 3] and [r for _, r in good] == [rec, rec]
        assert [i for i, _ in bad] == [1]
        assert bad[0][1] == ("not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: "
                             "invalid start byte")
        # the memo keys the line by its text, undecodable bytes escaped
        assert storage._LINES[b"\xff\xfe garbage".decode("utf-8", "surrogateescape")] == (
            bad[0][1], False)
        assert store.lookup(rec.kind, rec.fingerprint, rec.params) == rec
        assert store.verify_all() == bad
        cache = ["--cache", str(store.path)]
        assert main(["cache", "list", *cache]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("2 record(s), 1 quarantined\n")
        assert err == f"  #1 QUARANTINED: {bad[0][1]}\n"
        assert main(["cache", "verify", *cache]) == 1
        assert capsys.readouterr().out == f"  #1 FAIL: {bad[0][1]}\n1 record(s) failed verification\n"
        assert main(["threshold", "--family", "schur", "--colors", "2", "--max-n", "4", *cache]) == 0
        assert capsys.readouterr().out == "T = 5\n"

    def test_read_as_utf8_whatever_the_locale(self, store):
        """A record holding UTF-8 text reads the same under an ASCII locale."""
        rec = plain_record(0, note="caf\u00e9 \u2013 \u00fc")
        store.append(rec)
        raw = json.dumps(rec.to_json(), sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        store.path.write_bytes(raw.encode("utf-8") + b"\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src), LC_ALL="C", LANG="C",
                   PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        proc = subprocess.run(
            [sys.executable, "-m", "ramseykit.cli", "cache", "verify", "--cache", str(store.path)],
            env=env, capture_output=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, b"all 1 record(s) verified\n")
        assert store.lookup(rec.kind, rec.fingerprint, rec.params) == rec


def tamper_line(store, index):
    """Rewrite one stored line so that its avoider is all one colour."""
    lines = store.path.read_text().splitlines()
    obj = json.loads(lines[index])
    obj["payload"]["coloring_rle"] = [[1, obj["payload"]["n"]]]
    lines[index] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    store.path.write_text("\n".join(lines) + "\n")


class TestVerifiedMemo:
    """Each line is verified once per process; an edit makes a new line."""

    @pytest.fixture
    def checks(self, monkeypatch):
        """Counts _verify_payload runs."""
        calls = []
        real = storage._verify_payload

        def counted(record):
            calls.append(record.kind)
            real(record)

        monkeypatch.setattr(storage, "_verify_payload", counted)
        return calls

    def test_each_line_verified_once(self, store, checks):
        rec = avoiding_record()
        store.append(rec)
        assert store.verify_all() == [] and store.verify_all() == []
        assert store.lookup(rec.kind, rec.fingerprint, rec.params) == rec
        assert len(checks) == 1  # the append's

    def test_edited_line_flagged_and_not_served(self, store, checks):
        first = avoiding_record()
        second = ResultRecord(first.kind, first.fingerprint, first.params, first.payload,
                              {"note": "second"})
        store.append(first)
        store.append(second)
        assert store.verify_all() == []
        tamper_line(store, 1)
        for _ in range(2):  # a failed line is checked, and reported, every time
            failures = store.verify_all()
            assert [i for i, _ in failures] == [1] and "certificate" in failures[0][1]
        # lookup falls back to the earlier valid match
        assert store.lookup(first.kind, first.fingerprint, first.params) == first
        tamper_line(store, 0)
        assert [i for i, _ in store.verify_all()] == [0, 1]
        assert store.lookup(first.kind, first.fingerprint, first.params) is None

    def test_unverified_bad_record_never_remembered(self, store, checks):
        good = avoiding_record()
        payload = dict(good.payload, coloring_rle=[[1, 4]])
        bad = ResultRecord(good.kind, good.fingerprint, good.params, payload, {})
        write_unverified(store, bad)
        assert checks == []
        for _ in range(2):
            failures = store.verify_all()
            assert [i for i, _ in failures] == [0] and "certificate" in failures[0][1]
        assert store.lookup(good.kind, good.fingerprint, good.params) is None
        store.append(good)
        write_unverified(store, bad)
        assert store.lookup(good.kind, good.fingerprint, good.params) == good
        assert [i for i, _ in store.verify_all()] == [0, 2]

    def test_failure_order_unchanged(self, store):
        store.append(avoiding_record())
        store.append(avoiding_record())
        with open(store.path, "a") as fh:
            fh.write("garbage\n")
        tamper_line(store, 0)
        failures = store.verify_all()
        assert [i for i, _ in failures] == [2, 0]
        assert "unparseable" in failures[0][1] and "certificate" in failures[1][1]

    def test_memo_stays_within_its_bound(self, store, monkeypatch):
        """At most _ADDED_MAX lines join the memo after a read; the next one
        drops it, and the next read holds exactly its own lines."""
        assert storage._ADDED_MAX == 2**14
        monkeypatch.setattr(storage, "_ADDED_MAX", 4)
        for i in range(10):
            store.append(plain_record(i))
            assert len(storage._LINES) == i % 4 + 1
        assert store.verify_all() == []
        assert set(storage._LINES) == set(store.path.read_text().split())

    def test_store_larger_than_the_bound_keeps_its_keys(self, store, monkeypatch, checks):
        monkeypatch.setattr(storage, "_ADDED_MAX", 4)
        for i in range(10):
            write_unverified(store, plain_record(i))
        assert store.verify_all() == [] and len(checks) == 10
        before = dict(storage._LINES)
        store.append(plain_record(10))  # the read's 10 lines are no tail
        assert len(storage._LINES) == 11 and storage._LINES.items() >= before.items()
        assert store.verify_all() == [] and len(checks) == 11

    def test_edited_line_checked_again(self, store, checks):
        store.append(plain_record(0))
        assert store.verify_all() == [] and len(checks) == 1
        store.path.write_text(store.path.read_text().replace('"i":0', '"i":1'))
        assert store.verify_all() == [] and len(checks) == 2
        assert store.lookup("threshold", SINGLE_FP, {"i": 1}) == plain_record(1)
        assert len(checks) == 2

    def test_one_line_in_two_stores_verified_once(self, store, checks, tmp_path):
        rec = avoiding_record()
        store.append(rec)
        other = ResultStore(tmp_path / "other.jsonl")
        other.path.write_bytes(store.path.read_bytes())
        assert other.verify_all() == [] and store.verify_all() == []
        assert other.lookup(rec.kind, rec.fingerprint, rec.params) == rec
        assert len(checks) == 1  # the append's

    def test_fresh_process_sees_a_tampered_line(self, store):
        store.append(avoiding_record())
        assert store.verify_all() == []  # remembered in this process
        tamper_line(store, 0)
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "ramseykit.cli", "cache", "verify", "--cache", str(store.path)],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 1
        assert proc.stdout.startswith("  #0 FAIL: avoiding record: certificate fails verification\n")
        assert proc.stdout.endswith("1 record(s) failed verification\n")


class TestLineKeyMemo:
    """Each store line is parsed once per process; the memo changes speed only."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """The lines _line_key parses, in order."""
        calls = []
        real = storage._line_key

        def counted(line):
            calls.append(line)
            return real(line)

        monkeypatch.setattr(storage, "_line_key", counted)
        return calls

    def keys(self, store):
        good, bad = store.index()
        return [(i, key) for i, _, key in good], bad

    def test_each_line_parsed_once(self, store, parses):
        for i in range(3):
            store.append(plain_record(i))
        with open(store.path, "a") as fh:
            fh.write("garbage\n")
        first = self.keys(store)
        assert len(parses) == 4
        store.append(plain_record(3))
        assert store.lookup("threshold", SINGLE_FP, {"i": 0}) == plain_record(0)
        assert store.verify_all() == [(3, first[1][0][1])]
        assert self.keys(store)[0][:3] == first[0] and len(parses) == 5

    def test_keys_name_what_records_hold(self, store):
        store.append(avoiding_record())
        store.append(plain_record(0))
        good, _ = store.records()
        assert self.keys(store)[0] == [
            (i, storage.RecordKey(rec.kind, rec.fingerprint, json.dumps(rec.params, sort_keys=True)))
            for i, rec in good
        ]

    def test_edited_line_is_a_new_key(self, store, parses):
        for i in range(3):
            store.append(plain_record(i))
        self.keys(store)
        lines = store.path.read_text().splitlines()
        lines[1] = lines[1].replace('"i":1', '"i":7')
        store.path.write_text("\n".join(lines) + "\n")
        assert [key.params for _, key in self.keys(store)[0]] == ['{"i": 0}', '{"i": 7}', '{"i": 2}']
        assert len(parses) == 4
        assert store.lookup("threshold", SINGLE_FP, {"i": 1}) is None
        assert store.lookup("threshold", SINGLE_FP, {"i": 7}) == plain_record(7)

    def test_truncated_replaced_and_regrown(self, store, tmp_path):
        for i in range(3):
            store.append(plain_record(i))
        assert len(self.keys(store)[0]) == 3
        store.path.write_text("")
        assert self.keys(store) == ([], [])
        assert storage._LINES == {}  # only the latest read's lines
        assert store.lookup("threshold", SINGLE_FP, {"i": 0}) is None
        fresh = tmp_path / "fresh.jsonl"
        ResultStore(fresh).append(plain_record(5))
        os.replace(fresh, store.path)
        assert [key.params for _, key in self.keys(store)[0]] == ['{"i": 5}']
        store.path.unlink()
        assert self.keys(store) == ([], []) and store.verify_all() == []
        assert store.lookup("threshold", SINGLE_FP, {"i": 5}) is None
        store.append(plain_record(6))
        assert [key.params for _, key in self.keys(store)[0]] == ['{"i": 6}']
        assert len(storage._LINES) == 1
        assert store.lookup("threshold", SINGLE_FP, {"i": 5}) is None

    def test_two_stores_in_one_process(self, tmp_path):
        a, b = ResultStore(tmp_path / "a.jsonl"), ResultStore(tmp_path / "b.jsonl")
        for i in range(4):
            (a if i % 2 else b).append(plain_record(i))
            assert [key.params for _, key in self.keys(a)[0]] == [
                f'{{"i": {j}}}' for j in range(1, i + 1, 2)]
            assert [key.params for _, key in self.keys(b)[0]] == [
                f'{{"i": {j}}}' for j in range(0, i + 1, 2)]
        assert a.lookup("threshold", SINGLE_FP, {"i": 0}) is None
        assert b.lookup("threshold", SINGLE_FP, {"i": 0}) == plain_record(0)

    def test_new_line_decoded_once(self, store, monkeypatch):
        """An appended line is decoded once for its key and its check; a line
        first met by a read, once for its key and once for the check whose
        record lookup serves."""
        decoded = []
        real = json.loads

        def counted(text, *args, **kwargs):
            decoded.append(text)
            return real(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counted)
        store.append(plain_record(0))
        assert len(decoded) == 1
        write_unverified(store, plain_record(1))
        decoded.clear()
        served = store.lookup("threshold", SINGLE_FP, {"i": 1})
        assert served == plain_record(1) and len(decoded) == 2
        served.payload.clear()
        assert store.lookup("threshold", SINGLE_FP, {"i": 1}) == plain_record(1)
        assert len(decoded) == 3  # a line that has passed is parsed only to be served

    def test_served_records_are_fresh(self, store):
        rec = avoiding_record()
        store.append(rec)
        served = store.lookup(rec.kind, rec.fingerprint, rec.params)
        served.payload["coloring_rle"] = [[1, 4]]
        served.params["n"] = 99
        assert store.lookup(rec.kind, rec.fingerprint, rec.params) == rec
        assert store.verify_all() == []
        good, _ = store.records()
        good[0][1].payload.clear()
        assert store.records()[0] == [(0, rec)]
        assert store.lookup(rec.kind, rec.fingerprint, rec.params) is not good[0][1]

    def test_paths_remembered_within_the_bound(self, tmp_path, monkeypatch, parses):
        """Lines appended to several stores share the memo and its bound; a
        read keeps its own lines, and a forgotten line is parsed afresh."""
        monkeypatch.setattr(storage, "_ADDED_MAX", 2)
        stores = [ResultStore(tmp_path / f"{i}.jsonl") for i in range(4)]
        for i, store in enumerate(stores):
            store.append(plain_record(i))
            assert len(storage._LINES) == i % 2 + 1
        assert len(parses) == 4
        assert set(storage._LINES) == {s.path.read_text().strip() for s in stores[2:]}
        for i, store in reversed(list(enumerate(stores))):
            assert [key.params for _, key in self.keys(store)[0]] == [f'{{"i": {i}}}']
            assert len(storage._LINES) == 1
        assert len(parses) == 7  # store 3's line was still held, the others not
