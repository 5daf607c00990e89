"""Verified append-only results store: round-trips, quarantine, tampering."""

import contextlib
import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from ramseykit.coloring import Coloring
from ramseykit.families import preset_family
from ramseykit.search import exists_avoiding, threshold
from ramseykit.storage import (
    ResultRecord,
    ResultStore,
    StoreVerificationError,
    make_provenance,
)
from ramseykit.witnesses import find_witness, witness_to_json


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

    def test_find_filters(self, store):
        store.append(witness_record())
        store.append(avoiding_record())
        assert len(store.find()) == 2
        assert len(store.find(kind="witness")) == 1
        assert len(store.find(fingerprint=preset_family("schur").fingerprint())) == 1

    def test_missing_file_is_empty(self, store):
        good, bad = store.records()
        assert good == [] and bad == []

    def test_lock_file_created(self, store):
        store.append(witness_record())
        assert store.lock_path.exists()

    def test_append_returns_line_index(self, store):
        assert [store.append(witness_record()) for _ in range(3)] == [0, 1, 2]
        good, _ = store.records()
        assert [i for i, _ in good] == [0, 1, 2]

    def test_append_leaves_no_file_open(self, store):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(3):
                store.append(witness_record())
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def plain_record(i):
    return ResultRecord("construction", "fp", {"i": i}, {"failure_reason": "none"}, {})


class TestLineIndexMemo:
    """append() returns the line index from the lock file's memo, and
    recounts whenever the memo does not describe the store it finds."""

    def test_store_written_without_memo(self, store):
        store.path.write_text("".join(f"line {i}\n" for i in range(5)))
        assert store.append(plain_record(0), verify=False) == 5
        assert store.append(plain_record(1), verify=False) == 6

    def test_other_store_object_appended(self, store):
        other = ResultStore(store.path)
        assert store.append(plain_record(0), verify=False) == 0
        assert other.append(plain_record(1), verify=False) == 1
        assert store.append(plain_record(2), verify=False) == 2

    @pytest.mark.parametrize(
        "garbage",
        [b"", b"\n", b"x" * 84, b"9" * 200, b"not a memo at all", (b"0" * 20 + b" ") * 4],
    )
    def test_garbage_lock_file(self, store, garbage):
        for i in range(3):
            store.append(plain_record(i), verify=False)
        store.lock_path.write_bytes(garbage)
        assert store.append(plain_record(3), verify=False) == 3
        assert store.append(plain_record(4), verify=False) == 4

    def test_memo_is_fixed_width_and_rewritten_in_place(self, store):
        store.append(plain_record(0), verify=False)
        first = store.lock_path.read_bytes()
        store.append(plain_record(1), verify=False)
        memo = store.lock_path.read_bytes()
        assert len(memo) == len(first) == 84 and memo.endswith(b"\n")
        size, _, inode, lines = map(int, memo.split())
        st = os.stat(store.path)
        assert (size, inode, lines) == (st.st_size, st.st_ino, 2)

    def test_writer_that_skipped_the_memo(self, store):
        for i in range(3):
            store.append(plain_record(i), verify=False)
        with open(store.path, "a") as fh:
            fh.write("appended by hand\n")
        assert store.append(plain_record(3), verify=False) == 4

    def test_store_replaced(self, store, tmp_path):
        for i in range(3):
            store.append(plain_record(i), verify=False)
        # same size, new inode: the memo's size alone would still match
        fresh = tmp_path / "fresh.jsonl"
        fresh.write_bytes(store.path.read_bytes().replace(b"\n", b" ", 1))
        os.replace(fresh, store.path)
        assert store.append(plain_record(3), verify=False) == 2

    def test_store_truncated(self, store):
        for i in range(3):
            store.append(plain_record(i), verify=False)
        store.path.write_text("")
        assert store.append(plain_record(3), verify=False) == 0

    def test_store_deleted(self, store):
        for i in range(3):
            store.append(plain_record(i), verify=False)
        store.path.unlink()
        assert store.append(plain_record(3), verify=False) == 0

    @pytest.mark.parametrize("count", [2, 4])
    def test_concurrent_processes(self, store, count):
        """50 appends from each process: every index comes back once, and it
        names the line that process wrote.  Four processes outnumber the
        cores of a small machine, so their appends interleave."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        go = store.path.with_name("go")
        script = (
            "import os, sys, time\n"
            "from ramseykit.storage import ResultRecord, ResultStore\n"
            "store = ResultStore(sys.argv[1])\n"
            "print('ready', flush=True)\n"
            "while not os.path.exists(sys.argv[3]):\n"
            "    time.sleep(0.001)\n"
            "for i in range(50):\n"
            "    rec = ResultRecord('construction', 'fp', {'proc': sys.argv[2], 'i': i},\n"
            "                       {'failure_reason': 'none'}, {})\n"
            "    print(store.append(rec, verify=False))\n"
        )
        names = "abcd"[:count]
        said = {}
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
            for name, proc in zip(names, procs):
                out, _ = proc.communicate(timeout=120)
                assert proc.returncode == 0
                said[name] = [int(v) for v in out.split()]
        assert sorted(sum(said.values(), [])) == list(range(50 * count))
        lines = store.path.read_text().splitlines()
        for name, indices in said.items():
            for i, index in enumerate(indices):
                assert json.loads(lines[index])["params"] == {"proc": name, "i": i}

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_append_leaves_no_fd_open(self, store):
        # a raw fd, unlike a file object, leaks without a ResourceWarning
        before = len(os.listdir("/proc/self/fd"))
        for i in range(3):
            store.append(plain_record(i), verify=False)
        store.lock_path.write_bytes(b"")  # the recount path as well
        store.append(plain_record(3), verify=False)
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

    def test_verify_false_skips_checks(self, store):
        rec = witness_record()
        payload = dict(rec.payload)
        payload["term_values"] = [1, 2, 999]
        bad = ResultRecord(rec.kind, rec.fingerprint, rec.params, payload, {})
        store.append(bad, verify=False)  # import path for untrusted bulk data
        assert store.verify_all()  # ... which verify_all then flags

    def test_threshold_record_verifies(self, store):
        res = threshold(preset_family("schur"), 2, 20)
        payload = res.to_json()
        payload["max_n"] = 20
        store.append(
            ResultRecord("threshold", res.fingerprint, {"r": 2}, payload, make_provenance())
        )
        assert store.verify_all() == []

    def test_reduction_record_checks_arithmetic(self, store):
        good = {
            "c": [1, -1],
            "u": [1, -1],
            "b": 4,
            "a": [8, 3, 1],
            "color": 1,
            "source_witness": [8, 4],
        }
        store.append(ResultRecord("reduction", "fp", {"c": [1, -1]}, good, {}))
        bad = dict(good, a=[9, 3, 1])
        with pytest.raises(StoreVerificationError):
            store.append(ResultRecord("reduction", "fp", {"c": [1, -1]}, bad, {}))

    def test_certificate_under_another_fingerprint_blocked(self, store):
        rec = avoiding_record()  # a valid schur certificate
        vdw = preset_family("vdw", 3).fingerprint()
        forged = ResultRecord(rec.kind, vdw, rec.params, rec.payload, {})
        with pytest.raises(StoreVerificationError, match="embedded family"):
            store.append(forged)
        store.append(forged, verify=False)
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
        store.append(ResultRecord("threshold", vdw, {"r": 2}, payload, {}), verify=False)
        assert "embedded family" in store.verify_all()[0][1]

    def test_unknown_kind_rejected(self, store):
        with pytest.raises(ValueError):
            store.append(ResultRecord("mystery", "fp", {}, {}, {}))


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
