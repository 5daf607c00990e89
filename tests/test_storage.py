"""Verified append-only results store: round-trips, quarantine, tampering."""

import gc
import json
import warnings

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
