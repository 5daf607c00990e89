"""Append-only JSONL store for computed results, verified on the way in.

Each line is one record: {kind, fingerprint, params, payload, provenance}.
The fingerprint is the pattern family's content hash, so lookups survive
renames; params pins the remaining inputs (r, n, coefficient vectors, ...).
Appends take an exclusive flock on a sidecar lock file, so concurrent
processes sharing a cache cannot interleave partial lines.  The lock file is
only the flock's target: nothing reads or writes its contents.

Four kinds are kept: witness, avoiding, threshold and reduction; a line of
any other kind (a construction trace, say) is quarantined.

Trust model: a record is verified by recomputation before it is written, by
verify_all() over every stored line, and by lookup() on what it serves (the
latest match that passes; failing ones are skipped).  Its fingerprint must be
its family's (the embedded one; the family of u for a reduction) and its
params (r, n, box_relative, c) must agree with its payload; box_relative is
always false.  A certificate (an avoider's, a threshold's) is read one way:
AvoidCertificate.from_json, which decodes its runs and refuses a box-relative
certificate or a family that is not box-complete, the fingerprint check,
verify_certificate ("verified" is never trusted).  A threshold above 1 needs
the certificate of [1..value-1] in its r colors, exact or not, as that avoider
proves T >= value (that T is not larger stays unchecked); a threshold of 1
needs none.  A witness runs _check_instance (verify_witness without colors,
under the distinct flag it is filed with) and a color range check, a reduction
the u and b that quadratic_setup derives from its c, _check_solution
(verify_quad_solution without domain and colors) and the decoding of its a
from its source witness.  No coloring is stored, so the colors of witnesses
and reductions, and the witness box, stay unchecked.
records() validates structure only, quarantining lines that fail instead of
raising, so one corrupt line cannot poison the rest of the cache.

The store is read as UTF-8 whatever the locale; a line that is not UTF-8,
not a JSON object, or whose kind or fingerprint is not a string is
quarantined like any other malformed line.  append() refuses a record whose
line the reader would quarantine, with the same reason.

What a line says, and whether it passes, are pure functions of its text, so
one module-level memo maps each (whitespace-stripped) line text to its key,
a RecordKey (kind, fingerprint, canonical params) or the reason it is
quarantined, and to whether its record has passed verification.  A read
rebuilds the memo from its own lines, carrying over the entries it already
holds; a line that passes after a read (an append, another store's line)
joins it, and when 2**14 have joined the memo is dropped.  An edited line is
a new text, parsed and checked again; a line that failed is never
remembered as passed.  A line new to the memo is decoded once, for its key
and its check together.  lookup() walks the keys from the end and parses
only a match, serving the record its check built when it ran one,
verify_all() parses only lines that have not passed, and `cache list` reads
the keys alone; no parsed record is kept, so what they return is fresh.

The certificate checks run the search's own instance enumerator, and its
cache of small enumerations (witnesses._small_stream); ROADMAP item 4's
separate checker remains the way to make them independent of it.
"""

from __future__ import annotations

import fcntl
import json
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

from .families import _json_bool, _json_int, _json_ints, reduction_family
from .reduction import _check_solution, quadratic_setup
from .search import AvoidCertificate, verify_certificate
from .witnesses import _check_instance, witness_from_json

__all__ = [
    "RecordKey",
    "ResultRecord",
    "ResultStore",
    "StoreVerificationError",
    "RECORD_KINDS",
    "make_provenance",
]

RECORD_KINDS = ("witness", "avoiding", "threshold", "reduction")


class StoreVerificationError(ValueError):
    """A record failed its append-time recomputation check."""


@dataclass(frozen=True)
class ResultRecord:
    kind: str
    fingerprint: str
    params: dict
    payload: dict
    provenance: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "params": self.params,
            "payload": self.payload,
            "provenance": self.provenance,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ResultRecord":
        return cls(
            kind=obj["kind"],
            fingerprint=obj["fingerprint"],
            params=obj["params"],
            payload=obj["payload"],
            provenance=obj.get("provenance", {}),
        )


def make_provenance() -> dict:
    """Provenance stamp: tool id and UTC timestamp."""
    from . import __version__

    return {"tool": f"ramseykit {__version__}", "created": datetime.now(timezone.utc).isoformat()}


class RecordKey(NamedTuple):
    """What lookup matches a stored record on; params is _canon(params)."""

    kind: str
    fingerprint: str
    params: str


def _canon(params: dict) -> str:
    # the form `cache list` prints; equal texts iff equal JSON values
    return json.dumps(params, sort_keys=True)


def _parse(line: str) -> ResultRecord:
    """The record of a well-formed store line, freshly built."""
    return ResultRecord.from_json(json.loads(line))


# what each store line says, by its stripped text: its key (RecordKey, or
# the reason it is quarantined) and whether its record passed _verify_payload;
# the lines of the latest read, plus at most _ADDED_MAX lines added since
_LINES: dict[str, tuple[RecordKey | str, bool]] = {}
_ADDED_MAX = 1 << 14
_added = 0


def _forget() -> None:
    """Empty the line memo."""
    global _LINES, _added
    _LINES, _added = {}, 0


def _verify_line(line: str) -> ResultRecord | None:
    """_verify_payload for the record that this stripped store line decodes
    to, skipped when the line has already passed in this process.  A line
    that the store's reader would quarantine fails with the reason.

    Returns the record it checked, freshly built from one decode of the
    line, or None when the check was skipped.
    """
    global _added
    entry = _LINES.get(line)
    if entry is None:  # added since the latest read: its key and record share one decode
        key, obj = _line_key(line)
    elif entry[1]:
        return None
    else:
        key, obj = entry[0], None
    if isinstance(key, str):
        raise StoreVerificationError(f"the store would quarantine this line: {key}")
    record = _parse(line) if obj is None else ResultRecord.from_json(obj)
    _verify_payload(record)
    if entry is None:
        if _added >= _ADDED_MAX:
            _forget()
        _added += 1
    _LINES[line] = (key, True)
    return record


def _check_structure(obj) -> str | None:
    """Cheap load-time validation; returns a reason string on failure."""
    if not isinstance(obj, dict):
        return "not a JSON object"
    for key in ("kind", "fingerprint", "params", "payload"):
        if key not in obj:
            return f"missing field {key!r}"
    if obj["kind"] not in RECORD_KINDS:
        return f"unknown kind {obj['kind']!r}"
    if not isinstance(obj["fingerprint"], str):
        return f"fingerprint {obj['fingerprint']!r} is not a string"
    if not isinstance(obj["params"], dict) or not isinstance(obj["payload"], dict):
        return "params and payload must be objects"
    return None


def _line_key(line: str) -> tuple[RecordKey | str, dict | None]:
    """What one stripped store line says: its record's key, or why it is
    quarantined; and the JSON object it decodes to, None when quarantined."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:  # undecodable bytes, escaped as lone surrogates
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            return f"not UTF-8: {exc}", None
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # ValueError: also an int too long to read
        return f"unparseable JSON: {exc}", None
    reason = _check_structure(obj)
    if reason is not None:
        return reason, None
    # interned: kinds, fingerprints and params repeat from line to line
    key = RecordKey(
        sys.intern(obj["kind"]), sys.intern(obj["fingerprint"]), sys.intern(_canon(obj["params"]))
    )
    return key, obj


def _check_fingerprint(
    record: ResultRecord, payload: dict, family=None, what: str = "embedded family"
) -> None:
    """The record is filed under its own family: the family and the payload's
    fingerprint field, where present, must hash to the record's."""
    if family is not None and family.fingerprint() != record.fingerprint:
        raise ValueError(f"{what} does not match the record's fingerprint")
    if "fingerprint" in payload and payload["fingerprint"] != record.fingerprint:
        raise ValueError("payload fingerprint does not match the record's")


def _check_params(record: ResultRecord, **payload_values) -> None:
    """lookup matches on params, so each key the record is filed under must
    name what the payload holds."""
    for key, value in payload_values.items():
        if key in record.params and record.params[key] != value:
            raise ValueError(
                f"params {key}={record.params[key]!r} but the payload has {value!r}"
            )


def _read_certificate(record: ResultRecord, obj: dict) -> AvoidCertificate:
    """The certificate in obj, read by AvoidCertificate.from_json, filed under
    the record's family and passed by verify_certificate."""
    cert = AvoidCertificate.from_json(obj)
    _check_fingerprint(record, obj, cert.family)
    if not verify_certificate(cert):
        raise ValueError("certificate fails verification")
    return cert


def _verify_payload(record: ResultRecord) -> None:
    """Full recomputation check; raises StoreVerificationError on failure."""
    kind, payload = record.kind, record.payload
    try:
        if kind == "witness":
            w, fam = witness_from_json(payload)
            if fam is None:
                raise ValueError("witness record must embed its family")
            _check_fingerprint(record, payload, fam)
            n, r = _json_int(payload["n"], "'n'"), _json_int(payload["r"], "'r'")
            _check_params(record, n=n, r=r)
            # what cmd_witness asked find_witness for
            reason = _check_instance(fam, n, w, True if record.params.get("distinct") else None)
            if reason is not None:
                raise ValueError(reason)
            if not 1 <= w.color <= r:
                raise ValueError("color out of range")
        elif kind == "avoiding":
            cert = _read_certificate(record, payload)
            _check_params(record, n=cert.n, r=cert.r, box_relative=False)
        elif kind == "threshold":
            value = _json_int(payload["value"], "'value'")
            _json_bool(payload["exact"], "'exact'")  # threshold --cache reads it
            if value < 1:
                raise ValueError("threshold value must be positive")
            r = _json_int(payload["r"], "'r'")
            if r < 1:
                raise ValueError("threshold needs r >= 1 colors")
            _check_fingerprint(record, payload)
            _check_params(record, r=r)
            cert_obj = payload.get("certificate")
            if value > 1 and cert_obj is None:
                raise ValueError("threshold above 1 requires a certificate")
            if cert_obj is not None:
                cert = _read_certificate(record, cert_obj)
                if cert.r != r:
                    raise ValueError(f"certificate has r={cert.r}, the payload r={r}")
                if cert.n != value - 1:
                    raise ValueError(f"certificate colors [1..{cert.n}], expected [1..{value - 1}]")
        elif kind == "reduction":
            c = _json_ints(payload["c"], "'c'")
            _check_params(record, c=c)
            u = _json_ints(payload["u"], "'u'")
            b = _json_int(payload["b"], "'b'")
            rd = quadratic_setup(c)  # the u and b that cmd_reduce files for c
            if u != list(rd.u) or b != rd.b:
                raise ValueError(f"u={u}, b={b} are not quadratic_setup's u={list(rd.u)}, b={rd.b}")
            a = _json_ints(payload["a"], "'a'")
            reason = _check_solution(c, a)
            if reason is not None:
                raise ValueError(reason)
            _check_fingerprint(record, payload, reduction_family(u), "family of u")
            # what solve_quadratic reports: a from (x, y) = (bX, bY)
            x, y = _json_ints(payload["source_witness"], "'source_witness'")
            if x < 1 or y < 1 or x % b or y % b:
                raise ValueError(f"source witness ({x}, {y}) is not two positive multiples of b")
            if a != [x * y // b] + [(x + ul * y) // b for ul in u]:
                raise ValueError(f"a does not decode from the source witness ({x}, {y})")
    except Exception as exc:
        raise StoreVerificationError(f"{kind} record: {exc}") from exc


class ResultStore:
    """A JSONL file of verified records plus a sidecar .lock for appends."""

    def __init__(self, path):
        self.path = Path(path)
        self.lock_path = self.path.with_suffix(self.path.suffix + ".lock")

    def append(self, record: ResultRecord) -> None:
        """Verify one record and write it as one line at the end of the store;
        a record that fails, or that the store's reader would quarantine, is
        refused with StoreVerificationError and nothing is written."""
        line = json.dumps(record.to_json(), sort_keys=True, separators=(",", ":"))
        # the record as the store reads it back, which is what the memo names
        _verify_line(line)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.lock_path, "ab") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)  # released when the lock file closes
            with open(self.path, "ab") as fh:
                fh.write(line.encode() + b"\n")

    def index(self) -> tuple[list[tuple[int, str, RecordKey]], list[tuple[int, str]]]:
        """(line, text, key) of each well-formed record, and the quarantine
        list of (line, reason): records() without building the records.

        One read of the file, which the memo then holds; a line it already
        held is not parsed again.
        """
        global _LINES, _added
        good: list[tuple[int, str, RecordKey]] = []
        bad: list[tuple[int, str]] = []
        lines: dict[str, tuple[RecordKey | str, bool]] = {}
        try:
            # a byte that is not UTF-8 becomes a lone surrogate, on its line only
            fh = open(self.path, encoding="utf-8", errors="surrogateescape")
        except FileNotFoundError:
            return good, bad
        with fh:
            for i, line in enumerate(fh):
                line = line.strip()
                if not line:
                    continue
                entry = lines.get(line) or _LINES.get(line) or (_line_key(line)[0], False)
                lines[line] = entry
                key = entry[0]
                if isinstance(key, str):
                    bad.append((i, key))
                else:
                    good.append((i, line, key))
        _LINES, _added = lines, 0
        return good, bad

    def records(self) -> tuple[list[tuple[int, ResultRecord]], list[tuple[int, str]]]:
        """All readable records plus a quarantine list of (line, reason).

        Structure only: the payloads are not verified (see lookup, verify_all).
        """
        good, bad = self.index()
        return [(i, _parse(line)) for i, line, _ in good], bad

    def lookup(self, kind: str, fingerprint: str, params: dict) -> ResultRecord | None:
        """Latest stored record matching (kind, fingerprint, params) exactly
        that passes verification; a match that fails is skipped."""
        want = RecordKey(kind, fingerprint, _canon(params))
        for _, line, key in reversed(self.index()[0]):
            if key == want:
                try:
                    record = _verify_line(line)
                except StoreVerificationError:
                    continue
                return record or _parse(line)
        return None

    def verify_all(self, read=None) -> list[tuple[int, str]]:
        """Full verification of every line; returns failures, quarantined lines
        first, then verification failures in line order.  ``read`` is this
        store's index() result, for a caller that already holds one."""
        good, bad = self.index() if read is None else read
        failures = list(bad)
        for i, line, _ in good:
            try:
                _verify_line(line)
            except StoreVerificationError as exc:
                failures.append((i, str(exc)))
        return failures
