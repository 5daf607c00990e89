"""Append-only JSONL store for computed results, verified on the way in.

Each line is one record: {kind, fingerprint, params, payload, provenance}.
The fingerprint is the pattern family's content hash, so lookups survive
renames; params pins the remaining inputs (r, n, coefficient vectors, ...).
Appends take an exclusive flock on a sidecar lock file, so concurrent
processes sharing a cache cannot interleave partial lines.

The lock file also holds a memo of the store as the last append left it:
``size mtime_ns inode lines``, four zero-padded 20-digit fields and a
newline, rewritten in place at offset 0.  append() trusts the memo's line
count only while the store's stat still matches it; any other state (no
memo, garbage, an empty lock file from an older version, a writer that
skipped the memo, a replaced or truncated store) costs one recount.

Trust model: append() re-verifies the payload by recomputation before it is
written (verify=False skips this for bulk imports), including that the
record's fingerprint is its embedded family's; reading back validates
structure only, quarantining lines that fail instead of raising, so one
corrupt line cannot poison the rest of the cache.  lookup() does not
re-verify what it reads.  verify_all() re-runs the full append-time checks
over every stored line.
"""

from __future__ import annotations

import fcntl
import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .search import AvoidCertificate, verify_certificate
from .witnesses import verify_witness, witness_from_json

__all__ = [
    "ResultRecord",
    "ResultStore",
    "StoreVerificationError",
    "RECORD_KINDS",
    "make_provenance",
]

RECORD_KINDS = ("witness", "avoiding", "threshold", "construction", "reduction")


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


def make_provenance(**stats) -> dict:
    """Provenance stamp: tool id, UTC timestamp, and whatever stats matter."""
    from . import __version__

    out = {"tool": f"ramseykit {__version__}", "created": datetime.now(timezone.utc).isoformat()}
    out.update(stats)
    return out


def _canon(params: dict) -> str:
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


_MEMO_FIELD = 20
_MEMO_SIZE = 4 * (_MEMO_FIELD + 1)


def _stat_key(st: os.stat_result) -> tuple[int, int, int]:
    return st.st_size, st.st_mtime_ns, st.st_ino


def _read_memo(lock_fd: int, st: os.stat_result) -> int | None:
    """The memo's line count if it describes the store's stat st, else None."""
    raw = os.pread(lock_fd, _MEMO_SIZE, 0)
    fields = raw.split()
    if len(raw) != _MEMO_SIZE or len(fields) != 4 or not all(f.isdigit() for f in fields):
        return None
    size, mtime_ns, inode, lines = map(int, fields)
    return lines if (size, mtime_ns, inode) == _stat_key(st) else None


def _write_memo(lock_fd: int, st: os.stat_result, lines: int) -> None:
    memo = " ".join(f"{v:0{_MEMO_FIELD}d}" for v in (*_stat_key(st), lines)) + "\n"
    # in place, never truncated: every memo has the same width
    os.pwrite(lock_fd, memo.encode(), 0)


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def _check_structure(obj: dict) -> str | None:
    """Cheap load-time validation; returns a reason string on failure."""
    for key in ("kind", "fingerprint", "params", "payload"):
        if key not in obj:
            return f"missing field {key!r}"
    if obj["kind"] not in RECORD_KINDS:
        return f"unknown kind {obj['kind']!r}"
    if not isinstance(obj["params"], dict) or not isinstance(obj["payload"], dict):
        return "params and payload must be objects"
    return None


def _check_fingerprint(record: ResultRecord, payload: dict, family=None) -> None:
    """The record is filed under its own family: the embedded family and the
    payload's fingerprint field, where present, must hash to the record's."""
    if family is not None and family.fingerprint() != record.fingerprint:
        raise ValueError("embedded family does not match the record's fingerprint")
    if "fingerprint" in payload and payload["fingerprint"] != record.fingerprint:
        raise ValueError("payload fingerprint does not match the record's")


def _verify_payload(record: ResultRecord) -> None:
    """Full recomputation check; raises StoreVerificationError on failure."""
    kind, payload = record.kind, record.payload
    try:
        if kind == "witness":
            w, fam = witness_from_json(payload)
            if fam is None:
                raise ValueError("witness record must embed its family")
            _check_fingerprint(record, payload, fam)
            n, r = int(payload["n"]), int(payload["r"])
            vals = tuple(term.evaluate(w.assignment) for term in fam.terms)
            if vals != w.term_values:
                raise ValueError("stored term values do not recompute")
            if any(v < 1 or v > n for v in vals):
                raise ValueError("term values fall outside [1..n]")
            if not 1 <= w.color <= r:
                raise ValueError("color out of range")
        elif kind == "avoiding":
            cert = AvoidCertificate.from_json(payload)
            _check_fingerprint(record, payload, cert.family)
            if not verify_certificate(cert):
                raise ValueError("certificate fails verification")
        elif kind == "threshold":
            value, exact = int(payload["value"]), bool(payload["exact"])
            if value < 1:
                raise ValueError("threshold value must be positive")
            _check_fingerprint(record, payload)
            cert_obj = payload.get("certificate")
            if exact and value > 1 and cert_obj is None:
                raise ValueError("exact threshold above 1 requires a certificate")
            if cert_obj is not None:
                cert = AvoidCertificate.from_json(cert_obj)
                _check_fingerprint(record, cert_obj, cert.family)
                # exact: last avoider lives at T-1; lower bound: value is max_n+1
                expected_n = value - 1
                if cert.n != expected_n:
                    raise ValueError(
                        f"certificate colors [1..{cert.n}], expected [1..{expected_n}]"
                    )
                if not verify_certificate(cert):
                    raise ValueError("embedded certificate fails verification")
        elif kind == "construction":
            w = payload.get("witness")
            if payload.get("failure_reason") is None and w is None:
                raise ValueError("trace claims success but has no witness")
            if w is not None:
                x, y, n = int(w["x"]), int(w["y"]), int(payload["n"])
                if x < 1 or y < 1 or x + y > n or x * y > n:
                    raise ValueError("witness values do not fit in [1..n]")
        elif kind == "reduction":
            c = [int(v) for v in payload["c"]]
            u = [int(v) for v in payload["u"]]
            b = int(payload["b"])
            a = [int(v) for v in payload["a"]]
            if sum(cl * ul * ul for cl, ul in zip(c, u)) != 0:
                raise ValueError("u does not clear the quadratic form")
            if b != 2 * sum(cl * ul for cl, ul in zip(c, u)) or b <= 0:
                raise ValueError("b is not twice the positive cross sum")
            if sum(cl * al * al for cl, al in zip(c, a[1:])) != a[0]:
                raise ValueError("decoded values do not solve the equation")
            if any(v < 1 for v in a) or len(set(a)) != len(a):
                raise ValueError("decoded values must be distinct and positive")
    except StoreVerificationError:
        raise
    except Exception as exc:
        raise StoreVerificationError(f"{kind} record: {exc}") from exc


class ResultStore:
    """A JSONL file of verified records plus a sidecar .lock for appends."""

    def __init__(self, path):
        self.path = Path(path)
        self.lock_path = self.path.with_suffix(self.path.suffix + ".lock")

    def append(self, record: ResultRecord, verify: bool = True) -> int:
        """Write one record; returns its line index (the newlines before it)."""
        if record.kind not in RECORD_KINDS:
            raise ValueError(f"unknown record kind {record.kind!r}")
        if verify:
            _verify_payload(record)
        line = json.dumps(record.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # no O_APPEND on the lock file: Linux pwrite would ignore the offset
        lock = os.open(self.lock_path, os.O_RDWR | os.O_CREAT, 0o666)
        try:
            fcntl.flock(lock, fcntl.LOCK_EX)
            with open(self.path, "ab") as fh:
                before = _read_memo(lock, os.fstat(fh.fileno()))
                if before is None:
                    before = _count_lines(self.path)
                fh.write(line.encode())
                fh.flush()
                _write_memo(lock, os.fstat(fh.fileno()), before + 1)
        finally:
            os.close(lock)  # also releases the flock
        return before

    def records(self) -> tuple[list[tuple[int, ResultRecord]], list[tuple[int, str]]]:
        """All readable records plus a quarantine list of (line, reason)."""
        good: list[tuple[int, ResultRecord]] = []
        bad: list[tuple[int, str]] = []
        if not self.path.exists():
            return good, bad
        with open(self.path) as fh:
            for i, line in enumerate(fh):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    bad.append((i, f"unparseable JSON: {exc}"))
                    continue
                reason = _check_structure(obj)
                if reason is not None:
                    bad.append((i, reason))
                    continue
                good.append((i, ResultRecord.from_json(obj)))
        return good, bad

    def lookup(self, kind: str, fingerprint: str, params: dict) -> ResultRecord | None:
        """Latest stored record matching (kind, fingerprint, params) exactly."""
        want = _canon(params)
        best = None
        for _, rec in self.records()[0]:
            if rec.kind == kind and rec.fingerprint == fingerprint and _canon(rec.params) == want:
                best = rec
        return best

    def find(self, kind: str | None = None, fingerprint: str | None = None):
        """All records matching the given filters, in file order."""
        out = []
        for i, rec in self.records()[0]:
            if kind is not None and rec.kind != kind:
                continue
            if fingerprint is not None and rec.fingerprint != fingerprint:
                continue
            out.append((i, rec))
        return out

    def verify_all(self) -> list[tuple[int, str]]:
        """Re-run full verification over every line; returns failures."""
        good, bad = self.records()
        failures = list(bad)
        for i, rec in good:
            try:
                _verify_payload(rec)
            except StoreVerificationError as exc:
                failures.append((i, str(exc)))
        return failures
