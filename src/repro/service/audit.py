"""Append-only, hash-chained audit log of registry events.

A dispute verdict is only as credible as the history behind it: *when* was
the dataset protected, *what* statistic was registered, *who* asked for the
detect that preceded the claim?  The audit log records every successful
protect/detect/dispute/register event as one immutable record, and makes the
sequence tamper-evident by chaining digests — record *i* carries the digest
of record *i-1*, so editing, deleting, or reordering any record breaks every
digest after it.  Verification walks the chain and reports the exact index
of the first broken record.

Record format
-------------

One JSON object per record with exactly these keys::

    {
      "index":   0,                  # position in the chain, dense from 0
      "prev":    "000…0",            # digest of record index-1 (64 zeros at genesis)
      "ts":      1754650000.123456,  # unix seconds, 6 decimal places
      "event":   "protect",          # register | token | protect | detect |
                                     # dispute | claim | migrate
      "tenant":  "alice",            # or null for vault-level events
      "dataset": "trial-7",          # or null
      "payload": {...},              # event-specific facts (never secrets)
      "digest":  "ab12…"            # sha256 over the record minus this key
    }

``digest`` is ``sha256`` of the canonical JSON serialisation (sorted keys,
no whitespace) of the record *without* its ``digest`` key.  The scheme is
deliberately reimplementable from this paragraph alone —
``tools/check_audit.py`` does exactly that, sharing no code with this
module, so an auditor needs nothing but the chain file and the stdlib.

Storage
-------

Records are rows of the ``audit`` table in the vault's ``registry.db``,
appended inside a ``BEGIN IMMEDIATE`` transaction, so concurrent writers
extend the chain instead of forking it.  ``tools/check_audit.py --export``
writes the chain as JSONL, one canonical record per line.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Iterator

from repro.service.backends import _Transaction

__all__ = [
    "GENESIS_DIGEST",
    "AUDIT_EVENTS",
    "AuditChainError",
    "AuditRecord",
    "SQLiteAuditLog",
    "record_digest",
    "verify_records",
]

#: ``prev`` of the first record: 64 zeros, the width of a sha256 hex digest.
GENESIS_DIGEST = "0" * 64

#: The event vocabulary (informative, not enforced — forward compatible).
AUDIT_EVENTS = ("register", "token", "protect", "detect", "dispute", "claim", "migrate")

_RECORD_KEYS = frozenset({"index", "prev", "ts", "event", "tenant", "dataset", "payload", "digest"})


class AuditChainError(RuntimeError):
    """A broken audit chain, pinpointing the first bad record.

    ``index`` is the position (0-based) of the first record that fails
    verification; ``reason`` says how it fails.
    """

    def __init__(self, index: int, reason: str) -> None:
        super().__init__(f"audit chain broken at record {index}: {reason}")
        self.index = index
        self.reason = reason


def _canonical(body: dict) -> str:
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def record_digest(body: dict) -> str:
    """sha256 over the canonical JSON of a record body (sans ``digest``)."""
    return hashlib.sha256(_canonical(body).encode("utf-8")).hexdigest()


def build_record(
    index: int,
    prev: str,
    event: str,
    tenant: str | None,
    dataset: str | None,
    payload: dict,
    *,
    ts: float | None = None,
) -> dict:
    """A fully-formed, digest-sealed audit record."""
    body = {
        "index": index,
        "prev": prev,
        "ts": round(time.time() if ts is None else ts, 6),
        "event": event,
        "tenant": tenant,
        "dataset": dataset,
        "payload": payload,
    }
    return {**body, "digest": record_digest(body)}


class AuditRecord(dict):
    """A verified audit record (a plain dict with attribute sugar)."""

    @property
    def index(self) -> int:
        return self["index"]

    @property
    def event(self) -> str:
        return self["event"]

    @property
    def digest(self) -> str:
        return self["digest"]


def _check_record(doc: dict, index: int, prev: str) -> None:
    if not isinstance(doc, dict):
        raise AuditChainError(index, "record is not a JSON object")
    missing = _RECORD_KEYS - doc.keys()
    if missing:
        raise AuditChainError(index, f"missing keys: {', '.join(sorted(missing))}")
    extra = doc.keys() - _RECORD_KEYS
    if extra:
        raise AuditChainError(index, f"unexpected keys: {', '.join(sorted(extra))}")
    if doc["index"] != index:
        raise AuditChainError(index, f"index discontinuity (found {doc['index']!r})")
    if doc["prev"] != prev:
        raise AuditChainError(index, "prev digest does not match the preceding record")
    body = {key: value for key, value in doc.items() if key != "digest"}
    if record_digest(body) != doc["digest"]:
        raise AuditChainError(index, "digest mismatch (record was modified)")


def verify_records(records) -> int:
    """Walk *records* checking linkage and digests; return the chain length.

    Raises :class:`AuditChainError` naming the first failing index.  An
    empty chain verifies trivially (length 0).
    """
    prev = GENESIS_DIGEST
    index = 0
    for doc in records:
        _check_record(doc, index, prev)
        prev = doc["digest"]
        index += 1
    return index


class SQLiteAuditLog:
    """Chain rows in the ``audit`` table of a :class:`SQLiteRegistryBackend`.

    The read-last/insert step runs inside ``BEGIN IMMEDIATE``, so concurrent
    appenders across processes serialise on the database write lock and the
    chain stays linear.
    """

    def __init__(self, backend) -> None:
        self._backend = backend

    def append(
        self,
        event: str,
        tenant: str | None,
        *,
        dataset: str | None = None,
        payload: dict | None = None,
    ) -> AuditRecord:
        """Seal one record onto the chain."""
        conn = self._backend.connection()
        with _Transaction(conn):
            index, prev = _tail(conn)
            record = build_record(index, prev, event, tenant, dataset, payload or {})
            _insert(conn, record)
        return AuditRecord(record)

    def append_raw(self, record: dict) -> None:
        """Append an already-sealed record (migration), verifying linkage."""
        conn = self._backend.connection()
        with _Transaction(conn):
            _check_record(record, *_tail(conn))
            _insert(conn, record)

    def entries(self) -> Iterator[AuditRecord]:
        rows = self._backend.connection().execute(
            "SELECT idx, prev, ts, event, tenant, dataset, payload, digest "
            "FROM audit ORDER BY idx"
        )
        for position, row in enumerate(rows):
            idx, prev, ts, event, tenant, dataset, payload, digest = row
            try:
                parsed = json.loads(payload)
            except ValueError as error:
                raise AuditChainError(position, f"malformed payload: {error}") from error
            yield AuditRecord(
                {
                    "index": idx,
                    "prev": prev,
                    "ts": ts,
                    "event": event,
                    "tenant": tenant,
                    "dataset": dataset,
                    "payload": parsed,
                    "digest": digest,
                }
            )

    def verify(self) -> int:
        """Chain length when intact; :class:`AuditChainError` when not."""
        return verify_records(self.entries())

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())


def _tail(conn) -> tuple[int, str]:
    """``(index, prev)`` the next record must carry."""
    row = conn.execute("SELECT idx, digest FROM audit ORDER BY idx DESC LIMIT 1").fetchone()
    return (row[0] + 1, row[1]) if row is not None else (0, GENESIS_DIGEST)


def _insert(conn, record: dict) -> None:
    conn.execute(
        "INSERT INTO audit (idx, prev, ts, event, tenant, dataset, payload, digest) "
        "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
        (
            record["index"],
            record["prev"],
            record["ts"],
            record["event"],
            record["tenant"],
            record["dataset"],
            _canonical(record["payload"]),
            record["digest"],
        ),
    )
