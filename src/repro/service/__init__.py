"""Persistent multi-tenant protection service.

The library's :class:`~repro.framework.pipeline.ProtectionFramework` is a
single in-process object: its court-critical state (registered statistic,
mark, secrets) evaporates with the process.  This package turns it into an
operable service for the paper's actual threat model — a data *owner* who
protects many outsourced datasets and must later detect and litigate from a
cold process:

* :mod:`repro.service.vault` — durable per-tenant/per-dataset secrets,
  registered statistics and marks;
* :mod:`repro.service.store` — persistent ownership claims backing the
  dispute flow of Section 5.4;
* :mod:`repro.service.backends` — the WAL-mode SQLite ``registry.db``
  behind both facades and the audit log;
* :mod:`repro.service.legacy` — read-only importer for vaults in the
  retired JSON-document format (``repro vault migrate``);
* :mod:`repro.service.audit` — the append-only hash-chained audit log of
  register/protect/detect/dispute events (tamper-evident provenance);
* :mod:`repro.service.streaming` — chunked CSV ingest/emit so million-row
  files never materialise as a full table;
* :mod:`repro.service.executor` — shard-parallel embed/detect, bit-identical
  to the serial batched path;
* :mod:`repro.service.runners` — pluggable vote-collection backends: the
  GIL-bound :class:`ThreadRunner`, the engine-reconstructing
  :class:`ProcessRunner`, and the multi-machine :class:`RemoteRunner`
  coordinating a fleet of ``repro serve`` workers;
* :mod:`repro.service.wire` — the JSON wire format distributed detection
  speaks (specs, frontier metadata, votes — lossless by test);
* :mod:`repro.service.api` — the :class:`ProtectionService` facade the CLI
  drives;
* :mod:`repro.service.http` — the stdlib WSGI frontend (and client) exposing
  the facade over the network with bearer-token tenant auth;
* :mod:`repro.service.reports` — the ``--json`` report shapes shared by the
  CLI and the HTTP bodies.
"""

from repro.service.api import DetectOutcome, ProtectOutcome, ProtectionService, suspect_view
from repro.service.audit import AuditChainError, SQLiteAuditLog
from repro.service.backends import SQLiteRegistryBackend, VaultError
from repro.service.executor import ShardExecutor, shard_spans
from repro.service.runners import (
    FleetError,
    ProcessRunner,
    RemoteRunner,
    ShardRunner,
    ThreadRunner,
    resolve_runner,
)
from repro.service.store import ClaimStore
from repro.service.vault import DatasetRecord, KeyVault, TenantRecord, migrate_vault

__all__ = [
    "AuditChainError",
    "SQLiteAuditLog",
    "SQLiteRegistryBackend",
    "VaultError",
    "migrate_vault",
    "ProtectionService",
    "ProtectOutcome",
    "DetectOutcome",
    "suspect_view",
    "ShardExecutor",
    "shard_spans",
    "ShardRunner",
    "ThreadRunner",
    "ProcessRunner",
    "RemoteRunner",
    "FleetError",
    "resolve_runner",
    "ClaimStore",
    "KeyVault",
    "TenantRecord",
    "DatasetRecord",
]
