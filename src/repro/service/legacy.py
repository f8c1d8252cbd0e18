"""Read-only importer for vaults in the retired JSON-document format.

Before the registry moved into SQLite, a vault directory held three files:
``vault.json`` (tenants, token digests and dataset registrations),
``claims.json`` (claims per dataset, in arrival order) and ``audit.log``
(the hash chain, one canonical JSON record per line).  This module only
reads them, so ``repro vault migrate`` can lift such a vault into a fresh
``registry.db`` without touching the original.
"""

from __future__ import annotations

import json
import os
from typing import Iterator

from repro.service.audit import AuditChainError
from repro.service.backends import VaultError

__all__ = ["is_legacy_vault", "read_legacy_state", "read_legacy_chain"]

VAULT_FILENAME = "vault.json"
CLAIMS_FILENAME = "claims.json"
AUDIT_FILENAME = "audit.log"
DOCUMENT_VERSION = 1


def is_legacy_vault(root: str | os.PathLike) -> bool:
    """Whether *root* holds a JSON-document vault."""
    return os.path.exists(os.path.join(root, VAULT_FILENAME))


def read_legacy_state(root: str | os.PathLike) -> dict:
    """The registry of the vault at *root*, shaped for ``KeyVault.import_state``."""
    return {
        "tenants": _read_document(os.path.join(root, VAULT_FILENAME), "tenants"),
        "claims": _read_document(os.path.join(root, CLAIMS_FILENAME), "claims"),
    }


def read_legacy_chain(path: str | os.PathLike) -> Iterator[dict]:
    """The records of a JSONL chain in order; a malformed line raises with its index."""
    if not os.path.exists(path):
        return
    with open(path, "rb") as handle:
        for index, raw in enumerate(handle):
            try:
                yield json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as error:
                raise AuditChainError(index, f"malformed record: {error}") from error


def _read_document(path: str, key: str) -> dict:
    # claims.json was only written on the first claim, so it may be absent.
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    version = document.get("version")
    if version != DOCUMENT_VERSION:
        raise VaultError(
            f"unsupported {key} document version {version!r} in {path!r} "
            f"(expected {DOCUMENT_VERSION})"
        )
    return document[key]
