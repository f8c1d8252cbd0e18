"""Migrating a vault in the retired JSON-document format into the SQLite registry.

The fixture under ``tests/fixtures/legacy_file_vault`` was written by the
JSON-document registry, together with the results it gave.  A migrated copy
must give the same protect bytes, detect bits and dispute verdict, carry the
audit chain over verifiably, and refuse a tampered chain at the edited
record's index.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.service.api import ProtectionService
from repro.service.backends import VaultError
from repro.service.legacy import read_legacy_chain
from repro.service.vault import KeyVault, migrate_vault

FIXTURE = Path(__file__).resolve().parents[1] / "fixtures" / "legacy_file_vault"
EXPECTED = json.loads((FIXTURE / "expected.json").read_text(encoding="utf-8"))
LEGACY_RECORDS = list(read_legacy_chain(FIXTURE / "vault" / "audit.log"))
CHECK_AUDIT = Path(__file__).resolve().parents[2] / "tools" / "check_audit.py"


def _sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _copy_legacy(tmp_path) -> Path:
    source = tmp_path / "legacy"
    shutil.copytree(FIXTURE / "vault", source)
    return source


def _migrate(source, destination, capsys) -> tuple[int, dict]:
    capsys.readouterr()
    code = main(["vault", "migrate", str(source), str(destination), "--json"])
    return code, json.loads(capsys.readouterr().out)


@pytest.fixture()
def migrated(tmp_path, capsys):
    source = _copy_legacy(tmp_path)
    code, payload = _migrate(source, tmp_path / "vault", capsys)
    assert code == 0, payload
    return source, tmp_path / "vault", payload


class TestMigrationIdentity:
    def test_summary_and_untouched_source(self, migrated):
        source, _, payload = migrated
        assert payload["tenants"] == 1
        assert payload["claims"] == 2
        assert payload["audit_records"] == EXPECTED["audit_records"] + 1
        for name in ("vault.json", "claims.json", "audit.log"):
            assert (source / name).read_bytes() == (FIXTURE / "vault" / name).read_bytes()
        assert sorted(os.listdir(source)) == ["audit.log", "claims.json", "vault.json"]

    def test_protect_detect_dispute_identical(self, migrated, tmp_path):
        _, destination, _ = migrated
        service = ProtectionService(KeyVault(destination))
        out = tmp_path / "protected.csv"
        # A fresh dataset id, so the migrated "trial" registration stays as
        # the old registry left it for the detect and dispute below.
        outcome = service.protect(
            EXPECTED["tenant"], str(FIXTURE / "raw.csv"), str(out), dataset_id="reprotect"
        )
        assert _sha256(out) == EXPECTED["protect_sha256"]
        assert outcome.mark == EXPECTED["mark"]
        assert outcome.registered_statistic == EXPECTED["registered_statistic"]

        detect = service.detect(EXPECTED["tenant"], str(out), dataset_id=EXPECTED["dataset"])
        assert detect.mark == EXPECTED["detect_mark"]
        assert detect.mark_loss == EXPECTED["detect_mark_loss"] == 0.0

        verdict = service.dispute(EXPECTED["tenant"], str(out), dataset_id=EXPECTED["dataset"])
        assert verdict.winner == EXPECTED["dispute_winner"] == "owner"
        assert verdict.valid_claimants == EXPECTED["valid_claimants"] == ["owner"]
        assert [a.claimant for a in verdict.assessments] == EXPECTED["claimants"]

    def test_token_digest_carried_over(self, migrated):
        _, destination, _ = migrated
        assert KeyVault(destination).has_token(EXPECTED["tenant"])

    def test_chain_copied_verbatim_and_sealed(self, migrated, capsys):
        _, destination, _ = migrated
        records = list(KeyVault(destination).audit_log().entries())
        assert [dict(r) for r in records[:-1]] == LEGACY_RECORDS
        assert records[-1]["event"] == "migrate"
        assert records[-1]["payload"]["from_backend"] == "file"

        capsys.readouterr()
        assert main(["audit", "verify", "--vault", str(destination), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True and report["records"] == len(records)

        # The independent stdlib verifier accepts the new chain too.
        result = subprocess.run(
            [sys.executable, str(CHECK_AUDIT), "--verify", str(destination), "--json"],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["records"] == len(records)


class TestRefusals:
    @pytest.mark.parametrize("index", range(EXPECTED["audit_records"]))
    def test_edited_record_aborts_at_its_index(self, tmp_path, capsys, index):
        source = _copy_legacy(tmp_path)
        chain = source / "audit.log"
        lines = chain.read_bytes().splitlines(keepends=True)
        lines[index] = lines[index].replace(b'"ts":', b'"ts":1', 1)
        chain.write_bytes(b"".join(lines))
        code, payload = _migrate(source, tmp_path / "vault", capsys)
        assert code == 1
        assert payload["ok"] is False and payload["failed_index"] == index
        # Refused before anything was written.
        assert not (tmp_path / "vault").exists()

    def test_unmigrated_directory_cannot_be_opened(self, capsys):
        with pytest.raises(VaultError, match="repro vault migrate"):
            KeyVault(FIXTURE / "vault")
        capsys.readouterr()
        assert main(["audit", "verify", "--vault", str(FIXTURE / "vault"), "--json"]) == 2
        assert "repro vault migrate" in json.loads(capsys.readouterr().out)["error"]

    def test_unknown_document_version_is_refused(self, tmp_path):
        source = _copy_legacy(tmp_path)
        document = json.loads((source / "vault.json").read_text(encoding="utf-8"))
        document["version"] = 2
        (source / "vault.json").write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(VaultError, match="version"):
            migrate_vault(source, tmp_path / "vault")
        assert not (tmp_path / "vault").exists()

    def test_current_vault_is_not_a_migration_source(self, tmp_path):
        KeyVault.init(tmp_path / "current")
        with pytest.raises(VaultError, match="JSON-document format"):
            migrate_vault(tmp_path / "current", tmp_path / "vault")

    def test_existing_destination_is_refused(self, migrated, tmp_path):
        source, destination, _ = migrated
        with pytest.raises(VaultError, match="already initialised"):
            migrate_vault(source, destination)
