"""Hash-chained audit log: linkage, service capture, and tamper evidence.

The chain lives in the vault's ``registry.db``; JSONL chains (exports and
the ``audit.log`` of vaults in the retired JSON-document format) are read
by :mod:`repro.service.legacy` and ``tools/check_audit.py``.  Flipping a
*single byte anywhere* in a JSONL chain makes verification fail with the
exact index of the damaged record, via both the library verifier and the
standalone ``tools/check_audit.py``.
"""

import importlib.util
import json
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service.audit import (
    GENESIS_DIGEST,
    AuditChainError,
    build_record,
    record_digest,
    verify_records,
)
from repro.service.legacy import read_legacy_chain
from repro.service.vault import KeyVault

TOOLS_DIR = Path(__file__).resolve().parents[2] / "tools"


def load_check_audit():
    spec = importlib.util.spec_from_file_location("check_audit", TOOLS_DIR / "check_audit.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_audit = load_check_audit()


class TestRecordFormat:
    def test_genesis_linkage(self, tmp_path):
        log = KeyVault.init(tmp_path / "v").audit_log()
        first = log.append("register", "acme")
        assert first["index"] == 0
        assert first["prev"] == GENESIS_DIGEST
        second = log.append("protect", "acme", dataset="d", payload={"rows": 10})
        assert second["prev"] == first["digest"]
        assert log.verify() == 2

    def test_digest_covers_every_field(self, tmp_path):
        record = build_record(0, GENESIS_DIGEST, "register", "acme", None, {})
        for key in ("index", "prev", "ts", "event", "tenant", "dataset", "payload"):
            tampered = dict(record)
            tampered[key] = 7 if key in ("index", "ts") else "tampered"
            assert record_digest(tampered) != record["digest"], key

    def test_verify_records_rejects_reordering(self):
        a = build_record(0, GENESIS_DIGEST, "register", "a", None, {})
        b = build_record(1, a["digest"], "register", "b", None, {})
        assert verify_records([a, b]) == 2
        with pytest.raises(AuditChainError) as excinfo:
            verify_records([b, a])
        assert excinfo.value.index == 0

    def test_append_resumes_after_reopen(self, tmp_path):
        KeyVault.init(tmp_path / "v").audit_log().append("register", "acme")
        reopened = KeyVault(tmp_path / "v").audit_log()
        record = reopened.append("token", "acme")
        assert record["index"] == 1
        assert reopened.verify() == 2


class TestServiceCapture:
    """Every successful service mutation lands exactly one chained record."""

    @pytest.fixture()
    def service_vault(self, tmp_path, raw_table_csv):
        from repro.service.api import ProtectionService

        vault = KeyVault.init(tmp_path / "v")
        service = ProtectionService(vault, chunk_size=256)
        service.register_tenant("owner", k=10, eta=20, epsilon=5)
        out = str(tmp_path / "protected.csv")
        service.protect("owner", raw_table_csv, out, dataset_id="d")
        service.detect("owner", out, dataset_id="d")
        service.dispute("owner", out, dataset_id="d")
        return vault

    @pytest.fixture(scope="class")
    def raw_table_csv(self, tmp_path_factory):
        from repro.datagen.medical import generate_medical_table

        path = tmp_path_factory.mktemp("audit-data") / "raw.csv"
        generate_medical_table(size=1200, seed=7).to_csv(str(path))
        return str(path)

    def test_event_sequence_and_verifiable_chain(self, service_vault):
        log = service_vault.audit_log()
        events = [record["event"] for record in log.entries()]
        assert events == ["register", "protect", "detect", "dispute"]
        assert log.verify() == 4

    def test_payloads_hold_outcomes_not_secrets(self, service_vault):
        records = list(service_vault.audit_log().entries())
        register, protect, detect, dispute = records
        assert register["payload"]["eta"] == 20
        assert protect["payload"]["rows"] == 1200
        assert protect["dataset"] == "d"
        assert detect["payload"]["mark_loss"] == 0.0
        assert dispute["payload"]["winner"] == "owner"
        tenant = service_vault.tenant("owner")
        blob = json.dumps(records)
        assert tenant.encryption_key not in blob
        assert tenant.watermark_secret not in blob

    def test_audit_false_disables_capture(self, tmp_path):
        from repro.service.api import ProtectionService

        vault = KeyVault.init(tmp_path / "v")
        service = ProtectionService(vault, audit=False)
        service.register_tenant("owner")
        assert service.audit is None
        assert vault.audit_log().verify() == 0


def seeded_file_chain(tmp_path, records=6):
    """A dir whose audit.log holds *records* chained JSONL entries."""
    root = tmp_path / "chain"
    root.mkdir()
    prev, lines = GENESIS_DIGEST, []
    for index in range(records):
        record = build_record(
            index, prev, "register", f"tenant-{index}", None, {"step": index}
        )
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
        prev = record["digest"]
    (root / "audit.log").write_text("".join(lines), encoding="utf-8")
    return root


def verify_jsonl(path):
    return verify_records(read_legacy_chain(path))


def seeded_sqlite_chain(tmp_path, records=6):
    vault = KeyVault.init(tmp_path / "chain-sql")
    log = vault.audit_log()
    for index in range(records):
        log.append("register", f"tenant-{index}", payload={"step": index})
    return Path(vault.root)


class TestTamperEvidence:
    def test_every_single_byte_flip_is_detected_with_exact_index(self, tmp_path):
        """The issue's acceptance test: flip each byte of the chain in turn."""
        root = seeded_file_chain(tmp_path, records=4)
        path = root / "audit.log"
        pristine = path.read_bytes()
        # Line offsets tell us which record index a given byte belongs to.
        boundaries = [i for i, b in enumerate(pristine) if b == 0x0A]

        def record_of(offset):
            return next(i for i, end in enumerate(boundaries) if offset <= end)

        assert verify_jsonl(path) == 4
        for offset in range(len(pristine)):
            mutated = bytearray(pristine)
            mutated[offset] ^= 0x01
            path.write_bytes(bytes(mutated))
            with pytest.raises(AuditChainError) as excinfo:
                verify_jsonl(path)
            # The reported index never points past the damaged record.
            assert 0 <= excinfo.value.index <= record_of(offset)
        path.write_bytes(pristine)
        assert verify_jsonl(path) == 4

    def test_truncated_partial_record_reports_tail_index(self, tmp_path):
        root = seeded_file_chain(tmp_path, records=5)
        path = root / "audit.log"
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 30])  # chop into the last record
        with pytest.raises(AuditChainError) as excinfo:
            verify_jsonl(path)
        assert excinfo.value.index == 4

    def test_deleting_a_middle_record_breaks_at_the_gap(self, tmp_path):
        root = seeded_file_chain(tmp_path, records=5)
        path = root / "audit.log"
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2] + lines[3:]))
        with pytest.raises(AuditChainError) as excinfo:
            verify_jsonl(path)
        assert excinfo.value.index == 2

    def test_sqlite_row_edit_reports_exact_index(self, tmp_path):
        root = seeded_sqlite_chain(tmp_path, records=6)
        conn = sqlite3.connect(root / "registry.db")
        with conn:
            conn.execute("UPDATE audit SET tenant = 'evil' WHERE idx = 3")
        conn.close()
        with pytest.raises(AuditChainError) as excinfo:
            KeyVault(root).audit_log().verify()
        assert excinfo.value.index == 3

    def test_sqlite_deleted_row_breaks_at_the_gap(self, tmp_path):
        root = seeded_sqlite_chain(tmp_path, records=6)
        conn = sqlite3.connect(root / "registry.db")
        with conn:
            conn.execute("DELETE FROM audit WHERE idx = 2")
        conn.close()
        with pytest.raises(AuditChainError) as excinfo:
            KeyVault(root).audit_log().verify()
        assert excinfo.value.index == 2


class TestCheckAuditTool:
    """tools/check_audit.py — the independent, stdlib-only verifier."""

    def test_ok_on_file_chain(self, tmp_path, capsys):
        root = seeded_file_chain(tmp_path)
        assert check_audit.main([str(root)]) == 0
        assert "audit chain OK: 6 records" in capsys.readouterr().out

    def test_ok_on_sqlite_chain(self, tmp_path, capsys):
        root = seeded_sqlite_chain(tmp_path)
        assert check_audit.main(["--verify", str(root), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True and report["records"] == 6
        assert report["backend"] == "sqlite"

    def test_heads_agree_with_library(self, tmp_path, capsys):
        root = seeded_file_chain(tmp_path)
        check_audit.main([str(root), "--json"])
        report = json.loads(capsys.readouterr().out)
        records = list(read_legacy_chain(root / "audit.log"))
        assert report["head"] == records[-1]["digest"]

    def test_flipped_byte_gives_exit_1_and_exact_index(self, tmp_path, capsys):
        root = seeded_file_chain(tmp_path)
        path = root / "audit.log"
        lines = path.read_bytes().splitlines(keepends=True)
        # Flip one byte inside record 3's digest hex.
        target = bytearray(lines[3])
        pos = target.rindex(b'"digest"') + len(b'"digest":"') + 5
        target[pos] = ord("x") if target[pos] != ord("x") else ord("y")
        lines[3] = bytes(target)
        path.write_bytes(b"".join(lines))
        assert check_audit.main([str(root), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["failed_index"] == 3

    def test_sqlite_edit_gives_exit_1_and_exact_index(self, tmp_path, capsys):
        root = seeded_sqlite_chain(tmp_path)
        conn = sqlite3.connect(root / "registry.db")
        with conn:
            conn.execute("UPDATE audit SET event = 'detect' WHERE idx = 4")
        conn.close()
        assert check_audit.main([str(root), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["failed_index"] == 4

    def test_missing_chain_gives_exit_2(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert check_audit.main([str(tmp_path / "empty"), "--json"]) == 2
        assert "error" in json.loads(capsys.readouterr().out)

    def test_export_writes_canonical_jsonl(self, tmp_path, capsys):
        root = seeded_sqlite_chain(tmp_path)
        exported = tmp_path / "chain.jsonl"
        assert check_audit.main([str(root), "--export", str(exported)]) == 0
        capsys.readouterr()
        # The export itself re-verifies as a file chain.
        lines = exported.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 6
        assert check_audit.main([str(exported)]) == 0

    def test_runs_as_a_subprocess_without_repro_on_path(self, tmp_path):
        """The auditor story: stock python + the script + the chain file."""
        root = seeded_file_chain(tmp_path)
        result = subprocess.run(
            [sys.executable, str(TOOLS_DIR / "check_audit.py"), "--verify", str(root)],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        assert "audit chain OK" in result.stdout
