"""The SQLite registry: opening, schema checks, durability and registry semantics."""

import json
import multiprocessing
import os
import sqlite3
import threading

import pytest

from repro.service.api import ProtectionService
from repro.service.backends import VaultError
from repro.service.vault import DatasetRecord, KeyVault

mp = multiprocessing.get_context("fork")


def make_vault(tmp_path, name="v"):
    return KeyVault.init(tmp_path / name)


class TestOpen:
    def test_open_or_init_round_trip(self, tmp_path):
        first = KeyVault.open_or_init(tmp_path / "v")
        first.register_tenant("acme")
        second = KeyVault.open_or_init(tmp_path / "v")
        assert second.backend == "sqlite"
        assert second.tenants() == ["acme"]

    def test_legacy_directory_is_refused_with_the_migrate_hint(self, tmp_path):
        root = tmp_path / "old"
        root.mkdir()
        (root / "vault.json").write_text('{"version": 1, "tenants": {}}', encoding="utf-8")
        for opener in (KeyVault, KeyVault.init, KeyVault.open_or_init):
            with pytest.raises(VaultError, match="repro vault migrate"):
                opener(root)
        assert sorted(os.listdir(root)) == ["vault.json"]


class TestSQLiteSpecifics:
    def test_unsupported_registry_version_rejected(self, tmp_path):
        vault = make_vault(tmp_path)
        conn = sqlite3.connect(vault.path)
        with conn:
            conn.execute("UPDATE meta SET value = '99' WHERE key = 'version'")
        conn.close()
        with pytest.raises(VaultError, match="version"):
            KeyVault(tmp_path / "v")

    def test_garbage_database_rejected(self, tmp_path):
        # No WAL sidecars here — SQLite would recover the real pages from them.
        root = tmp_path / "v"
        root.mkdir()
        (root / "registry.db").write_text(json.dumps({"version": 99}), encoding="utf-8")
        with pytest.raises(VaultError, match="registry"):
            KeyVault(root)

    def test_restrictive_mode(self, tmp_path):
        vault = make_vault(tmp_path)
        assert (os.stat(vault.path).st_mode & 0o777) == 0o600

    def test_live_cross_handle_visibility(self, tmp_path):
        """Readers see committed writes immediately — no reload needed."""
        writer = make_vault(tmp_path)
        reader = KeyVault(tmp_path / "v")
        writer.register_tenant("acme")
        assert reader.tenants() == ["acme"]


def _synchronous(vault):
    return vault.registry.connection().execute("PRAGMA synchronous").fetchone()[0]


class TestDurability:
    """Every connection fsyncs each commit: ``PRAGMA synchronous`` is FULL (2)."""

    def test_every_thread_connection_is_full(self, tmp_path):
        vault = make_vault(tmp_path)
        seen = [(vault.registry.connection(), _synchronous(vault))]

        def other_thread():
            seen.append((vault.registry.connection(), _synchronous(vault)))

        thread = threading.Thread(target=other_thread)
        thread.start()
        thread.join()
        (main_conn, main_sync), (thread_conn, thread_sync) = seen
        assert thread_conn is not main_conn
        assert main_sync == thread_sync == 2

    def test_forked_worker_connection_is_full(self, tmp_path):
        vault = make_vault(tmp_path)
        parent = vault.registry.connection()
        assert _synchronous(vault) == 2
        result = mp.Queue()

        def child():
            conn = vault.registry.connection()
            result.put((conn is not parent, _synchronous(vault)))

        process = mp.Process(target=child)
        process.start()
        process.join(timeout=60)
        assert process.exitcode == 0
        assert result.get(timeout=10) == (True, 2)


class TestRegistrySemantics:
    def test_full_registry_lifecycle(self, tmp_path):
        vault = make_vault(tmp_path)
        record = vault.register_tenant("acme", encryption_key="E", watermark_secret="W")
        with pytest.raises(VaultError, match="already registered"):
            vault.register_tenant("acme")
        assert vault.tenant("acme") == record
        token = vault.issue_token("acme")
        assert vault.verify_token("acme", token)
        assert not vault.verify_token("acme", token[:-1] + ("x" if token[-1] != "x" else "y"))
        vault.record_dataset(
            "acme", DatasetRecord(dataset_id="d", registered_statistic=1.5, mark_bits="1010")
        )
        assert vault.dataset("acme", "d").registered_statistic == 1.5
        assert vault.datasets("acme") == ["d"]
        with pytest.raises(VaultError, match="no dataset"):
            vault.dataset("acme", "ghost")
        with pytest.raises(VaultError, match="unknown tenant"):
            vault.tenant("nobody")

    def test_claim_order_and_move_to_end(self, tmp_path):
        """Replaced claims move to the end — claim order is dispute-visible."""
        from repro.watermarking.keys import WatermarkKey
        from repro.watermarking.mark import Mark
        from repro.watermarking.ownership import OwnershipClaim

        def claim_for(name):
            return OwnershipClaim(
                claimant=name,
                registered_statistic=1.0,
                mark=Mark.from_string("1010"),
                watermark_key=WatermarkKey(k1=b"a", k2=b"b", eta=5),
                encryption_key="e",
                copies=2,
                columns=None,
            )

        store = make_vault(tmp_path).claim_store()
        for name in ("alpha", "beta", "gamma"):
            store.add_claim("d", claim_for(name))
        store.add_claim("d", claim_for("alpha"))  # replace -> moves to end
        assert store.claimants("d") == ["beta", "gamma", "alpha"]
        assert store.remove_claim("d", "beta") is True
        assert store.remove_claim("d", "beta") is False
        assert store.claimants("d") == ["gamma", "alpha"]

    def test_export_import_round_trip(self, tmp_path):
        vault = make_vault(tmp_path, "src")
        vault.register_tenant("acme", encryption_key="E", watermark_secret="W")
        vault.issue_token("acme")
        vault.record_dataset(
            "acme", DatasetRecord(dataset_id="d", registered_statistic=1.5, mark_bits="1010")
        )
        state = vault.export_state()
        other = make_vault(tmp_path, "dst")
        other.import_state(state)
        assert other.export_state() == state

    def test_status_reports_backend(self, tmp_path):
        service = ProtectionService(make_vault(tmp_path))
        service.register_tenant("owner")
        status = service.status()
        assert status["backend"] == "sqlite"
        assert "owner" in status["tenants"]
