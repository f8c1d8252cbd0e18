"""Tests for the SQLite-backed key vault."""

import os

import pytest

from repro.service.vault import DatasetRecord, KeyVault, TenantRecord, VaultError


class TestVaultLifecycle:
    def test_init_creates_document(self, tmp_path):
        vault = KeyVault.init(tmp_path / "v")
        assert os.path.exists(vault.path)
        assert vault.tenants() == []

    def test_init_twice_fails(self, tmp_path):
        KeyVault.init(tmp_path / "v")
        with pytest.raises(VaultError, match="already initialised"):
            KeyVault.init(tmp_path / "v")

    def test_open_missing_fails(self, tmp_path):
        with pytest.raises(VaultError, match="no vault"):
            KeyVault(tmp_path / "missing")

    def test_open_or_init(self, tmp_path):
        first = KeyVault.open_or_init(tmp_path / "v")
        first.register_tenant("acme")
        second = KeyVault.open_or_init(tmp_path / "v")
        assert second.tenants() == ["acme"]


class TestTenants:
    def test_secrets_generated_when_absent(self, tmp_path):
        vault = KeyVault.init(tmp_path / "v")
        record = vault.register_tenant("acme")
        assert len(record.encryption_key) == 32 and len(record.watermark_secret) == 32
        other = vault.register_tenant("globex")
        assert other.encryption_key != record.encryption_key
        assert other.watermark_secret != record.watermark_secret

    def test_explicit_secrets_and_params_round_trip(self, tmp_path):
        vault = KeyVault.init(tmp_path / "v")
        vault.register_tenant(
            "acme",
            encryption_key="E",
            watermark_secret="W",
            eta=33,
            k=12,
            epsilon=3,
            mark_length=16,
            copies=6,
            watermark_columns=("age", "zip_code"),
        )
        record = KeyVault(tmp_path / "v").tenant("acme")
        assert record == TenantRecord(
            tenant_id="acme",
            encryption_key="E",
            watermark_secret="W",
            eta=33,
            k=12,
            epsilon=3,
            mark_length=16,
            copies=6,
            watermark_columns=("age", "zip_code"),
        )

    def test_reregistration_rejected(self, tmp_path):
        vault = KeyVault.init(tmp_path / "v")
        vault.register_tenant("acme")
        with pytest.raises(VaultError, match="already registered"):
            vault.register_tenant("acme")

    def test_unknown_tenant(self, tmp_path):
        vault = KeyVault.init(tmp_path / "v")
        with pytest.raises(VaultError, match="unknown tenant"):
            vault.tenant("nobody")


class TestDatasets:
    def test_record_and_cold_read(self, tmp_path):
        vault = KeyVault.init(tmp_path / "v")
        vault.register_tenant("acme")
        record = DatasetRecord(
            dataset_id="claims",
            registered_statistic=496540741.525,
            mark_bits="01011010010110100101",
            rows=100_000,
            cells_changed=1234,
            information_loss=0.0291,
            source="/data/claims.csv",
        )
        vault.record_dataset("acme", record)
        # A cold process sees the exact record, float for float.
        reopened = KeyVault(tmp_path / "v")
        assert reopened.dataset("acme", "claims") == record
        assert reopened.datasets("acme") == ["claims"]

    def test_reprotect_overwrites(self, tmp_path):
        vault = KeyVault.init(tmp_path / "v")
        vault.register_tenant("acme")
        for rows in (10, 20):
            vault.record_dataset(
                "acme",
                DatasetRecord(dataset_id="d", registered_statistic=1.0, mark_bits="01", rows=rows),
            )
        assert vault.dataset("acme", "d").rows == 20

    def test_unknown_dataset(self, tmp_path):
        vault = KeyVault.init(tmp_path / "v")
        vault.register_tenant("acme")
        with pytest.raises(VaultError, match="no dataset"):
            vault.dataset("acme", "nope")


class TestAtomicity:
    def test_restrictive_mode(self, tmp_path):
        vault = KeyVault.init(tmp_path / "v")
        vault.register_tenant("acme")
        assert (os.stat(vault.path).st_mode & 0o777) == 0o600


class TestBearerTokens:
    def test_issue_and_verify(self, tmp_path):
        vault = KeyVault.init(tmp_path / "v")
        vault.register_tenant("acme")
        token = vault.issue_token("acme")
        assert vault.has_token("acme")
        assert vault.verify_token("acme", token)
        assert not vault.verify_token("acme", token + "x")
        assert not vault.verify_token("acme", "")

    def test_plaintext_never_stored(self, tmp_path):
        vault = KeyVault.init(tmp_path / "v")
        vault.register_tenant("acme")
        token = vault.issue_token("acme")
        # Binary read: the backing artifact may be a SQLite database.
        with open(vault.path, "rb") as handle:
            assert token.encode("utf-8") not in handle.read()

    def test_rotation_replaces_digest(self, tmp_path):
        vault = KeyVault.init(tmp_path / "v")
        vault.register_tenant("acme")
        first = vault.issue_token("acme")
        second = vault.issue_token("acme")
        assert vault.verify_token("acme", second)
        assert not vault.verify_token("acme", first)

    def test_unknown_tenant(self, tmp_path):
        vault = KeyVault.init(tmp_path / "v")
        with pytest.raises(VaultError, match="unknown tenant"):
            vault.issue_token("ghost")
        assert not vault.verify_token("ghost", "anything")
        assert not vault.has_token("ghost")

    def test_cross_process_rotation_visible_without_reload(self, tmp_path):
        """verify_token re-reads on a miss: rotation elsewhere takes effect."""
        vault = KeyVault.init(tmp_path / "v")
        vault.register_tenant("acme")
        stale_view = KeyVault(tmp_path / "v")
        token = vault.issue_token("acme")
        assert stale_view.verify_token("acme", token)


class TestConcurrentWriters:
    """The advisory-lock satellite: racing writers never lose an update."""

    def test_racing_dataset_records_all_survive(self, tmp_path):
        import threading

        root = tmp_path / "v"
        KeyVault.init(root).register_tenant("acme")
        n_writers, per_writer = 4, 8

        def write(index: int) -> None:
            # Each thread opens its *own* vault handle, as two processes would.
            vault = KeyVault(root)
            for step in range(per_writer):
                vault.record_dataset(
                    "acme",
                    DatasetRecord(
                        dataset_id=f"d-{index}-{step}",
                        registered_statistic=1.0,
                        mark_bits="1010",
                    ),
                )

        threads = [threading.Thread(target=write, args=(index,)) for index in range(n_writers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(KeyVault(root).datasets("acme")) == n_writers * per_writer

    def test_racing_tenant_registrations_do_not_clobber(self, tmp_path):
        import threading

        root = tmp_path / "v"
        KeyVault.init(root)
        errors: list[Exception] = []

        def register(index: int) -> None:
            try:
                KeyVault(root).register_tenant(f"tenant-{index}")
            except Exception as error:  # pragma: no cover - would fail the assert
                errors.append(error)

        threads = [threading.Thread(target=register, args=(index,)) for index in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert KeyVault(root).tenants() == [f"tenant-{index}" for index in range(6)]

    def test_duplicate_registration_still_rejected_under_lock(self, tmp_path):
        root = tmp_path / "v"
        vault = KeyVault.init(root)
        vault.register_tenant("acme")
        with pytest.raises(VaultError, match="already registered"):
            KeyVault(root).register_tenant("acme")

    def test_racing_claim_stores_merge(self, tmp_path):
        import threading

        from repro.watermarking.keys import WatermarkKey
        from repro.watermarking.mark import Mark
        from repro.watermarking.ownership import OwnershipClaim

        root = tmp_path / "v"
        KeyVault.init(root)

        def claim_for(name: str) -> OwnershipClaim:
            return OwnershipClaim(
                claimant=name,
                registered_statistic=42.0,
                mark=Mark.from_string("1010"),
                watermark_key=WatermarkKey(k1=b"k1", k2=b"k2", eta=5),
                encryption_key="enc",
                copies=2,
                columns=None,
            )

        def add(index: int) -> None:
            KeyVault(root).claim_store().add_claim("dataset", claim_for(f"claimant-{index}"))

        threads = [threading.Thread(target=add, args=(index,)) for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(KeyVault(root).claim_store().claimants("dataset")) == [
            f"claimant-{index}" for index in range(8)
        ]


class TestCrossProcessFreshness:
    """A long-lived handle sees writes from other handles (live reads)."""

    def test_dataset_written_elsewhere_is_visible(self, tmp_path):
        root = tmp_path / "v"
        server_view = KeyVault.init(root)
        server_view.register_tenant("acme")
        other = KeyVault(root)
        other.record_dataset(
            "acme",
            DatasetRecord(dataset_id="d", registered_statistic=1.0, mark_bits="1010"),
        )
        assert server_view.dataset("acme", "d").mark_bits == "1010"

    def test_tenant_registered_elsewhere_is_visible(self, tmp_path):
        root = tmp_path / "v"
        server_view = KeyVault.init(root)
        KeyVault(root).register_tenant("late")
        assert server_view.tenant("late").tenant_id == "late"

    def test_claims_written_elsewhere_visible_to_reader(self, tmp_path):
        from repro.watermarking.keys import WatermarkKey
        from repro.watermarking.mark import Mark
        from repro.watermarking.ownership import OwnershipClaim

        root = tmp_path / "v"
        reader = KeyVault.init(root).claim_store()
        KeyVault(root).claim_store().add_claim(
            "d",
            OwnershipClaim(
                claimant="owner",
                registered_statistic=1.0,
                mark=Mark.from_string("1010"),
                watermark_key=WatermarkKey(k1=b"a", k2=b"b", eta=5),
                encryption_key="enc",
                copies=2,
                columns=None,
            ),
        )
        assert reader.claimants("d") == ["owner"]
