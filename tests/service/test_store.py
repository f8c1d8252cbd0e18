"""Tests for the persistent claim store (dispute re-hydration)."""

import pytest

from repro.service.store import claim_from_json, claim_to_json
from repro.service.vault import KeyVault
from repro.watermarking.keys import WatermarkKey
from repro.watermarking.mark import Mark
from repro.watermarking.ownership import OwnershipClaim


def _claim(claimant="owner", encryption_key="enc-secret", code=None):
    return OwnershipClaim(
        claimant=claimant,
        registered_statistic=496540741.525,
        mark=Mark.from_string("01011010010110100101"),
        watermark_key=WatermarkKey.from_secret("wm-secret", eta=25),
        encryption_key=encryption_key,
        copies=4,
        columns=("age", "zip_code"),
        code=code,
    )


class TestClaimSerialisation:
    def test_round_trip_str_key(self):
        claim = _claim()
        assert claim_from_json(claim_to_json(claim)) == claim

    def test_round_trip_bytes_key(self):
        claim = _claim(encryption_key=b"\x00\x01binary\xff")
        back = claim_from_json(claim_to_json(claim))
        assert back == claim and isinstance(back.encryption_key, bytes)

    def test_round_trip_none_columns(self):
        claim = OwnershipClaim(
            claimant="x",
            registered_statistic=1.5,
            mark=Mark.from_string("01"),
            watermark_key=WatermarkKey.from_secret("s", eta=10),
            encryption_key="e",
        )
        assert claim_from_json(claim_to_json(claim)) == claim

    def test_round_trip_mark_code(self):
        claim = _claim(code="interleaved")
        back = claim_from_json(claim_to_json(claim))
        assert back == claim and back.code == "interleaved"

    def test_pre_ecc_payload_defaults_to_the_seed_code(self):
        # Stores written before the coding layer have no "code" key.
        payload = claim_to_json(_claim())
        del payload["code"]
        assert claim_from_json(payload).code is None


def _store(tmp_path):
    return KeyVault.open_or_init(tmp_path / "v").claim_store()


class TestClaimStore:
    def test_cold_process_rehydration(self, tmp_path):
        _store(tmp_path).add_claim("claims-2024", _claim())
        # A fresh store instance re-reads the registry and yields equal objects.
        rehydrated = _store(tmp_path).claims("claims-2024")
        assert rehydrated == [_claim()]

    def test_rivals_accumulate_per_dataset(self, tmp_path):
        store = _store(tmp_path)
        store.add_claim("d", _claim("owner"))
        store.add_claim("d", _claim("mallory", encryption_key="wrong"))
        assert store.claimants("d") == ["owner", "mallory"]
        assert store.datasets() == ["d"]

    def test_same_claimant_replaces(self, tmp_path):
        store = _store(tmp_path)
        store.add_claim("d", _claim("owner"))
        store.add_claim("d", _claim("owner"))
        assert store.claimants("d") == ["owner"]

    def test_remove_claim(self, tmp_path):
        store = _store(tmp_path)
        store.add_claim("d", _claim("owner"))
        assert store.remove_claim("d", "owner") is True
        assert store.remove_claim("d", "owner") is False
        assert store.datasets() == []

    def test_empty_dataset_has_no_claims(self, tmp_path):
        assert _store(tmp_path).claims("nope") == []
