"""The batched dispute against the row-wise oracle in ``tests/oracles``.

``OwnershipRegistry.assess_claim`` decrypts the identifying columns in one
``decrypt_many`` sweep that stops at the first bad token, and
``ProtectionService.dispute`` loads suspects columnar.  Every
:class:`ClaimAssessment` field must match the row-wise oracle, with
``recomputed_statistic`` bit-identical.
"""

from dataclasses import replace

import pytest

from oracles import dispute as oracle
from repro.attacks.addition import SubsetAdditionAttack
from repro.attacks.alteration import SubsetAlterationAttack
from repro.attacks.deletion import SubsetDeletionAttack
from repro.attacks.ownership_attacks import AdditiveMarkAttack
from repro.crypto.cipher import FieldEncryptor
from repro.relational.columnar import ColumnarTable
from repro.relational.schema import Column, ColumnKind, ColumnType
from repro.relational.table import Table
from repro.watermarking.ownership import identifier_statistic

TABLE_TYPES = [pytest.param(Table, id="row-store"), pytest.param(ColumnarTable, id="columnar")]


def assert_same_verdict(actual, expected):
    assert actual == expected
    # repr spells every float exactly, so this pins the statistic's bits.
    assert repr(actual) == repr(expected)


def rebuilt(binned, table_cls, schema=None, edit=None):
    """*binned* over a fresh *table_cls* copy of its rows, optionally edited."""
    rows = [dict(row) for row in binned.table]
    if edit is not None:
        edit(rows)
    return replace(binned, table=table_cls(schema or binned.table.schema, rows))


@pytest.fixture(scope="module")
def owner_claim(protection_framework):
    return protection_framework.owner_claim("hospital")


@pytest.fixture(scope="module")
def registry(protection_framework):
    return protection_framework.registry


def assert_matches_oracle(registry, disputed, claims):
    verdict = registry.resolve_dispute(disputed, claims)
    assert_same_verdict(verdict, oracle.resolve_dispute(registry, disputed, claims))
    return verdict


@pytest.mark.parametrize("table_cls", TABLE_TYPES)
class TestAssessClaimMatchesOracle:
    def test_owner_claim(self, table_cls, registry, owner_claim, protected_small):
        disputed = rebuilt(protected_small.watermarked, table_cls)
        verdict = assert_matches_oracle(registry, disputed, [owner_claim])
        assert verdict.winner == "hospital"

    def test_wrong_encryption_key(self, table_cls, registry, owner_claim, protected_small):
        disputed = rebuilt(protected_small.watermarked, table_cls)
        mallory = replace(owner_claim, claimant="mallory", encryption_key="not-the-key")
        verdict = assert_matches_oracle(registry, disputed, [owner_claim, mallory])
        assert verdict.assessments[1].decryption_ok is False
        assert verdict.assessments[1].recomputed_statistic is None

    def test_fabricated_statistic(self, table_cls, registry, owner_claim, protected_small):
        disputed = rebuilt(protected_small.watermarked, table_cls)
        fabricated = replace(
            owner_claim,
            claimant="forger",
            registered_statistic=owner_claim.registered_statistic + 5e7,
        )
        verdict = assert_matches_oracle(registry, disputed, [fabricated])
        assert verdict.assessments[0].decryption_ok is True
        assert verdict.assessments[0].statistic_ok is False

    @pytest.mark.parametrize(
        "spoil",
        [
            pytest.param(lambda token: "zz" * 8, id="not-hex"),
            pytest.param(str.upper, id="uppercase-respelling"),
        ],
    )
    def test_one_undecryptable_token(self, table_cls, spoil, registry, owner_claim, protected_small):
        def edit(rows):
            middle = rows[len(rows) // 2]
            middle["ssn"] = spoil(middle["ssn"])

        disputed = rebuilt(protected_small.watermarked, table_cls, edit=edit)
        verdict = assert_matches_oracle(registry, disputed, [owner_claim])
        assert verdict.assessments[0].decryption_ok is False

    def test_two_identifying_columns(self, table_cls, registry, owner_claim, protected_small):
        # A second identifying column of 18-digit numbers: their float sum
        # rounds differently in column-major order, so only the row-major
        # sweep reproduces the oracle's statistic bit for bit.
        encryptor = FieldEncryptor("test-encryption-key")
        binned = protected_small.watermarked
        schema = binned.table.schema.with_column(
            Column("mrn", ColumnKind.IDENTIFYING, ColumnType.CATEGORICAL, "medical record number")
        )
        numbers = [str(10**17 + 7919 * index * index) for index in range(len(binned.table))]
        tokens = encryptor.encrypt_many(numbers)

        def edit(rows):
            for row, token in zip(rows, tokens):
                row["mrn"] = token

        disputed = replace(
            rebuilt(binned, table_cls, schema=schema, edit=edit), identifying_columns=("ssn", "mrn")
        )
        ssns = [encryptor.decrypt(token) for token in disputed.table.column_values("ssn")]
        row_major = [value for pair in zip(ssns, numbers) for value in pair]
        statistic = identifier_statistic(row_major)
        assert statistic != identifier_statistic(ssns + numbers)  # the case discriminates
        claim = replace(
            owner_claim,
            registered_statistic=statistic,
            mark=registry.mark_for_statistic(statistic),
        )
        verdict = assert_matches_oracle(registry, disputed, [claim])
        assert verdict.assessments[0].recomputed_statistic == statistic


class TestServiceDisputeMatchesOracle:
    """``service.dispute`` (columnar load, batched sweep) on scenario tables."""

    @pytest.fixture(scope="class")
    def scenario(self, tmp_path_factory):
        from repro.datagen.medical import generate_medical_table
        from repro.service import KeyVault, ProtectionService
        from repro.service.api import suspect_view

        root = tmp_path_factory.mktemp("dispute-oracle")
        raw = str(root / "raw.csv")
        generate_medical_table(size=1200, seed=71).to_csv(raw)
        service = ProtectionService(KeyVault.init(str(root / "vault")))
        outputs = {}
        for tenant in ("alice", "bob"):
            service.register_tenant(tenant, k=10, eta=20, epsilon=5)
            outputs[tenant] = str(root / f"{tenant}.csv")
            service.protect(tenant, raw, outputs[tenant], dataset_id=f"claims-{tenant}")
        record = service.vault.tenant("alice")
        protected = suspect_view(
            ColumnarTable.from_csv(outputs["alice"], service.schema),
            service.trees,
            service.schema,
            k=record.k,
            metrics_depth=record.metrics_depth,
        )
        rival = AdditiveMarkAttack(attacker="mallory", seed=5, eta=20).run(protected)
        service.register_claim("claims-alice", rival.attacker_claim)

        stage1 = SubsetAlterationAttack(0.2, seed=101).run(protected).attacked
        stage2 = SubsetDeletionAttack(0.2, seed=102).run(stage1).attacked
        tables = {
            "additive-mark": rival.attack.attacked,
            "altered-deleted": stage2,
            "mixed-pipeline": SubsetAdditionAttack(0.25, seed=103).run(stage2).attacked,
            "delta-alone": protected.slice(600, 1200),
        }
        paths = {"clean": outputs["alice"], "other-tenant": outputs["bob"]}
        for name, binned in tables.items():
            paths[name] = str(root / f"{name}.csv")
            binned.table.to_csv(paths[name])
        return service, paths

    @pytest.mark.parametrize(
        "name, winner",
        [
            ("clean", "alice"),
            ("additive-mark", "alice"),
            ("altered-deleted", "alice"),
            # Bogus rows carry random tokens, so the owner cannot decrypt either.
            ("mixed-pipeline", None),
            ("delta-alone", "alice"),
            ("other-tenant", None),
        ],
    )
    def test_verdict_matches_oracle(self, scenario, name, winner):
        service, paths = scenario
        verdict = service.dispute("alice", paths[name], dataset_id="claims-alice")
        expected = oracle.service_dispute(service, "alice", paths[name], "claims-alice")
        assert_same_verdict(verdict, expected)
        assert [assessment.claimant for assessment in verdict.assessments] == ["alice", "mallory"]
        assert verdict.assessments[1].decryption_ok is False
        assert verdict.winner == winner
