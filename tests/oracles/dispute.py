"""Row-wise dispute oracle: Section 5.4's claim assessment, one token at a time.

This is the claim assessment as it was before the batched sweep: rows are
read from the table one by one, each identifying cell is decrypted with the
scalar :meth:`FieldEncryptor.decrypt`, every token is tried even after one
fails, and suspect CSVs are loaded through the row store.  The batched
:meth:`OwnershipRegistry.assess_claim` and :meth:`ProtectionService.dispute`
must agree with it field for field.
"""

from __future__ import annotations

from typing import Sequence

from repro.binning.binner import BinnedTable
from repro.crypto.cipher import FieldEncryptor
from repro.relational.table import Table
from repro.service.api import ProtectionService, suspect_view
from repro.service.streaming import iter_rows
from repro.watermarking.hierarchical import HierarchicalWatermarker
from repro.watermarking.mark import Mark
from repro.watermarking.ownership import (
    ClaimAssessment,
    DisputeVerdict,
    OwnershipClaim,
    OwnershipRegistry,
    identifier_statistic,
)

__all__ = ["assess_claim", "resolve_dispute", "service_dispute"]


def assess_claim(
    registry: OwnershipRegistry, disputed: BinnedTable, claim: OwnershipClaim
) -> ClaimAssessment:
    """Evaluate one claim row by row under *registry*'s parameters."""
    encryptor = FieldEncryptor(claim.encryption_key)
    clear: list[str] = []
    decryption_ok = True
    for row in disputed.table:
        for column in disputed.identifying_columns:
            try:
                clear.append(encryptor.decrypt(str(row[column])))
            except (ValueError, UnicodeDecodeError):
                decryption_ok = False
    recomputed: float | None = None
    statistic_ok = False
    if decryption_ok:
        try:
            recomputed = identifier_statistic(clear)
            statistic_ok = abs(recomputed - claim.registered_statistic) < registry._tau
        except ValueError:
            decryption_ok = False

    expected = Mark.from_statistic(
        claim.registered_statistic, registry.mark_length, precision=registry._precision
    )
    watermarker = HierarchicalWatermarker(
        claim.watermark_key, columns=claim.columns, copies=claim.copies, code=claim.code
    )
    detected = watermarker.detect(disputed, registry.mark_length)
    bit_errors = detected.mark.hamming_distance(expected)
    mark_matches = bit_errors <= registry._max_bit_errors and claim.mark.bits == expected.bits

    return ClaimAssessment(
        claimant=claim.claimant,
        decryption_ok=decryption_ok,
        statistic_ok=statistic_ok,
        mark_matches=mark_matches,
        recomputed_statistic=recomputed,
        mark_bit_errors=bit_errors,
    )


def resolve_dispute(
    registry: OwnershipRegistry, disputed: BinnedTable, claims: Sequence[OwnershipClaim]
) -> DisputeVerdict:
    """Assess every claim with :func:`assess_claim`."""
    return DisputeVerdict(tuple(assess_claim(registry, disputed, claim) for claim in claims))


def service_dispute(
    service: ProtectionService, tenant_id: str, disputed_csv: str, dataset_id: str
) -> DisputeVerdict:
    """:meth:`ProtectionService.dispute` over a row-store load, without the audit record."""
    record = service.vault.tenant(tenant_id)
    registry = service.framework_for(tenant_id).registry
    table = Table(service.schema, iter_rows(disputed_csv, service.schema))
    binned = suspect_view(
        table, service.trees, service.schema, k=record.k, metrics_depth=record.metrics_depth
    )
    return resolve_dispute(registry, binned, service.claim_store.claims(dataset_id))
