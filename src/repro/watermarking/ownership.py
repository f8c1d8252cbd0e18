"""Rightful-ownership protocol (Section 5.4).

Surviving mark-removal attacks is necessary but not sufficient to establish
ownership: an attacker can *add* their own mark to the watermarked table
(Attack 1) or *subtract* a bogus mark to fabricate a bogus "original"
(Attack 2).  The multimedia literature solves this only when the mark is a
one-way function of the original data and the original is available in court.

The binned table offers an elegant shortcut: its identifying columns are
encrypted, so only the true owner can produce their clear-text.  The owner's
mark is therefore fixed to ``F(v)`` where ``v`` is a statistic (the mean) of
the clear-text identifiers and ``F`` a one-way function.  In a dispute the
claimed owner must

1. present the registered statistic ``v``,
2. decrypt the identifying column of the disputed table and recompute the
   statistic ``v'``; the claim is valid only if ``|v - v'| < τ`` (the table
   may have lost or gained tuples under attack, hence a tolerance rather than
   equality),
3. show that the mark extracted from the disputed table matches ``F(v)``.

An attacker fails step 2 (they cannot decrypt) and cannot fabricate data whose
statistic maps through ``F`` onto a mark already present (one-wayness), so
both classic attacks are defeated without hauling the entire original table
into court.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.binning.binner import BinnedTable
from repro.crypto.cipher import FieldEncryptor
from repro.watermarking.hierarchical import HierarchicalWatermarker
from repro.watermarking.keys import WatermarkKey
from repro.watermarking.mark import Mark

__all__ = ["OwnershipClaim", "DisputeVerdict", "identifier_statistic", "OwnershipRegistry"]


def identifier_statistic(clear_identifiers: Sequence[object]) -> float:
    """The statistic ``v``: the mean of the clear-text identifiers as numbers.

    Identifiers that are not purely numeric strings contribute nothing; if no
    identifier is numeric the statistic is undefined and a ``ValueError`` is
    raised — which is exactly what happens when a false claimant "decrypts"
    the column with the wrong key and obtains garbage.
    """
    values: list[float] = []
    for identifier in clear_identifiers:
        text = str(identifier)
        if text.isdigit():
            values.append(float(int(text)))
    if not values:
        raise ValueError("no numeric identifiers: cannot compute the ownership statistic")
    return sum(values) / len(values)


@dataclass(frozen=True)
class OwnershipClaim:
    """What a claimant brings to the dispute."""

    claimant: str
    registered_statistic: float
    mark: Mark
    watermark_key: WatermarkKey
    encryption_key: bytes | str
    copies: int = 4
    columns: tuple[str, ...] | None = None
    code: str | None = None


@dataclass(frozen=True)
class ClaimAssessment:
    """Outcome of evaluating a single claim."""

    claimant: str
    decryption_ok: bool
    statistic_ok: bool
    mark_matches: bool
    recomputed_statistic: float | None
    mark_bit_errors: int | None

    @property
    def valid(self) -> bool:
        return self.decryption_ok and self.statistic_ok and self.mark_matches


@dataclass(frozen=True)
class DisputeVerdict:
    """Outcome of a dispute over one table."""

    assessments: tuple[ClaimAssessment, ...]

    @property
    def valid_claimants(self) -> list[str]:
        return [assessment.claimant for assessment in self.assessments if assessment.valid]

    @property
    def winner(self) -> str | None:
        """The single valid claimant, or ``None`` if zero or several claims hold."""
        valid = self.valid_claimants
        return valid[0] if len(valid) == 1 else None


class OwnershipRegistry:
    """Registers owner marks and resolves disputes (Section 5.4)."""

    def __init__(
        self,
        *,
        mark_length: int = 20,
        tau: float = 1e7,
        max_bit_errors: int = 2,
        statistic_precision: float = 1e6,
    ) -> None:
        """
        Parameters
        ----------
        mark_length:
            Length of owner marks in bits.
        tau:
            Tolerance ``τ`` on the statistic comparison ``|v - v'| < τ``.
            Deleted or added tuples shift the mean slightly; the default
            tolerates heavy attacks on nine-digit identifiers while still
            rejecting unrelated data.
        max_bit_errors:
            Maximum Hamming distance between the extracted mark and ``F(v)``
            for the mark check to pass.
        statistic_precision:
            Quantisation applied to the statistic before hashing (so the
            owner-side recomputation lands on the same mark, see
            :meth:`repro.watermarking.mark.Mark.from_statistic`).
        """
        if mark_length < 1:
            raise ValueError("mark_length must be at least 1")
        if tau <= 0:
            raise ValueError("tau must be positive")
        if max_bit_errors < 0:
            raise ValueError("max_bit_errors must be non-negative")
        self._mark_length = mark_length
        self._tau = tau
        self._max_bit_errors = max_bit_errors
        self._precision = statistic_precision

    @property
    def mark_length(self) -> int:
        return self._mark_length

    # ------------------------------------------------------------ registration
    def derive_mark(self, clear_identifiers: Sequence[object]) -> tuple[float, Mark]:
        """Owner-side: compute the statistic ``v`` and the mark ``F(v)``."""
        statistic = identifier_statistic(clear_identifiers)
        return statistic, self.mark_for_statistic(statistic)

    def mark_for_statistic(self, statistic: float) -> Mark:
        """``F(v)`` for an already-computed statistic (vault re-hydration path)."""
        return Mark.from_statistic(statistic, self._mark_length, precision=self._precision)

    # ---------------------------------------------------------------- disputes
    def assess_claim(self, disputed: BinnedTable, claim: OwnershipClaim) -> ClaimAssessment:
        """Evaluate one claim against the disputed table."""
        encryptor = FieldEncryptor(claim.encryption_key)
        table = disputed.table
        columns = [table.column_values(name) for name in disputed.identifying_columns]
        # Row-major, as the rows are read: the statistic's float sum adds the
        # identifiers in this order.
        tokens = [str(value) for row in zip(*columns) for value in row]
        recomputed: float | None = None
        statistic_ok = False
        try:
            # One undecryptable token already fails the claim and discards
            # everything decrypted, so the sweep stops at the first one.  A
            # column that decrypts to no numeric identifier fails it too.
            recomputed = identifier_statistic(encryptor.decrypt_many(tokens))
        except (ValueError, UnicodeDecodeError):
            decryption_ok = False
        else:
            decryption_ok = True
            statistic_ok = abs(recomputed - claim.registered_statistic) < self._tau

        expected = Mark.from_statistic(
            claim.registered_statistic, self._mark_length, precision=self._precision
        )
        watermarker = HierarchicalWatermarker(
            claim.watermark_key, columns=claim.columns, copies=claim.copies, code=claim.code
        )
        detected = watermarker.detect(disputed, self._mark_length)
        bit_errors = detected.mark.hamming_distance(expected)
        mark_matches = bit_errors <= self._max_bit_errors and claim.mark.bits == expected.bits

        return ClaimAssessment(
            claimant=claim.claimant,
            decryption_ok=decryption_ok,
            statistic_ok=statistic_ok,
            mark_matches=mark_matches,
            recomputed_statistic=recomputed,
            mark_bit_errors=bit_errors,
        )

    def resolve_dispute(self, disputed: BinnedTable, claims: Sequence[OwnershipClaim]) -> DisputeVerdict:
        """Assess every claim and return the verdict."""
        if not claims:
            raise ValueError("at least one claim is required")
        return DisputeVerdict(tuple(self.assess_claim(disputed, claim) for claim in claims))
