"""Subset Addition attack (Section 7.2, Figure 12b).

The attacker mixes bogus tuples into the watermarked table.  No existing bit
is erased, but some of the new tuples satisfy the keyed selection criterion of
Equation (5) by chance and therefore cast spurious votes during detection,
hoping to outvote the genuine bits.  The paper notes that if the added data
outnumber the original, the bogus bits would eventually dominate the majority
vote — the benchmark sweeps the addition ratio to expose exactly that trend.
"""

from __future__ import annotations

from repro.attacks.base import AttackResult
from repro.binning.binner import BinnedTable
from repro.crypto.prng import DeterministicPRNG

__all__ = ["SubsetAdditionAttack"]


class SubsetAdditionAttack:
    """Add a fraction of bogus tuples to the table."""

    def __init__(self, fraction: float, *, seed: object = 0) -> None:
        """
        Parameters
        ----------
        fraction:
            Number of bogus tuples to add, as a fraction of the current table
            size (the x-axis of Figure 12b).
        seed:
            Seed of the attacker's randomness.
        """
        if fraction < 0.0:
            raise ValueError("fraction must be non-negative")
        self.fraction = fraction
        self.seed = seed

    def _bogus_identifier(self, rng: DeterministicPRNG, template: str) -> str:
        """A bogus encrypted-identifier token shaped like the existing ones."""
        return "".join(rng.choice("0123456789abcdef") for _ in range(max(16, len(template))))

    def run(self, binned: BinnedTable) -> AttackResult:
        rng = DeterministicPRNG(("subset-addition", self.seed, self.fraction))
        # Addition never touches existing rows, so sharing them is free.
        attacked = binned.lazy_copy()
        n_new = int(round(len(attacked.table) * self.fraction))
        if len(attacked.table) == 0:
            return AttackResult(attacked, 0, "subset addition on an empty table")

        columns = attacked.quasi_columns
        candidate_values = {
            column: [node.value for node in attacked.ultimate_node_objects(column)] for column in columns
        }
        template_row = attacked.table[0]
        ident_columns = attacked.identifying_columns
        other_columns = [
            name
            for name in attacked.table.schema.column_names
            if name not in columns and name not in ident_columns
        ]
        # Generate the bogus rows first (keeping the PRNG draw order), then
        # bulk-insert: one copy-on-write check and straight column appends.
        template = {column: template_row[column] for column in other_columns}
        bogus_rows: list[dict[str, object]] = []
        for _ in range(n_new):
            row: dict[str, object] = {}
            for column in ident_columns:
                row[column] = self._bogus_identifier(rng, str(template_row[column]))
            for column in columns:
                row[column] = rng.choice(candidate_values[column])
            row.update(template)
            bogus_rows.append(row)
        attacked.table.insert_many(bogus_rows)
        return AttackResult(
            attacked=attacked,
            rows_touched=n_new,
            description=f"subset addition of {self.fraction:.0%} bogus tuples",
            details={"added": n_new},
        )
