"""k-anonymity specification, bins and checks.

A *bin* is the set of records sharing the same (generalized) value
combination; the table satisfies k-anonymity when every bin holds at least
``k`` records (Section 2).  The paper distinguishes

* **mono-attribute** satisfaction — every attribute, taken alone, is
  k-anonymous (the output of Figure 5), and
* **multi-attribute** (joint) satisfaction — every combination of the binned
  attributes is k-anonymous (the goal of Figure 7).

:class:`KAnonymitySpec` captures the system parameter ``k``, the set of
quasi-identifying columns to bin, the enforcement mode and the ``k + ε``
safety margin of Section 6 that absorbs watermarking-induced bin changes.

:class:`ColumnIndex` precomputes, once per table, the per-row leaf nodes of
every quasi-identifying column so that candidate generalizations can be
checked without repeatedly re-parsing values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.binning.generalization import Generalization, MultiColumnGeneralization
from repro.dht.node import DHTNode
from repro.dht.tree import DomainHierarchyTree
from repro.relational.table import Table

__all__ = [
    "EnforcementMode",
    "KAnonymitySpec",
    "ColumnIndex",
    "bin_sizes",
    "joint_bin_sizes",
    "is_k_anonymous",
]


class EnforcementMode(enum.Enum):
    """How the k-anonymity specification is enforced across columns."""

    MONO = "mono"
    JOINT = "joint"


@dataclass(frozen=True)
class KAnonymitySpec:
    """The k-anonymity specification of Section 3.

    Parameters
    ----------
    k:
        The anonymity parameter; every bin must contain at least ``k`` rows.
    columns:
        Quasi-identifying columns to bin.  ``None`` means "every
        quasi-identifying column of the schema".
    mode:
        ``MONO`` enforces k-anonymity attribute by attribute (the
        mono-attribute step only); ``JOINT`` additionally enforces it on the
        combination of the binned attributes (the multi-attribute step).
    epsilon:
        The ``ε`` of Section 6: binning actually targets ``k + ε`` so that
        the tuple permutations introduced by watermarking cannot push any bin
        below ``k``.
    """

    k: int
    columns: tuple[str, ...] | None = None
    mode: EnforcementMode = EnforcementMode.JOINT
    epsilon: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")

    @property
    def effective_k(self) -> int:
        """The threshold binning actually enforces (``k + ε``)."""
        return self.k + self.epsilon

    def resolve_columns(self, table: Table) -> list[str]:
        """The concrete column list for *table* (defaults to its QI columns)."""
        if self.columns is not None:
            for name in self.columns:
                table.schema.column(name)
            return list(self.columns)
        return [column.name for column in table.schema.quasi_identifying_columns]

    def with_epsilon(self, epsilon: int) -> "KAnonymitySpec":
        return KAnonymitySpec(self.k, self.columns, self.mode, epsilon)


class ColumnIndex:
    """Per-column, per-row leaf resolution computed once for a table.

    Candidate generalizations are evaluated many times during binning; this
    index maps every row of every quasi-identifying column to its DHT leaf up
    front, so a candidate check reduces to dictionary lookups.
    """

    def __init__(self, table: Table, trees: Mapping[str, DomainHierarchyTree], columns: Sequence[str]) -> None:
        self._columns = list(columns)
        self._trees = {column: trees[column] for column in columns}
        self._row_leaves: dict[str, list[DHTNode]] = {}
        self._leaf_counts: dict[str, dict[DHTNode, int]] = {}
        for column in columns:
            tree = self._trees[column]
            # Leaf resolution is deterministic per value, so a per-distinct
            # memo turns the column sweep into one tree walk per bin instead
            # of one per row (column_values is a single buffer copy).
            leaf_for_raw = tree.leaf_for_raw
            memo: dict[object, DHTNode] = {}
            leaves: list[DHTNode] = []
            append = leaves.append
            for value in table.column_values(column):
                try:
                    leaf = memo.get(value)
                except TypeError:  # unhashable cell: resolve without caching
                    append(leaf_for_raw(value))
                    continue
                if leaf is None:
                    leaf = memo[value] = leaf_for_raw(value)
                append(leaf)
            self._row_leaves[column] = leaves
            counts: dict[DHTNode, int] = {leaf: 0 for leaf in tree.leaves()}
            for leaf in leaves:
                counts[leaf] += 1
            self._leaf_counts[column] = counts
        self._n_rows = len(table)

    @property
    def columns(self) -> list[str]:
        return list(self._columns)

    @property
    def n_rows(self) -> int:
        return self._n_rows

    def tree(self, column: str) -> DomainHierarchyTree:
        return self._trees[column]

    def row_leaves(self, column: str) -> list[DHTNode]:
        """The leaf node of every row for *column* (in table order)."""
        return self._row_leaves[column]

    def leaf_counts(self, column: str) -> dict[DHTNode, int]:
        """Number of rows under every leaf of *column*'s tree."""
        return dict(self._leaf_counts[column])

    def counts_by_column(self) -> dict[str, dict[DHTNode, int]]:
        return {column: dict(counts) for column, counts in self._leaf_counts.items()}

    # --------------------------------------------------------------- bin sizes
    def mono_bin_sizes(self, column: str, generalization: Generalization) -> dict[DHTNode, int]:
        """Bin sizes of one column under a candidate generalization."""
        sizes: dict[DHTNode, int] = {}
        for leaf in self._row_leaves[column]:
            node = generalization.node_for_leaf(leaf)
            sizes[node] = sizes.get(node, 0) + 1
        return sizes

    def joint_bin_sizes(self, generalization: MultiColumnGeneralization) -> dict[tuple[str, ...], int]:
        """Bin sizes of the column combination under a candidate generalization."""
        columns = [column for column in self._columns if column in generalization]
        if not columns:
            raise ValueError("generalization covers none of the indexed columns")
        per_column_nodes: list[list[DHTNode]] = []
        for column in columns:
            gen = generalization[column]
            per_column_nodes.append([gen.node_for_leaf(leaf) for leaf in self._row_leaves[column]])
        sizes: dict[tuple[str, ...], int] = {}
        for row_index in range(self._n_rows):
            key = tuple(per_column_nodes[i][row_index].name for i in range(len(columns)))
            sizes[key] = sizes.get(key, 0) + 1
        return sizes

    def satisfies_mono(self, column: str, generalization: Generalization, k: int) -> bool:
        return is_k_anonymous(self.mono_bin_sizes(column, generalization), k)

    def satisfies_joint(self, generalization: MultiColumnGeneralization, k: int) -> bool:
        return is_k_anonymous(self.joint_bin_sizes(generalization), k)

    def joint_violations(self, generalization: MultiColumnGeneralization, k: int) -> list[int]:
        """Indices of rows falling in joint bins smaller than *k*."""
        columns = [column for column in self._columns if column in generalization]
        per_column_nodes: list[list[DHTNode]] = []
        for column in columns:
            gen = generalization[column]
            per_column_nodes.append([gen.node_for_leaf(leaf) for leaf in self._row_leaves[column]])
        keys = [
            tuple(per_column_nodes[i][row_index].name for i in range(len(columns)))
            for row_index in range(self._n_rows)
        ]
        sizes: dict[tuple[str, ...], int] = {}
        for key in keys:
            sizes[key] = sizes.get(key, 0) + 1
        return [row_index for row_index, key in enumerate(keys) if sizes[key] < k]


def bin_sizes(table: Table, columns: Sequence[str]) -> dict[tuple[object, ...], int]:
    """Bin sizes of *table* grouped by the given (already binned) columns."""
    return table.group_by_count(list(columns))


def joint_bin_sizes(table: Table, columns: Sequence[str]) -> dict[tuple[object, ...], int]:
    """Alias of :func:`bin_sizes`, named for symmetry with the mono case."""
    return bin_sizes(table, columns)


def is_k_anonymous(sizes: Mapping[object, int], k: int) -> bool:
    """Whether every bin in *sizes* holds at least ``k`` records.

    An empty table (no bins) is trivially k-anonymous: there is nothing to
    re-identify.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    return all(size >= k for size in sizes.values())
