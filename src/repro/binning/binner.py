"""The complete binning agent (Figure 8 of the paper).

``Binning(tbl, ultigen)`` does two things to every tuple:

1. the identifying columns are replaced one-to-one by their encryption
   ``E(value)`` — the data stay traceable to the holder (who owns the key)
   and give the watermarking algorithm a stable, secret selection handle, and
2. the quasi-identifying columns are replaced by the value of their ultimate
   generalization node.

The :class:`BinningAgent` wires together the usage metrics (maximal
generalization nodes), mono-attribute binning (minimal generalization nodes),
multi-attribute binning (ultimate generalization nodes) and the final table
rewriting, and returns a :class:`BinningResult` carrying the
:class:`BinnedTable` plus the information-loss bookkeeping the experiments
report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.binning.generalization import Generalization, MultiColumnGeneralization
from repro.binning.kanonymity import ColumnIndex, EnforcementMode, KAnonymitySpec
from repro.binning.mono import gen_min_nodes
from repro.binning.multi import DEFAULT_ENUMERATION_BUDGET, gen_ultimate_nodes
from repro.crypto.cipher import FieldEncryptor
from repro.dht.node import DHTNode
from repro.dht.tree import DomainHierarchyTree
from repro.metrics.information_loss import table_information_loss
from repro.metrics.usage_metrics import UsageMetrics
from repro.relational.table import Row, Table, TypedColumn
from repro.telemetry.trace import span as _stage_span

__all__ = [
    "BinnedTable",
    "BinningResult",
    "BinningAgent",
    "BinPlan",
    "rewrite_table",
]


_MISSING = object()


def rewrite_table(
    table: Table,
    schema,
    encryptor: FieldEncryptor,
    ultimate: MultiColumnGeneralization,
) -> Table:
    """``Binning(tbl, ultigen)`` over a whole table, column at a time.

    Each identifying column goes through :meth:`FieldEncryptor.encrypt_many`
    in one sweep, each generalised column is rewritten with a
    per-distinct-value memo (a bin by construction maps many raw values to
    one node value), and untouched columns are copied wholesale.  The one
    rewrite for both the in-process :meth:`BinningAgent.bin` and the protect
    pool workers (:func:`repro.service.runners.protect_raw_chunk`), which is
    what keeps a runner-parallel protect byte-identical to the serial path.
    The input table is never mutated.
    """
    names = schema.column_names
    source = table.column_sequences(names)
    identifying = {column.name for column in schema.identifying_columns}
    columns: dict[str, object] = {}
    with _stage_span("protect.encrypt_generalize", rows=len(table)):
        for name in names:
            values = source[name]
            if name in identifying:
                columns[name] = encryptor.encrypt_many(values)
            elif name in ultimate:
                generalize = ultimate[name].generalize
                memo: dict[object, object] = {}
                get = memo.get
                generalized: list[object] = []
                append = generalized.append
                for value in values:
                    try:
                        result = get(value, _MISSING)
                    except TypeError:  # unhashable cell: generalize without caching
                        append(generalize(value))
                        continue
                    if result is _MISSING:
                        result = memo[value] = generalize(value)
                    append(result)
                columns[name] = generalized
            else:
                columns[name] = TypedColumn.from_values(list(values))
        return Table.from_columns(schema, columns)


@dataclass
class BinnedTable:
    """A binned table plus the metadata the watermarking agent needs.

    The watermarking algorithm (Figure 9) takes, besides the table itself, the
    domain hierarchy trees, the maximal generalization nodes and the ultimate
    generalization nodes; they are all carried here so the two agents can be
    composed without re-deriving anything.
    """

    table: Table
    trees: dict[str, DomainHierarchyTree]
    identifying_columns: tuple[str, ...]
    quasi_columns: tuple[str, ...]
    ultimate_nodes: dict[str, tuple[str, ...]]
    maximal_nodes: dict[str, tuple[str, ...]]
    minimal_nodes: dict[str, tuple[str, ...]] = field(default_factory=dict)
    k: int = 1

    # ------------------------------------------------------------ conveniences
    def tree(self, column: str) -> DomainHierarchyTree:
        try:
            return self.trees[column]
        except KeyError:
            raise KeyError(f"no domain hierarchy tree for column {column!r}") from None

    def ultimate_generalization(self, column: str) -> Generalization:
        """The column's ultimate generalization as a :class:`Generalization`."""
        return Generalization.from_node_names(self.tree(column), self.ultimate_nodes[column])

    def maximal_generalization(self, column: str) -> Generalization:
        return Generalization.from_node_names(self.tree(column), self.maximal_nodes[column])

    def ultimate_generalizations(self) -> MultiColumnGeneralization:
        return MultiColumnGeneralization(
            {column: self.ultimate_generalization(column) for column in self.quasi_columns}
        )

    def ultimate_node_objects(self, column: str) -> list[DHTNode]:
        tree = self.tree(column)
        return [tree.node(name) for name in self.ultimate_nodes[column]]

    def maximal_node_objects(self, column: str) -> list[DHTNode]:
        tree = self.tree(column)
        return [tree.node(name) for name in self.maximal_nodes[column]]

    def ident_value(self, row: Row) -> object:
        """The (encrypted) identifying value of *row* used by Equation (5).

        With a single identifying column the value itself is returned, with
        several a tuple of them.
        """
        values = tuple(row[column] for column in self.identifying_columns)
        return values[0] if len(values) == 1 else values

    def ident_values(self) -> list[object]:
        """:meth:`ident_value` for every row, in one bulk projection.

        The batched embed/detect sweeps feed this list straight into
        :meth:`repro.crypto.batch.WatermarkHashEngine.tuple_coordinates`.
        """
        if not self.identifying_columns:
            return [self.ident_value(row) for row in self.table]
        columns = self.table.column_sequences(self.identifying_columns)
        if len(self.identifying_columns) == 1:
            return list(columns[self.identifying_columns[0]])
        return list(zip(*(columns[name] for name in self.identifying_columns)))

    # ------------------------------------------------------------------- bins
    def bin_sizes(self, column: str) -> dict[object, int]:
        """Per-attribute bin sizes (one bin per distinct generalized value)."""
        return self.table.value_counts(column)

    def joint_bin_sizes(self) -> dict[tuple[object, ...], int]:
        """Bin sizes over the combination of all binned columns."""
        return self.table.group_by_count(list(self.quasi_columns))

    def lazy_copy(self) -> "BinnedTable":
        """Copy-on-write copy: the column store is shared until actually mutated.

        The attack simulators and the embedder mutate only a fraction of the
        rows (one in ``η`` for embedding), so sharing the rest keeps the
        pipelines O(rows touched) instead of O(table size).  Mutations must go
        through :meth:`repro.relational.table.Table.mutable_row`.
        """
        return BinnedTable(
            table=self.table.lazy_copy(),
            trees=self.trees,
            identifying_columns=self.identifying_columns,
            quasi_columns=self.quasi_columns,
            ultimate_nodes=dict(self.ultimate_nodes),
            maximal_nodes=dict(self.maximal_nodes),
            minimal_nodes=dict(self.minimal_nodes),
            k=self.k,
        )

    def slice(self, start: int, stop: int) -> "BinnedTable":
        """A shard over rows ``[start, stop)`` sharing the metadata.

        The row shards the shard-parallel executor distributes: the underlying
        :meth:`Table.slice_view` holds the shard's own column slices, and the
        frontier metadata (trees, ultimate/maximal nodes) is identical by
        construction, so a detect over the shard reads exactly the votes the
        serial detect reads for those rows.
        """
        return BinnedTable(
            table=self.table.slice_view(start, stop),
            trees=self.trees,
            identifying_columns=self.identifying_columns,
            quasi_columns=self.quasi_columns,
            ultimate_nodes=dict(self.ultimate_nodes),
            maximal_nodes=dict(self.maximal_nodes),
            minimal_nodes=dict(self.minimal_nodes),
            k=self.k,
        )

    def copy(self) -> "BinnedTable":
        """Deep copy (attacks mutate the table; the metadata is shared)."""
        return BinnedTable(
            table=self.table.copy(),
            trees=self.trees,
            identifying_columns=self.identifying_columns,
            quasi_columns=self.quasi_columns,
            ultimate_nodes=dict(self.ultimate_nodes),
            maximal_nodes=dict(self.maximal_nodes),
            minimal_nodes=dict(self.minimal_nodes),
            k=self.k,
        )


@dataclass(frozen=True)
class BinPlan:
    """The generalizations binning will apply, derived from per-leaf counts.

    A plan separates the *global* half of binning (frontier derivation, which
    needs only per-column leaf counts) from the *per-row* half (encrypt +
    generalise, which is embarrassingly streamable).  The service's streaming
    ingest computes the counts in a first constant-memory pass, builds one
    plan, then rewrites and embeds chunk by chunk in a second pass.
    """

    columns: tuple[str, ...]
    ultimate: MultiColumnGeneralization
    maximal: dict[str, tuple[str, ...]]
    minimal: dict[str, tuple[str, ...]]
    k: int

    def metadata_for(self, trees: Mapping[str, DomainHierarchyTree]) -> dict[str, object]:
        """The :class:`BinnedTable` metadata fields this plan determines."""
        return {
            "trees": {column: trees[column] for column in self.columns},
            "quasi_columns": self.columns,
            "ultimate_nodes": {column: self.ultimate[column].node_names for column in self.columns},
            "maximal_nodes": dict(self.maximal),
            "minimal_nodes": dict(self.minimal),
            "k": self.k,
        }


@dataclass(frozen=True)
class BinningResult:
    """Output of :meth:`BinningAgent.bin`."""

    binned: BinnedTable
    information_losses: dict[str, float]
    normalized_information_loss: float
    mono_information_losses: dict[str, float]
    mono_normalized_information_loss: float
    satisfied: bool
    used_fallback: bool
    candidates_examined: int


class BinningAgent:
    """Drives binning end to end (the left half of Figure 2)."""

    def __init__(
        self,
        trees: Mapping[str, DomainHierarchyTree],
        usage_metrics: UsageMetrics,
        k_spec: KAnonymitySpec,
        encryption_key: bytes | str,
        *,
        enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
    ) -> None:
        self._trees = dict(trees)
        self._usage_metrics = usage_metrics
        self._k_spec = k_spec
        self._encryptor = FieldEncryptor(encryption_key)
        self._enumeration_budget = enumeration_budget

    @property
    def k_spec(self) -> KAnonymitySpec:
        return self._k_spec

    @property
    def usage_metrics(self) -> UsageMetrics:
        return self._usage_metrics

    # -------------------------------------------------------------------- API
    def bin(self, table: Table) -> BinningResult:
        """Bin *table* per the k-anonymity specification and usage metrics."""
        columns = self._k_spec.resolve_columns(table)
        missing = [column for column in columns if column not in self._trees]
        if missing:
            raise KeyError(f"no domain hierarchy tree for columns {missing}")
        trees = {column: self._trees[column] for column in columns}
        index = ColumnIndex(table, trees, columns)
        k = self._k_spec.effective_k

        maximal = {
            column: self._usage_metrics.maximal_nodes(column, trees[column], index.leaf_counts(column))
            for column in columns
        }
        minimal = {
            column: gen_min_nodes(trees[column], maximal[column], index.leaf_counts(column), k)
            for column in columns
        }
        mono_generalization = MultiColumnGeneralization(
            {column: Generalization(trees[column], minimal[column]) for column in columns}
        )

        if self._k_spec.mode is EnforcementMode.MONO:
            ultimate = mono_generalization
            satisfied = True
            used_fallback = False
            candidates = 0
        else:
            outcome = gen_ultimate_nodes(
                index,
                trees,
                minimal,
                maximal,
                k,
                enumeration_budget=self._enumeration_budget,
            )
            ultimate = outcome.generalization
            satisfied = outcome.satisfied
            used_fallback = outcome.used_fallback
            candidates = outcome.candidates_examined

        counts_by_column = index.counts_by_column()
        losses = ultimate.information_losses(counts_by_column)
        mono_losses = mono_generalization.information_losses(counts_by_column)

        binned_table = self._rewrite(table, ultimate)
        binned = BinnedTable(
            table=binned_table,
            trees=trees,
            identifying_columns=tuple(column.name for column in table.schema.identifying_columns),
            quasi_columns=tuple(columns),
            ultimate_nodes={column: ultimate[column].node_names for column in columns},
            maximal_nodes={column: tuple(node.name for node in maximal[column]) for column in columns},
            minimal_nodes={column: tuple(node.name for node in minimal[column]) for column in columns},
            k=self._k_spec.k,
        )
        return BinningResult(
            binned=binned,
            information_losses=losses,
            normalized_information_loss=table_information_loss(losses),
            mono_information_losses=mono_losses,
            mono_normalized_information_loss=table_information_loss(mono_losses),
            satisfied=satisfied,
            used_fallback=used_fallback,
            candidates_examined=candidates,
        )

    # -------------------------------------------------------- streaming halves
    def plan_from_counts(
        self,
        leaf_counts: Mapping[str, Mapping[DHTNode, int]],
        columns: Sequence[str] | None = None,
    ) -> BinPlan:
        """Derive the binning plan from per-column leaf counts alone.

        This is the global half of :meth:`bin` for mono-attribute enforcement:
        the maximal frontier comes from the usage metrics, the minimal (and,
        in MONO mode, ultimate) frontier from ``GenMinNd`` — both consume only
        the per-leaf row counts, which a streaming ingest can accumulate
        without holding the table.  Joint enforcement needs the full row-level
        :class:`~repro.binning.kanonymity.ColumnIndex` and is rejected here.
        """
        if self._k_spec.mode is not EnforcementMode.MONO:
            raise ValueError("plan_from_counts supports mono-attribute enforcement only")
        resolved = tuple(columns) if columns is not None else tuple(leaf_counts)
        missing = [column for column in resolved if column not in self._trees]
        if missing:
            raise KeyError(f"no domain hierarchy tree for columns {missing}")
        k = self._k_spec.effective_k
        maximal: dict[str, list[DHTNode]] = {}
        minimal: dict[str, list[DHTNode]] = {}
        for column in resolved:
            tree = self._trees[column]
            counts = dict(leaf_counts[column])
            maximal[column] = self._usage_metrics.maximal_nodes(column, tree, counts)
            minimal[column] = gen_min_nodes(tree, maximal[column], counts, k)
        ultimate = MultiColumnGeneralization(
            {column: Generalization(self._trees[column], minimal[column]) for column in resolved}
        )
        return BinPlan(
            columns=resolved,
            ultimate=ultimate,
            maximal={column: tuple(node.name for node in maximal[column]) for column in resolved},
            minimal={column: tuple(node.name for node in minimal[column]) for column in resolved},
            k=self._k_spec.k,
        )

    # --------------------------------------------------------------- internals
    def _rewrite(self, table: Table, ultimate: MultiColumnGeneralization) -> Table:
        """``Binning(tbl, ultigen)`` of Figure 8: encrypt + generalise each tuple.

        Delegates to :func:`rewrite_table`: column by column, with batched
        encryption and memoised generalisation.
        """
        return rewrite_table(table, table.schema, self._encryptor, ultimate)

    def decrypt_identifier(self, token: str) -> str:
        """Decrypt an identifying-column token (owner-side, for dispute resolution)."""
        return self._encryptor.decrypt(token)
