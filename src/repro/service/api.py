"""The :class:`ProtectionService` facade: protect, detect, dispute — durably.

This is the operable surface over the paper's two agents.  Where
:class:`~repro.framework.pipeline.ProtectionFramework` assumes one in-memory
table and one process lifetime, the service assumes the owner's real world:
many tenants, many datasets, CSV files too big to materialise, and a *cold*
process at detection/dispute time that holds nothing but the vault path.

Protect is two streaming passes (Section 4's binning needs two global
aggregates — per-leaf counts for the frontiers and the identifier statistic
``v`` — everything else is per-row); detect is one streaming pass whose
per-chunk votes merge bit-identically to a serial detect.  Both write their
court-critical outputs (statistic, mark, claim) to the vault and claim store
before returning, so a crash after ``protect`` never loses the ability to
litigate.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass
from typing import Mapping

from repro.binning.binner import BinnedTable
from repro.binning.kanonymity import EnforcementMode, KAnonymitySpec
from repro.dht.tree import DomainHierarchyTree
from repro.framework.pipeline import ProtectionFramework
from repro.metrics.information_loss import table_information_loss
from repro.metrics.usage_metrics import UsageMetrics
from repro.ontology.registry import standard_ontology
from repro.relational.columnar import ColumnarTable
from repro.relational.schema import TableSchema, medical_schema
from repro.relational.table import Table
from repro.service.executor import ShardExecutor
from repro.service.runners import ProtectPlan, ShardRunner, WatermarkerSpec
from repro.service.store import ClaimStore
from repro.service.streaming import DEFAULT_CHUNK_SIZE, iter_rows
from repro.service.vault import DatasetRecord, KeyVault, TenantRecord, VaultError
from repro.telemetry.trace import span as _stage_span
from repro.watermarking.hierarchical import DetectionReport
from repro.watermarking.mark import Mark, mark_loss
from repro.watermarking.ownership import DisputeVerdict, OwnershipClaim

__all__ = [
    "DEFAULT_TENANT",
    "ProtectOutcome",
    "DetectOutcome",
    "ProtectionService",
    "suspect_view",
    "dataset_id_for",
]

DEFAULT_TENANT = "owner"


def dataset_id_for(path: str) -> str:
    """Default dataset id: the input file's stem (``/a/b/claims.csv`` -> ``claims``)."""
    stem = os.path.splitext(os.path.basename(path))[0]
    if not stem:
        raise ValueError(f"cannot derive a dataset id from path {path!r}")
    return stem


def suspect_view(
    table: Table,
    trees: Mapping[str, DomainHierarchyTree],
    schema: TableSchema,
    *,
    k: int = 1,
    metrics_depth: int = 1,
) -> BinnedTable:
    """A :class:`BinnedTable` view of a table found in the wild, for detection.

    Detection only needs the trees and the two frontiers.  The ultimate
    frontier is not recoverable from a suspect CSV, so the leaf cut stands in
    (the detector walks *up* from wherever a cell resolves, so any frontier at
    or below the true one reads the same votes); the maximal frontier is
    re-derived from the usage-metrics depth the owner protected with.
    """
    return BinnedTable(table=table, **_suspect_metadata(trees, schema, k, metrics_depth))


def _suspect_metadata(
    trees: Mapping[str, DomainHierarchyTree],
    schema: TableSchema,
    k: int,
    metrics_depth: int,
) -> dict:
    """The table-independent :class:`BinnedTable` fields of :func:`suspect_view`."""
    quasi = tuple(column.name for column in schema.quasi_identifying_columns)
    metrics = UsageMetrics.uniform_depth(trees, metrics_depth)
    return {
        "trees": {column: trees[column] for column in quasi},
        "identifying_columns": tuple(column.name for column in schema.identifying_columns),
        "quasi_columns": quasi,
        "ultimate_nodes": {
            column: tuple(leaf.name for leaf in trees[column].leaves()) for column in quasi
        },
        "maximal_nodes": {
            column: tuple(node.name for node in metrics.maximal_nodes(column, trees[column]))
            for column in quasi
        },
        "k": k,
    }


@dataclass(frozen=True)
class ProtectOutcome:
    """What one streamed ``protect`` run produced and registered.

    ``runner``/``workers`` name where pass 2 (rewrite + embed + emit) ran;
    ``chunk_seconds`` is each chunk's worker-side wall clock in chunk order —
    the per-chunk timings the protect report surfaces so a parallel protect's
    spread is visible without profiling.
    """

    tenant: str
    dataset: str
    rows: int
    output: str
    registered_statistic: float
    mark: str
    cells_changed: int
    tuples_selected: int
    information_loss: float
    runner: str = "thread"
    workers: int = 1
    chunk_seconds: tuple[float, ...] = ()

    @property
    def chunks(self) -> int:
        return len(self.chunk_seconds)

    def to_json(self) -> dict:
        payload = asdict(self)
        payload["chunk_seconds"] = [round(seconds, 6) for seconds in self.chunk_seconds]
        payload["chunks"] = self.chunks
        return payload


@dataclass(frozen=True)
class DetectOutcome:
    """What a (cold-process) ``detect`` run recovered, versus the vault record."""

    tenant: str
    dataset: str
    rows: int
    mark: str
    expected_mark: str | None
    mark_loss: float | None
    coverage: float
    positions_with_votes: int
    tuples_selected: int
    shards: int
    runner: str = "thread"
    code: str = "repetition"
    corrected_bits: int = 0
    bit_confidence: tuple[float, ...] = ()

    @property
    def matches(self) -> bool | None:
        """Whether the recovered mark equals the registered one (``None`` = unregistered)."""
        if self.mark_loss is None:
            return None
        return self.mark_loss == 0.0

    def to_json(self) -> dict:
        return asdict(self)


class ProtectionService:
    """Multi-tenant protect/detect/dispute over a persistent vault.

    One service instance wraps one vault directory.  Frameworks (and with
    them the batched hash engines and their digest caches) are built lazily
    per tenant and reused across calls, so a detect following a protect in
    the same process still gets PR 1's warm-cache behaviour — while a fresh
    process reconstructs everything from the vault alone.
    """

    def __init__(
        self,
        vault: KeyVault | str | os.PathLike,
        *,
        schema: TableSchema | None = None,
        trees: Mapping[str, DomainHierarchyTree] | None = None,
        executor: ShardExecutor | None = None,
        runner: "str | ShardRunner | None" = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        audit: bool = True,
    ) -> None:
        if executor is not None and runner is not None:
            raise ValueError("pass either executor or runner, not both")
        self._vault = vault if isinstance(vault, KeyVault) else KeyVault(vault)
        self._claims = self._vault.claim_store()
        # Every successful register/protect/detect/dispute lands one record
        # on the vault's hash chain; ``audit=False`` is for vaults on
        # read-only media, where appending would be the error.
        self._audit = self._vault.audit_log() if audit else None
        self._schema = schema if schema is not None else medical_schema()
        self._trees = dict(trees) if trees is not None else dict(standard_ontology().items())
        self._executor = executor if executor is not None else ShardExecutor(runner=runner)
        self._chunk_size = chunk_size
        self._frameworks: dict[str, ProtectionFramework] = {}

    # -------------------------------------------------------------- properties
    @property
    def vault(self) -> KeyVault:
        return self._vault

    @property
    def claim_store(self) -> ClaimStore:
        return self._claims

    @property
    def audit(self):
        """The vault's audit log, or ``None`` when auditing is disabled."""
        return self._audit

    def _record_audit(
        self, event: str, tenant: str | None, dataset: str | None = None, **payload
    ) -> None:
        if self._audit is not None:
            self._audit.append(event, tenant, dataset=dataset, payload=payload)

    @property
    def schema(self) -> TableSchema:
        return self._schema

    @property
    def trees(self) -> Mapping[str, DomainHierarchyTree]:
        """The per-column domain hierarchy trees this service detects against.

        Fleet workers resolve wire-format node *names* against these (the
        trees themselves never cross the network), so every member of a
        distributed deployment must be configured with the same ontology.
        """
        return self._trees

    # ----------------------------------------------------------------- tenants
    def register_tenant(self, tenant_id: str = DEFAULT_TENANT, **kwargs) -> TenantRecord:
        """Register a tenant (generating secrets unless supplied); see the vault."""
        record = self._vault.register_tenant(tenant_id, **kwargs)
        # Parameters only — secrets never reach the (exportable) audit chain.
        self._record_audit(
            "register",
            tenant_id,
            eta=record.eta,
            k=record.k,
            mark_length=record.mark_length,
            copies=record.copies,
            code=record.code,
        )
        return record

    def framework_for(self, tenant_id: str) -> ProtectionFramework:
        """The (cached) framework rebuilt from the tenant's vault record."""
        framework = self._frameworks.get(tenant_id)
        if framework is None:
            framework = self._build_framework(self._vault.tenant(tenant_id))
            self._frameworks[tenant_id] = framework
        return framework

    # ----------------------------------------------------------------- protect
    def protect(
        self,
        tenant_id: str,
        input_csv: str,
        output_csv: str,
        *,
        dataset_id: str | None = None,
        chunk_size: int | None = None,
        workers: int | None = None,
        runner: "str | ShardRunner | None" = None,
    ) -> ProtectOutcome:
        """Bin + watermark *input_csv* to *output_csv* in two streaming passes.

        Pass 1 accumulates the global aggregates (per-leaf counts, the
        ownership statistic); pass 2 rewrites, embeds and emits chunk by chunk
        on the executor's runner (*workers*/*runner* override per call, like
        ``detect``; the remote runner is detect-only and is refused).  The
        result is byte-for-byte the CSV a whole-table ``framework.protect`` +
        export would produce, whatever the runner or worker count — binning's
        frontiers depend only on the leaf counts, everything downstream is
        per-row, and chunks are emitted in chunk order.
        """
        with _stage_span("service.protect"):
            return self._protect(
                tenant_id,
                input_csv,
                output_csv,
                dataset_id=dataset_id,
                chunk_size=chunk_size,
                workers=workers,
                runner=runner,
            )

    def _protect(
        self,
        tenant_id: str,
        input_csv: str,
        output_csv: str,
        *,
        dataset_id: str | None,
        chunk_size: int | None,
        workers: int | None,
        runner: "str | ShardRunner | None",
    ) -> ProtectOutcome:
        framework = self.framework_for(tenant_id)
        dataset_id = dataset_id or dataset_id_for(input_csv)
        chunk_size = chunk_size or self._chunk_size
        schema = self._schema
        identifying = [column.name for column in schema.identifying_columns]
        quasi = [column.name for column in schema.quasi_identifying_columns]
        if not identifying:
            raise ValueError("the schema must have at least one identifying column")

        # Pass 1 — global aggregates, constant memory.
        leaf_counts = {
            column: {leaf: 0 for leaf in self._trees[column].leaves()} for column in quasi
        }
        trees = {column: self._trees[column] for column in quasi}
        ident_sum = 0.0
        ident_count = 0
        rows = 0
        with _stage_span("protect.pass1") as pass1_scope:
            for row in iter_rows(input_csv, schema):
                rows += 1
                for column in identifying:
                    text = str(row[column])
                    if text.isdigit():
                        ident_sum += float(int(text))
                        ident_count += 1
                for column in quasi:
                    leaf_counts[column][trees[column].leaf_for_raw(row[column])] += 1
            pass1_scope.set(rows=rows)
        if ident_count == 0:
            raise ValueError("no numeric identifiers: cannot compute the ownership statistic")
        statistic = ident_sum / ident_count

        mark = framework.register_statistic(statistic)
        agent = framework.binning_agent
        plan = agent.plan_from_counts(leaf_counts, columns=quasi)
        losses = plan.ultimate.information_losses(leaf_counts)
        metadata = plan.metadata_for(self._trees)
        watermarker = framework.watermarker()

        # Pass 2 — rewrite + embed + emit, chunk by chunk on the runner.
        executor = self._protect_executor_for(workers, runner)
        run = executor.protect_csv(
            ProtectPlan(
                spec=WatermarkerSpec.of(watermarker),
                schema=schema,
                metadata=metadata,
                identifying_columns=tuple(identifying),
                encryption_key=framework.encryption_key,
                mark_bits=str(mark),
            ),
            input_csv,
            output_csv,
            chunk_size=chunk_size,
        )
        if run.rows != rows:
            raise ValueError(
                f"pass 2 emitted {run.rows} rows but pass 1 read {rows} "
                "(the input changed between the two streaming passes)"
            )
        tuples_selected = run.tuples_selected
        cells_changed = run.cells_changed

        # Persist the court-critical state before reporting success.
        self._vault.record_dataset(
            tenant_id,
            DatasetRecord(
                dataset_id=dataset_id,
                registered_statistic=statistic,
                mark_bits=str(mark),
                rows=rows,
                cells_changed=cells_changed,
                information_loss=table_information_loss(losses),
                source=os.path.abspath(input_csv),
            ),
        )
        self._claims.add_claim(dataset_id, framework.owner_claim(tenant_id))
        self._record_audit(
            "protect",
            tenant_id,
            dataset_id,
            rows=rows,
            mark=str(mark),
            registered_statistic=statistic,
            cells_changed=cells_changed,
            runner=executor.runner_name,
        )

        return ProtectOutcome(
            tenant=tenant_id,
            dataset=dataset_id,
            rows=rows,
            output=output_csv,
            registered_statistic=statistic,
            mark=str(mark),
            cells_changed=cells_changed,
            tuples_selected=tuples_selected,
            information_loss=table_information_loss(losses),
            runner=executor.runner_name,
            workers=executor.max_workers,
            chunk_seconds=run.chunk_seconds,
        )

    # ------------------------------------------------------------------ detect
    def detect(
        self,
        tenant_id: str,
        suspect_csv: str,
        *,
        dataset_id: str | None = None,
        workers: int | None = None,
        runner: "str | ShardRunner | None" = None,
        chunk_size: int | None = None,
        code: str | None = None,
    ) -> DetectOutcome:
        """Recover the mark from *suspect_csv* using only vault state.

        Streams the file chunk by chunk, collecting detection votes on the
        executor's runner and merging them — bit-identical to a serial detect
        over the materialised table, whichever runner collects the votes.
        When the dataset was protected through this vault, the recovered mark
        is compared against the registered one.  An empty CSV (header only)
        yields a clean zero-coverage report, not an error.

        *code* overrides the registered mark code for this run (wire string,
        e.g. ``"soft"``); only codes sharing the repetition encoder can be
        swapped at detect time.
        """
        with _stage_span("service.detect"):
            return self._detect(
                tenant_id,
                suspect_csv,
                dataset_id=dataset_id,
                workers=workers,
                runner=runner,
                chunk_size=chunk_size,
                code=code,
            )

    def _detect(
        self,
        tenant_id: str,
        suspect_csv: str,
        *,
        dataset_id: str | None,
        workers: int | None,
        runner: "str | ShardRunner | None",
        chunk_size: int | None,
        code: str | None = None,
    ) -> DetectOutcome:
        record = self._vault.tenant(tenant_id)
        framework = self.framework_for(tenant_id)
        dataset_id = dataset_id or dataset_id_for(suspect_csv)
        expected: Mark | None = None
        try:
            stored = self._vault.dataset(tenant_id, dataset_id)
        except VaultError:
            stored = None
        if stored is not None:
            expected = framework.restore_registration(
                stored.registered_statistic, Mark.from_string(stored.mark_bits)
            )

        executor = self._executor_for(workers, runner)
        watermarker = framework.watermarker()
        if code is not None:
            watermarker = watermarker.with_code(code)
        row_counter = [0]

        def count_rows(n: int) -> None:
            row_counter[0] += n

        report = executor.detect_csv(
            watermarker,
            suspect_csv,
            self._schema,
            _suspect_metadata(self._trees, self._schema, record.k, record.metrics_depth),
            record.mark_length,
            chunk_size=chunk_size or self._chunk_size,
            on_rows=count_rows,
        )
        loss = mark_loss(expected, report.mark) if expected is not None else None
        self._record_audit(
            "detect",
            tenant_id,
            dataset_id,
            rows=row_counter[0],
            mark=str(report.mark),
            mark_loss=loss,
            coverage=report.coverage,
            runner=executor.runner_name,
        )
        return DetectOutcome(
            tenant=tenant_id,
            dataset=dataset_id,
            rows=row_counter[0],
            mark=str(report.mark),
            expected_mark=str(expected) if expected is not None else None,
            mark_loss=loss,
            coverage=report.coverage,
            positions_with_votes=report.positions_with_votes,
            tuples_selected=report.tuples_selected,
            shards=executor.max_workers,
            runner=executor.runner_name,
            code=report.code,
            corrected_bits=report.corrected_bits,
            bit_confidence=report.bit_confidence,
        )

    def detect_binned(
        self,
        tenant_id: str,
        binned: BinnedTable,
        *,
        workers: int | None = None,
        runner: "str | ShardRunner | None" = None,
        shards: int | None = None,
    ) -> DetectionReport:
        """Shard-parallel detect over an in-memory binned table (library callers)."""
        record = self._vault.tenant(tenant_id)
        executor = self._executor_for(workers, runner)
        return executor.detect(
            self.framework_for(tenant_id).watermarker(), binned, record.mark_length, shards=shards
        )

    def _executor_for(
        self, workers: int | None, runner: "str | ShardRunner | None"
    ) -> ShardExecutor:
        """The configured executor, or a per-call override of workers/runner."""
        if workers is None and runner is None:
            return self._executor
        return ShardExecutor(
            workers if workers is not None else self._executor.max_workers,
            runner=runner if runner is not None else self._executor.runner,
        )

    def _protect_executor_for(
        self, workers: int | None, runner: "str | ShardRunner | None"
    ) -> ShardExecutor:
        """Like :meth:`_executor_for`, but protect-capable.

        A service whose *default* runner is a detect fleet (a ``repro serve
        --runner remote`` coordinator) still protects — pass 2 falls back to
        the local thread runner, exactly the pre-parallel behavior.  Only an
        *explicitly requested* fleet runner is refused (by the executor,
        before the output file exists), so asking for the impossible stays
        loud while the default deployment keeps working.
        """
        executor = self._executor_for(workers, runner)
        if executor.runner.supports_protect or runner is not None:
            return executor
        return ShardExecutor(
            workers if workers is not None else executor.max_workers, runner="thread"
        )

    # ----------------------------------------------------------------- dispute
    def register_claim(self, dataset_id: str, claim: OwnershipClaim) -> None:
        """Record a (possibly rival) claim over *dataset_id* for later disputes."""
        self._claims.add_claim(dataset_id, claim)
        self._record_audit("claim", claim.claimant, dataset_id)

    def dispute(
        self,
        tenant_id: str,
        disputed_csv: str,
        *,
        dataset_id: str | None = None,
        extra_claims: tuple[OwnershipClaim, ...] = (),
    ) -> DisputeVerdict:
        """Resolve ownership of *disputed_csv* from the persisted claims.

        All claims stored for the dataset (the owner's, written by
        ``protect``, plus any rivals registered since) are re-hydrated and
        assessed per Section 5.4.  *tenant_id* picks the registry parameters
        (``τ``, mark length, bit-error tolerance) — the court's configuration.
        """
        record = self._vault.tenant(tenant_id)
        framework = self.framework_for(tenant_id)
        dataset_id = dataset_id or dataset_id_for(disputed_csv)
        claims = self._claims.claims(dataset_id) + list(extra_claims)
        if not claims:
            raise VaultError(f"no claims stored for dataset {dataset_id!r}")
        table = ColumnarTable.from_csv(disputed_csv, self._schema)
        binned = suspect_view(
            table, self._trees, self._schema, k=record.k, metrics_depth=record.metrics_depth
        )
        verdict = framework.resolve_dispute(binned, claims)
        self._record_audit(
            "dispute",
            tenant_id,
            dataset_id,
            winner=verdict.winner,
            claimants=[assessment.claimant for assessment in verdict.assessments],
            valid_claimants=verdict.valid_claimants,
        )
        return verdict

    # ------------------------------------------------------------------ status
    def status(self, tenant_id: str | None = None) -> dict:
        """JSON-able snapshot of the vault: tenants, datasets, claimants.

        Reads are live, so a long-running server reports datasets a CLI
        protect just registered.
        """
        tenants = [tenant_id] if tenant_id is not None else self._vault.tenants()
        out: dict = {
            "vault": self._vault.root,
            "backend": self._vault.backend,
            "tenants": {},
        }
        for tenant in tenants:
            record = self._vault.tenant(tenant)
            datasets = {}
            for dataset in self._vault.datasets(tenant):
                stored = self._vault.dataset(tenant, dataset)
                datasets[dataset] = {
                    "rows": stored.rows,
                    "mark": stored.mark_bits,
                    "registered_statistic": stored.registered_statistic,
                    "cells_changed": stored.cells_changed,
                    "information_loss": stored.information_loss,
                    "claimants": self._claims.claimants(dataset),
                }
            out["tenants"][tenant] = {
                "eta": record.eta,
                "k": record.k,
                "mark_length": record.mark_length,
                "copies": record.copies,
                "datasets": datasets,
            }
        return out

    # ----------------------------------------------------------------- helpers
    def _build_framework(self, record: TenantRecord) -> ProtectionFramework:
        metrics = UsageMetrics.uniform_depth(self._trees, record.metrics_depth)
        return ProtectionFramework(
            self._trees,
            metrics,
            KAnonymitySpec(k=record.k, mode=EnforcementMode.MONO, epsilon=record.epsilon),
            encryption_key=record.encryption_key,
            watermark_secret=record.watermark_secret,
            eta=record.eta,
            mark_length=record.mark_length,
            copies=record.copies,
            watermark_columns=record.watermark_columns,
            ownership_tau=record.ownership_tau,
            max_mark_bit_errors=record.max_mark_bit_errors,
            code=record.code,
        )
