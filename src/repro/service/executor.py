"""Shard-parallel embed/detect, bit-identical to the serial batched path.

Both halves of the watermarking algorithm are per-row computations: whether a
tuple is selected, where its bit lives in the replicated mark and which
sibling index encodes it depend only on that tuple's (encrypted) identifier.
A table can therefore be split into contiguous row shards, each shard
embedded/vote-collected independently, and the results merged:

* **detect** — each shard produces a
  :class:`~repro.watermarking.hierarchical.DetectionVotes`; merging them in
  shard order reproduces the serial per-position vote lists exactly, so the
  finalised :class:`DetectionReport` (mark, wmd bits, counters) is
  bit-identical to a serial :meth:`detect` — asserted by the service tests on
  clean and attacked tables.
* **embed** — each shard embeds into its own copy-on-write slice; the merged
  table is the shard tables' rows concatenated in shard order, equal row for
  row to a serial embed.

*Where* the per-shard vote collection runs is delegated to a pluggable
:class:`~repro.service.runners.ShardRunner`: the default
:class:`~repro.service.runners.ThreadRunner` shares the engine's digest
caches but is GIL-bound on small hash payloads, the
:class:`~repro.service.runners.ProcessRunner` rebuilds engines per worker
from picklable params and ships only ``DetectionVotes`` back, and the
:class:`~repro.service.runners.RemoteRunner` does the same over HTTP against
a fleet of ``repro serve`` workers — the merge machinery is identical in all
three cases, which is what keeps every runner bit-identical to serial.

Protect's pass 2 is the embed-side counterpart (:meth:`ShardExecutor.protect_csv`):
once pass 1 has fixed the binning plan, rewrite + embed is per-chunk
independent, so the runner maps :func:`~repro.service.runners.protect_raw_chunk`
over raw CSV chunks and the executor splices the returned chunk texts — in
chunk order — through one :class:`~repro.service.streaming.RowWriter`.
Protect workers do ship rows back (the result *is* the rows), but they also
carry parsing, encryption, generalisation, embedding and serialisation, so a
process pool wins where the in-memory :meth:`ShardExecutor.embed` (rows in
*both* directions, no parse work) stays thread-based.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.binning.binner import BinnedTable
from repro.relational.schema import TableSchema
from repro.relational.table import Table
from repro.service.runners import (
    PROTECT_UNSUPPORTED_ERROR,
    ProtectPlan,
    ShardRunner,
    resolve_runner,
)
from repro.service.streaming import DEFAULT_CHUNK_SIZE, RowWriter
from repro.telemetry.trace import span as _stage_span
from repro.watermarking.hierarchical import (
    DetectionReport,
    DetectionVotes,
    EmbeddingReport,
    HierarchicalWatermarker,
)
from repro.watermarking.mark import Mark

__all__ = ["shard_spans", "shard_binned", "ProtectRun", "ShardExecutor"]


@dataclass(frozen=True)
class ProtectRun:
    """Totals of one runner-parallel protect pass 2 (rows, counters, timings)."""

    rows: int
    tuples_selected: int
    cells_changed: int
    chunk_seconds: tuple[float, ...]

    @property
    def chunks(self) -> int:
        return len(self.chunk_seconds)

#: Shards below this many rows are not worth the pool dispatch overhead.
MIN_ROWS_PER_SHARD = 256


def shard_spans(n_rows: int, shards: int) -> list[tuple[int, int]]:
    """Split ``range(n_rows)`` into *shards* contiguous, near-equal spans.

    The first ``n_rows % shards`` spans carry one extra row; empty spans are
    never produced (fewer spans come back when there are fewer rows than
    shards, and an empty table yields no spans at all — callers must treat
    ``[]`` as "nothing to do", not index into it).
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    shards = min(shards, n_rows) if n_rows else 0
    spans: list[tuple[int, int]] = []
    start = 0
    for index in range(shards):
        size = n_rows // shards + (1 if index < n_rows % shards else 0)
        spans.append((start, start + size))
        start += size
    return spans


def shard_binned(binned: BinnedTable, shards: int) -> list[BinnedTable]:
    """Contiguous row shards of *binned* sharing its metadata."""
    return [binned.slice(start, stop) for start, stop in shard_spans(len(binned.table), shards)]


class ShardExecutor:
    """Runs embed/detect over row shards on a pluggable runner and merges results."""

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        runner: "str | ShardRunner | None" = None,
    ) -> None:
        cpu = os.cpu_count() or 1
        self._max_workers = max_workers if max_workers is not None else min(8, cpu)
        if self._max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self._runner = resolve_runner(runner)

    @property
    def max_workers(self) -> int:
        return self._max_workers

    @property
    def runner(self) -> ShardRunner:
        return self._runner

    @property
    def runner_name(self) -> str:
        return self._runner.name

    # ---------------------------------------------------------------- detection
    def detect(
        self,
        watermarker: HierarchicalWatermarker,
        binned: BinnedTable,
        mark_length: int,
        *,
        shards: int | None = None,
    ) -> DetectionReport:
        """Shard-parallel :meth:`HierarchicalWatermarker.detect` over *binned*.

        An empty table short-circuits to finalising empty votes — a valid,
        all-zero report with zero coverage — rather than sharding nothing.
        """
        if len(binned.table) == 0:
            return watermarker.finalize_votes(self._empty_votes(watermarker, mark_length), mark_length)
        shards = self._effective_shards(len(binned.table), shards)
        if shards <= 1:
            return watermarker.detect(binned, mark_length)
        pieces = shard_binned(binned, shards)
        merged = self._merge_stream(
            self._runner.collect_tables(
                watermarker, pieces, mark_length, max_workers=self._max_workers
            )
        )
        if merged is None:  # pragma: no cover - pieces is non-empty here
            merged = self._empty_votes(watermarker, mark_length)
        return watermarker.finalize_votes(merged, mark_length)

    def detect_stream(
        self,
        watermarker: HierarchicalWatermarker,
        chunks: Iterable[BinnedTable],
        mark_length: int,
    ) -> DetectionReport:
        """Detect over a stream of chunk views of one table, merging votes.

        The chunks must cover the table's rows in order (the streaming
        ingest's contract).  Chunks are pulled from the iterable only as pool
        slots free up (at most ``max_workers + 1`` in flight — a plain
        ``Executor.map`` would drain the whole generator up front), so memory
        stays bounded by in-flight chunks + the vote state regardless of file
        size; votes are still merged in chunk order.
        """
        merged = self._merge_stream(
            self._runner.collect_tables(
                watermarker, chunks, mark_length, max_workers=self._max_workers
            )
        )
        if merged is None:
            merged = self._empty_votes(watermarker, mark_length)
        return watermarker.finalize_votes(merged, mark_length)

    def detect_csv(
        self,
        watermarker: HierarchicalWatermarker,
        path: str,
        schema: TableSchema,
        metadata: Mapping[str, object],
        mark_length: int,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        on_rows: Callable[[int], None] | None = None,
    ) -> DetectionReport:
        """Detect straight off a CSV file, letting the runner own the ingest.

        The thread runner parses chunk views on the calling thread exactly
        like :meth:`detect_stream`; the process runner ships raw CSV text so
        its workers parse too.  Either way the merged votes — and therefore
        the report — are bit-identical to a serial detect over the
        materialised table.  *on_rows* receives each chunk's row count (the
        service reports total rows examined).
        """
        merged = self._merge_stream(
            self._runner.collect_csv(
                watermarker,
                path,
                schema,
                metadata,
                mark_length,
                chunk_size=chunk_size,
                max_workers=self._max_workers,
                on_rows=on_rows,
            )
        )
        if merged is None:
            merged = self._empty_votes(watermarker, mark_length)
        return watermarker.finalize_votes(merged, mark_length)

    # ------------------------------------------------------------------ protect
    def protect_csv(
        self,
        plan: ProtectPlan,
        input_csv: str,
        output_csv: str,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> ProtectRun:
        """Pass 2 of a streamed protect: rewrite + embed + emit on the runner.

        Splits *input_csv* into quote-parity raw chunks, runs
        :func:`~repro.service.runners.protect_raw_chunk` per chunk on the
        configured runner, and appends each returned chunk text to
        *output_csv* in chunk order — so the output file is byte-identical to
        a serial streaming protect whatever the runner or worker count.  An
        empty input (header only) still writes the output header.  A runner
        that cannot carry protect (the remote fleet) is refused *before* the
        output file is created, so a refusal leaves nothing behind.
        """
        if not self._runner.supports_protect:
            raise ValueError(PROTECT_UNSUPPORTED_ERROR)
        rows = 0
        tuples_selected = 0
        cells_changed = 0
        chunk_seconds: list[float] = []
        with RowWriter(output_csv, plan.schema) as writer:
            for chunk in self._runner.protect_csv(
                plan, input_csv, chunk_size=chunk_size, max_workers=self._max_workers
            ):
                writer.write_text(chunk.text, chunk.rows)
                rows += chunk.rows
                tuples_selected += chunk.tuples_selected
                cells_changed += chunk.cells_changed
                chunk_seconds.append(chunk.seconds)
        return ProtectRun(
            rows=rows,
            tuples_selected=tuples_selected,
            cells_changed=cells_changed,
            chunk_seconds=tuple(chunk_seconds),
        )

    # ---------------------------------------------------------------- embedding
    def embed(
        self,
        watermarker: HierarchicalWatermarker,
        binned: BinnedTable,
        mark: Mark,
        *,
        shards: int | None = None,
    ) -> EmbeddingReport:
        """Shard-parallel :meth:`HierarchicalWatermarker.embed` over *binned*.

        Always thread-based regardless of the configured runner: embedding
        returns the watermarked rows themselves, so crossing a process
        boundary would serialise every row twice for no CPU win.
        """
        shards = self._effective_shards(len(binned.table), shards)
        if shards <= 1:
            return watermarker.embed(binned, mark)
        pieces = shard_binned(binned, shards)
        with ThreadPoolExecutor(max_workers=self._max_workers) as pool:
            reports = list(pool.map(lambda piece: watermarker.embed(piece, mark), pieces))

        merged_table = Table.from_validated_rows(
            binned.table.schema,
            (row for report in reports for row in report.watermarked.table.rows),
        )
        watermarked = BinnedTable(
            table=merged_table,
            trees=binned.trees,
            identifying_columns=binned.identifying_columns,
            quasi_columns=binned.quasi_columns,
            ultimate_nodes=dict(binned.ultimate_nodes),
            maximal_nodes=dict(binned.maximal_nodes),
            minimal_nodes=dict(binned.minimal_nodes),
            k=binned.k,
        )
        first = reports[0]
        return EmbeddingReport(
            watermarked=watermarked,
            mark=mark,
            copies=first.copies,
            columns=first.columns,
            tuples_selected=sum(report.tuples_selected for report in reports),
            cells_embedded=sum(report.cells_embedded for report in reports),
            cells_changed=sum(report.cells_changed for report in reports),
            cells_skipped_no_bandwidth=sum(report.cells_skipped_no_bandwidth for report in reports),
        )

    # ----------------------------------------------------------------- helpers
    @staticmethod
    def _empty_votes(watermarker: HierarchicalWatermarker, mark_length: int) -> DetectionVotes:
        return DetectionVotes(wmd_length=mark_length * watermarker.copies)

    @staticmethod
    def _merge_stream(votes_stream: Iterable[DetectionVotes]) -> DetectionVotes | None:
        merged: DetectionVotes | None = None
        for votes in votes_stream:
            # One span per chunk merged (the first chunk's is the trivial
            # adoption) — pulling from the stream stays *outside* the span so
            # worker wait time never masquerades as merge time.
            with _stage_span("detect.merge"):
                merged = votes if merged is None else merged.merge(votes)
        return merged

    def _effective_shards(self, n_rows: int, shards: int | None) -> int:
        if shards is not None:
            if shards < 1:
                raise ValueError("shards must be at least 1")
            # Never more shards than rows (an empty table runs serially), so
            # shard_binned can never come back empty after the <= 1 guard.
            return min(shards, max(1, n_rows))
        if n_rows < 2 * MIN_ROWS_PER_SHARD:
            return 1
        return min(self._max_workers, max(1, n_rows // MIN_ROWS_PER_SHARD))
