"""Pluggable shard runners: where `collect_votes` actually executes.

The :class:`~repro.service.executor.ShardExecutor` owns the *semantics* of
shard-parallel detection (split into contiguous shards, merge votes in shard
order, finalise once — bit-identical to serial by construction).  This module
owns the *mechanics*: a :class:`ShardRunner` maps
:meth:`~repro.watermarking.hierarchical.HierarchicalWatermarker.collect_votes`
over chunks and yields one
:class:`~repro.watermarking.hierarchical.DetectionVotes` per chunk, **in
chunk order**, with a bounded number in flight.

Three implementations:

* :class:`ThreadRunner` — today's behavior: a
  :class:`~concurrent.futures.ThreadPoolExecutor` whose workers share the
  watermarker (and its digest caches).  Cheap to start, but Python hashing
  over small payloads holds the GIL, so parallelism buys little CPU.
* :class:`ProcessRunner` — a :class:`~concurrent.futures.ProcessPoolExecutor`.
  The watermarker itself cannot cross the process boundary (live HMAC objects
  don't pickle), so each task carries a picklable :class:`WatermarkerSpec`
  from which every worker reconstructs — and caches — its own engine.  Chunks
  travel *to* workers either as pickled :class:`BinnedTable` shards (the
  in-memory path) or as **raw CSV text** (the streaming path, where workers
  also do the parsing — the dominant cost — so detection scales with cores);
  only small :class:`DetectionVotes` travel back, never rows.
* :class:`RemoteRunner` — the multi-machine step: raw CSV chunks are POSTed
  to a fleet of ``repro serve`` workers (``POST /internal/detect-votes``, see
  :mod:`repro.service.wire` for the JSON shapes) round-robin with failover
  and bounded retries; each response carries that chunk's serialized
  :class:`DetectionVotes`, merged locally exactly like the other runners' —
  which is what keeps a fleet detect bit-identical to a serial one.

Since PR 5 the runners carry protect's pass 2 as well as detection: once the
binning plan is fixed, rewrite + embed is per-chunk independent, so
:meth:`ShardRunner.protect_csv` maps :func:`protect_raw_chunk` over the same
quote-parity raw chunks and yields one :class:`ProtectedChunk` — the chunk's
serialised output CSV text plus its embedding counters — per chunk, in chunk
order, for the executor to splice through a
:class:`~repro.service.streaming.RowWriter`.  Protect *does* ship rows back
from process workers (its result is the rows), but the workers also carry the
dominant costs — parsing, encryption, generalisation, embedding and CSV
serialisation — so the trade the detect path refused for embed-only sharding
pays off here.  The :class:`RemoteRunner` refuses protect: shipping every row
across the network twice has no CPU story, and the vault-owning coordinator
is the only process that may see raw identifiers.

All runners are stateless across calls: pools live for one ``collect*`` or
``protect*`` call (the remote fleet's failure bookkeeping too), so a runner
instance can be shared by many executors and services.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.binning.binner import BinnedTable, rewrite_table
from repro.binning.generalization import Generalization, MultiColumnGeneralization
from repro.crypto.cipher import FieldEncryptor
from repro.relational.schema import TableSchema
from repro.relational.table import Table
from repro.service.streaming import (
    DEFAULT_CHUNK_SIZE,
    iter_raw_chunks,
    iter_tables,
    render_csv_rows,
)
from repro.service.wire import (
    binned_metadata_to_json,
    metadata_to_json,
    spec_to_json,
    table_to_csv_lines,
    votes_from_json,
)
from repro.telemetry.trace import (
    PARENT_HEADER,
    TRACE_HEADER,
    TraceContext,
    adopt as _trace_adopt,
    capture as _trace_capture,
    current_tracer as _current_tracer,
    span as _stage_span,
)
from repro.watermarking.hierarchical import DetectionVotes, HierarchicalWatermarker
from repro.watermarking.keys import WatermarkKey
from repro.watermarking.mark import Mark

__all__ = [
    "WatermarkerSpec",
    "ProtectPlan",
    "ProtectedChunk",
    "ShardRunner",
    "ThreadRunner",
    "ProcessRunner",
    "RemoteRunner",
    "FleetError",
    "RUNNER_NAMES",
    "PROTECT_UNSUPPORTED_ERROR",
    "collect_raw_chunk",
    "protect_raw_chunk",
    "REMOTE_RUNNER_NAME",
    "resolve_runner",
]

#: Raised (as a :class:`ValueError`) wherever a protect is asked to run on a
#: runner that cannot carry it — shared so the executor can refuse *before*
#: creating the output file and the runner can refuse as a backstop.
PROTECT_UNSUPPORTED_ERROR = (
    "the remote runner is detect-only: protect ships rows, not votes "
    "(use --runner thread or --runner process for parallel protect)"
)

_SENTINEL = object()


@dataclass(frozen=True)
class WatermarkerSpec:
    """Everything needed to rebuild a :class:`HierarchicalWatermarker` — picklable.

    The live watermarker holds HMAC objects (C state, unpicklable); this spec
    holds only the key bytes and construction parameters.  ``build()`` in a
    worker process yields an engine that is bit-identical to the parent's:
    selection, positions and permutation indices are pure functions of the
    key material.
    """

    k1: bytes
    k2: bytes
    eta: int
    columns: tuple[str, ...] | None
    copies: int
    level_weighting: bool
    batch: bool
    code: str = "repetition"

    @classmethod
    def of(cls, watermarker: HierarchicalWatermarker) -> "WatermarkerSpec":
        key = watermarker.key
        return cls(
            k1=key.k1,
            k2=key.k2,
            eta=key.eta,
            columns=watermarker.columns,
            copies=watermarker.copies,
            level_weighting=watermarker.level_weighting,
            batch=watermarker.batched,
            code=watermarker.code_name,
        )

    def build(self) -> HierarchicalWatermarker:
        return HierarchicalWatermarker(
            WatermarkKey(k1=self.k1, k2=self.k2, eta=self.eta),
            columns=self.columns,
            copies=self.copies,
            level_weighting=self.level_weighting,
            batch=self.batch,
            code=self.code,
        )


#: Per-worker-process watermarker cache: successive chunks for the same spec
#: reuse one engine (and its digest caches) instead of re-deriving HMAC pads.
#: Bounded: this used to live only in short-lived process-pool workers, but a
#: long-running ``repro serve`` fleet worker hits it too (one spec per tenant
#: key ever detected through the fleet), and engines retain raw key material —
#: so old entries are evicted in insertion order past the cap.
_WORKER_WATERMARKERS: dict[WatermarkerSpec, HierarchicalWatermarker] = {}
_WORKER_WATERMARKER_CACHE_SIZE = 8
# A fleet worker's threading WSGI server reaches this cache from concurrent
# handler threads (process-pool workers run tasks serially and never contend).
_WORKER_WATERMARKERS_LOCK = threading.Lock()


def _worker_watermarker(spec: WatermarkerSpec) -> HierarchicalWatermarker:
    with _WORKER_WATERMARKERS_LOCK:
        watermarker = _WORKER_WATERMARKERS.pop(spec, None)
        if watermarker is None:
            watermarker = spec.build()
            while len(_WORKER_WATERMARKERS) >= _WORKER_WATERMARKER_CACHE_SIZE:
                _WORKER_WATERMARKERS.pop(next(iter(_WORKER_WATERMARKERS)))
        # Re-inserting on every hit keeps eviction LRU-ish (dicts preserve
        # insertion order), so a hot tenant's engine survives cache churn.
        _WORKER_WATERMARKERS[spec] = watermarker
        return watermarker


def _collect_binned(spec: WatermarkerSpec, piece: BinnedTable, mark_length: int) -> DetectionVotes:
    """Process-pool task: votes over one pickled shard."""
    return _worker_watermarker(spec).collect_votes(piece, mark_length)


def collect_raw_chunk(
    spec: WatermarkerSpec,
    schema: TableSchema,
    metadata: Mapping[str, object],
    header: str,
    lines: list[str],
    mark_length: int,
) -> tuple[int, DetectionVotes]:
    """Process-pool task: parse one raw CSV chunk and collect its votes.

    The chunk parses straight into column buffers
    (:meth:`~repro.relational.table.Table.from_csv_chunk`, the same
    :class:`~repro.relational.table.CsvParsePlan` the in-process reader
    uses), so a worker sees exactly what that reader would have produced.
    Returns
    ``(row_count, votes)``: the caller needs the count for the detection
    report and must not re-scan the chunk.
    """
    with _stage_span("detect.parse", lines=len(lines)):
        table = Table.from_csv_chunk(schema, header, lines)
    with _stage_span("detect.frame", rows=len(table)):
        binned = BinnedTable(table=table, **metadata)
    return len(table), _worker_watermarker(spec).collect_votes(binned, mark_length)


def _collect_chunk_task(
    context: TraceContext | None,
    spec: WatermarkerSpec,
    schema: TableSchema,
    metadata: Mapping[str, object],
    header: str,
    lines: list[str],
    mark_length: int,
) -> tuple[int, DetectionVotes, tuple]:
    """:func:`collect_raw_chunk` under a propagated trace scope.

    The third element is the spans recorded by a *foreign-process* worker
    (``()`` in-process, where spans go straight into the live tracer) — the
    submitting side ingests them into the request's tracer.
    """
    with _trace_adopt(context) as local:
        rows, votes = collect_raw_chunk(spec, schema, metadata, header, lines, mark_length)
    return rows, votes, tuple(local.export()) if local is not None else ()


def _run_in_trace_scope(context: TraceContext | None, fn: Callable, /, *args):
    """Run *fn* under a propagated same-process trace scope (thread pools)."""
    with _trace_adopt(context):
        return fn(*args)


@dataclass(frozen=True)
class ProtectPlan:
    """Everything pass 2 of a streamed protect needs, in picklable form.

    Pass 1 fixes the global aggregates: the :class:`~repro.binning.binner.BinPlan`
    (frontier node names, reachable through *metadata*) and the registered
    mark.  From then on every chunk is independent, and this plan is the whole
    per-chunk contract — a worker process rebuilds the watermarker from the
    :class:`WatermarkerSpec`, the identifier encryptor from the key material,
    and the ultimate generalizations from the metadata's trees + node names,
    all pure functions of the plan, so every runner produces bit-identical
    chunks.
    """

    spec: WatermarkerSpec
    schema: TableSchema
    metadata: Mapping[str, object]
    identifying_columns: tuple[str, ...]
    encryption_key: bytes | str
    mark_bits: str


@dataclass(frozen=True)
class ProtectedChunk:
    """One chunk's pass-2 output: serialised CSV text plus embed counters.

    *text* is the chunk's rows rendered exactly as
    :meth:`~repro.service.streaming.RowWriter.write_table` would render them
    (same ``csv`` dialect, no header), so the executor splices chunks into the
    output file byte-identically to a serial emit.  *seconds* is the worker's
    own wall clock over the chunk (parse through serialise), reported per
    chunk in the protect report.

    *spans* carries the chunk's telemetry spans when the work ran in a
    foreign process under a traced request (see
    :mod:`repro.telemetry.trace`); it is always ``()`` untraced and never
    affects the output text.
    """

    rows: int
    tuples_selected: int
    cells_changed: int
    seconds: float
    text: str
    spans: tuple = ()


def protect_raw_chunk(plan: ProtectPlan, header: str, lines: list[str]) -> ProtectedChunk:
    """Pool task: rewrite + embed + serialise one raw CSV chunk of a protect.

    Every stage reuses the serial path's own code rather than mirroring it —
    the chunk ingest of :func:`collect_raw_chunk`, the shared
    :func:`repro.binning.binner.rewrite_table` (over an ultimate
    generalization rebuilt from the metadata's trees + node names, with the
    identifying column batch-encrypted in one sweep), one
    :meth:`~repro.watermarking.hierarchical.HierarchicalWatermarker.embed`
    over the chunk's :class:`BinnedTable` view, and
    :func:`~repro.service.streaming.render_csv_rows` for the emit dialect —
    so the returned text is byte for byte what the serial path would have
    written for these records, by construction.
    """
    started = time.perf_counter()
    schema = plan.schema
    metadata = plan.metadata
    encryptor = FieldEncryptor(plan.encryption_key)
    trees: Mapping[str, object] = metadata["trees"]
    ultimate_nodes: Mapping[str, Sequence[str]] = metadata["ultimate_nodes"]
    ultimate = MultiColumnGeneralization(
        {
            column: Generalization.from_node_names(trees[column], ultimate_nodes[column])
            for column in metadata["quasi_columns"]
        }
    )

    with _stage_span("protect.parse", lines=len(lines)):
        parsed = Table.from_csv_chunk(schema, header, lines)
    table = rewrite_table(parsed, schema, encryptor, ultimate)
    binned = BinnedTable(table=table, identifying_columns=plan.identifying_columns, **metadata)
    embedding = _worker_watermarker(plan.spec).embed(binned, Mark.from_string(plan.mark_bits))
    with _stage_span("protect.serialize", rows=len(table)):
        text = render_csv_rows(schema, embedding.watermarked.table)
    return ProtectedChunk(
        rows=len(table),
        tuples_selected=embedding.tuples_selected,
        cells_changed=embedding.cells_changed,
        seconds=time.perf_counter() - started,
        text=text,
    )


def _protect_chunk_task(
    context: TraceContext | None, plan: ProtectPlan, header: str, lines: list[str]
) -> ProtectedChunk:
    """:func:`protect_raw_chunk` under a propagated trace scope.

    Spans recorded in a foreign process come back on the chunk itself
    (``ProtectedChunk.spans``); in-process they go straight into the live
    tracer and the field stays empty.
    """
    with _trace_adopt(context) as local:
        chunk = protect_raw_chunk(plan, header, lines)
    if local is not None:
        chunk = replace(chunk, spans=tuple(local.export()))
    return chunk


def _bounded_ordered(
    submit: Callable[[object], "object"],
    items: Iterable[object],
    window_size: int,
) -> Iterator[object]:
    """Yield future results in submission order with a bounded window.

    At most ``window_size + 1`` futures are in flight, so an unbounded chunk
    stream is never drained ahead of the workers (a plain ``Executor.map``
    would) — memory stays one window of chunks regardless of file size.
    """
    window: deque = deque()
    iterator = iter(items)
    exhausted = False
    while True:
        while not exhausted and len(window) <= window_size:
            item = next(iterator, _SENTINEL)
            if item is _SENTINEL:
                exhausted = True
                break
            window.append(submit(item))
        if not window:
            return
        yield window.popleft().result()


class ShardRunner:
    """Maps ``collect_votes`` over chunks; yields votes in chunk order.

    Subclasses override :meth:`_pool` and :meth:`_submit_binned` (and, when
    they can do better than "parse in the caller", :meth:`collect_csv`).
    Instances hold no pool state between calls.
    """

    name: str = "?"

    #: Whether :meth:`protect_csv` can run here.  False only for the remote
    #: fleet; the service falls back to a local runner for protect when its
    #: *default* runner is a detect fleet, and refuses when one is requested
    #: explicitly.
    supports_protect: bool = True

    # ------------------------------------------------------------- primitives
    def _pool(self, max_workers: int) -> Executor:
        raise NotImplementedError

    def _submit_binned(
        self,
        pool: Executor,
        watermarker: HierarchicalWatermarker,
        piece: BinnedTable,
        mark_length: int,
    ):
        raise NotImplementedError

    # ------------------------------------------------------------------- API
    def collect_tables(
        self,
        watermarker: HierarchicalWatermarker,
        chunks: Iterable[BinnedTable],
        mark_length: int,
        *,
        max_workers: int,
    ) -> Iterator[DetectionVotes]:
        """One :class:`DetectionVotes` per chunk, in chunk order."""
        with self._pool(max_workers) as pool:
            yield from _bounded_ordered(
                lambda piece: self._submit_binned(pool, watermarker, piece, mark_length),
                chunks,
                max_workers,
            )

    def collect_csv(
        self,
        watermarker: HierarchicalWatermarker,
        path: str,
        schema: TableSchema,
        metadata: Mapping[str, object],
        mark_length: int,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        max_workers: int,
        on_rows: Callable[[int], None] | None = None,
    ) -> Iterator[DetectionVotes]:
        """Votes per CSV chunk of *path*, parsed against *schema* + *metadata*.

        The base implementation parses in the calling thread (the thread
        runner's workers share memory, so shipping parsed chunk views is
        free); *on_rows* is invoked with each chunk's row count as it is
        ingested.
        """

        def views() -> Iterator[BinnedTable]:
            chunks = iter_tables(path, schema, chunk_size)
            while True:
                scope = _stage_span("detect.parse")
                with scope:
                    chunk = next(chunks, None)
                    if chunk is not None:
                        scope.set(rows=len(chunk))
                if chunk is None:
                    return
                if on_rows is not None:
                    on_rows(len(chunk))
                with _stage_span("detect.frame", rows=len(chunk)):
                    binned = BinnedTable(table=chunk, **metadata)
                yield binned

        yield from self.collect_tables(watermarker, views(), mark_length, max_workers=max_workers)

    def protect_csv(
        self,
        plan: ProtectPlan,
        path: str,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        max_workers: int,
    ) -> Iterator[ProtectedChunk]:
        """One :class:`ProtectedChunk` per raw chunk of *path*, in chunk order.

        Pass 2 of a streamed protect on this runner's pool: the caller's
        thread only splits lines (:func:`~repro.service.streaming.iter_raw_chunks`)
        and splices results; workers parse, rewrite, embed and serialise.  One
        implementation serves both pools — :func:`protect_raw_chunk` takes only
        the picklable plan, so thread workers run it in-process while process
        workers receive it pickled; either way at most ``max_workers + 1``
        chunks are in flight and results come back in submission order.
        """
        context = _trace_capture()
        tracer = _current_tracer()
        with self._pool(max_workers) as pool:
            for chunk in _bounded_ordered(
                lambda chunk: pool.submit(_protect_chunk_task, context, plan, chunk[0], chunk[1]),
                iter_raw_chunks(path, chunk_size),
                max_workers,
            ):
                if chunk.spans and tracer is not None:
                    tracer.ingest(chunk.spans)
                yield chunk


class ThreadRunner(ShardRunner):
    """PR 2's behavior: a thread pool sharing the watermarker and its caches."""

    name = "thread"

    def _pool(self, max_workers: int) -> Executor:
        return ThreadPoolExecutor(max_workers=max_workers)

    def _submit_binned(self, pool, watermarker, piece, mark_length):
        # Pool threads have no ambient trace scope; hand the submitting
        # thread's scope across so worker-side stage spans record into the
        # live tracer (a no-op untraced — the context is then None).
        return pool.submit(
            _run_in_trace_scope, _trace_capture(), watermarker.collect_votes, piece, mark_length
        )


class ProcessRunner(ShardRunner):
    """GIL-free detection: engines rebuilt per worker, votes shipped back.

    Workers receive a :class:`WatermarkerSpec` (hash objects don't pickle)
    plus either a pickled shard or a raw CSV chunk, and return only the
    chunk's :class:`DetectionVotes`.  On the CSV path the workers also parse,
    which is where most of a detect's cycles go — the caller's thread does
    nothing but line-splitting and merging.
    """

    name = "process"

    def _pool(self, max_workers: int) -> Executor:
        return ProcessPoolExecutor(max_workers=max_workers)

    def _submit_binned(self, pool, watermarker, piece, mark_length):
        return pool.submit(_collect_binned, WatermarkerSpec.of(watermarker), piece, mark_length)

    def collect_csv(
        self,
        watermarker: HierarchicalWatermarker,
        path: str,
        schema: TableSchema,
        metadata: Mapping[str, object],
        mark_length: int,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        max_workers: int,
        on_rows: Callable[[int], None] | None = None,
    ) -> Iterator[DetectionVotes]:
        spec = WatermarkerSpec.of(watermarker)
        context = _trace_capture()
        tracer = _current_tracer()
        with self._pool(max_workers) as pool:
            results = _bounded_ordered(
                lambda chunk: pool.submit(
                    _collect_chunk_task,
                    context,
                    spec,
                    schema,
                    metadata,
                    chunk[0],
                    chunk[1],
                    mark_length,
                ),
                iter_raw_chunks(path, chunk_size),
                max_workers,
            )
            for rows, votes, spans in results:
                if spans and tracer is not None:
                    tracer.ingest(spans)
                if on_rows is not None:
                    on_rows(rows)
                yield votes


class FleetError(RuntimeError):
    """Every worker of a remote fleet failed to serve a chunk (after retries)."""


#: Consecutive failures after which a worker is deprioritised for new chunks.
_DEPRIORITISE_AFTER = 3

#: Default number of full passes over the fleet before a chunk gives up.
DEFAULT_FLEET_ATTEMPTS = 2

#: Per-chunk POST timeout (seconds).  Deliberately much tighter than the
#: client's whole-file default: a chunk is ``chunk_size`` rows of parse +
#: vote collection (well under a second per 10k rows), and a worker that
#: accepts TCP but hangs must not stall failover for minutes.
DEFAULT_FLEET_TIMEOUT = 30.0


class _FleetCall:
    """Per-``collect*``-call failover state: one POST per chunk, fleet-wide retries.

    Chunk *index* starts at its round-robin worker (``index % n``) and walks
    the fleet from there.  Transport failures and 5xx responses mark the
    worker and move on; 4xx responses raise immediately — an auth or
    wire-format problem will be refused identically by every worker, so
    failing over would only repeat it.  Workers with
    ``_DEPRIORITISE_AFTER``-plus consecutive failures are skipped on the
    first pass (don't pay a connect timeout per chunk for a dead box) but
    retried on later passes, so a recovered worker rejoins without restart.
    """

    def __init__(
        self,
        workers: Sequence[tuple[str, object]],
        attempts: int,
        context: TraceContext | None = None,
    ) -> None:
        self._workers = list(workers)
        self._attempts = max(1, attempts)
        self._lock = threading.Lock()
        self._failures = [0] * len(self._workers)
        # Trace scope of the submitting thread: POSTs run on pool threads, so
        # the coordinator's trace id travels explicitly (request headers out,
        # worker spans ingested from the response).
        self._context = context

    def _trace_headers(self) -> dict[str, str] | None:
        if self._context is None:
            return None
        headers = {TRACE_HEADER: self._context.trace_id}
        if self._context.parent_id is not None:
            headers[PARENT_HEADER] = self._context.parent_id
        return headers

    def _consecutive_failures(self, slot: int) -> int:
        with self._lock:
            return self._failures[slot]

    def _record(self, slot: int, *, failed: bool) -> None:
        with self._lock:
            self._failures[slot] = self._failures[slot] + 1 if failed else 0

    def post(self, index: int, payload: dict) -> dict:
        import http.client as _http_client

        from repro.service.http.client import HTTPServiceError

        n = len(self._workers)
        errors: list[str] = []
        for attempt in range(self._attempts):
            for offset in range(n):
                slot = (index + offset) % n
                if attempt == 0 and self._consecutive_failures(slot) >= _DEPRIORITISE_AFTER:
                    continue
                url, client = self._workers[slot]
                try:
                    with _trace_adopt(self._context):
                        with _stage_span("http.client.detect_votes", chunk=index, worker=slot):
                            response = client.detect_votes(payload, headers=self._trace_headers())
                except HTTPServiceError as error:
                    if 400 <= error.status < 500:
                        raise  # auth/data/config error: every worker will refuse alike
                    # 5xx — and degenerate cases like a 200 with a corrupt
                    # body (a worker dying mid-response) — are this worker's
                    # problem, not the chunk's: fail over.
                    self._record(slot, failed=True)
                    errors.append(f"{url}: {error}")
                except (OSError, _http_client.HTTPException) as error:
                    # Connection refused/reset, timeouts, and half-written
                    # responses (IncompleteRead is an HTTPException, not an
                    # OSError) all mean "this worker is down".
                    self._record(slot, failed=True)
                    errors.append(f"{url}: {error!r}")
                else:
                    self._record(slot, failed=False)
                    if self._context is not None and self._context.tracer is not None:
                        self._context.tracer.ingest(response.get("spans") or ())
                    return response
        raise FleetError(
            f"all {n} remote worker(s) failed chunk {index} "
            f"after {self._attempts} attempt(s): " + "; ".join(errors[-n:])
        )


class RemoteRunner(ShardRunner):
    """Multi-machine detection: chunks out to a worker fleet, votes back.

    Each chunk becomes one ``POST /internal/detect-votes`` against a
    ``repro serve`` worker, carrying the raw CSV lines, the picklable
    watermarker spec and the JSON-able frontier metadata (trees are resolved
    worker-side — the fleet must share the coordinator's ontology and
    schema).  Responses carry that chunk's :class:`DetectionVotes`, yielded
    in chunk order, so the executor's merge/finalize is untouched and the
    result stays bit-identical to serial detection.  Workers never see the
    vault: the spec carries exactly the key material one detect needs, over
    the same bearer-token hop the rest of the HTTP surface uses (workers
    gate the endpoint behind their ``--admin-token``; pass it as *token*).

    ``max_workers`` bounds the chunks in flight (concurrent POSTs); failures
    fail over round-robin with bounded retries (:class:`_FleetCall`), and a
    fleet with no live workers raises :class:`FleetError`.
    """

    name = "remote"

    def __init__(
        self,
        worker_urls: Sequence[str],
        *,
        token: str | None = None,
        timeout: float | None = None,
        attempts: int = DEFAULT_FLEET_ATTEMPTS,
    ) -> None:
        # Imported here: http.client imports http.app (for the report header),
        # which imports this module — a load-time cycle, gone at call time.
        from repro.service.http.client import ServiceClient

        urls = [str(url) for url in worker_urls]
        if not urls:
            raise ValueError("remote runner needs at least one worker url (--worker-url)")
        timeout = DEFAULT_FLEET_TIMEOUT if timeout is None else timeout
        self._workers = [(url, ServiceClient(url, token, timeout=timeout)) for url in urls]
        self._attempts = attempts

    @property
    def worker_urls(self) -> tuple[str, ...]:
        return tuple(url for url, _ in self._workers)

    @property
    def connections_opened(self) -> int:
        """TCP connections opened across the fleet's clients.

        With keep-alive workers this stays near the fleet size however many
        chunks are posted — the end-to-end witness that chunk POSTs reuse
        connections (``tests/service/test_prefork.py`` asserts it).
        """
        return sum(client.connections_opened for _, client in self._workers)

    # ------------------------------------------------------------------- API
    def collect_csv(
        self,
        watermarker: HierarchicalWatermarker,
        path: str,
        schema: TableSchema,
        metadata: Mapping[str, object],
        mark_length: int,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        max_workers: int,
        on_rows: Callable[[int], None] | None = None,
    ) -> Iterator[DetectionVotes]:
        spec_json = spec_to_json(WatermarkerSpec.of(watermarker))
        metadata_json = metadata_to_json(metadata)

        def payloads() -> Iterator[tuple[int, dict]]:
            for index, (header, lines) in enumerate(iter_raw_chunks(path, chunk_size)):
                yield index, {
                    "spec": spec_json,
                    "metadata": metadata_json,
                    "mark_length": mark_length,
                    "header": header,
                    "lines": lines,
                }

        for response in self._post_stream(payloads(), max_workers):
            if on_rows is not None:
                on_rows(int(response["rows"]))
            yield votes_from_json(response["votes"])

    def collect_tables(
        self,
        watermarker: HierarchicalWatermarker,
        chunks: Iterable[BinnedTable],
        mark_length: int,
        *,
        max_workers: int,
    ) -> Iterator[DetectionVotes]:
        """The in-memory path: shards are rendered to CSV text and shipped.

        Requires cell values that round-trip their CSV text forms — true of
        any table that was read from or written to a CSV, i.e. every
        protected/suspect table the service handles.
        """
        spec_json = spec_to_json(WatermarkerSpec.of(watermarker))

        def payloads() -> Iterator[tuple[int, dict]]:
            for index, piece in enumerate(chunks):
                header, lines = table_to_csv_lines(piece.table)
                yield index, {
                    "spec": spec_json,
                    "metadata": binned_metadata_to_json(piece),
                    "mark_length": mark_length,
                    "header": header,
                    "lines": lines,
                }

        for response in self._post_stream(payloads(), max_workers):
            yield votes_from_json(response["votes"])

    supports_protect = False

    def protect_csv(
        self,
        plan: ProtectPlan,
        path: str,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        max_workers: int,
    ) -> Iterator[ProtectedChunk]:
        """Refused: the remote runner is detect-only.

        Detection ships small :class:`DetectionVotes` back; protect's result
        *is* the rows, so a fleet would pay row shipping in both directions —
        and, worse, expose raw (pre-encryption) identifiers to workers that
        are deliberately vault-blind.  Use ``--runner thread|process``.
        """
        raise ValueError(PROTECT_UNSUPPORTED_ERROR)

    # -------------------------------------------------------------- plumbing
    def _post_stream(
        self, payloads: Iterable[tuple[int, dict]], max_workers: int
    ) -> Iterator[dict]:
        call = _FleetCall(self._workers, self._attempts, context=_trace_capture())
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            yield from _bounded_ordered(
                lambda item: pool.submit(call.post, item[0], item[1]),
                payloads,
                max_workers,
            )


RUNNER_NAMES = ("thread", "process")
REMOTE_RUNNER_NAME = RemoteRunner.name


def resolve_runner(runner: "str | ShardRunner | None") -> ShardRunner:
    """A :class:`ShardRunner` instance from a name, an instance, or ``None``.

    ``None`` and ``"thread"`` give the thread runner (the default);
    ``"process"`` the process runner.  Instances pass through, which is how
    a :class:`RemoteRunner` (whose fleet urls and token cannot travel in a
    name) reaches the executor.
    """
    if runner is None:
        return ThreadRunner()
    if isinstance(runner, ShardRunner):
        return runner
    if runner == "thread":
        return ThreadRunner()
    if runner == "process":
        return ProcessRunner()
    if runner == REMOTE_RUNNER_NAME:
        raise ValueError(
            "the remote runner needs a worker fleet — construct "
            "RemoteRunner([worker_urls], token=...) and pass the instance "
            "(CLI: --runner remote --worker-url URL)"
        )
    raise ValueError(f"unknown runner {runner!r} (expected one of {', '.join(RUNNER_NAMES)})")
