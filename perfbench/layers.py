"""Per-layer figures, measured from outside by timing calls into public functions.

Each workload's traced run times the layers its own operations pass through,
on its own inputs.  A layer a workload never enters reports 0, so every
traced run emits the same names; ``PER_LAYER`` is the one list of them.
"""

from __future__ import annotations

import time

from harness import copy_vault, median, timed

#: Every per-layer metric, with its unit, in report order.
PER_LAYER: dict[str, str] = {
    "crypto.encrypt_s": "s",
    "crypto.decrypt_s": "s",
    "crypto.frame_s": "s",
    "relational.parse_s": "s",
    "relational.row_load_s": "s",
    "streaming.pass1_s": "s",
    "streaming.chunk_split_s": "s",
    "binning.plan_s": "s",
    "watermarking.embed_s": "s",
    "watermarking.collect_s": "s",
    "watermarking.decode_s.repetition": "s",
    "watermarking.decode_s.soft": "s",
    "library.protect_s": "s",
    "library.detect_s": "s",
    "framework.resolve_dispute_s": "s",
    "facade.protect_serial_s": "s",
    "facade.overhead_s": "s",
    "facade.detect_serial_ms": "ms",
    "runners.speedup": "ratio",
    "runners.process_speedup": "ratio",
    "runners.chunk_p50_s": "s",
    "runners.chunk_skew": "ratio",
    "registry.write_ms": "ms",
    "registry.read_ms": "ms",
    "audit.append_ms": "ms",
    "http.overhead_ms.detect": "ms",
    "http.overhead_ms.protect": "ms",
    "http.server_ms": "ms",
    "http.shed_ratio": "fraction",
    "http.conn_per_request": "ratio",
    "http.generator_lag_ms": "ms",
    "cli.import_s": "s",
    "cli.detect_p50_s": "s",
    "dispute.p50_s": "s",
    "quality.mark_loss_mean": "fraction",
    "quality.dispute_correct_ratio": "fraction",
    "trace.overhead_ratio": "ratio",
    "error_ratio": "fraction",
}

#: Mutations/reads timed per registry figure; the median is reported.
REGISTRY_SAMPLES = 20


def split_and_parse(path: str, schema) -> dict[str, float]:
    """``iter_raw_chunks`` alone, then ``ColumnarTable.from_csv_chunk`` over its chunks."""
    from repro.relational.columnar import ColumnarTable
    from repro.service.streaming import iter_raw_chunks

    chunks, split = timed(lambda: list(iter_raw_chunks(path)))
    started = time.perf_counter()
    for header, lines in chunks:
        ColumnarTable.from_csv_chunk(schema, header, lines)
    parse = time.perf_counter() - started
    return {"streaming.chunk_split_s": split, "relational.parse_s": parse}


def pass1(path: str, schema, trees) -> tuple[dict, float]:
    """Protect's first pass replicated from outside: leaf counts and the identifier sum."""
    from repro.service.streaming import iter_rows

    identifying = [column.name for column in schema.identifying_columns]
    quasi = [column.name for column in schema.quasi_identifying_columns]
    started = time.perf_counter()
    counts = {column: {leaf: 0 for leaf in trees[column].leaves()} for column in quasi}
    ident_sum = 0.0
    for row in iter_rows(path, schema):
        for column in identifying:
            text = str(row[column])
            if text.isdigit():
                ident_sum += float(int(text))
        for column in quasi:
            counts[column][trees[column].leaf_for_raw(row[column])] += 1
    return counts, time.perf_counter() - started


def registry_and_audit(vault_snapshot: str, scratch: str) -> dict[str, float]:
    """Registry writes/reads and audit appends on a copy of the workload's vault."""
    from repro.service import KeyVault
    from repro.service.vault import DatasetRecord

    copy_vault(vault_snapshot, scratch)
    vault = KeyVault(scratch)
    audit = vault.audit_log()
    writes, reads, appends = [], [], []
    for index in range(REGISTRY_SAMPLES):
        tenant = f"layer-probe-{index}"
        started = time.perf_counter()
        vault.register_tenant(tenant, k=20, eta=50, epsilon=5)
        vault.record_dataset(
            tenant, DatasetRecord(dataset_id="probe", registered_statistic=1.0e8, mark_bits="0" * 20)
        )
        writes.append(time.perf_counter() - started)
        token = vault.issue_token(tenant)
        started = time.perf_counter()
        vault.tenant(tenant)
        ok = vault.verify_token(tenant, token)
        reads.append(time.perf_counter() - started)
        if not ok:
            raise RuntimeError("a freshly issued token did not verify")
        started = time.perf_counter()
        audit.append("probe", tenant, dataset="probe", payload={"index": index})
        appends.append(time.perf_counter() - started)
    return {
        "registry.write_ms": median(writes) * 1e3,
        "registry.read_ms": median(reads) * 1e3,
        "audit.append_ms": median(appends) * 1e3,
    }
