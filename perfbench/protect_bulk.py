"""``protect-bulk``: two tenants outsource a large table each, in process.

A medical tenant protects a 100k-row medical CSV and a finance tenant a
50k-row finance CSV, through ``ProtectionService.protect`` with the
service's default runner and workers, each job on a vault restored from the
set-up snapshot.  Protect is the only work here: no HTTP, no vote
collection, no dispute.  The two domains differ in identifier format (SSN vs
10-digit account) and hierarchy shape, so a gain tuned to one shows on the
other.  Every output is checked byte for byte against the library path
(``ProtectionFramework.protect`` plus export) on the same input.
"""

from __future__ import annotations

import os

from harness import (
    copy_vault,
    median,
    percentile,
    program_config,
    repeated_setup,
    run_for,
    sha256_file,
    timed,
    verify_audit,
)

SIZES = {"medical": 100_000, "finance": 50_000, "warmup": 2_000}
PARAMS = {"k": 20, "eta": 50, "epsilon": 5}
TENANTS = {"medical": "clinic", "finance": "bank"}
DATASETS = {"medical": "outpatients", "finance": "transactions"}


def _domains():
    from repro.ontology.finance import financial_ontology, financial_schema
    from repro.ontology.registry import standard_ontology
    from repro.relational.schema import medical_schema

    return {
        "medical": (medical_schema(), dict(standard_ontology().items())),
        "finance": (financial_schema(), dict(financial_ontology().items())),
    }


def secrets_for(seed: int, tenant: str) -> dict:
    """Deterministic tenant secrets, so a seed fixes every output byte."""
    return {
        "encryption_key": f"perfbench-{seed}-{tenant}-encryption",
        "watermark_secret": f"perfbench-{seed}-{tenant}-watermark",
    }


class Env:
    """Inputs, the set-up snapshot and the library-path reference digests."""

    def __init__(self, ctx, sizes):
        from inputs import write_finance_csv, write_medical_csv

        self.ctx = ctx
        self.domains = _domains()
        self.raw, self.warm = {}, {}
        writers = {"medical": write_medical_csv, "finance": write_finance_csv}
        for domain, (_, trees) in self.domains.items():
            self.raw[domain] = ctx.path(f"{domain}.csv")
            writers[domain](self.raw[domain], sizes[domain], ctx.seed, trees)
            self.warm[domain] = ctx.path(f"{domain}-warmup.csv")
            writers[domain](self.warm[domain], sizes["warmup"], ctx.seed + 1, trees)
        self.rows = {domain: sizes[domain] for domain in self.domains}
        self.snapshot = ctx.path("vault.snapshot")
        self.live = ctx.path("vault")
        built, self.setup_s = repeated_setup(self._build)
        copy_vault(built, self.snapshot)
        self.reference = {domain: self._library_digest(domain) for domain in self.domains}

    def services(self, vault_dir: str) -> dict:
        from repro.service import KeyVault, ProtectionService

        vault = KeyVault(vault_dir)
        return {
            domain: ProtectionService(vault, schema=schema, trees=trees)
            for domain, (schema, trees) in self.domains.items()
        }

    def _build(self, attempt: int) -> str:
        """Vault init, tenant registration and a small warm-up protect per tenant."""
        from repro.service import KeyVault

        vault_dir = self.ctx.path(f"setup-{attempt}", "vault")
        KeyVault.init(vault_dir)
        services = self.services(vault_dir)
        for domain, service in services.items():
            tenant = TENANTS[domain]
            service.register_tenant(tenant, **PARAMS, **secrets_for(self.ctx.seed, tenant))
            out = self.ctx.path(f"setup-{attempt}", f"{domain}-warmup.out.csv")
            service.protect(tenant, self.warm[domain], out, dataset_id="warmup")
        return vault_dir

    def _library_digest(self, domain: str) -> str:
        """SHA-256 of the whole-table library protect plus export."""
        from repro.relational.columnar import ColumnarTable

        schema, _ = self.domains[domain]
        framework = self.services(self.snapshot)[domain].framework_for(TENANTS[domain])
        protected = framework.protect(ColumnarTable.from_csv(self.raw[domain], schema))
        out = self.ctx.path(f"{domain}.library.csv")
        protected.outsourced_table.to_csv(out)
        digest = sha256_file(out)
        os.remove(out)
        return digest

    def job(self, tally, corrupt=None, domains=None, **overrides) -> dict:
        """One outsourcing job: restore the vault, protect each table, check bytes.

        Returns ``{domain: (outcome, wall_seconds)}``.  *corrupt*, when
        given, is applied to each output before its check (the self-test's
        deliberately broken output).
        """
        copy_vault(self.snapshot, self.live)
        services = self.services(self.live)
        results = {}
        for domain in domains or services:
            service = services[domain]
            out = self.ctx.path(f"{domain}.protected.csv")
            try:
                outcome, wall = timed(
                    service.protect,
                    TENANTS[domain],
                    self.raw[domain],
                    out,
                    dataset_id=DATASETS[domain],
                    **overrides,
                )
            except Exception as error:  # noqa: BLE001 - a failed protect is a failed op
                tally.record(False, f"{domain} protect raised {error!r}")
                continue
            if corrupt is not None:
                corrupt(out)
            tally.record(
                sha256_file(out) == self.reference[domain] and outcome.rows == self.rows[domain],
                f"{domain} protect output differs from the library path",
            )
            results[domain] = (outcome, wall)
        return results


def run(ctx, tally, *, sizes=None, corrupt=None):
    env = Env(ctx, sizes or SIZES)
    config = {"rows": dict(env.rows), "params": PARAMS, **program_config(env.snapshot)}
    if ctx.trace:
        layers = _traced(ctx, env, tally, corrupt)
        verify_audit(env.live, tally)
        return {}, layers, config

    jobs, rows, protects = [], 0, 0

    def job() -> None:
        nonlocal rows, protects
        results = env.job(tally, corrupt)
        jobs.append(_job_seconds(results))
        rows += sum(outcome.rows for outcome, _ in results.values())
        protects += len(results)

    run_for(ctx.seconds, job)
    verify_audit(env.live, tally)
    busy = sum(jobs)
    config["jobs"] = len(jobs)
    metrics = {
        "setup_s": env.setup_s,
        "rows_per_s": rows / busy,
        "ops_per_s": protects / busy,
        "p50_ms": median(jobs) * 1e3,
        "p90_ms": percentile(jobs, 0.9) * 1e3,
    }
    return metrics, {}, config


def _job_seconds(results) -> float:
    return sum(seconds for _, seconds in results.values())


def _traced(ctx, env, tally, corrupt) -> dict:
    """Per-layer figures on the medical input, plus the tracing overhead."""
    from repro.crypto.cipher import FieldEncryptor
    from repro.relational.columnar import ColumnarTable
    from repro.telemetry.trace import Tracer, activate

    from layers import pass1, registry_and_audit, split_and_parse

    untraced = env.job(tally, corrupt)
    with activate(Tracer()):
        traced = env.job(tally, corrupt)
    layers = {"trace.overhead_ratio": _job_seconds(traced) / _job_seconds(untraced)}

    domain = "medical"
    schema, trees = env.domains[domain]
    raw = env.raw[domain]
    tenant = TENANTS[domain]
    default_outcome, default_wall = untraced[domain]
    chunks = list(default_outcome.chunk_seconds)
    layers["runners.chunk_p50_s"] = median(chunks)
    layers["runners.chunk_skew"] = max(chunks) / median(chunks)

    layers.update(split_and_parse(raw, schema))
    counts, layers["streaming.pass1_s"] = pass1(raw, schema, trees)

    framework = env.services(env.snapshot)[domain].framework_for(tenant)
    quasi = [column.name for column in schema.quasi_identifying_columns]
    _, layers["binning.plan_s"] = timed(
        framework.binning_agent.plan_from_counts, counts, columns=quasi
    )
    table = ColumnarTable.from_csv(raw, schema)
    encryptor = FieldEncryptor(framework.encryption_key)
    _, layers["crypto.encrypt_s"] = timed(encryptor.encrypt_many, table.column_values("ssn"))
    _, layers["library.protect_s"] = timed(framework.protect, table)
    binned = framework.binning_agent.bin(ColumnarTable.from_csv(raw, schema)).binned
    fresh = env.services(env.snapshot)[domain].framework_for(tenant)
    mark = fresh.register_statistic(framework.registered_statistic)
    _, layers["watermarking.embed_s"] = timed(fresh.watermarker().embed, binned, mark)

    serial = env.job(tally, corrupt, [domain], workers=1)[domain][1]
    process = env.job(tally, corrupt, [domain], runner="process")[domain][1]
    layers["facade.protect_serial_s"] = serial
    layers["facade.overhead_s"] = serial - layers["library.protect_s"]
    layers["runners.speedup"] = serial / default_wall
    layers["runners.process_speedup"] = serial / process
    layers.update(registry_and_audit(env.snapshot, ctx.path("registry-probe")))
    return layers
