"""``suspect-audit``: recover the mark from attacked copies and settle ownership.

Set-up protects a 20k-row medical table (paper scale).  A fixed, seeded
suite of suspect copies is then built from the library-path protected
table: the clean copy, subset alteration at 30/70/90%, subset deletion at
50/98%, subset addition at 100%, and an additive bogus-mark copy whose
rival claim is registered with ``register_claim``.

Each cycle (``CYCLE``) restores the vault snapshot and runs six detect
passes, each on a freshly opened ``ProtectionService`` (no digest warm from
protect) and each detecting every suspect with the registered code and
with ``code="soft"``; between them it disputes the clean and the bogus-mark
copy and runs a cold ``python -m repro detect --vault ...`` on the clean
copy twice.  A run is at least one cycle.  Detect never encrypts, so an
encryption-only change should leave the detect latencies flat; dispute
decrypts every identifier once per claim.

``p50_ms``/``p90_ms`` are over every detect of the run; ``rows_per_s`` and
``ops_per_s`` are one cycle's rows and operations over the cycle's time
with each step at its median (``Audit.cycle_cost``).
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

from harness import (
    child_env,
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
import http_probe
from protect_bulk import PARAMS, secrets_for

#: The suspect table's rows, and the sizes of the traced run's HTTP probe.
SIZES = {"rows": 20_000, "http": http_probe.SIZES}
TENANT = "owner"
DATASET = "audit"
CODES = (None, "soft")
#: Fields of a detect outcome that must repeat exactly in every pass.
DETECT_FIELDS = ("mark", "rows", "tuples_selected", "positions_with_votes", "coverage", "mark_loss")


def _attacks(seed: int):
    from repro.attacks import SubsetAdditionAttack, SubsetAlterationAttack, SubsetDeletionAttack

    return {
        "alter30": SubsetAlterationAttack(0.3, seed=seed),
        "alter70": SubsetAlterationAttack(0.7, seed=seed),
        "alter90": SubsetAlterationAttack(0.9, seed=seed),
        "delete50": SubsetDeletionAttack(0.5, seed=seed),
        "delete98": SubsetDeletionAttack(0.98, seed=seed),
        "add100": SubsetAdditionAttack(1.0, seed=seed),
    }


class Env:
    """The protected table, the suspect suite and the vault snapshot."""

    def __init__(self, ctx, sizes, tally):
        from repro.ontology.registry import standard_ontology
        from repro.relational.schema import medical_schema

        from inputs import write_medical_csv

        self.ctx = ctx
        self.schema = medical_schema()
        self.trees = dict(standard_ontology().items())
        self.raw = ctx.path("raw.csv")
        write_medical_csv(self.raw, sizes["rows"], ctx.seed, self.trees)
        (built, clean), self.setup_s = repeated_setup(self._build)
        self.suspects = {"clean": clean}
        self.suspect_rows = {"clean": sizes["rows"]}
        self._build_suite(built, tally)
        self.snapshot = ctx.path("vault.snapshot")
        self.live = ctx.path("vault")
        copy_vault(built, self.snapshot)

    def service(self, vault_dir: str):
        from repro.service import KeyVault, ProtectionService

        return ProtectionService(KeyVault(vault_dir), schema=self.schema, trees=self.trees)

    def _build(self, attempt: int) -> tuple[str, str]:
        """Vault init, tenant registration and the 20k-row protect."""
        from repro.service import KeyVault

        vault_dir = self.ctx.path(f"setup-{attempt}", "vault")
        KeyVault.init(vault_dir)
        service = self.service(vault_dir)
        service.register_tenant(TENANT, **PARAMS, **secrets_for(self.ctx.seed, TENANT))
        clean = self.ctx.path(f"setup-{attempt}", "clean.csv")
        service.protect(TENANT, self.raw, clean, dataset_id=DATASET)
        return vault_dir, clean

    def _build_suite(self, vault_dir: str, tally) -> None:
        """Attack the library-path protected table; register the rival's claim."""
        from repro.attacks import AdditiveMarkAttack
        from repro.relational.columnar import ColumnarTable

        service = self.service(vault_dir)
        framework = service.framework_for(TENANT)
        protected = framework.protect(ColumnarTable.from_csv(self.raw, self.schema))
        library = self.ctx.path("library.csv")
        protected.outsourced_table.to_csv(library)
        tally.record(
            sha256_file(library) == sha256_file(self.suspects["clean"]),
            "service protect differs from the library path",
        )
        watermarked = protected.watermarked
        for name, attack in _attacks(self.ctx.seed).items():
            self._write(name, attack.run(watermarked).attacked.table)
        bogus = AdditiveMarkAttack(seed=self.ctx.seed, eta=PARAMS["eta"]).run(watermarked)
        self._write("bogus", bogus.attack.attacked.table)
        service.register_claim(DATASET, bogus.attacker_claim)

    def _write(self, name: str, table) -> None:
        path = self.ctx.path(f"{name}.csv")
        table.to_csv(path)
        self.suspects[name] = path
        self.suspect_rows[name] = len(table)


#: One audit cycle.  Detect passes (every suspect under both codes, each
#: pass on a freshly opened service) sit between the slower operations, so
#: the detect samples span the whole run rather than a few stretches of it.
CYCLE = (
    ("detect",), ("detect",), ("dispute", "clean"), ("detect",), ("cli",),
    ("detect",), ("detect",), ("dispute", "bogus"), ("detect",), ("cli",),
)


class Audit:
    """Runs the cycle's operations one step at a time, checks every output, keeps the samples."""

    def __init__(self, env, tally):
        self.env = env
        self.tally = tally
        self.expected: dict = {}
        self.steps = 0
        self.latencies: list[float] = []
        self.passes: list[float] = []
        self.disputes: dict[str, list[float]] = {"clean": [], "bogus": []}
        self.cli: list[float] = []
        self.losses: list[float] = []
        self.dispute_ok: list[bool] = []

    def step(self) -> None:
        """The next operation of the cycle; a cycle starts on the set-up vault snapshot."""
        kind, *args = CYCLE[self.steps % len(CYCLE)]
        if self.steps % len(CYCLE) == 0:
            copy_vault(self.env.snapshot, self.env.live)
        self.steps += 1
        {"detect": self.detect_pass, "dispute": self._dispute, "cli": self._cli_detect}[kind](*args)

    def cycle(self) -> None:
        for _ in CYCLE:
            self.step()

    def detect_pass(self) -> None:
        service = self.env.service(self.env.live)
        total = 0.0
        for name in self.env.suspects:
            for code in CODES:
                total += self._detect(service, name, code)
        self.passes.append(total)

    def _detect(self, service, name: str, code) -> float:
        try:
            outcome, wall = timed(
                service.detect, TENANT, self.env.suspects[name], dataset_id=DATASET, code=code
            )
        except Exception as error:  # noqa: BLE001 - a failed detect is a failed op
            self.tally.record(False, f"detect {name}/{code} raised {error!r}")
            return 0.0
        self.latencies.append(wall)
        self._check_detect(name, code, outcome)
        return wall

    def _dispute(self, name: str) -> None:
        service = self.env.service(self.env.live)
        try:
            verdict, wall = timed(service.dispute, TENANT, self.env.suspects[name], dataset_id=DATASET)
        except Exception as error:  # noqa: BLE001 - a failed dispute is a failed op
            self.tally.record(False, f"dispute {name} raised {error!r}")
            return
        self.disputes[name].append(wall)
        ok = (
            verdict.winner == TENANT
            and verdict.valid_claimants == [TENANT]
            and len(verdict.assessments) >= 2
        )
        self.dispute_ok.append(ok)
        self.tally.record(ok, f"dispute over {name} did not name the owner alone: {verdict.valid_claimants}")

    def _check_detect(self, name, code, outcome) -> None:
        fields = {field: getattr(outcome, field) for field in DETECT_FIELDS}
        self.losses.append(outcome.mark_loss)
        if name == "clean":
            self.tally.record(outcome.mark_loss == 0.0, f"clean copy lost mark bits under {code}")
        first = self.expected.setdefault((name, code), fields)
        self.tally.record(first == fields, f"detect {name}/{code} changed between passes")

    def _cli_detect(self) -> None:
        env = self.env
        command = [
            sys.executable, "-m", "repro", "detect", env.suspects["clean"],
            "--vault", env.live, "--tenant", TENANT, "--dataset", DATASET, "--json",
        ]
        started = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, text=True, env=child_env(env.ctx), timeout=120)
        self.cli.append(time.perf_counter() - started)
        try:
            payload = json.loads(proc.stdout)
        except json.JSONDecodeError:
            payload = {}
        expected = self.expected.get(("clean", None), {})
        self.tally.record(
            proc.returncode == 0
            and payload.get("mark_loss") == 0.0
            and payload.get("mark") == expected.get("mark"),
            f"cold CLI detect failed (exit {proc.returncode}): {proc.stderr[-300:]!r}",
        )

    def cycle_cost(self) -> tuple[int, int, float]:
        """``(rows, operations, seconds)`` of one cycle, each step at its median time.

        Throughput then weighs detect, dispute and CLI by the cycle's fixed
        mix, whatever step the run's clock stopped at, and one slow stretch
        of the host moves a median rather than the total.
        """
        rows = self.env.suspect_rows
        pass_rows = 2 * sum(rows.values())
        cost = {
            "detect": (pass_rows, 2 * len(rows), median(self.passes)),
            "cli": (rows["clean"], 1, median(self.cli)),
        }
        for name, walls in self.disputes.items():
            cost[("dispute", name)] = (rows[name], 1, median(walls))
        steps = [cost[step[0] if len(step) == 1 else step] for step in CYCLE]
        return tuple(sum(column) for column in zip(*steps))


def run(ctx, tally, *, sizes=None):
    sizes = sizes or SIZES
    env = Env(ctx, sizes, tally)
    config = {
        "rows": dict(env.suspect_rows),
        "params": PARAMS,
        **program_config(env.snapshot),
        "codes": ["registered", "soft"],
    }
    audit = Audit(env, tally)
    # Warm-up: lazy imports and first-call costs are paid before timing.
    copy_vault(env.snapshot, env.live)
    Audit(env, tally).detect_pass()
    if ctx.trace:
        layers = _traced(ctx, env, audit, tally, sizes["http"])
    else:
        run_for(ctx.seconds, audit.step, min_calls=len(CYCLE))
    verify_audit(env.live, tally)
    config.update(steps=audit.steps, detects=len(audit.latencies))
    if ctx.trace:
        return {}, layers, config
    rows, ops, seconds = audit.cycle_cost()
    metrics = {
        "setup_s": env.setup_s,
        "rows_per_s": rows / seconds,
        "ops_per_s": ops / seconds,
        "p50_ms": median(audit.latencies) * 1e3,
        "p90_ms": percentile(audit.latencies, 0.9) * 1e3,
    }
    return metrics, {}, config


def _traced(ctx, env, audit, tally, http_sizes) -> dict:
    """Per-layer figures on the clean and bogus copies, the tracing overhead, the HTTP probe.

    One untraced cycle gives the dispute, CLI and quality figures; the
    tracing overhead is one traced detect pass over the cycle's median pass.
    """
    from repro.crypto.batch import WatermarkHashEngine
    from repro.crypto.cipher import FieldEncryptor
    from repro.relational.table import Table
    from repro.service.api import suspect_view
    from repro.service.streaming import iter_rows
    from repro.telemetry.trace import Tracer, activate

    from layers import split_and_parse

    audit.cycle()
    untraced = median(audit.passes)
    with activate(Tracer()):
        audit.detect_pass()
    layers = {
        "trace.overhead_ratio": audit.passes[-1] / untraced,
        "dispute.p50_s": median(audit.disputes["clean"] + audit.disputes["bogus"]),
        "cli.detect_p50_s": median(audit.cli),
        "quality.mark_loss_mean": sum(audit.losses) / len(audit.losses),
        "quality.dispute_correct_ratio": sum(audit.dispute_ok) / len(audit.dispute_ok),
    }
    clean, bogus = env.suspects["clean"], env.suspects["bogus"]
    layers.update(split_and_parse(clean, env.schema))

    service = env.service(env.snapshot)
    record = service.vault.tenant(TENANT)
    framework = service.framework_for(TENANT)
    table, layers["relational.row_load_s"] = timed(
        lambda: Table(env.schema, iter_rows(clean, env.schema))
    )
    binned = suspect_view(table, env.trees, env.schema, k=record.k, metrics_depth=record.metrics_depth)

    engine = WatermarkHashEngine(framework.watermark_key)
    columns = list(framework.watermark_columns or binned.quasi_columns)
    idents = binned.ident_values()
    _, layers["crypto.frame_s"] = timed(
        engine.tuple_coordinates, idents, columns, record.mark_length * record.copies
    )
    watermarker = env.service(env.snapshot).framework_for(TENANT).watermarker()
    soft = watermarker.with_code("soft")
    detector = env.service(env.snapshot).framework_for(TENANT)
    votes, layers["watermarking.collect_s"] = timed(watermarker.collect_votes, binned, record.mark_length)
    _, layers["watermarking.decode_s.repetition"] = timed(
        watermarker.finalize_votes, votes, record.mark_length
    )
    _, layers["watermarking.decode_s.soft"] = timed(soft.finalize_votes, votes, record.mark_length)
    _, layers["library.detect_s"] = timed(detector.detect, binned)

    disputed = Table(env.schema, iter_rows(bogus, env.schema))
    disputed_view = suspect_view(
        disputed, env.trees, env.schema, k=record.k, metrics_depth=record.metrics_depth
    )
    claims = service.claim_store.claims(DATASET)
    _, layers["framework.resolve_dispute_s"] = timed(
        framework.resolve_dispute, disputed_view, claims
    )
    tokens = disputed.column_values("ssn")
    started = time.perf_counter()
    for claim in claims:
        encryptor = FieldEncryptor(claim.encryption_key)
        for token in tokens:
            try:
                encryptor.decrypt(str(token))
            except (ValueError, UnicodeDecodeError):
                pass
    layers["crypto.decrypt_s"] = time.perf_counter() - started

    copy_vault(env.snapshot, ctx.path("serial-vault"))
    serial = env.service(ctx.path("serial-vault"))
    _, seconds = timed(serial.detect, TENANT, clean, dataset_id=DATASET, workers=1)
    layers["facade.detect_serial_ms"] = seconds * 1e3

    imports = []
    for _ in range(3):
        _, seconds = timed(
            subprocess.run,
            [sys.executable, "-c", "import repro.cli"],
            check=True,
            env=child_env(ctx),
            timeout=120,
        )
        imports.append(seconds)
    layers["cli.import_s"] = median(imports)
    layers.update(http_probe.layers(ctx, tally, http_sizes))
    return layers
