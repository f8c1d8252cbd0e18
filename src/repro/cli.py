"""Command-line interface: protect, detect and litigate CSV tables from the shell.

Two ways to hold the secrets:

**Vault mode** (recommended) — a persistent vault directory owns the secrets,
the registered statistics and the ownership claims, so every command works
from a cold process::

    python -m repro vault init V --tenant owner --k 20 --eta 75
    python -m repro protect raw.csv protected.csv --vault V
    python -m repro detect suspect.csv --vault V --dataset raw --workers 4
    python -m repro dispute suspect.csv --vault V --dataset raw

**Explicit-secret mode** (legacy) — the operator passes both secrets on every
invocation and retains the printed mark themselves::

    python -m repro protect raw.csv protected.csv \
        --k 20 --eta 75 --encryption-key E --watermark-secret W
    python -m repro detect protected.csv \
        --eta 75 --encryption-key E --watermark-secret W --expected-mark 1010...

**Remote mode** — a third way to hold the secrets: a server holds the vault
and the operator holds only a bearer token.  ``repro serve`` exposes a vault
over HTTP (see :mod:`repro.service.http`); protect/detect/dispute/status
then run against ``--url`` with ``--token``, streaming the CSVs both ways::

    python -m repro vault token V --tenant owner           # one-time
    python -m repro serve --vault V --port 8765 &
    python -m repro protect raw.csv protected.csv \
        --url http://127.0.0.1:8765 --token T
    python -m repro detect protected.csv --url http://127.0.0.1:8765 \
        --token T --dataset raw --runner process

Every subcommand accepts ``--json`` for a machine-readable report on stdout
(one JSON object; human text goes to stdout only in the default mode), which
is what the CI smoke job and the service frontends consume — failures too:
``--json`` failures print ``{"error": ...}``.  Exit codes are uniform across
modes: 0 success, 1 negative verdict (mark loss over threshold, dispute
lost), 2 operational error (missing vault, unknown tenant/dataset, bad CSV,
unreachable server).  The framework is deterministic, so the same secrets
always reproduce the same keys.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.binning.binner import BinnedTable
from repro.binning.kanonymity import EnforcementMode, KAnonymitySpec
from repro.framework.pipeline import ProtectionFramework
from repro.metrics.usage_metrics import UsageMetrics
from repro.ontology.registry import standard_ontology
from repro.relational.io import iter_csv_rows, write_csv_rows
from repro.relational.schema import medical_schema
from repro.relational.table import Table
from repro.service.api import DEFAULT_TENANT, ProtectionService, dataset_id_for, suspect_view
from repro.service.executor import ShardExecutor
from repro.service.http.app import ProtectionApp
from repro.service.http.client import HTTPServiceError, ServiceClient
from repro.service.http.prefork import (
    DEFAULT_HANDLER_THREADS,
    DEFAULT_KEEPALIVE_SECONDS,
    DEFAULT_MAX_REQUESTS_PER_CONNECTION,
    DEFAULT_QUEUE_LIMIT,
    PreForkServer,
    RateLimiter,
)
from repro.service.reports import DEFAULT_MAX_LOSS, detect_report, dispute_report, error_payload
from repro.service.runners import REMOTE_RUNNER_NAME, RUNNER_NAMES, FleetError, RemoteRunner
from repro.service.audit import AuditChainError
from repro.service.vault import KeyVault, VaultError, migrate_vault
from repro.telemetry.log import configure_json_logging
from repro.telemetry.trace import Tracer, activate as _trace_activate, format_span_tree
from repro.watermarking.ecc import resolve_code
from repro.watermarking.mark import Mark, mark_loss

__all__ = ["main", "build_parser"]

#: Exit statuses shared by every subcommand and both transports.
EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_ERROR = 2

#: Embedding parameters shared by protect/detect (explicit-secret mode) and
#: ``vault init``.  In vault mode the tenant record owns them, so passing any
#: of these flags alongside ``--vault`` is rejected rather than ignored.
PARAM_DEFAULTS = {
    "k": 20,
    "epsilon": 5,
    "eta": 75,
    "mark_length": 20,
    "copies": 4,
    "metrics_depth": 1,
}


def _framework(args: argparse.Namespace) -> ProtectionFramework:
    trees = dict(standard_ontology().items())
    return ProtectionFramework(
        trees,
        UsageMetrics.uniform_depth(trees, args.metrics_depth),
        KAnonymitySpec(k=args.k, mode=EnforcementMode.MONO, epsilon=args.epsilon),
        encryption_key=args.encryption_key,
        watermark_secret=args.watermark_secret,
        eta=args.eta,
        mark_length=args.mark_length,
        copies=args.copies,
        code=getattr(args, "code", None),
    )


def _load_raw_table(path: str) -> Table:
    return Table.from_csv(path, medical_schema())


def _load_protected_table(path: str, k: int, metrics_depth: int = 1) -> BinnedTable:
    """Rebuild a :class:`BinnedTable` view of an outsourced CSV for detection.

    Parsing (including the ``[lower,upper)`` interval round trip) lives in
    :mod:`repro.relational.io`; the frontier stand-ins for a table found in
    the wild live in :func:`repro.service.api.suspect_view`.
    """
    schema = medical_schema()
    table = Table(schema, iter_csv_rows(path, schema))
    return suspect_view(
        table, dict(standard_ontology().items()), schema, k=k, metrics_depth=metrics_depth
    )


def _emit(args: argparse.Namespace, payload: dict, human_lines: list[str]) -> None:
    """One JSON object in ``--json`` mode, the human report otherwise.

    Under ``--trace`` the report additionally carries the assembled span
    tree: a ``"trace"`` key in JSON mode, an indented tree after the human
    lines otherwise.  By the time a command emits, all service work is done,
    so every span — including those ingested from pool workers and remote
    fleet members — is closed and present.
    """
    tracer = getattr(args, "_tracer", None)
    if tracer is not None:
        payload = dict(payload)
        payload["trace"] = tracer.to_json()
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)
        if tracer is not None:
            print(f"trace {tracer.trace_id}:")
            for line in format_span_tree(tracer.spans):
                print("  " + line)


def _service(args: argparse.Namespace) -> ProtectionService:
    return ProtectionService(KeyVault(args.vault))


def _client(args: argparse.Namespace) -> ServiceClient:
    return ServiceClient(args.url, getattr(args, "token", None))


def _runner_for(args: argparse.Namespace):
    """The runner to hand the service: a name, or a built :class:`RemoteRunner`.

    ``--runner remote`` needs the fleet configuration (``--worker-url``,
    ``--worker-token``) that a bare name cannot carry, so the instance is
    constructed here; an empty fleet raises :class:`ValueError`, which
    ``main`` turns into the uniform exit-2 ``{"error": ...}`` document.
    """
    if getattr(args, "runner", None) != REMOTE_RUNNER_NAME:
        return args.runner
    return RemoteRunner(
        args.worker_urls or [], token=args.worker_token, timeout=args.worker_timeout
    )


# ------------------------------------------------------------------- commands
def _cmd_vault_init(args: argparse.Namespace) -> int:
    vault = KeyVault.init(args.path)
    # Register through the service facade so the very first tenant lands on
    # the audit chain as record 0, like every later registration.
    record = ProtectionService(vault).register_tenant(
        args.tenant,
        encryption_key=args.encryption_key,
        watermark_secret=args.watermark_secret,
        eta=args.eta,
        k=args.k,
        epsilon=args.epsilon,
        mark_length=args.mark_length,
        copies=args.copies,
        metrics_depth=args.metrics_depth,
        code=args.code,
    )
    _emit(
        args,
        {
            "vault": vault.root,
            "backend": vault.backend,
            "tenant": record.tenant_id,
            "eta": record.eta,
            "k": record.k,
            "mark_length": record.mark_length,
            "copies": record.copies,
            "code": record.code,
        },
        [
            f"initialised vault {vault.root}",
            f"  backend    : {vault.backend}",
            f"  tenant     : {record.tenant_id}",
            f"  parameters : k={record.k} eta={record.eta} "
            f"mark_length={record.mark_length} copies={record.copies} code={record.code}",
            "  secrets    : stored in the vault (mode 0600); back the directory up securely",
        ],
    )
    return 0


def _cmd_vault_migrate(args: argparse.Namespace) -> int:
    try:
        summary = migrate_vault(args.source, args.destination)
    except AuditChainError as error:
        payload = {"ok": False, "failed_index": error.index, "error": str(error)}
        reason = f"source audit chain BROKEN at record {error.index}: {error.reason}"
        _emit(args, payload, [f"refused: {reason}"])
        return EXIT_VERDICT
    _emit(
        args,
        {"source": args.source, "destination": args.destination, **summary},
        [
            f"migrated vault {args.source} (vault.json format) -> {args.destination}",
            f"  tenants       : {summary['tenants']}",
            f"  claims        : {summary['claims']}",
            f"  audit records : {summary['audit_records']} (chain verified while copying)",
        ],
    )
    return EXIT_OK


def _cmd_audit_verify(args: argparse.Namespace) -> int:
    log = KeyVault(args.vault).audit_log()
    try:
        count = log.verify()
    except AuditChainError as error:
        payload = {"ok": False, "failed_index": error.index, "error": str(error)}
        _emit(args, payload, [f"audit chain BROKEN at record {error.index}: {error.reason}"])
        return EXIT_VERDICT
    head = None
    for record in log.entries():
        head = record["digest"]
    payload = {"ok": True, "records": count, "head": head}
    lines = [f"audit chain OK: {count} records"]
    if head is not None:
        lines.append(f"  head digest: {head}")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_vault_status(args: argparse.Namespace) -> int:
    if args.url:
        status = _client(args).status(args.tenant)
    else:
        status = ProtectionService(KeyVault(args.path)).status()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
        return EXIT_OK
    backend = f" [{status['backend']}]" if status.get("backend") else ""
    print(f"vault {status.get('vault', args.url)}{backend}")
    for tenant, info in status["tenants"].items():
        print(f"  tenant {tenant}: k={info['k']} eta={info['eta']}")
        for dataset, details in info["datasets"].items():
            print(
                f"    dataset {dataset}: {details['rows']} rows, mark {details['mark']}, "
                f"claimants {', '.join(details['claimants']) or '-'}"
            )
    return EXIT_OK


def _cmd_vault_token(args: argparse.Namespace) -> int:
    vault = KeyVault(args.path)
    token = vault.issue_token(args.tenant)
    _emit(
        args,
        {"vault": vault.root, "tenant": args.tenant, "token": token},
        [
            f"issued bearer token for tenant {args.tenant}",
            f"  token: {token}",
            "  (only the SHA-256 digest is stored; re-run to rotate)",
        ],
    )
    return EXIT_OK


def _protect_lines(report: dict) -> list[str]:
    lines = [
        f"protected {report['rows']} rows -> {report['output']}",
        f"  tenant / dataset          : {report['tenant']} / {report['dataset']}",
        f"  binning information loss  : {report['information_loss']:.2%}",
        f"  cells changed by watermark: {report['cells_changed']}",
        f"  registered statistic v    : {report['registered_statistic']:.0f}",
        f"  mark F(v) (vaulted)       : {report['mark']}",
    ]
    if "runner" in report:
        lines.insert(
            2,
            f"  pass-2 runner / workers   : {report['runner']} / {report['workers']} "
            f"({report.get('chunks', 0)} chunks)",
        )
    return lines


def _cmd_protect(args: argparse.Namespace) -> int:
    if getattr(args, "runner", None) == REMOTE_RUNNER_NAME:
        # Raised (not parser.error'd) so --json callers get the uniform
        # exit-2 {"error": ...} document every other operational failure emits.
        raise ValueError(
            "protect: the remote runner is detect-only (protect ships rows, "
            "not votes); use --runner thread or --runner process"
        )
    if args.url:
        dataset = args.dataset or dataset_id_for(args.input)
        report = _client(args).protect(
            args.tenant,
            dataset,
            args.input,
            args.output,
            workers=args.workers,
            runner=args.runner,
        )
        _emit(args, report, _protect_lines(report))
        return EXIT_OK
    if args.vault:
        outcome = _service(args).protect(
            args.tenant,
            args.input,
            args.output,
            dataset_id=args.dataset,
            workers=args.workers,
            runner=args.runner,
        )
        _emit(args, outcome.to_json(), _protect_lines(outcome.to_json()))
        return EXIT_OK

    framework = _framework(args)
    table = _load_raw_table(args.input)
    protected = framework.protect(table)
    write_csv_rows(args.output, table.schema, protected.outsourced_table)

    result = protected.binning_result
    _emit(
        args,
        {
            "rows": len(table),
            "output": args.output,
            "information_loss": result.normalized_information_loss,
            "cells_changed": protected.embedding_report.cells_changed,
            "registered_statistic": protected.registered_statistic,
            "mark": str(protected.mark),
        },
        [
            f"protected {len(table)} rows -> {args.output}",
            f"  binning information loss : {result.normalized_information_loss:.2%}",
            f"  cells changed by watermark: {protected.embedding_report.cells_changed}",
            f"  registered statistic v    : {protected.registered_statistic:.0f}",
            f"  mark F(v) (retain this)   : {protected.mark}",
        ],
    )
    return 0


def _detect_lines(args: argparse.Namespace, payload: dict) -> list[str]:
    coverage = payload.get("coverage", 0.0)
    lines = [
        f"examined {payload['rows']} rows from {args.input}",
        f"  recovered mark : {payload['mark']}",
        f"  positions voted: {payload['positions_with_votes']} (coverage {coverage:.0%})",
    ]
    code = payload.get("code", "repetition")
    if code != "repetition":
        lines.append(f"  mark code      : {code} (corrected {payload.get('corrected_bits', 0)} bits)")
    if payload.get("expected_mark") is not None:
        lines += [
            f"  expected mark  : {payload['expected_mark']}",
            f"  mark loss      : {payload['mark_loss']:.0%}",
        ]
    return lines


def _detect_exit(payload: dict) -> int:
    # None = nothing to compare against (unregistered dataset), matching the
    # explicit-secret path; only an actual comparison yields a verdict.
    if payload.get("ok") is None:
        return EXIT_OK
    return EXIT_OK if payload["ok"] else EXIT_VERDICT


def _cmd_detect(args: argparse.Namespace) -> int:
    if args.url:
        payload = _client(args).detect(
            args.tenant,
            args.dataset or dataset_id_for(args.input),
            args.input,
            workers=args.workers,
            runner=args.runner,
            max_loss=args.max_loss,
            expected_mark=args.expected_mark,
            code=args.code,
        )
        _emit(args, payload, _detect_lines(args, payload))
        return _detect_exit(payload)
    if args.vault:
        outcome = _service(args).detect(
            args.tenant,
            args.input,
            dataset_id=args.dataset,
            workers=args.workers,
            runner=_runner_for(args),
            code=args.code,
        )
        payload = detect_report(
            outcome, expected_mark=args.expected_mark, max_loss=args.max_loss
        )
        _emit(args, payload, _detect_lines(args, payload))
        return _detect_exit(payload)

    framework = _framework(args)
    binned = _load_protected_table(args.input, args.k, args.metrics_depth)
    report = framework.detect(binned)
    payload: dict = {
        "rows": len(binned.table),
        "mark": str(report.mark),
        "coverage": report.coverage,
        "positions_with_votes": report.positions_with_votes,
        "code": report.code,
        "corrected_bits": report.corrected_bits,
        "bit_confidence": list(report.bit_confidence),
        "expected_mark": args.expected_mark or None,
        "mark_loss": None,
        "ok": None,
    }
    lines = [
        f"examined {len(binned.table)} rows from {args.input}",
        f"  recovered mark : {report.mark}",
        f"  positions voted: {report.positions_with_votes} (coverage {report.coverage:.0%})",
    ]
    if report.code != "repetition":
        lines.append(f"  mark code      : {report.code} (corrected {report.corrected_bits} bits)")
    exit_code = 0
    if args.expected_mark:
        expected = Mark.from_string(args.expected_mark)
        loss = mark_loss(expected, report.mark)
        payload["mark_loss"] = loss
        payload["ok"] = loss <= args.max_loss
        lines += [f"  expected mark  : {expected}", f"  mark loss      : {loss:.0%}"]
        exit_code = 0 if loss <= args.max_loss else 1
    _emit(args, payload, lines)
    return exit_code


def _cmd_dispute(args: argparse.Namespace) -> int:
    dataset = args.dataset or dataset_id_for(args.input)
    if args.url:
        payload = _client(args).dispute(args.tenant, dataset, args.input)
    else:
        verdict = _service(args).dispute(args.tenant, args.input, dataset_id=dataset)
        payload = dispute_report(dataset, verdict)
    lines = [f"dispute over {args.input}"]
    for assessment in payload["assessments"]:
        state = "VALID" if assessment["valid"] else "rejected"
        lines.append(
            f"  claim by {assessment['claimant']:<12}: {state} "
            f"(decrypt={assessment['decryption_ok']} statistic={assessment['statistic_ok']} "
            f"mark={assessment['mark_matches']})"
        )
    lines.append(f"  winner: {payload['winner'] or 'none (zero or several valid claims)'}")
    _emit(args, payload, lines)
    return EXIT_OK if payload["winner"] == args.tenant else EXIT_VERDICT


def _cmd_serve(args: argparse.Namespace) -> int:
    runner = _runner_for(args)
    executor = ShardExecutor(args.workers, runner=runner)
    service = ProtectionService(KeyVault(args.vault), executor=executor)
    app = ProtectionApp(
        service,
        admin_token=args.admin_token,
        max_upload_bytes=args.max_upload_mb * 1024 * 1024 if args.max_upload_mb else None,
        logger=configure_json_logging() if args.log_json else None,
    )
    rate_limiter = (
        RateLimiter(args.rate_limit, args.rate_burst) if args.rate_limit else None
    )
    # The pre-fork server is the serving layer even at --processes 1: the
    # single worker still gets keep-alive, the bounded admission queue and
    # graceful SIGTERM drain (docs/http.md, "Production serving").
    server = PreForkServer(
        app,
        args.host,
        args.port,
        processes=args.processes,
        keepalive_seconds=args.keepalive,
        max_requests_per_connection=args.max_requests_per_conn,
        queue_limit=args.queue_limit,
        handler_threads=args.handler_threads,
        rate_limiter=rate_limiter,
        metrics=app.metrics,
        verbose=args.verbose,
    )
    host, port = server.address
    url = f"http://{host}:{port}"
    fleet = list(getattr(runner, "worker_urls", ()))
    payload = {
        "url": url,
        "vault": service.vault.root,
        "runner": executor.runner_name,
        "workers": executor.max_workers,
        "registration": "admin-token" if args.admin_token else "open",
        "processes": server.processes,
        "reuseport": server.reuseport,
        "keepalive_seconds": args.keepalive,
        "queue_limit": args.queue_limit,
        "rate_limit": args.rate_limit,
    }
    lines = [
        f"serving vault {service.vault.root} at {url}",
        f"  runner / workers : {executor.runner_name} / {executor.max_workers}",
        f"  registration     : {'admin-token gated' if args.admin_token else 'open'}",
        f"  processes        : {server.processes} "
        f"({'SO_REUSEPORT' if server.reuseport else 'inherited socket'})",
        f"  keep-alive       : {args.keepalive:g}s idle, "
        f"{args.max_requests_per_conn} requests/connection, queue {args.queue_limit}",
    ]
    if args.rate_limit:
        lines.append(
            f"  rate limit       : {args.rate_limit:g} req/s per token "
            f"(burst {args.rate_burst or 'auto'}) per worker"
        )
    if fleet:
        payload["fleet"] = fleet
        lines.append(f"  worker fleet     : {', '.join(fleet)}")
    lines.append("  stop with Ctrl-C (SIGTERM drains gracefully)")
    # Workers are forked (and listening) before the URL is announced, so a
    # supervisor may connect the moment it parses this payload.
    server.start()
    _emit(args, payload, lines)
    sys.stdout.flush()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return EXIT_OK


# --------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_params(sub: argparse.ArgumentParser, *, vault_aware: bool = False) -> None:
        # Vault-aware subcommands take their parameters from the tenant record;
        # explicit values there are a conflict (caught in main()), so the
        # parser-level default must be "not given" rather than the constant.
        def default_for(name: str):
            return None if vault_aware else PARAM_DEFAULTS[name]

        sub.add_argument("--k", type=int, default=default_for("k"), help="k-anonymity parameter (default 20)")
        sub.add_argument("--epsilon", type=int, default=default_for("epsilon"), help="k + epsilon margin of Section 6")
        sub.add_argument("--eta", type=int, default=default_for("eta"), help="selection modulus (default 75)")
        sub.add_argument("--mark-length", type=int, default=default_for("mark_length"), help="mark length in bits")
        sub.add_argument("--copies", type=int, default=default_for("copies"), help="mark replication factor")
        sub.add_argument("--metrics-depth", type=int, default=default_for("metrics_depth"), help="usage-metric frontier depth")

    def add_secrets(sub: argparse.ArgumentParser, *, required_without_vault: bool) -> None:
        help_suffix = " (required unless --vault is given)" if required_without_vault else ""
        sub.add_argument("--encryption-key", help="identifier encryption secret" + help_suffix)
        sub.add_argument("--watermark-secret", help="watermarking master secret" + help_suffix)

    def add_vault(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--vault", help="vault directory holding secrets and ownership records")
        sub.add_argument("--tenant", default=DEFAULT_TENANT, help="tenant id within the vault")
        sub.add_argument("--dataset", help="dataset id within the vault (default: input file stem)")

    def add_url(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--url", help="protection server base URL (client mode; see 'repro serve')")
        sub.add_argument("--token", help="bearer token for --url (see 'repro vault token')")

    def add_json(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--json", action="store_true", help="emit a machine-readable JSON report")

    def add_trace(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--trace",
            action="store_true",
            help="collect a cross-process span tree for this command; printed after "
            'the report (or embedded as the "trace" key in --json mode)',
        )

    def add_fleet(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--worker-url",
            action="append",
            dest="worker_urls",
            metavar="URL",
            help="remote worker base URL for --runner remote (repeat per worker)",
        )
        sub.add_argument(
            "--worker-token",
            help="bearer token presented to the --worker-url fleet (the workers' admin token)",
        )
        sub.add_argument(
            "--worker-timeout",
            type=float,
            help="per-chunk POST timeout in seconds (default 30; hung workers fail over)",
        )

    vault = subparsers.add_parser("vault", help="manage persistent protection vaults")
    vault_sub = vault.add_subparsers(dest="vault_command", required=True)
    vault_init = vault_sub.add_parser("init", help="create a vault and register its first tenant")
    vault_init.add_argument("path", help="vault directory to create")
    vault_init.add_argument("--tenant", default=DEFAULT_TENANT, help="tenant id to register")
    vault_init.add_argument(
        "--code",
        default="repetition",
        help='mark code used to encode/decode the mark (e.g. "repetition", "soft", "interleaved")',
    )
    add_params(vault_init)
    add_secrets(vault_init, required_without_vault=False)
    add_json(vault_init)
    vault_init.set_defaults(func=_cmd_vault_init)
    vault_migrate = vault_sub.add_parser(
        "migrate",
        help="convert a vault in the retired vault.json format into a fresh vault, "
        "verifying and replaying its audit chain",
    )
    vault_migrate.add_argument("source", help="vault.json-format directory to read (never modified)")
    vault_migrate.add_argument("destination", help="vault directory to create")
    add_json(vault_migrate)
    vault_migrate.set_defaults(func=_cmd_vault_migrate)
    vault_status = vault_sub.add_parser("status", help="list a vault's tenants and datasets")
    vault_status.add_argument("path", nargs="?", help="vault directory to inspect")
    vault_status.add_argument(
        "--tenant", default=None, help="restrict to one tenant (required scope in --url mode)"
    )
    add_url(vault_status)
    add_json(vault_status)
    vault_status.set_defaults(func=_cmd_vault_status)
    vault_token = vault_sub.add_parser(
        "token", help="issue (or rotate) a tenant's bearer token for the HTTP frontend"
    )
    vault_token.add_argument("path", help="vault directory holding the tenant")
    vault_token.add_argument("--tenant", default=DEFAULT_TENANT, help="tenant id within the vault")
    add_json(vault_token)
    vault_token.set_defaults(func=_cmd_vault_token)

    audit = subparsers.add_parser(
        "audit", help="inspect and verify a vault's hash-chained audit log"
    )
    audit_sub = audit.add_subparsers(dest="audit_command", required=True)
    audit_verify = audit_sub.add_parser(
        "verify",
        help="walk the chain, recomputing every digest; exit 1 with the exact "
        "failing index when any record was edited, deleted or reordered",
    )
    audit_verify.add_argument("--vault", required=True, help="vault directory holding the chain")
    add_json(audit_verify)
    audit_verify.set_defaults(func=_cmd_audit_verify)

    protect = subparsers.add_parser("protect", help="bin + watermark a raw CSV table")
    protect.add_argument("input", help="raw CSV with columns ssn,age,zip_code,doctor,symptom,prescription")
    protect.add_argument("output", help="path of the outsourced CSV to write")
    protect.add_argument("--workers", type=int, help="parallel pass-2 (rewrite+embed) workers")
    protect.add_argument(
        "--runner",
        choices=(*RUNNER_NAMES, REMOTE_RUNNER_NAME),
        help="where pass 2 runs: thread (default) or process "
        "(remote is detect-only and is rejected)",
    )
    protect.add_argument(
        "--code",
        help="mark code for embedding (explicit-secret mode only; vault tenants fix it at registration)",
    )
    add_params(protect, vault_aware=True)
    add_secrets(protect, required_without_vault=True)
    add_vault(protect)
    add_url(protect)
    add_json(protect)
    add_trace(protect)
    protect.set_defaults(func=_cmd_protect)

    detect = subparsers.add_parser("detect", help="recover the mark from an outsourced CSV table")
    detect.add_argument("input", help="outsourced CSV to examine")
    detect.add_argument("--expected-mark", help="bit string to compare the recovered mark against")
    detect.add_argument(
        "--max-loss", type=float, default=DEFAULT_MAX_LOSS, help="mark-loss threshold for exit status"
    )
    detect.add_argument("--workers", type=int, help="shard-parallel detection workers")
    detect.add_argument(
        "--runner",
        choices=(*RUNNER_NAMES, REMOTE_RUNNER_NAME),
        help="where shard votes are collected: thread (default), process, "
        "or remote — a --worker-url fleet (vault mode)",
    )
    detect.add_argument(
        "--code",
        help='decode with this mark code (e.g. "soft") instead of the registered one; '
        "only codes sharing the repetition encoder can be swapped at detect time",
    )
    add_fleet(detect)
    add_params(detect, vault_aware=True)
    add_secrets(detect, required_without_vault=True)
    add_vault(detect)
    add_url(detect)
    add_json(detect)
    add_trace(detect)
    detect.set_defaults(func=_cmd_detect)

    dispute = subparsers.add_parser(
        "dispute", help="resolve ownership of a disputed CSV from vaulted claims"
    )
    dispute.add_argument("input", help="disputed CSV to assess")
    dispute.add_argument("--vault", help="vault directory holding the claims")
    dispute.add_argument("--tenant", default=DEFAULT_TENANT, help="tenant expected to prevail")
    dispute.add_argument("--dataset", help="dataset id of the claims (default: input file stem)")
    add_url(dispute)
    add_json(dispute)
    dispute.set_defaults(func=_cmd_dispute)

    serve = subparsers.add_parser(
        "serve", help="expose a vault's protection service over HTTP (pre-fork keep-alive server)"
    )
    serve.add_argument("--vault", required=True, help="vault directory to serve")
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765, help="bind port (0 = ephemeral, printed)")
    serve.add_argument(
        "--runner",
        choices=(*RUNNER_NAMES, REMOTE_RUNNER_NAME),
        default="thread",
        help="default shard runner for detects (remote = coordinate a --worker-url fleet)",
    )
    serve.add_argument("--workers", type=int, help="shard workers per detect (default: cpu-bound)")
    serve.add_argument(
        "--processes",
        type=int,
        default=1,
        help="pre-fork this many worker processes sharing the port via "
        "SO_REUSEPORT (size to CPU cores; default 1)",
    )
    serve.add_argument(
        "--keepalive",
        type=float,
        default=DEFAULT_KEEPALIVE_SECONDS,
        metavar="SECONDS",
        help=f"idle seconds before a kept-alive connection closes "
        f"(default {DEFAULT_KEEPALIVE_SECONDS:g})",
    )
    serve.add_argument(
        "--max-requests-per-conn",
        type=int,
        default=DEFAULT_MAX_REQUESTS_PER_CONNECTION,
        help=f"requests served per connection before it is recycled "
        f"(default {DEFAULT_MAX_REQUESTS_PER_CONNECTION})",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=DEFAULT_QUEUE_LIMIT,
        help=f"connections queued per worker before new arrivals shed with "
        f"503 + Retry-After (default {DEFAULT_QUEUE_LIMIT})",
    )
    serve.add_argument(
        "--handler-threads",
        type=int,
        default=DEFAULT_HANDLER_THREADS,
        help=f"concurrent connections handled per worker process "
        f"(default {DEFAULT_HANDLER_THREADS})",
    )
    serve.add_argument(
        "--rate-limit",
        type=float,
        metavar="REQ_PER_SEC",
        help="per-tenant token-bucket rate limit keyed on the bearer token, "
        "applied per worker process (429 beyond it; default: unlimited)",
    )
    serve.add_argument(
        "--rate-burst",
        type=int,
        help="token-bucket burst capacity (default: 2x the rate)",
    )
    add_fleet(serve)
    serve.add_argument(
        "--admin-token",
        help="gate tenant registration and vault-wide status behind this token (default: open)",
    )
    serve.add_argument(
        "--max-upload-mb", type=int, help="reject uploads larger than this many MiB (413)"
    )
    serve.add_argument("--verbose", action="store_true", help="log one line per request to stderr")
    serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON logs to stderr (one object per request, "
        "trace-stamped, redacted — see docs/observability.md)",
    )
    add_json(serve)
    serve.set_defaults(func=_cmd_serve)

    return parser


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    if args.command == "serve":
        if args.processes < 1:
            parser.error("serve: --processes must be at least 1")
        if args.rate_burst is not None and not args.rate_limit:
            parser.error("serve: --rate-burst requires --rate-limit")
        if args.rate_limit is not None and args.rate_limit <= 0:
            parser.error("serve: --rate-limit must be positive (requests/second)")
    if getattr(args, "runner", None) != REMOTE_RUNNER_NAME:
        # Reject, never silently drop, fleet flags outside remote mode.
        for flag in ("worker_urls", "worker_token", "worker_timeout"):
            if getattr(args, flag, None) is not None:
                name = "--worker-url" if flag == "worker_urls" else "--" + flag.replace("_", "-")
                parser.error(f"{args.command}: {name} requires --runner remote")
    if args.command == "detect" and args.url and args.runner == REMOTE_RUNNER_NAME:
        # The ?runner= query parameter cannot carry a fleet; start the server
        # itself with --runner remote --worker-url ... instead.
        parser.error(
            "detect: --runner remote requires --vault (a --url client cannot "
            "ship worker urls; configure the fleet on the server's 'repro serve')"
        )
    if args.command in ("protect", "detect"):
        if args.code is not None:
            try:
                resolve_code(args.code)
            except ValueError as error:
                parser.error(f"{args.command}: {error}")
        if args.url and args.vault:
            parser.error(f"{args.command}: --url (client mode) conflicts with --vault")
        if args.command == "protect" and (args.url or args.vault) and args.code is not None:
            # Embedding parameters are write-once on the tenant record; only
            # detect may swap the decoder.
            owner = "--vault" if args.vault else "--url"
            parser.error(
                f"protect: --code conflicts with {owner} "
                "(the mark code is fixed at tenant registration; use 'vault init --code')"
            )
        if args.url or args.vault:
            # The vault's tenant record — local or behind the server — owns
            # parameters and secrets; silently ignoring explicit flags would
            # misattribute the result.
            owner = "--vault" if args.vault else "--url"
            conflicting = [name for name in PARAM_DEFAULTS if getattr(args, name) is not None]
            conflicting += [
                name for name in ("encryption_key", "watermark_secret") if getattr(args, name)
            ]
            if conflicting:
                flags = ", ".join("--" + name.replace("_", "-") for name in conflicting)
                parser.error(
                    f"{args.command}: {flags} conflict with {owner} "
                    "(the tenant record in the vault owns these settings)"
                )
        else:
            if not args.encryption_key or not args.watermark_secret:
                parser.error(
                    f"{args.command}: --encryption-key and --watermark-secret are required "
                    "when no --vault or --url is given"
                )
            if args.workers is not None or args.runner:
                # The explicit-secret path runs serially in-process (protect
                # and detect alike); silently dropping these flags would
                # misattribute a benchmark, exactly like the parameter
                # conflicts above.
                parser.error(
                    f"{args.command}: --workers/--runner require --vault or --url "
                    "(the explicit-secret path is serial in-process)"
                )
            for name, value in PARAM_DEFAULTS.items():
                if getattr(args, name) is None:
                    setattr(args, name, value)
    if args.command == "dispute" and bool(args.vault) == bool(args.url):
        parser.error("dispute: exactly one of --vault or --url is required")
    if args.command == "vault" and args.vault_command == "status":
        if bool(args.path) == bool(args.url):
            parser.error("vault status: exactly one of PATH or --url is required")
        if args.url and not args.tenant:
            parser.error("vault status: --url mode needs --tenant (tenant-scoped token auth)")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    tracer = Tracer() if getattr(args, "trace", False) else None
    args._tracer = tracer
    try:
        if tracer is None:
            return args.func(args)
        # --trace: the whole command runs under one ambient trace — local
        # stages record directly, pool workers and fleet members ship their
        # spans back, and _emit prints the assembled tree.
        with _trace_activate(tracer):
            return args.func(args)
    except (VaultError, HTTPServiceError, FleetError, OSError, ValueError) as error:
        # Operational failures — missing vault, unknown tenant/dataset, a CSV
        # that does not parse, an unreachable or refusing server, an empty or
        # dead worker fleet — exit 2 with the uniform {"error": ...} document
        # in --json mode.
        if getattr(args, "json", False):
            print(json.dumps(error_payload(str(error)), indent=2, sort_keys=True))
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
