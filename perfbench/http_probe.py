"""The HTTP layer probe: the shipped pre-fork server under a seeded request mix.

Runs inside ``suspect-audit``'s traced run and yields the ``http.*`` and
registry per-layer figures.  It is not a workload: its end-to-end latency
and capacity swing with the host's speed far more than the in-process
workloads do (three server processes and the client share two cores), so
it measures layers only.

A ``repro serve --processes <nproc>`` subprocess serves a vault holding
about 200 tenants and their issued tokens; a few of them own a protected
2k-row dataset.  One client process keeps at most ``nproc`` keep-alive
connections open, and closes a tenant's client before opening the next one
(an idle keep-alive connection parks a server handler thread, so hoarding
them would measure that artefact, not the server).

* Open loop: requests are due on a fixed-rate schedule and timed from
  when they were due, so a stall also charges the requests queued behind
  it.  Mix: 1/2 detect of a 2k-row suspect with the tenant's own token, 1/4
  tenant status, 1/8 protect of a 2k-row file under a fresh dataset id, 1/8
  tenant registration through the admin endpoint.
* Closed loop: ``nproc`` connections send the same mix back to back, once
  untraced and once with a tracer per request.

With 2k-row tables per-request fixed costs dominate: HTTP framing, bearer
checks, registry reads and writes, the fsync'd audit append per mutation,
spooling and per-tenant framework rebuilds in each worker.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time

from harness import child_env, copy_vault, median, percentile, sha256_file, timed, verify_audit
from protect_bulk import PARAMS, secrets_for

SIZES = {"tenants": 200, "active": 8, "rows": 2_000}
#: Open-loop arrival rate (requests/s): about a third of the closed-loop
#: capacity (27-36 requests/s on a 2-core host at this mix), so the open
#: loop meets a server that keeps up rather than a growing queue.
OPEN_LOOP_RATE = 10.0
#: Length of each of the three phases (open loop, closed loop, traced closed
#: loop), scaled down for runs shorter than :data:`FULL_SECONDS`.
SEGMENT_SECONDS = 4.0
FULL_SECONDS = 12.0
#: Untimed warm-up sessions per active tenant after set-up, so that every
#: worker process has likely built each active tenant's framework before
#: timing starts (connections land on workers at random).
WARMUP_SESSIONS = 2
#: Consecutive requests one tenant sends over one connection.
SESSION_LENGTH = 4
#: One block of the mix; each block is shuffled by the seed.
MIX_BLOCK = ("detect",) * 4 + ("status",) * 2 + ("protect", "register")
DETECT_FIELDS = ("mark", "rows", "tuples_selected", "positions_with_votes", "coverage", "mark_loss")


def tenant_id(index: int) -> str:
    return f"t{index:03d}"


class Server:
    """A ``repro serve`` subprocess; stdout/stderr go to files, never to pipes."""

    def __init__(self, ctx, vault_dir: str):
        self.log = ctx.path("serve.out")
        self.err = ctx.path("serve.err")
        command = [
            sys.executable, "-m", "repro", "serve", "--vault", vault_dir, "--port", "0",
            "--processes", str(ctx.nproc), "--json",
        ]
        with open(self.log, "w") as out, open(self.err, "w") as err:
            self.proc = subprocess.Popen(command, stdout=out, stderr=err, env=child_env(ctx))
        self.url = self._await_url()

    def _await_url(self, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            with open(self.log) as handle:
                text = handle.read()
            try:
                return json.loads(text)["url"]
            except (json.JSONDecodeError, KeyError):
                time.sleep(0.01)
        self.stop()
        with open(self.err) as handle:
            raise RuntimeError(f"repro serve did not announce a url: {handle.read()[-500:]}")

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait(timeout=10)


class Env:
    """Vault snapshot, tenant tokens, inputs and in-process references."""

    def __init__(self, ctx, sizes, tally):
        from repro.ontology.registry import standard_ontology

        from inputs import write_medical_csv

        self.ctx = ctx
        self.tally = tally
        self.sizes = sizes
        self.active = [tenant_id(index) for index in range(sizes["active"])]
        trees = dict(standard_ontology().items())
        self.raw = {}
        for index, tenant in enumerate(self.active):
            self.raw[tenant] = ctx.path(f"{tenant}.raw.csv")
            write_medical_csv(self.raw[tenant], sizes["rows"], ctx.seed * 1000 + index, trees)
        self.snapshot = ctx.path("vault.snapshot")
        self.live = ctx.path("vault")
        self._ids = itertools.count(1)
        self._ids_lock = threading.Lock()
        self.server, self.tokens, self.suspect = self._build()
        try:
            self._references()
        except BaseException:
            self.server.stop()
            raise

    def _build(self):
        """Vault with tenants, tokens and datasets; server up; warm-up requests."""
        from repro.service import KeyVault, ProtectionService
        from repro.service.http import ServiceClient

        base = self.ctx.path("setup")
        vault_dir = os.path.join(base, "vault")
        service = ProtectionService(KeyVault.init(vault_dir))
        tokens = {}
        for index in range(self.sizes["tenants"]):
            tenant = tenant_id(index)
            service.register_tenant(tenant, **PARAMS, **secrets_for(self.ctx.seed, tenant))
            tokens[tenant] = service.vault.issue_token(tenant)
        suspect = {}
        for tenant in self.active:
            suspect[tenant] = os.path.join(base, f"{tenant}.protected.csv")
            service.protect(tenant, self.raw[tenant], suspect[tenant], dataset_id="base")
        copy_vault(vault_dir, self.snapshot)
        copy_vault(self.snapshot, self.live)
        server = Server(self.ctx, self.live)
        try:
            for tenant in self.active[: self.ctx.nproc]:
                with ServiceClient(server.url, tokens[tenant]) as client:
                    client.health()
                    client.status(tenant)
                    client.detect(tenant, "base", suspect[tenant])
        except BaseException:
            server.stop()
            raise
        return server, tokens, suspect

    def fresh_id(self, prefix: str) -> str:
        """A name no earlier request of this run used (tenants, datasets, files)."""
        with self._ids_lock:
            return f"{prefix}{next(self._ids):05d}"

    def _references(self) -> None:
        """In-process protect bytes and detect fields for every active tenant."""
        from repro.service import KeyVault, ProtectionService

        oracle_dir = self.ctx.path("oracle-vault")
        copy_vault(self.snapshot, oracle_dir)
        service = ProtectionService(KeyVault(oracle_dir))
        self.protect_digest, self.detect_fields = {}, {}
        self.inprocess = {"detect": [], "protect": []}
        for tenant in self.active:
            out = self.ctx.path(f"{tenant}.oracle.csv")
            _, seconds = timed(service.protect, tenant, self.raw[tenant], out, dataset_id="oracle")
            self.inprocess["protect"].append(seconds)
            self.protect_digest[tenant] = sha256_file(out)
            self.tally.record(
                self.protect_digest[tenant] == sha256_file(self.suspect[tenant]),
                f"in-process protect of {tenant} is not reproducible",
            )
            outcome, seconds = timed(service.detect, tenant, self.suspect[tenant], dataset_id="base")
            self.inprocess["detect"].append(seconds)
            self.detect_fields[tenant] = {name: getattr(outcome, name) for name in DETECT_FIELDS}
            self.tally.record(outcome.mark_loss == 0.0, f"{tenant} suspect lost mark bits in process")


def schedule(seed: int, phase: str, count: int, active: list[str], rate: float | None):
    """``count`` seeded requests ``(due, kind, tenant)``; ``due`` is None for a closed loop.

    Tenants come in sessions of :data:`SESSION_LENGTH` consecutive requests.
    """
    rng = random.Random(f"http-probe:{seed}:{phase}")
    kinds = []
    while len(kinds) < count:
        block = list(MIX_BLOCK)
        rng.shuffle(block)
        kinds.extend(block)
    requests = []
    for index in range(count):
        if index % SESSION_LENGTH == 0:
            tenant = rng.choice(active)
        due = index / rate if rate else None
        requests.append((due, kinds[index], tenant))
    return requests


class Load:
    """Drives the server from ``nproc`` slots and checks every response."""

    def __init__(self, env, url: str):
        self.env = env
        self.url = url
        self.lock = threading.Lock()
        self.samples: list[tuple[str, float]] = []
        self.lags: list[float] = []
        self.requests = 0
        self.refused = 0
        self.connections = 0
        self.server_spans: list[float] = []

    def _request(self, client, kind: str, tenant: str) -> None:
        """One request, its response checked."""
        from repro.service.http import HTTPServiceError

        env, tally = self.env, self.env.tally
        try:
            if kind == "detect":
                payload = client.detect(tenant, "base", env.suspect[tenant])
                fields = {name: payload.get(name) for name in DETECT_FIELDS}
                tally.record(fields == env.detect_fields[tenant], f"HTTP detect of {tenant} differs")
                return
            if kind == "protect":
                out = env.ctx.path(f"{env.fresh_id('out-')}.csv")
                report = client.protect(tenant, env.fresh_id("p"), env.raw[tenant], out)
                ok = sha256_file(out) == env.protect_digest[tenant] and report.get("rows") == env.sizes["rows"]
                os.remove(out)
                tally.record(ok, f"HTTP protect of {tenant} differs from in-process")
                return
            if kind == "status":
                payload = client.status(tenant)
                record = payload.get("tenants", {}).get(tenant, {})
                tally.record(
                    record.get("k") == PARAMS["k"] and "base" in record.get("datasets", {}),
                    f"HTTP status of {tenant} is wrong",
                )
                return
            new = env.fresh_id("reg")
            payload = client.register_tenant(new, **PARAMS)
            tally.record(payload.get("tenant") == new and bool(payload.get("token")), "HTTP register failed")
        except HTTPServiceError as error:
            with self.lock:
                self.refused += error.status in (429, 503)
            tally.record(False, f"HTTP {kind} for {tenant} answered {error.status}: {error}")
        except Exception as error:  # noqa: BLE001 - a transport failure is a failed op
            tally.record(False, f"HTTP {kind} for {tenant} raised {error!r}")

    def _slot(self, queue, started: float, traced: bool) -> None:
        """One connection slot: takes the next due request whenever it is free."""
        from repro.service.http import ServiceClient
        from repro.telemetry.trace import Tracer, activate

        client, current = None, None
        local_samples, local_lags, spans, opened = [], [], [], 0
        try:
            while True:
                with self.lock:
                    request = next(queue, None)
                if request is None:
                    break
                due, kind, tenant = request
                if tenant != current:
                    if client is not None:
                        opened += client.connections_opened
                        client.close()
                    client, current = ServiceClient(self.url, self.env.tokens[tenant]), tenant
                if due is not None:
                    delay = started + due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    local_lags.append(max(0.0, -delay))
                begin = time.perf_counter()
                if traced:
                    # One tracer per request, as the program intends.
                    with activate(Tracer()) as tracer:
                        self._request(client, kind, tenant)
                    spans.extend(s.wall_seconds for s in tracer.spans if s.name == "http.request")
                else:
                    self._request(client, kind, tenant)
                end = time.perf_counter()
                local_samples.append((kind, end - (started + due if due is not None else begin)))
        finally:
            if client is not None:
                opened += client.connections_opened
                client.close()
        with self.lock:
            self.samples.extend(local_samples)
            self.lags.extend(local_lags)
            self.requests += len(local_samples)
            self.connections += opened
            self.server_spans.extend(spans)

    def run(self, requests, *, traced: bool = False) -> None:
        """Issue *requests*, in order, over ``nproc`` connection slots."""
        queue = iter(requests)
        started = time.perf_counter()
        threads = [
            threading.Thread(target=self._slot, args=(queue, started, traced))
            for _ in range(self.env.ctx.nproc)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()


def closed_requests(env, phase: str, seconds: float):
    """The mix, back to back, until about *seconds* of wall have passed.

    One endless stream rather than batches, so no connection idles at a
    batch barrier while the other finishes a slow protect.
    """
    block = len(MIX_BLOCK) * SESSION_LENGTH
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        yield from schedule(env.ctx.seed, f"{phase}-{index}", block, env.active, None)
        index += 1


def layers(ctx, tally, sizes=None) -> dict[str, float]:
    """The ``http.*`` and registry figures, from a server of this run's own.

    Works in an ``http`` subdirectory of the run's scratch space.
    """
    from layers import registry_and_audit

    ctx = dataclasses.replace(ctx, work=ctx.path("http"))
    os.makedirs(ctx.path("tmp"))
    env = Env(ctx, sizes or SIZES, tally)
    url = env.server.url
    seconds = SEGMENT_SECONDS * min(1.0, ctx.seconds / FULL_SECONDS)
    warmup = [
        (None, kind, tenant)
        for _ in range(WARMUP_SESSIONS)
        for tenant in env.active
        for kind in ("detect", "protect", "status", "detect")
    ]
    open_load, closed, traced = Load(env, url), Load(env, url), Load(env, url)
    count = max(SESSION_LENGTH, int(OPEN_LOOP_RATE * seconds))
    try:
        Load(env, url).run(warmup)
        open_load.run(schedule(ctx.seed, "open", count, env.active, OPEN_LOOP_RATE))
        closed.run(closed_requests(env, "closed", seconds))
        traced.run(closed_requests(env, "traced", seconds), traced=True)
    finally:
        drained = env.server.stop()
    tally.record(drained == 0, f"server exited {drained} on SIGTERM instead of draining cleanly")
    verify_audit(env.live, tally)

    def overhead_ms(kind):
        over_http = median([seconds for name, seconds in closed.samples if name == kind])
        return (over_http - median(env.inprocess[kind])) * 1e3

    loads = (open_load, closed, traced)
    requests = sum(load.requests for load in loads)
    figures = {
        "http.overhead_ms.detect": overhead_ms("detect"),
        "http.overhead_ms.protect": overhead_ms("protect"),
        "http.server_ms": median(traced.server_spans) * 1e3,
        "http.shed_ratio": sum(load.refused for load in loads) / requests,
        "http.conn_per_request": sum(load.connections for load in loads) / requests,
        "http.generator_lag_ms": percentile(open_load.lags, 0.9) * 1e3,
    }
    figures.update(registry_and_audit(env.snapshot, ctx.path("registry-probe")))
    return figures
