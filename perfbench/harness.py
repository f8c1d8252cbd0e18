"""Shared plumbing: run context, correctness tally, timing, vault snapshots, stamp."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout; every run gets its own subdirectory.
WORK_ROOT = os.path.join(ROOT, ".bench_work")

#: Set-up is repeated at least this many times per run and its median
#: reported, so one slow stretch of the host does not move ``setup_s``...
SETUP_MIN_REPEATS = 2
#: ...and, when it is quick, until this many seconds of set-up were measured
#: (at most ``SETUP_MAX_REPEATS`` times).
SETUP_MIN_SECONDS = 3.0
SETUP_MAX_REPEATS = 9


@dataclass
class Context:
    """One benchmark run: where it works, what it measures, how long."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    work: str
    nproc: int = field(default_factory=lambda: os.cpu_count() or 1)

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)


class Tally:
    """Operations attempted and failed, with the first few failure reasons.

    Every correctness check is one operation: a wrong output counts exactly
    like an exception or a refused request.  Thread-safe: the HTTP client
    slots record concurrently.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._lock = threading.Lock()

    def record(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(what)
        return ok

    @property
    def error_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def percentile(values, q: float) -> float:
    """Linear-interpolated *q*-quantile (0 < q < 1) of *values*."""
    data = sorted(values)
    if not data:
        raise ValueError("no samples")
    if len(data) == 1:
        return data[0]
    position = q * (len(data) - 1)
    low = int(position)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (position - low)


def median(values) -> float:
    return statistics.median(values)


def timed(func, *args, **kwargs):
    """``(result, wall_seconds)`` of one call."""
    started = time.perf_counter()
    result = func(*args, **kwargs)
    return result, time.perf_counter() - started


def repeated_setup(build, discard=None) -> tuple[object, float]:
    """Run ``build(attempt)`` several times; keep the last result.

    Returns ``(last_result, median_seconds)``.  Each attempt builds into its
    own directory; *discard*, when given, releases an earlier attempt's
    result (outside the timed region) before the next attempt starts.
    """
    walls = []
    while True:
        result, wall = timed(build, len(walls))
        walls.append(wall)
        enough = len(walls) >= SETUP_MIN_REPEATS and sum(walls) >= SETUP_MIN_SECONDS
        if enough or len(walls) == SETUP_MAX_REPEATS:
            return result, median(walls)
        if discard is not None:
            discard(result)


def run_for(seconds: float, step, min_calls: int = 1) -> int:
    """Call *step* until about *seconds* have passed; returns the number of calls.

    Makes another call only when that likely ends nearer to *seconds* than
    stopping now (judged by the mean call so far), and always at least
    *min_calls*, so a run measures close to *seconds* whatever the size of
    its unit of work.
    """
    started = time.perf_counter()
    calls = 0
    while True:
        step()
        calls += 1
        elapsed = time.perf_counter() - started
        if calls >= min_calls and elapsed + elapsed / calls / 2 > seconds:
            return calls


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def copy_vault(src: str, dst: str) -> None:
    """Replace *dst* with a byte-for-byte copy of the vault directory *src*.

    Set-up snapshots its vault this way, and every job or audit cycle
    restores the snapshot, so registry documents and audit chains never grow
    from one to the next.
    """
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)


def verify_audit(vault_dir: str, tally: Tally) -> None:
    """The vault's hash chain must verify when the run ends."""
    from repro.service import KeyVault

    try:
        records = KeyVault(vault_dir).audit_log().verify()
        tally.record(records > 0, f"audit chain of {vault_dir} is empty")
    except Exception as error:  # noqa: BLE001 - a broken chain is a failed check
        tally.record(False, f"audit chain of {vault_dir} does not verify: {error!r}")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def child_env(ctx: Context) -> dict:
    """Environment for program subprocesses: the checkout's sources, temp in the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = ctx.path("tmp")
    return env


def git_commit() -> str:
    """The commit of the checkout when it is a git work tree, else ``unknown``."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def program_config(vault_dir: str) -> dict:
    """The vault backend and the service's resolved default runner and workers."""
    from repro.service import KeyVault
    from repro.service.executor import ShardExecutor

    executor = ShardExecutor()
    return {
        "backend": KeyVault(vault_dir).backend,
        "runner": executor.runner_name,
        "workers": executor.max_workers,
    }


def stamp(ctx: Context, **config) -> dict:
    """Host and configuration of this result, so figures stay comparable."""
    return {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": ctx.trace,
        "nproc": ctx.nproc,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
        "commit": git_commit(),
        **config,
    }
