"""The repository benchmark: one command, two workloads, every output checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload protect-bulk --seed 1 --seconds 40 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``protect-bulk``  — in-process streaming protect of a 100k-row medical and
  a 50k-row finance table;
* ``suspect-audit`` — detect (two mark codes), dispute and a cold CLI detect
  over a seeded suite of attacked copies of a 20k-row protected table.

The pre-fork HTTP server is measured layer by layer only, by a probe in
``suspect-audit``'s traced run (``http_probe.py``): as a workload of its
own its latency and capacity swung with the host's speed too far for a
steady end-to-end figure on a two-core host.

Every workload reports the same end-to-end metrics, each over its own
operations: ``rows_per_s``/``ops_per_s`` over the measured work (protects;
an audit cycle), ``p50_ms``/``p90_ms`` over the operations a user waits on
(a two-tenant protect job; a detect), the median ``setup_s`` of repeated
set-ups, and ``peak_rss_mb``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer figures (see ``layers.py``) measured
from outside around calls into the program's public functions.  Lines
before it give the host/configuration stamp and a readable table.  Inputs
are generated here from ``--seed``; the program only sees the CSV files.
All scratch files live under ``.bench_work/`` in the checkout and are
removed when the run ends.  Exit status: 0 when every check passed, 1 when
an output was wrong, 2 when there is no program to measure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import SRC, WORK_ROOT, Context, Tally, peak_rss_mb, stamp  # noqa: E402

WORKLOADS = {
    "protect-bulk": "protect_bulk",
    "suspect-audit": "suspect_audit",
}

#: Every end-to-end metric with its unit; each workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def measure(ctx: Context, tally: Tally, **hooks) -> tuple[dict, dict]:
    """Run one workload; returns ``(result, stamp)`` where *result* is the final JSON."""
    from layers import PER_LAYER

    module = importlib.import_module(WORKLOADS[ctx.workload])
    e2e, per_layer, config = module.run(ctx, tally, **hooks)
    if ctx.trace:
        values = {name: 0.0 for name in PER_LAYER}
        values.update(per_layer)
        values["error_ratio"] = tally.error_ratio
        units = PER_LAYER
    else:
        values = dict(e2e, peak_rss_mb=peak_rss_mb())
        units = END_TO_END
    missing = sorted(set(units) - set(values))
    unknown = sorted(set(values) - set(units))
    if missing or unknown:
        raise RuntimeError(f"metric set mismatch: missing {missing}, unknown {unknown}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }
    return result, stamp(ctx, **config)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(work, "tmp"))
    os.environ["TMPDIR"] = tempfile.tempdir = os.path.join(work, "tmp")
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace), work)
    tally = Tally()
    try:
        result, host = measure(ctx, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)  # only when no concurrent run still uses it
        except OSError:
            pass

    print("# stamp " + json.dumps(host, sort_keys=True))
    for problem in tally.problems:
        print(f"# FAILED {problem}")
    for name, metric in result["metrics"].items():
        print(f"# {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
