"""Tiny-size self-test of the benchmark: metric sets, units and failure counting.

Runs every workload at a few hundred rows for about a second, so it fits
the normal test suite::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from harness import Context, Tally
from layers import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

TINY = {
    "protect-bulk": {"medical": 600, "finance": 400, "warmup": 600},
    "suspect-audit": {"rows": 2000, "http": {"tenants": 12, "active": 2, "rows": 2000}},
}


def _context(tmp_path, workload: str, trace: bool) -> Context:
    os.makedirs(tmp_path / "tmp", exist_ok=True)
    return Context(workload, seed=7, seconds=1.0, trace=trace, work=str(tmp_path))


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_declared_metrics_match_the_emitters():
    declared = _declared()
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    tally = Tally()
    result, stamp = run.measure(_context(tmp_path, workload, trace), tally, sizes=TINY[workload])
    expected = PER_LAYER if trace else run.END_TO_END
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"], tally.problems
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert stamp["seed"] == 7 and stamp["nproc"] >= 1 and stamp["python"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_flipped_byte_in_a_protect_output_is_a_failed_operation(tmp_path):
    def flip_one_byte(path: str) -> None:
        with open(path, "r+b") as handle:
            handle.seek(-2, os.SEEK_END)
            byte = handle.read(1)
            handle.seek(-2, os.SEEK_END)
            handle.write(bytes([byte[0] ^ 0x01]))

    tally = Tally()
    result, _ = run.measure(
        _context(tmp_path, "protect-bulk", False),
        tally,
        sizes=TINY["protect-bulk"],
        corrupt=flip_one_byte,
    )
    assert not result["correct"]
    assert result["failed"] >= 2  # both tenants' outputs of the job
    assert result["attempted"] > result["failed"]
    assert any("differs from the library path" in problem for problem in tally.problems)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "protect-bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
