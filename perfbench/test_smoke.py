"""Smoke test of the benchmark harness on the smallest named groups.

Run from the repository root (a few seconds):

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import record
import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny_calls():
    """One call per subcommand the workloads use, on groups with m <= 6."""
    presenter = workloads.Presenter(workloads.DEFAULT_SEED)
    half = presenter.group(workloads.NAMED["half_11"])
    sixth = presenter.group(workloads.NAMED["sixth_123"])
    specs = [
        ("lattice sixth_123 1,2,3", sixth, ("lattice", "--type", "1,2,3"), 6),
        ("extremes sixth_123 1,2,3", sixth, ("extremes", "--type", "1,2,3"), 6),
        ("verify half_11", half, ("verify",), 2),
        ("analyze half_11", half, ("analyze",), 2),
        ("construct half_11 1,1", half, ("construct", "--type", "1,1"), 2),
    ]
    return [workloads.Call(key, group, argv, True, m) for key, group, argv, m in specs]


def _declared(section):
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def _emitted(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


def test_every_metric_is_emitted_with_its_unit():
    calls = _tiny_calls()
    setup = workloads.setup_call(workloads.Presenter(workloads.DEFAULT_SEED))
    expected = record.record([setup, *calls])

    tally, metrics = run.measure(calls, setup, 0, expected)
    assert tally.failures == []
    assert tally.attempted == 1 + run.SETUP_REPEATS + len(calls)
    assert _emitted(metrics) == _declared("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())

    tally, metrics = run.trace(calls, expected)
    assert tally.failures == []
    assert tally.attempted == 3 * len(calls)
    assert _emitted(metrics) == _declared("per_layer")
    # One lattice from the lattice call, one from verify on half_11.
    assert metrics["mutation.enumerate_cut_lattice.calls"][0] == 2
    assert metrics["mutation.new_cut_ratio"][0] > 0


def test_a_wrong_output_counts_as_failed():
    calls = _tiny_calls()[:1]
    setup = workloads.setup_call(workloads.Presenter(workloads.DEFAULT_SEED))
    expected = record.record([setup, *calls])
    expected[calls[0].key]["sha256"] = "0" * 64

    tally, _ = run.measure(calls, setup, 0, expected)
    assert tally.attempted == 1 + run.SETUP_REPEATS + len(calls)
    assert len(tally.failures) == 1
    assert "digest" in tally.failures[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "lattice",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
