"""The behaviour to keep: the CLI's exit codes and stdout on the ladder, and
the names in ``mckaycuts.__all__``, as recorded in ``tests/golden.json``.

Re-record the table with ``python tests/record_golden.py``.
"""

import importlib
import json
from pathlib import Path

import pytest

import mckaycuts
from record_golden import calls, find_row, load, run

TABLE = load()
ROWS = TABLE["rows"]
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def row_id(row) -> str:
    words = [row["group"], *row["argv"]]
    if "cut" in row:
        words += ["--cut", row["cut"]]
    return " ".join(w if len(w) <= 40 else f"<{len(w)} chars>" for w in words)


@pytest.mark.parametrize("row", ROWS, ids=map(row_id, ROWS))
def test_row(row):
    cut = TABLE["cuts"][row["cut"]] if "cut" in row else None
    got = run(TABLE["groups"][row["group"]], row["argv"], cut)
    assert got == (row["exit"], row["sha256"])


def test_rows_are_the_recorded_calls():
    # A call added to or dropped from ``calls()`` needs a re-recorded table.
    rows = [(r["group"], r["argv"], r.get("cut")) for r in ROWS]
    assert rows == list(calls())


def test_public_names():
    assert sorted(mckaycuts.__all__) == TABLE["__all__"]
    for name in TABLE["__all__"]:
        getattr(mckaycuts, name)


def test_export_dot_cut_and_hasse_are_the_dot_formats():
    # `export-dot cut|hasse` print what `construct|lattice --format dot` do.
    dot_of = {"cut": "construct", "hasse": "lattice"}
    checked = set()
    for row in ROWS:
        what = row["argv"][1] if row["argv"][0] == "export-dot" else None
        if what in dot_of and row["exit"] == 0:
            argv = [dot_of[what], *row["argv"][2:], "--format", "dot"]
            assert row["sha256"] == find_row(TABLE, row["group"], argv)["sha256"]
            checked.add(what)
    assert checked == set(dot_of)


def test_benchmark_pins_are_rows(monkeypatch):
    # Every call the benchmark checks on its default seed is a row with the
    # exit code and digest of perfbench/expected.json.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    with open(PERFBENCH / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)
    names = {json.dumps(group): name for name, group in TABLE["groups"].items()}
    covered = set()
    for workload in workloads.WORKLOADS:
        for call in workloads.workload_calls(workload, workloads.DEFAULT_SEED):
            row = find_row(TABLE, names[json.dumps(call.group)], list(call.argv))
            want = expected[call.key]
            assert (row["exit"], row["sha256"]) == (want["exit"], want["sha256"])
            covered.add(call.key)
    assert covered == set(expected)
