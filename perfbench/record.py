"""Record the expected exit codes, stdout digests and output facts.

Run from the repository root, on a commit whose outputs are trusted:

    python3 perfbench/record.py

It runs every call of every workload once on the default seed and
writes ``perfbench/expected.json``.  A call that exits nonzero or breaks
an output invariant stops the recording.
"""

from __future__ import annotations

import json
import sys

import workloads
from run import CALL_TIMEOUT_S, EXPECTED, Launcher


def record(calls) -> dict:
    """Expected exit code, digest and facts of each call, as run now."""
    expected = {}
    with Launcher() as launcher:
        for call in calls:
            out = launcher.run(call, CALL_TIMEOUT_S)
            if out.code != 0:
                raise RuntimeError(f"{call.key} exited with {out.code}")
            expected[call.key] = {
                "exit": out.code,
                "sha256": workloads.digest(out.stdout),
                "facts": workloads.output_facts(call, out.stdout),
            }
    return expected


def main() -> int:
    presenter = workloads.Presenter(workloads.DEFAULT_SEED)
    calls = [workloads.setup_call(presenter)]
    for name in sorted(workloads.WORKLOADS):
        calls.extend(workloads.workload_calls(name, workloads.DEFAULT_SEED))
    expected = record(calls)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
