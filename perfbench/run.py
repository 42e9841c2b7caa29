"""The mckaycuts benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload lattice --seed 0 --seconds 40 --trace 0

With ``--trace 0`` it drives the ``mckaycuts`` command line as a closed
loop with one client: one child process at a time, each started after
the previous one has exited, cycling through the workload's calls for
``--seconds``.  Per-child CPU time and peak RSS come from ``os.wait4``.
With ``--trace 1`` it instead replays the workload in this process
through ``mckaycuts.cli.main``, once with spans around each layer and
once plain before and after, and reports per-layer metrics.

Every call's exit code and output are checked (see ``workloads.py``).
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a readable summary goes to
stderr.  The program is taken from ``src/`` next to this directory,
never from an installed copy.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

ENTRY = "import sys; from mckaycuts.cli import main; sys.exit(main())"
# Children see none of the caller's PYTHON* settings: PYTHONUNBUFFERED
# would turn the CLI's JSON output into one write per token, and
# PYTHONDONTWRITEBYTECODE would recompile the package on every call.
CHILD_ENV = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
CHILD_ENV["PYTHONPATH"] = str(SRC)
SETUP_REPEATS = 15
CALL_TIMEOUT_S = 60.0
# Start no call later than this after the run began, so that the whole
# run ends well within three minutes even if calls hang.
HARD_LIMIT_S = 150.0


@dataclass
class Outcome:
    """A finished child process: its wait status, usage and output."""

    wall_s: float
    code: int
    cpu_s: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


@dataclass
class Sample:
    """What one end-to-end call contributes to the metrics."""

    wall_s: float
    cpu_s: float
    maxrss_kb: int
    cuts: int


def _read_all(fd: int, into: dict, key: str) -> None:
    with open(fd, "rb") as stream:
        into[key] = stream.read()


class Launcher:
    """Runs CLI calls as children of ``launcher.py``, one at a time."""

    def __init__(self):
        self.sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "launcher.py"), str(theirs.fileno())],
                pass_fds=[theirs.fileno()],
                env=CHILD_ENV,
                cwd=ROOT,
            )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.sock.close()  # the launcher reads end-of-file and exits
        self.proc.wait()

    def run(self, call: workloads.Call, timeout: float) -> Outcome:
        in_r, in_w = os.pipe()
        out_r, out_w = os.pipe()
        err_r, err_w = os.pipe()
        request = {"argv": [sys.executable, "-c", ENTRY, *call.argv], "timeout": timeout}
        socket.send_fds(self.sock, [json.dumps(request).encode()], [in_r, out_w, err_w])
        for fd in (in_r, out_w, err_w):
            os.close(fd)
        output: dict[str, bytes] = {}
        readers = [
            threading.Thread(target=_read_all, args=(out_r, output, "stdout")),
            threading.Thread(target=_read_all, args=(err_r, output, "stderr")),
        ]
        for reader in readers:
            reader.start()
        try:
            with open(in_w, "wb") as stdin:
                stdin.write(call.stdin)
        except BrokenPipeError:
            pass
        reply = json.loads(self.sock.recv(65536))
        for reader in readers:
            reader.join()
        return Outcome(
            reply["wall_s"], reply["code"], reply["cpu_s"], reply["maxrss_kb"],
            output["stdout"], output["stderr"],
        )


class Tally:
    """Checks each finished call and counts attempts and failures."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, call, code: int, stdout: bytes, stderr: bytes = b"",
              failure: str = "") -> int:
        """Count one call; returns the cuts it emitted."""
        self.attempted += 1
        cuts = 0
        if not failure:
            cuts, failure = workloads.check_output(call, code, stdout, self.expected)
        if failure:
            tail = stderr.decode(errors="replace").strip()[-300:]
            self.failures.append(f"{call.key}: {failure} {tail}".rstrip())
        return cuts


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def measure(calls, setup, seconds: float, expected: dict) -> tuple[Tally, dict]:
    """Closed loop over ``calls`` for about ``seconds``; end-to-end metrics."""
    tally = Tally(expected)
    deadline = perf_counter() + HARD_LIMIT_S
    with Launcher() as launcher:

        def run(call) -> Sample:
            remaining = deadline - perf_counter()
            if remaining <= 0:
                tally.check(call, -1, b"", failure="not started: run time limit reached")
                return Sample(0.0, 0.0, 0, 0)
            timeout = min(CALL_TIMEOUT_S, remaining)
            out = launcher.run(call, timeout)
            timed_out = out.code == -signal.SIGKILL and out.wall_s >= timeout
            failure = f"timed out after {timeout:.0f} s" if timed_out else ""
            cuts = tally.check(call, out.code, out.stdout, out.stderr, failure)
            return Sample(out.wall_s, out.cpu_s, out.maxrss_kb, cuts)

        run(setup)  # warm-up: bytecode compiled, files cached
        setup_walls: list[float] = []

        def setup_calls_due() -> int:
            """Set-up calls spread evenly over the run, so that their median
            samples the same stretch of machine time as the workload does."""
            elapsed = perf_counter() - start
            if elapsed >= seconds:
                return SETUP_REPEATS
            return 1 + int(elapsed / seconds * SETUP_REPEATS)

        # Cycle through the calls until the next one would not finish
        # within ``seconds``; every call runs at least once, most the same
        # number of times, the first few of a pass possibly once more.
        samples: list[list[Sample]] = [[] for _ in calls]
        start = perf_counter()
        for i in itertools.count():
            while len(setup_walls) < setup_calls_due():
                setup_walls.append(run(setup).wall_s)
            runs = samples[i % len(calls)]
            if i >= len(calls):
                typical = statistics.median(r.wall_s for r in runs)
                if perf_counter() - start + typical > seconds:
                    break
            runs.append(run(calls[i % len(calls)]))
        while len(setup_walls) < SETUP_REPEATS:
            setup_walls.append(run(setup).wall_s)

    def per_call(attr):
        """Each call's median over its runs, in call order."""
        return [statistics.median(getattr(r, attr) for r in runs) for runs in samples]

    # A typical pass: each call at its median over its runs, which keeps
    # one slow run of one call from moving the figure.
    walls = per_call("wall_s")
    wall = sum(walls)
    rss = per_call("maxrss_kb")
    metrics = {
        "wall_s": (wall, "s"),
        "cpu_s": (sum(per_call("cpu_s")), "s"),
        "setup_s": (statistics.median(setup_walls), "s"),
        "peak_rss_mb": (max(rss) * 1024 / 1e6, "MB"),
        "cuts_per_s": (sum(per_call("cuts")) / wall, "1/s"),
    }
    report = [f"setup: {len(setup_walls)} calls; workload: {len(calls)} calls"]
    for call, runs, median_wall, kb in zip(calls, samples, walls, rss):
        slowest = max(r.wall_s for r in runs)
        report.append(
            f"  {call.key:<34} {len(runs)} runs  median {median_wall:8.3f} s"
            f"  max {slowest:8.3f} s  rss {kb / 1024:7.1f} MiB"
        )
    print("\n".join(report), file=sys.stderr)
    return tally, metrics


def trace(calls, expected: dict) -> tuple[Tally, dict]:
    """In-process passes over ``calls``, plain, traced, plain; per-layer metrics."""
    sys.path.insert(0, str(SRC))
    import mckaycuts.cli

    import spans

    here = Path(mckaycuts.cli.__file__).resolve()
    if SRC.resolve() not in here.parents:
        raise SystemExit(f"error: imported mckaycuts from {here}, not from {SRC}")
    tally = Tally(expected)
    # Nothing can interrupt a call in this process; end the run instead.
    signal.alarm(int(HARD_LIMIT_S))

    def one_pass(tracer):
        wall, stdout_bytes = 0.0, 0
        for call in calls:
            gc.collect()
            start = perf_counter()
            code, stdout = spans.replay(mckaycuts.cli.main, call, tracer)
            wall += perf_counter() - start
            stdout_bytes += len(stdout)
            tally.check(call, code, stdout)
        return wall, stdout_bytes

    # Plain passes on both sides of the traced one, so that warm-up and
    # drift in machine speed weigh on the overhead estimate from both sides.
    before, _ = one_pass(None)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        traced_wall, stdout_bytes = one_pass(tracer)
    finally:
        spans.uninstall(undo)
    after, _ = one_pass(None)
    signal.alarm(0)
    print(
        f"in-process passes: {before:.3f} s plain, {traced_wall:.3f} s traced,"
        f" {after:.3f} s plain",
        file=sys.stderr,
    )
    return tally, tracer.metrics(stdout_bytes, traced_wall - (before + after) / 2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mckaycuts" / "cli.py").is_file():
        print(f"error: no mckaycuts sources under {SRC}", file=sys.stderr)
        return 2
    expected = load_expected()
    calls = workloads.workload_calls(args.workload, args.seed)
    if args.trace:
        tally, metrics = trace(calls, expected)
    else:
        setup = workloads.setup_call(workloads.Presenter(args.seed))
        tally, metrics = measure(calls, setup, args.seconds, expected)
    for line in tally.failures:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
