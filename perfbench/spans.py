"""In-process replay of a workload through ``mckaycuts.cli.main``, with spans.

The benchmark's own code wraps the public functions of each layer at
every module that holds a reference to them (``mckaycuts.mutation``
imports ``height_from_cut`` from ``mckaycuts.heights``, so both names are
replaced), and the two ``LatticeEmbedding`` methods on the class.  The
program itself is not modified.  Spans nest; a span's self time is its
duration minus the durations of the spans it directly contains.  Only
per-name aggregates are kept, because the lattice workload makes about a
million spans.
"""

from __future__ import annotations

import functools
import io
import sys
from collections import defaultdict
from time import perf_counter

# Span name -> (module, attribute) pairs.  An attribute of a class is
# given as "Class.method".
SPANS = {
    "heights.height_from_cut": [("mckaycuts.heights", "height_from_cut")],
    "heights.cut_from_height": [("mckaycuts.heights", "cut_from_height")],
    "mutation.enumerate_cut_lattice": [("mckaycuts.mutation", "enumerate_cut_lattice")],
    "mutation.mutable_vertices": [("mckaycuts.mutation", "mutable_vertices")],
    "mutation.relative_height_vector": [("mckaycuts.mutation", "relative_height_vector")],
    "mutation.mutate": [
        ("mckaycuts.mutation", "mutate_source"),
        ("mckaycuts.mutation", "mutate_sink"),
    ],
    "mutation.meet_join": [("mckaycuts.mutation", "meet"), ("mckaycuts.mutation", "join")],
    "mutation.greedy_extremes": [
        ("mckaycuts.mutation", "max_element"),
        ("mckaycuts.mutation", "min_element"),
    ],
    "mutation.max_via_p": [("mckaycuts.mutation", "max_via_p")],
    "verify.run_verification": [("mckaycuts.verify", "run_verification")],
    "intlat.reduce": [("mckaycuts.intlat", "LatticeEmbedding.reduce")],
    "intlat.l1_coefficients": [("mckaycuts.intlat", "LatticeEmbedding.l1_coefficients")],
    "intlat.hnf": [("mckaycuts.intlat", "hnf")],
    "groups.parse_input": [("mckaycuts.groups", "parse_input")],
    "quiver.build_mckay": [("mckaycuts.quiver", "build_mckay")],
    "quiver.is_cut": [("mckaycuts.quiver", "is_cut")],
    "typesimplex.enumerate_types": [("mckaycuts.typesimplex", "enumerate_types")],
    "construct.construct_cut": [("mckaycuts.construct", "construct_cut")],
    "construct.degree_zero_presentation": [
        ("mckaycuts.construct", "degree_zero_presentation")
    ],
    "cli.emit": [("mckaycuts.cli", "_emit")],
}

# Spans reported as calls and self time; the others as noted in metrics().
TIMED = [
    name for name in SPANS if name not in ("mutation.mutate", "cli.emit")
]
# Spans also reported with their inclusive time, to compare the lattice
# walk with the height functions it computes.
INCLUSIVE = ("mutation.enumerate_cut_lattice", "heights.height_from_cut")


class Tracer:
    """Span aggregates and counters for one traced pass."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.active = defaultdict(int)
        self.stack = []
        self.quivers = []
        self.counts = defaultdict(int)

    def wrap(self, name, fn):
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        active, stack = self.active, self.stack
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                active[name] -= 1
                calls[name] += 1
                self_s[name] += duration - frame[0]
                total_s[name] += duration
                if stack:
                    stack[-1][0] += duration
            if after is not None:
                after(result)
            return result

        return traced

    # Counters taken from results at the layer boundary; ``wrap`` finds
    # them by span name, dots replaced by underscores.

    def _after_quiver_build_mckay(self, quiver):
        self.quivers.append(quiver)

    def _after_typesimplex_enumerate_types(self, report):
        self.counts["types"] += len(report.all_types)

    def _after_mutation_enumerate_cut_lattice(self, lattice):
        self.counts["lattice_cuts"] += len(lattice.cuts)

    def _after_mutation_mutate(self, _cut):
        if self.active["mutation.enumerate_cut_lattice"]:
            self.counts["lattice_mutations"] += 1

    def end_call(self) -> None:
        """Count the elementary cycles the call materialised.

        ``McKayQuiver.cycles`` is a cached property, so its value sits in
        the instance ``__dict__`` once the program has built it; reading
        the attribute instead would build it here.
        """
        for quiver in self.quivers:
            cycles = quiver.__dict__.get("cycles")
            if cycles is not None:
                self.counts["cycles"] += len(cycles)
        self.quivers.clear()

    def metrics(self, stdout_bytes: int, overhead_s: float) -> dict:
        out = {}
        for name in TIMED:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        for name in INCLUSIVE:
            out[f"{name}.total_s"] = (self.total_s[name], "s")
        mutations = self.counts["lattice_mutations"]
        out["mutation.mutate.calls"] = (self.calls["mutation.mutate"], "count")
        out["mutation.new_cut_ratio"] = (
            self.counts["lattice_cuts"] / mutations if mutations else 0.0,
            "ratio",
        )
        out["typesimplex.types.count"] = (self.counts["types"], "count")
        out["quiver.cycles.count"] = (self.counts["cycles"], "count")
        out["cli.emit.self_s"] = (self.self_s["cli.emit"], "s")
        out["cli.stdout_mb"] = (stdout_bytes / 1e6, "MB")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out


def _resolve(module_name: str, attr: str):
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, method = attr.split(".")
        return getattr(module, cls_name), method
    return module, attr


def install(tracer: Tracer) -> list:
    """Wrap every span target; returns what ``uninstall`` needs."""
    undo = []
    package = [
        mod
        for name, mod in list(sys.modules.items())
        if name == "mckaycuts" or name.startswith("mckaycuts.")
    ]
    for name, targets in SPANS.items():
        for module_name, attr in targets:
            owner, key = _resolve(module_name, attr)
            original = owner.__dict__[key]
            traced = tracer.wrap(name, original)
            for holder in package if owner in package else [owner]:
                for ref, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, ref, traced)
                        undo.append((holder, ref, original))
    return undo


def uninstall(undo: list) -> None:
    for holder, ref, original in reversed(undo):
        setattr(holder, ref, original)


def replay(main, call, tracer: Tracer | None = None) -> tuple[int, bytes]:
    """Run one call through ``cli.main`` in this process: (exit code, stdout)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO(call.stdin.decode())
    sys.stdout = io.StringIO()
    sys.stderr = io.StringIO()
    try:
        try:
            code = main(list(call.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - an uncaught error is a failed call
            code = 1
        stdout = sys.stdout.getvalue().encode()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
        if tracer is not None:
            tracer.end_call()
    return code, stdout
