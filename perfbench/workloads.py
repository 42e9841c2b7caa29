"""Workload instances of the mckaycuts benchmark and the checks on their outputs.

Each workload is a list of CLI calls, one pass over it is one closed-loop
round.  The seed only changes how each group is presented, never which
group it is:

* every generator 1/m(w) is replaced by its power 1/m(u*w) for a unit u
  mod m, which generates the same group, so the sublattice L1 and every
  output are unchanged;
* on the ``lattice`` workload the coordinates of each group are also
  permuted, together with the requested type.  That relabels the arrow
  types of the McKay quiver, so the lattice is isomorphic and has the
  same number of cuts, while the HNF, the vertex labels and the output
  bytes change.

Coordinates are not permuted on ``survey`` and ``verify``, because the
cost of ``enumerate_types`` (prefix search over the HNF diagonal) and of
``max_via_p`` depends on the coordinate order, by up to 5x and 30x on
the groups used here; the seeds must give comparable work per run.
Seed 0 gives the ladder instances exactly.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# The seven groups of tests/conftest.py: n and (order, weights) generators.
NAMED = {
    "half_11": (1, [(2, (1, 1))]),
    "third_111": (2, [(3, (1, 1, 1))]),
    "quarter_112": (2, [(4, (1, 1, 2))]),
    "sixth_123": (2, [(6, (1, 2, 3))]),
    "klein_sl3": (2, [(2, (1, 1, 0)), (2, (1, 0, 1))]),
    "quarter_1111": (3, [(4, (1, 1, 1, 1))]),
    "fifth_1112": (3, [(5, (1, 1, 1, 2))]),
}

# First positive type of each named group; klein_sl3 is hollow.
NAMED_FIRST_POSITIVE = {
    "half_11": (1, 1),
    "third_111": (1, 1, 1),
    "quarter_112": (1, 1, 2),
    "sixth_123": (1, 2, 3),
    "quarter_1111": (1, 1, 1, 1),
    "fifth_1112": (1, 1, 1, 2),
}


def _cyclic(n, order, weights):
    return (n, [(order, weights)])


C12 = _cyclic(2, 12, (1, 2, 9))
C18 = _cyclic(2, 18, (1, 5, 12))
C24 = _cyclic(2, 24, (1, 5, 18))
C120 = _cyclic(2, 120, (1, 5, 114))
C2000 = _cyclic(2, 2000, (1, 5, 1994))
C500 = _cyclic(3, 500, (1, 2, 3, 494))
C300 = _cyclic(6, 300, (1, 2, 3, 4, 5, 6, 279))

SETUP_GROUP = "half_11"

# Larger survey groups: name, group, first positive type.
SURVEY_LARGE = (
    ("c2000", C2000, (1, 5, 1994)),
    ("c500", C500, (1, 2, 3, 494)),
    ("c300", C300, (1, 2, 3, 4, 5, 6, 279)),
)

LATTICE_TYPES = (
    ("c18", C18, (5, 7, 6)),
    ("c18", C18, (8, 4, 6)),
    ("c24", C24, (6, 6, 12)),
    ("c24", C24, (7, 11, 6)),
)

EXTREMES_TYPES = ((16, 80, 24), (33, 45, 42))


@dataclass(frozen=True)
class Call:
    """One CLI request: a group on stdin and the subcommand's arguments.

    ``key`` names the request independently of the seed, and ``plain``
    says whether the coordinates keep their ladder order, in which case
    stdout must equal the recorded bytes whatever the seed.
    """

    key: str
    group: dict
    argv: tuple[str, ...]
    plain: bool
    m: int

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def stdin(self) -> bytes:
        return json.dumps(self.group).encode()


class Presenter:
    """Draws the presentation of each group from the seed."""

    def __init__(self, seed: int):
        self.rng = None if seed == DEFAULT_SEED else random.Random(seed)

    def permutation(self, size: int) -> list[int]:
        perm = list(range(size))
        if self.rng is not None:
            self.rng.shuffle(perm)
        return perm

    def group(self, spec, perm=None) -> dict:
        n, generators = spec
        perm = perm if perm is not None else list(range(n + 1))
        out = []
        for order, weights in generators:
            unit = 1
            if self.rng is not None:
                unit = self.rng.choice([u for u in range(1, order) if math.gcd(u, order) == 1])
            out.append(
                {"order": order, "weights": [weights[p] * unit % order for p in perm]}
            )
        return {"n": n, "generators": out}


def _type_arg(cut_type) -> str:
    return ",".join(str(g) for g in cut_type)


def _order(spec) -> int:
    return math.prod(order for order, _ in spec[1])


def setup_call(presenter: Presenter) -> Call:
    spec = NAMED[SETUP_GROUP]
    return Call(
        key=f"types {SETUP_GROUP}",
        group=presenter.group(spec),
        argv=("types",),
        plain=True,
        m=_order(spec),
    )


def lattice_calls(presenter: Presenter) -> list[Call]:
    calls = []
    for name, spec, cut_type in LATTICE_TYPES:
        perm = presenter.permutation(spec[0] + 1)
        calls.append(
            Call(
                key=f"lattice {name} {_type_arg(cut_type)}",
                group=presenter.group(spec, perm),
                argv=("lattice", "--type", _type_arg(cut_type[p] for p in perm)),
                plain=perm == sorted(perm),
                m=_order(spec),
            )
        )
    return calls


def survey_calls(presenter: Presenter) -> list[Call]:
    groups = [
        (name, spec, NAMED_FIRST_POSITIVE.get(name)) for name, spec in NAMED.items()
    ]
    groups.extend(SURVEY_LARGE)
    calls = []
    for name, spec, first_positive in groups:
        group = presenter.group(spec)
        argvs = [("analyze",), ("types",)]
        if first_positive is not None:
            argvs.append(("construct", "--type", _type_arg(first_positive)))
        for argv in argvs:
            calls.append(
                Call(
                    key=" ".join((argv[0], name, *argv[2:])),
                    group=group,
                    argv=argv,
                    plain=True,
                    m=_order(spec),
                )
            )
    return calls


def verify_calls(presenter: Presenter) -> list[Call]:
    specs = [("c12", C12), *NAMED.items()]
    calls = [
        Call(
            key=f"verify {name}",
            group=presenter.group(spec),
            argv=("verify",),
            plain=True,
            m=_order(spec),
        )
        for name, spec in specs
    ]
    for cut_type in EXTREMES_TYPES:
        calls.append(
            Call(
                key=f"extremes c120 {_type_arg(cut_type)}",
                group=presenter.group(C120),
                argv=("extremes", "--type", _type_arg(cut_type)),
                plain=True,
                m=_order(C120),
            )
        )
    return calls


WORKLOADS = {
    "lattice": lattice_calls,
    "survey": survey_calls,
    "verify": verify_calls,
}


def workload_calls(name: str, seed: int) -> list[Call]:
    return WORKLOADS[name](Presenter(seed))


# --- output checks ---------------------------------------------------------


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def output_facts(call: Call, stdout: bytes) -> dict:
    """Presentation-independent facts about one call's output.

    Raises ``ValueError`` (or ``KeyError``/``TypeError``) when the output
    breaks an invariant that holds on every seed.
    """
    obj = json.loads(stdout)
    command = call.command
    if command == "lattice":
        cut_type = [int(g) for g in call.argv[2].split(",")]
        for cut in obj["cuts"]:
            if cut["type"] != cut_type:
                raise ValueError(f"cut of type {cut['type']}, requested {cut_type}")
            if len(cut["arrows"]) != call.m:
                raise ValueError(f"cut with {len(cut['arrows'])} arrows, m = {call.m}")
        if len(obj["v_vectors"]) != len(obj["cuts"]):
            raise ValueError("one v-vector per cut expected")
        return {"cuts": len(obj["cuts"]), "covers": len(obj["hasse_edges"])}
    if command in ("types", "analyze"):
        report = obj if command == "types" else obj["types"]
        return {"types": len(report["types"]), "positive": len(report["positive"])}
    if command == "construct":
        cut = obj["cut"]
        cut_type = [int(g) for g in call.argv[2].split(",")]
        if cut["type"] != cut_type or len(cut["arrows"]) != call.m:
            raise ValueError("constructed cut has the wrong type or size")
        if obj["acyclic"] is not True:
            raise ValueError("cut of a positive type must have an acyclic cut quiver")
        return {"cuts": 1}
    if command == "extremes":
        if obj["methods_agree"] is not True:
            raise ValueError("max_greedy and max_via_p disagree")
        return {"cuts": 3}
    if command == "verify":
        if obj["passed"] is not True:
            raise ValueError(f"verification failed: {obj['failures']}")
        cuts = sum(
            int(check["detail"].split(" ", 1)[0])
            for check in obj["checks"]
            if check["name"].startswith("mutation_lattice_")
        )
        return {"cuts": cuts, "checks": len(obj["checks"])}
    raise ValueError(f"no check for subcommand {command!r}")


def check_output(call: Call, code: int, stdout: bytes, expected: dict) -> tuple[int, str]:
    """(cuts emitted, failure reason or "") for one finished call.

    ``expected`` maps call keys to what this commit produced on the
    ladder: exit code, stdout digest and output facts.
    """
    want = expected.get(call.key)
    if want is None:
        return 0, "no recorded expectation"
    if code != want["exit"]:
        return 0, f"exit code {code}, expected {want['exit']}"
    if call.plain and digest(stdout) != want["sha256"]:
        return 0, "stdout digest differs from the recorded one"
    try:
        facts = output_facts(call, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return 0, f"invalid output: {exc}"
    if facts != want["facts"]:
        return 0, f"output facts {facts}, expected {want['facts']}"
    return facts.get("cuts", 0), ""
