"""Record ``tests/golden.json``: what the CLI prints on the ladder.

Run from the repository root, on a commit whose outputs are trusted:

    python tests/record_golden.py

The table holds the sorted ``mckaycuts.__all__``, the ladder's group
inputs, the cut files some rows pass to ``verify --cut``, and one row per
CLI call: the group given on stdin, the argv, the cut file if any, the
exit code and the sha256 of stdout.  ``tests/test_golden.py`` runs every
row through ``run`` below, the same function that records it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":  # record the checkout's own source
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import mckaycuts  # noqa: E402
from mckaycuts import cli  # noqa: E402

GOLDEN = Path(__file__).with_name("golden.json")


def _group(n, generators) -> dict:
    return {
        "n": n,
        "generators": [{"order": o, "weights": list(w)} for o, w in generators],
    }


def _cyclic(n, order, *weights) -> dict:
    return _group(n, [(order, weights)])


# The ladder, named as in tests/conftest.py and perfbench/workloads.py,
# each with up to four types: positive ones first, then nonpositive ones
# such as (m/6, 5m/6, 0) and (m, 0, 0).
LADDER = {
    "half_11": (_cyclic(1, 2, 1, 1), ["1,1", "2,0", "0,2"]),
    "third_111": (_cyclic(2, 3, 1, 1, 1), ["1,1,1", "3,0,0", "0,3,0", "0,0,3"]),
    "quarter_112": (_cyclic(2, 4, 1, 1, 2), ["1,1,2", "2,2,0", "4,0,0", "0,0,4"]),
    "sixth_123": (_cyclic(2, 6, 1, 2, 3), ["1,2,3", "2,4,0", "3,0,3", "6,0,0"]),
    "klein_sl3": (
        _group(2, [(2, (1, 1, 0)), (2, (1, 0, 1))]),
        ["2,2,0", "0,2,2", "2,0,2", "4,0,0"],
    ),
    "quarter_1111": (
        _cyclic(3, 4, 1, 1, 1, 1), ["1,1,1,1", "4,0,0,0", "0,4,0,0", "0,0,0,4"]
    ),
    "fifth_1112": (
        _cyclic(3, 5, 1, 1, 1, 2), ["1,1,1,2", "5,0,0,0", "0,5,0,0", "0,0,0,5"]
    ),
    "c12": (_cyclic(2, 12, 1, 2, 9), ["1,2,9", "7,2,3", "6,0,6", "12,0,0"]),
    "c12_156": (_cyclic(2, 12, 1, 5, 6), ["1,5,6", "3,3,6", "2,10,0", "12,0,0"]),
    "c18": (_cyclic(2, 18, 1, 5, 12), ["1,5,12", "5,7,6", "8,4,6", "3,15,0"]),
    "c24": (_cyclic(2, 24, 1, 5, 18), ["1,5,18", "6,6,12", "7,11,6", "4,20,0"]),
    "c30": (_cyclic(2, 30, 1, 5, 24), ["1,5,24", "8,10,12", "5,25,0", "30,0,0"]),
    "c36": (_cyclic(2, 36, 1, 5, 30), ["1,5,30", "5,25,6", "6,30,0", "36,0,0"]),
    "c60": (_cyclic(2, 60, 1, 5, 54), ["1,5,54", "2,10,48", "10,50,0", "60,0,0"]),
    "c120": (
        _cyclic(2, 120, 1, 5, 114), ["1,5,114", "16,80,24", "33,45,42", "20,100,0"]
    ),
    "c130": (_cyclic(2, 130, 1, 5, 124), ["1,5,124", "2,10,118", "65,65,0", "130,0,0"]),
    "c2000": (_cyclic(2, 2000, 1, 5, 1994), ["1,5,1994", "566,830,604"]),
    "c10": (_cyclic(3, 10, 1, 2, 3, 4), ["1,2,3,4", "5,0,5,0", "10,0,0,0", "0,0,0,10"]),
    "c500": (
        _cyclic(3, 500, 1, 2, 3, 494),
        ["1,2,3,494", "250,0,250,0", "500,0,0,0", "0,0,0,500"],
    ),
    "c30_n4": (
        _cyclic(4, 30, 1, 2, 3, 5, 19),
        ["1,2,3,5,19", "2,4,6,10,8", "30,0,0,0,0", "0,0,0,0,30"],
    ),
    "c7": (
        _cyclic(5, 7, 1, 1, 1, 1, 1, 2),
        ["1,1,1,1,1,2", "7,0,0,0,0,0", "0,0,0,0,0,7"],
    ),
    "c300": (
        _cyclic(6, 300, 1, 2, 3, 4, 5, 6, 279),
        ["1,2,3,4,5,6,279", "300,0,0,0,0,0,0", "0,0,0,0,0,0,300"],
    ),
    "bprime": (
        {"n": 3, "bprime": [[2, 1, 0], [1, 3, 1], [0, 1, 4]]},
        ["4,10,2,2", "8,2,4,4", "9,0,9,0", "18,0,0,0"],
    ),
}

# Types whose lattice is not listed: more than 20,000 cuts, or, for
# (1, 5, m - 6) at m = 2000, m cuts of m arrows each (4 million arrows).
# At m = 2000 each call takes about 0.1 s, so that group has two types.
NO_LATTICE = {
    ("c120", "16,80,24"),
    ("c120", "33,45,42"),
    ("c130", "2,10,118"),
    ("c2000", "1,5,1994"),
    ("c2000", "566,830,604"),
}

# `verify` at its default budget runs on the groups of order m <= 30.
VERIFY_MAX_M = 30

# Inputs that the CLI refuses.
REFUSED = {
    "bprime_and_generators": {"n": 1, "bprime": [[2]], "generators": {}},
    "object_generators": {"n": 2, "generators": {}},
}


def _half_11_cut(*arrows) -> dict:
    """A cut file for 1/2(1,1) from (source vertex, arrow type) pairs."""
    return {
        "type": [1, 1],
        "arrows": [{"source": [v], "arrow_type": t} for v, t in arrows],
    }


CUTS = {
    "half_11_valid": _half_11_cut((1, 1), (1, 2)),
    "half_11_corrupted": _half_11_cut((0, 1), (1, 2)),
    "object_arrows": {"arrows": {}},
}

# (group, argv, cut file or None) of the calls beyond the per-type ones.
EXTRA_CALLS = [
    ("third_111", ["verify", "--budget", "0"], None),
    ("half_11", ["verify"], "half_11_valid"),
    ("half_11", ["verify"], "half_11_corrupted"),
    ("third_111", ["verify"], "object_arrows"),
    ("bprime_and_generators", ["types"], None),
    ("object_generators", ["types"], None),
    ("third_111", ["construct", "--type", "9" * 5000 + ",1,1"], None),
    ("third_111", ["verify", "--budget", "-1"], None),
    ("third_111", ["export-dot", "hasse"], None),
    ("third_111", ["--max-m", "2", "analyze"], None),
    ("third_111", ["construct", "--type", "2,1,0"], None),
    ("third_111", ["export-dot", "cut", "--type", "2,1,0"], None),
]


def calls():
    """(group, argv, cut file) of every row, in table order."""
    for name, (group, types) in LADDER.items():
        m = mckaycuts.parse_input(group)[0].m
        yield name, ["analyze"], None
        yield name, ["types"], None
        yield name, ["export-dot", "quiver"], None
        for cut_type in types:
            typed = ["--type", cut_type]
            yield name, ["construct", *typed], None
            yield name, ["construct", *typed, "--format", "dot"], None
            yield name, ["extremes", *typed], None
            yield name, ["export-dot", "cut", *typed], None
            if (name, cut_type) not in NO_LATTICE:
                yield name, ["lattice", *typed], None
                yield name, ["lattice", *typed, "--format", "dot"], None
                yield name, ["export-dot", "hasse", *typed], None
        if m <= VERIFY_MAX_M:
            yield name, ["verify"], None
    yield from EXTRA_CALLS


class _Sha256Sink:
    """A text stream that hashes what is written to it and keeps none of it."""

    def __init__(self):
        self.sha256 = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha256.update(text.encode())
        return len(text)

    def writelines(self, lines) -> None:
        for line in lines:
            self.write(line)

    def flush(self) -> None:
        pass


def run(group: dict, argv: list[str], cut: dict | None = None) -> tuple[int, str]:
    """Exit code and stdout sha256 of one CLI call, run in this process.

    The group is read from stdin; a cut, if given, is written to a
    temporary file passed as ``--cut``.  stderr is discarded.
    """
    sink = _Sha256Sink()
    with contextlib.ExitStack() as stack:
        if cut is not None:
            path = Path(stack.enter_context(tempfile.TemporaryDirectory())) / "cut.json"
            path.write_text(json.dumps(cut), encoding="utf-8")
            argv = [*argv, "--cut", str(path)]
        stack.callback(setattr, sys, "stdin", sys.stdin)
        sys.stdin = io.StringIO(json.dumps(group))
        stack.enter_context(contextlib.redirect_stdout(sink))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses its own arguments
            code = exc.code
    return code, sink.sha256.hexdigest()


def load() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def find_row(table: dict, group: str, argv: list[str], cut: str | None = None) -> dict:
    """The one row of the table for a call."""
    (row,) = [
        r for r in table["rows"]
        if r["group"] == group and r["argv"] == argv and r.get("cut") == cut
    ]
    return row


def record() -> dict:
    groups = {name: group for name, (group, _) in LADDER.items()} | REFUSED
    rows = []
    for name, argv, cut in calls():
        code, sha256 = run(groups[name], argv, CUTS.get(cut))
        row = {"group": name, "argv": argv}
        if cut is not None:
            row["cut"] = cut
        rows.append(row | {"exit": code, "sha256": sha256})
    return {
        "__all__": sorted(mckaycuts.__all__),
        "groups": groups,
        "cuts": CUTS,
        "rows": rows,
    }


def dumps(table: dict) -> str:
    """The table as JSON text with one group, cut file or row per line."""

    def block(items, brackets):
        inner = ",\n".join(f"  {item}" for item in items)
        return f"{brackets[0]}\n{inner}\n {brackets[1]}"

    def mapping(d):
        return block((f"{json.dumps(k)}: {json.dumps(v)}" for k, v in d.items()), "{}")

    parts = [
        f'"__all__": {json.dumps(table["__all__"])}',
        f'"groups": {mapping(table["groups"])}',
        f'"cuts": {mapping(table["cuts"])}',
        f'"rows": {block(map(json.dumps, table["rows"]), "[]")}',
    ]
    return "{\n" + ",\n".join(f" {part}" for part in parts) + "\n}\n"


def main() -> int:
    GOLDEN.write_text(dumps(record()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
