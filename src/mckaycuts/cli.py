"""Command-line front end.

Subcommands: analyze | types | construct | lattice | extremes | verify |
export-dot.  Input is a JSON group description via --input or stdin.
Exit codes: 0 ok, 1 verification failures, 2 malformed input, 3
unsupported size, 4 inadmissible type, 5 an ``extremes`` maximum that
failed certification (the path bound in ``max_via_p`` says it never does),
141 stdout closed by its reader before the output was written.  A
refusal gives a number past 2,048 bits by its size (``m = a 14610-bit
number``), since Python refuses the decimal text of an int past its
digit limit, so a group order of thousands of digits still exits 3.

Each subcommand registers its handler, and whether it takes ``--type``,
in ``build_parser``.  ``main`` reads the input and the type once for
every handler, and it is the one place where refusals become exit codes.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Iterator
from functools import cache
from math import factorial

from .construct import (
    _arrow_json,
    _indented,
    _json_array,
    construct_cut,
    cut_from_json,
    cut_to_json,
    degree_zero_presentation,
)
from .errors import InadmissibleTypeError, SearchBoundExceededError
from .groups import _number_text, parse_input
from .heights import height_from_cut
from .mutation import enumerate_cut_lattice, max_element, max_via_p, min_element
from .quiver import build_mckay, is_acyclic, quiver_to_dot
from .typesimplex import enumerate_types, require_admissible
from .verify import run_verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_SIZE = 3
EXIT_INADMISSIBLE = 4
EXIT_UNSUPPORTED = 5

EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a killed writer

DEFAULT_MAX_M = 5000
DEFAULT_BUDGET = 6

# int() alone would also read "1_1" and non-ASCII digits.
_TYPE_ENTRY = re.compile(r"[+-]?[0-9]+")
_COUNT = re.compile(r"[0-9]+")
# What reading an input or cut file can raise on bad content; json gives
# up on deeply nested arrays with RecursionError.
_MALFORMED = (
    OSError, json.JSONDecodeError, KeyError, TypeError, ValueError, RecursionError
)

# The library's refusals that main turns into exit codes; a _CliError
# carries its own.
_REFUSALS = {
    InadmissibleTypeError: EXIT_INADMISSIBLE,
    SearchBoundExceededError: EXIT_UNSUPPORTED,
}


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load(args) -> tuple:
    try:
        if args.input in (None, "-"):
            text = sys.stdin.read()
        else:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
        obj = json.loads(text)
        # Refuse a large n before its n x n basis is built and reduced.
        n = obj.get("n") if isinstance(obj, dict) else None
        if type(n) is int and n > 6:
            raise _CliError(EXIT_SIZE, f"unsupported size: n = {n} (limit: n <= 6)")
        embedding, spec = parse_input(obj)
    except _MALFORMED as exc:
        raise _CliError(EXIT_PARSE, f"malformed input: {exc}") from exc
    if embedding.m > args.max_m:
        raise _CliError(
            EXIT_SIZE,
            f"unsupported size: m = {_number_text(embedding.m)}"
            f" (limit: m <= {args.max_m})",
        )
    return embedding, spec


def _parse_type(text: str, n: int) -> tuple[int, ...]:
    entries = text.replace(" ", "").split(",")
    if not all(_TYPE_ENTRY.fullmatch(p) for p in entries):
        raise _CliError(EXIT_PARSE, f"malformed type vector {text!r}")
    try:
        parts = tuple(map(int, entries))
    except ValueError as exc:  # an entry past int()'s digit limit
        raise _CliError(EXIT_PARSE, f"malformed type vector: {exc}") from exc
    if len(parts) != n + 1:
        raise _CliError(
            EXIT_PARSE, f"type vector must have {n + 1} entries, got {len(parts)}"
        )
    return parts


def _emit(payload) -> None:
    """Write a string, an iterator of strings, or a JSON payload to stdout."""
    if isinstance(payload, str):
        sys.stdout.write(payload)
    elif isinstance(payload, Iterator):
        sys.stdout.writelines(payload)
    else:
        sys.stdout.write(_indented(payload, 0) + "\n")


def _cmd_analyze(args, embedding, spec) -> int:
    report = enumerate_types(embedding)
    n, m = embedding.n, embedding.m
    # The quiver's counts follow from n and m, so it is not built.
    _emit(
        {
            "n": n,
            "m": m,
            "bprime_hnf": [list(row) for row in embedding.hnf],
            "quiver": {
                "vertices": m,
                "arrows": (n + 1) * m,
                "elementary_cycles": m * factorial(n),
            },
            "types": report.to_json()
            | {"vertices": [list(t) for t in report.vertices]},
            "hollow": report.hollow,
            "preprojective_cut_exists": not report.hollow,
        }
    )
    return EXIT_OK


def _cmd_types(args, embedding, spec) -> int:
    _emit(enumerate_types(embedding).to_json())
    return EXIT_OK


def _cmd_construct(args, embedding, spec) -> int:
    quiver = build_mckay(embedding)
    cut = construct_cut(quiver, args.cut_type)
    if args.format == "dot":
        _emit(quiver_to_dot(quiver, cut))
    else:
        _emit(_construct_chunks(quiver, cut))
    return EXIT_OK


def _construct_chunks(quiver, cut):
    """Yield the ``construct`` JSON in pieces.

    The cut and its height function come out in one piece each, then the
    degree-zero arrows and squares 64 to a chunk.  The text
    is that of ``json.dumps(tree, indent=2) + "\\n"`` for the tree of the
    cut (``cut_to_json``), its height function, the degree-zero
    presentation and whether it is acyclic, but of that tree only the
    cut's and the height function's parts are built.  Every arrow is
    written once at depth 3, as a cut arrow or as an arrow of the cut
    quiver; the arrows of the relation squares sit at depth 4 and recur,
    so each of their texts is encoded once and reused.
    """
    sub, relations = degree_zero_presentation(quiver, cut)

    def arrow_text(depth):
        return lambda arrow: _indented(_arrow_json(quiver, *arrow), depth)

    square_arrow = cache(arrow_text(4))
    yield '{\n  "cut": ' + _indented(cut_to_json(cut), 1)
    yield ',\n  "height": ' + _indented(height_from_cut(quiver, cut).to_json(), 1)
    yield ',\n  "degree_zero": {\n    "arrows": '
    yield from _json_array(map(arrow_text(3), sub.arrows), 2)
    yield ',\n    "relations": '
    yield from _json_array(
        ("".join(_json_array(map(square_arrow, square), 3)) for square in relations),
        2,
    )
    yield '\n  },\n  "acyclic": ' + _indented(is_acyclic(sub), 1) + "\n}\n"


def _cmd_lattice(args, embedding, spec) -> int:
    lattice = enumerate_cut_lattice(build_mckay(embedding), args.cut_type)
    if args.format == "dot":
        _emit(lattice.hasse_dot())
    else:
        _emit(lattice.json_chunks())
    return EXIT_OK


def _cmd_extremes(args, embedding, spec) -> int:
    cut_type = args.cut_type
    quiver = build_mckay(embedding)
    maximum = max_element(quiver, cut_type)
    minimum = min_element(quiver, cut_type)
    via_p = max_via_p(quiver, cut_type)
    # The "greedy" keys name the seed-constraint extremes; the names are
    # kept so the output format is unchanged.
    _emit(
        {
            "type": list(cut_type),
            "max_greedy": cut_to_json(maximum),
            "max_via_p": cut_to_json(via_p),
            "min_greedy": cut_to_json(minimum),
            "methods_agree": maximum.arrows == via_p.arrows,
        }
    )
    return EXIT_OK


def _cmd_verify(args, embedding, spec) -> int:
    cut_arrows = None
    if args.cut is not None:
        try:
            with open(args.cut, encoding="utf-8") as fh:
                obj = json.load(fh)
            cut_arrows = cut_from_json(build_mckay(embedding), obj)
        except _MALFORMED as exc:
            raise _CliError(EXIT_PARSE, f"malformed cut file: {exc}") from exc
    result = run_verification(
        embedding, spec=spec, budget=args.budget, cut_arrows=cut_arrows
    )
    _emit(result)
    return EXIT_OK if result["passed"] else EXIT_VERIFY_FAILED


def _cmd_export_dot(args, embedding, spec) -> int:
    _emit(quiver_to_dot(build_mckay(embedding)))
    return EXIT_OK


def _nonnegative(text: str) -> int:
    if not _COUNT.fullmatch(text):
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mckaycuts",
        description=(
            "Cut combinatorics for McKay quivers of finite abelian "
            "subgroups of SL(n+1)."
        ),
    )
    parser.add_argument(
        "--input",
        help="path to a JSON group description (default: read stdin)",
    )
    parser.add_argument(
        "--max-m",
        type=_nonnegative,
        default=DEFAULT_MAX_M,
        help="refuse instances with group order above this bound",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, typed=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler, typed=typed)
        return p

    command("analyze", _cmd_analyze, "embedding, quiver summary, and type simplex")
    command("types", _cmd_types, "the type simplex report")

    p_construct = command(
        "construct", _cmd_construct, "construct a cut of a given type", typed=True
    )
    p_construct.add_argument("--type", required=True, help='type vector, e.g. "1,1,1"')
    p_construct.add_argument("--format", choices=("json", "dot"), default="json")

    p_lattice = command(
        "lattice", _cmd_lattice, "the mutation lattice of a type", typed=True
    )
    p_lattice.add_argument("--type", required=True)
    p_lattice.add_argument("--format", choices=("json", "dot"), default="json")

    p_extremes = command(
        "extremes", _cmd_extremes, "maximal and minimal cuts", typed=True
    )
    p_extremes.add_argument("--type", required=True)

    p_verify = command("verify", _cmd_verify, "run the invariant suite")
    p_verify.add_argument("--budget", type=_nonnegative, default=DEFAULT_BUDGET)
    p_verify.add_argument("--cut", help="optional cut JSON file to validate")

    p_dot = command("export-dot", _cmd_export_dot, "DOT output for graphviz")
    p_dot.add_argument("what", choices=("quiver", "cut", "hasse"))
    p_dot.add_argument("--type")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "export-dot" and args.what != "quiver":
            if args.type is None:
                raise _CliError(EXIT_PARSE, f"export-dot {args.what} requires --type")
            # The cut and the Hasse diagram are the DOT formats of
            # construct and lattice.
            args.handler = _cmd_construct if args.what == "cut" else _cmd_lattice
            args.typed, args.format = True, "dot"
        embedding, spec = _load(args)
        if args.typed:
            cut_type = _parse_type(args.type, embedding.n)
            args.cut_type = require_admissible(embedding, cut_type)
        code = args.handler(args, embedding, spec)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except (_CliError, *_REFUSALS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, _CliError) else _REFUSALS[type(exc)]
    except BrokenPipeError:
        # The reader went away (say, ``| head``).  As in the SIGPIPE note
        # of the Python docs, point stdout at devnull so that the final
        # flush fails no more; the SIGPIPE handler is left alone because
        # main also runs inside other programs.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
