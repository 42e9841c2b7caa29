"""Command-line front end.

Subcommands: analyze | types | construct | lattice | extremes | verify |
export-dot.  Input is a JSON group description via --input or stdin.
Exit codes: 0 ok, 1 verification failures, 2 malformed input, 3
unsupported size, 4 inadmissible type, 5 unsupported extremes request.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import factorial

from .construct import construct_cut, cut_from_json, cut_to_json, degree_zero_presentation
from .errors import (
    InadmissibleTypeError,
    NonFaithfulSpecError,
    NotACutError,
    SearchBoundExceededError,
    SingularMatrixError,
    UnsupportedLatticeError,
)
from .groups import parse_input
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

DEFAULT_MAX_M = 5000
DEFAULT_BUDGET = 6


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
        embedding, spec = parse_input(obj)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise _CliError(EXIT_PARSE, f"malformed input: {exc}") from exc
    if embedding.m > args.max_m or embedding.n > 6:
        raise _CliError(
            EXIT_SIZE,
            f"unsupported size: m = {embedding.m}, n = {embedding.n} "
            f"(limits: m <= {args.max_m}, n <= 6)",
        )
    return embedding, spec


def _parse_type(text: str, n: int) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.replace(" ", "").split(","))
    except ValueError as exc:
        raise _CliError(EXIT_PARSE, f"malformed type vector {text!r}") from exc
    if len(parts) != n + 1:
        raise _CliError(
            EXIT_PARSE, f"type vector must have {n + 1} entries, got {len(parts)}"
        )
    return parts


def _emit(payload) -> None:
    if isinstance(payload, str):
        sys.stdout.write(payload)
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _cmd_analyze(args) -> int:
    embedding, _ = _load(args)
    quiver = build_mckay(embedding)
    report = enumerate_types(embedding)
    _emit(
        {
            "n": embedding.n,
            "m": embedding.m,
            "bprime_hnf": [list(row) for row in embedding.hnf],
            "quiver": {
                "vertices": quiver.m,
                "arrows": (quiver.n + 1) * quiver.m,
                "elementary_cycles": quiver.m * factorial(quiver.n),
            },
            "types": report.to_json()
            | {"vertices": [list(t) for t in report.vertices]},
            "hollow": report.hollow,
            "preprojective_cut_exists": not report.hollow,
        }
    )
    return EXIT_OK


def _cmd_types(args) -> int:
    embedding, _ = _load(args)
    _emit(enumerate_types(embedding).to_json())
    return EXIT_OK


def _require_type(args, embedding):
    cut_type = _parse_type(args.type, embedding.n)
    try:
        return require_admissible(embedding, cut_type)
    except InadmissibleTypeError as exc:
        raise _CliError(EXIT_INADMISSIBLE, str(exc)) from exc


def _cmd_construct(args) -> int:
    embedding, _ = _load(args)
    cut_type = _require_type(args, embedding)
    quiver = build_mckay(embedding)
    cut = construct_cut(quiver, cut_type)
    if args.format == "dot":
        _emit(quiver_to_dot(quiver, cut))
        return EXIT_OK
    sub, relations = degree_zero_presentation(quiver, cut)
    _emit(
        {
            "cut": cut_to_json(cut),
            "height": height_from_cut(quiver, cut).to_json(),
            "degree_zero": {
                "arrows": [
                    {"source": list(quiver.vertices[v]), "arrow_type": t}
                    for v, t in sub.arrows
                ],
                "relations": [
                    [
                        {"source": list(quiver.vertices[v]), "arrow_type": t}
                        for v, t in square
                    ]
                    for square in relations
                ],
            },
            "acyclic": is_acyclic(sub),
        }
    )
    return EXIT_OK


def _cmd_lattice(args) -> int:
    embedding, _ = _load(args)
    quiver = build_mckay(embedding)
    lattice = enumerate_cut_lattice(quiver, _require_type(args, embedding))
    if args.format == "dot":
        _emit(lattice.hasse_dot())
    else:
        _emit(lattice.to_json())
    return EXIT_OK


def _cmd_extremes(args) -> int:
    embedding, _ = _load(args)
    cut_type = _require_type(args, embedding)
    quiver = build_mckay(embedding)
    try:
        greedy_max = max_element(quiver, cut_type)
        greedy_min = min_element(quiver, cut_type)
        via_p = max_via_p(quiver, cut_type)
    except (UnsupportedLatticeError, SearchBoundExceededError) as exc:
        raise _CliError(EXIT_UNSUPPORTED, str(exc)) from exc
    _emit(
        {
            "type": list(cut_type),
            "max_greedy": cut_to_json(greedy_max),
            "max_via_p": cut_to_json(via_p),
            "min_greedy": cut_to_json(greedy_min),
            "methods_agree": greedy_max.arrows == via_p.arrows,
        }
    )
    return EXIT_OK


def _cmd_verify(args) -> int:
    embedding, spec = _load(args)
    cut_arrows = None
    if args.cut is not None:
        try:
            with open(args.cut, encoding="utf-8") as fh:
                obj = json.load(fh)
            cut_arrows = cut_from_json(build_mckay(embedding), obj)
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise _CliError(EXIT_PARSE, f"malformed cut file: {exc}") from exc
    result = run_verification(
        embedding, spec=spec, budget=args.budget, cut_arrows=cut_arrows
    )
    _emit(result)
    return EXIT_OK if result["passed"] else EXIT_VERIFY_FAILED


def _cmd_export_dot(args) -> int:
    embedding, _ = _load(args)
    quiver = build_mckay(embedding)
    if args.what == "quiver":
        _emit(quiver_to_dot(quiver))
        return EXIT_OK
    if args.type is None:
        raise _CliError(EXIT_PARSE, f"export-dot {args.what} requires --type")
    if args.what == "cut":
        cut_type = _require_type(args, embedding)
        _emit(quiver_to_dot(quiver, construct_cut(quiver, cut_type)))
        return EXIT_OK
    lattice = enumerate_cut_lattice(quiver, _require_type(args, embedding))
    _emit(lattice.hasse_dot())
    return EXIT_OK


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return value


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
        type=int,
        default=DEFAULT_MAX_M,
        help="refuse instances with group order above this bound",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("analyze", help="embedding, quiver summary, and type simplex")
    sub.add_parser("types", help="the type simplex report")

    p_construct = sub.add_parser("construct", help="construct a cut of a given type")
    p_construct.add_argument("--type", required=True, help='type vector, e.g. "1,1,1"')
    p_construct.add_argument("--format", choices=("json", "dot"), default="json")

    p_lattice = sub.add_parser("lattice", help="the mutation lattice of a type")
    p_lattice.add_argument("--type", required=True)
    p_lattice.add_argument("--format", choices=("json", "dot"), default="json")

    p_extremes = sub.add_parser("extremes", help="maximal and minimal cuts")
    p_extremes.add_argument("--type", required=True)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--budget", type=_nonnegative, default=DEFAULT_BUDGET)
    p_verify.add_argument("--cut", help="optional cut JSON file to validate")

    p_dot = sub.add_parser("export-dot", help="DOT output for graphviz")
    p_dot.add_argument("what", choices=("quiver", "cut", "hasse"))
    p_dot.add_argument("--type")

    return parser


_COMMANDS = {
    "analyze": _cmd_analyze,
    "types": _cmd_types,
    "construct": _cmd_construct,
    "lattice": _cmd_lattice,
    "extremes": _cmd_extremes,
    "verify": _cmd_verify,
    "export-dot": _cmd_export_dot,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (
        NonFaithfulSpecError,
        SingularMatrixError,
        NotACutError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
