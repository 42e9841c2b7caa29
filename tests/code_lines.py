"""Count the code lines of Python files: the measure of code size.

A code line holds at least one token other than a comment or the
NL/NEWLINE/INDENT/DEDENT markers, and is not part of a docstring (the
string that opens a module, class or function body).  Blank, comment and
docstring lines do not count.  Run from the repository root:

    python tests/code_lines.py [PATH ...]

Each path is a file or a directory searched for ``*.py``; the default is
``src/mckaycuts``.  One line per file, then the total, is printed.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# ENDMARKER closes every file and holds no code.
_NOT_CODE = {
    tokenize.ENDMARKER,
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(source))


def main(argv: list[str]) -> int:
    files = []
    for arg in argv or ["src/mckaycuts"]:
        path = Path(arg)
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
