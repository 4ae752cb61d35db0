"""Count the code lines of a Python source tree.

Usage (from the repository root)::

    python tools/loc.py src/repro

A code line is a line holding part of a Python token other than a
comment; blank lines, comment-only lines and docstrings (the leading
string statement of a module, class or function) are not counted.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """Code lines of one module's source."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.difference_update(
                    range(first.lineno, first.end_lineno + 1)
                )
    return len(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/loc.py DIR", file=sys.stderr)
        return 2
    root = Path(argv[0])
    total = sum(
        code_lines(path.read_text(encoding="utf-8"))
        for path in root.rglob("*.py")
    )
    print(f"{root}: {total} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
