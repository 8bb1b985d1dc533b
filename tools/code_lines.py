"""Count the code lines of each ``src/ftop`` module and their total.

A code line holds at least one token that is not a comment, and is not
part of a docstring: the string that opens a module, class or function
body, found through ``ast``.  Blank lines, comment lines and docstring
lines are not counted; a line that ends in a comment after code is.

Run from anywhere, with the standard library only::

    python tools/code_lines.py            # the package next to this script
    python tools/code_lines.py path/to/pkg

A path that holds no ``*.py`` module, a missing one or a file, is an
error: a message on stderr and exit status 2, not a total of 0.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "ftop"
    paths = sorted(root.glob("*.py"))
    if not paths:
        print(f"code_lines: no *.py module in {root}", file=sys.stderr)
        return 2
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
