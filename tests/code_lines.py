"""Print the code lines of each module of `src/cpdyn` and their total.

    python tests/code_lines.py [--root CHECKOUT]

A code line is a line that holds a token of code: comments, blank lines
and docstrings (the string that opens a module, class or function body,
found with `ast`) do not count; a statement over three lines counts three.
`--root` (default: this file's checkout) names the checkout to count, so
one copy of this script counts any commit.  Not a test (pytest does not
collect it).
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold a token of code."""
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=DEFAULT_ROOT)
    args = parser.parse_args()
    total = 0
    for path in sorted((args.root / "src" / "cpdyn").glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'src/cpdyn':16} {total:5}")


if __name__ == "__main__":
    main()
