#!/usr/bin/env python3
"""Print the code lines of each module of a package directory, and their total.

    python3 scripts/code_lines.py [src/gbfpum]

A code line is a line that is not blank, is not a comment (its first
non-blank character is '#') and lies outside every module, class and
function docstring. The docstrings' line ranges come from `ast`, so a
string that merely looks like one, such as a string literal assigned to a
name, still counts.
"""

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    """The 1-based line numbers of every module, class and function docstring of `tree`."""
    lines = set()
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
    """The number of code lines of one module's source."""
    skip = docstring_lines(ast.parse(source))
    return sum(
        1
        for i, line in enumerate(source.splitlines(), start=1)
        if i not in skip and line.strip() and not line.strip().startswith("#")
    )


def main(argv: list[str]) -> None:
    package = Path(argv[0] if argv else "src/gbfpum")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<16} {count:>5}")
    print(f"{'total':<16} {total:>5}")


if __name__ == "__main__":
    main(sys.argv[1:])
