#!/usr/bin/env python3
"""Source line counts of the fedgbt package.

    python3 scripts/src_lines.py [module.py ...]

For each module under ``src/fedgbt`` (or only the named ones) and in total,
prints two counts: every line, as ``wc -l`` gives it, and the code lines,
which leave out blank lines, comment-only lines and docstrings.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fedgbt"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """Lines that hold a token of code, outside any docstring (a string
    that stands alone as a statement)."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    paths = [SRC / name for name in argv] or sorted(SRC.glob("*.py"))
    rows = []
    for path in paths:
        text = path.read_text()
        rows.append((path.name, text.count("\n"), code_lines(text)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'wc -l':>6}  {'code':>6}")
    for name, every, code in rows:
        print(f"{name:<{width}}  {every:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
