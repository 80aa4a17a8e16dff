"""Net source code lines of the myoarm package, per module and in total.

A line counts when it holds code: blank lines, comment-only lines and the
lines of module, class and function docstrings do not. Run from anywhere:

    python tools/src_lines.py [SRC_DIR]

SRC_DIR defaults to ``src/myoarm`` next to this script's directory.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """Lines of ``text`` that hold a token outside comments and docstrings."""
    docstrings = _docstring_lines(ast.parse(text))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1)
                         if n not in docstrings)
    return len(lines)


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "myoarm"
    total = 0
    for path in sorted(src.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.name:16} {n:5}")
    print(f"{'total':16} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
