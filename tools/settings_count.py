"""Independently settable values of the myoarm package: config keys and
defaulted parameters.

Prints the config keys per section, from ``myoarm.config._SECTIONS``, then
the parameters with a default value per module of SRC_DIR, counted on the
syntax tree of each function and lambda, with a total after each list. Run
from anywhere:

    python tools/settings_count.py [SRC_DIR]

SRC_DIR defaults to ``src/myoarm`` next to this script's directory; the
config keys always come from the package in ``src``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"


def defaulted_parameters(text: str) -> int:
    """Parameters of the functions and lambdas in ``text`` that have a default."""
    count = 0
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    return count


def config_keys() -> dict[str, int]:
    """Number of keys in each config section."""
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))
    from myoarm.config import _SECTIONS
    return {section: len(keys) for section, keys in _SECTIONS.items()}


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else _SRC / "myoarm"
    keys = config_keys()
    for section, n in keys.items():
        print(f"[{section}]{'':{17 - len(section)}} {n:5}")
    print(f"{'config keys':19} {sum(keys.values()):5}")
    total = 0
    for path in sorted(src.glob("*.py")):
        n = defaulted_parameters(path.read_text(encoding="utf-8"))
        total += n
        print(f"{path.name:19} {n:5}")
    print(f"{'defaulted params':19} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
