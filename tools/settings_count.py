"""Independently settable values of the myoarm package: config keys,
defaulted parameters and defaulted dataclass fields.

Prints the config keys per section, from ``myoarm.config._SECTIONS``, then
per module of SRC_DIR the parameters with a default value, counted on the
syntax tree of each function and lambda, then the fields with a default
value of each ``@dataclass`` class, with a total after each list. Run from
anywhere:

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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if (getattr(target, "id", None) or getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def defaulted_fields(text: str) -> int:
    """Fields with a default in the ``@dataclass`` classes of ``text``."""
    return sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
               for node in ast.walk(ast.parse(text))
               if isinstance(node, ast.ClassDef) and _is_dataclass(node)
               for stmt in node.body)


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
    texts = {path.name: path.read_text(encoding="utf-8")
             for path in sorted(src.glob("*.py"))}
    for label, count in (("defaulted params", defaulted_parameters),
                         ("defaulted fields", defaulted_fields)):
        total = 0
        for name, text in texts.items():
            n = count(text)
            total += n
            print(f"{name:19} {n:5}")
        print(f"{label:19} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
