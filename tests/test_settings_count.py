"""The counter behind the Options figure of each change: config keys,
defaulted parameters and defaulted dataclass fields."""

import importlib.util
from pathlib import Path

from myoarm.config import _SECTIONS

_PATH = Path(__file__).resolve().parent.parent / "tools" / "settings_count.py"
_spec = importlib.util.spec_from_file_location("settings_count", _PATH)
settings_count = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(settings_count)

SAMPLE = '''\
def f(a, b=1, *args, c, d=None, **kw):
    g = lambda x, y=2: x + y
    return g


class A:
    def m(self, x=0):
        def inner(z=3):
            return z
        return inner


async def h(p, q=4):
    return p
'''


def test_counts_positional_keyword_lambda_nested_and_async_defaults():
    # b, d, y, x, z, q; a keyword-only parameter without one (c) is not counted
    assert settings_count.defaulted_parameters(SAMPLE) == 6


FIELDS = '''\
import dataclasses
from dataclasses import dataclass, field


@dataclass
class A:
    x: int
    y: int = 1
    z: list = field(default_factory=list)

    def m(self, k=2):
        w: int = 3
        return w


@dataclasses.dataclass(frozen=True)
class B:
    p: float = 0.0


class C:
    q: int = 4
'''


def test_counts_fields_with_defaults_in_dataclasses_only():
    # y, z and p; not x (no default), the method's local w, or C.q (no
    # @dataclass); a method parameter is a defaulted parameter, not a field
    assert settings_count.defaulted_fields(FIELDS) == 3


def test_config_keys_are_the_parsers_sections():
    assert settings_count.config_keys() == {section: len(keys)
                                            for section, keys in _SECTIONS.items()}


def test_prints_sections_modules_and_both_totals(tmp_path, capsys):
    (tmp_path / "a.py").write_text("def f(x=1, y=2):\n    pass\n\n\n"
                                   "@dataclass\nclass A:\n    n: int = 0\n",
                                   encoding="utf-8")
    (tmp_path / "b.py").write_text("g = lambda z=0: z\n", encoding="utf-8")
    assert settings_count.main([str(tmp_path)]) == 0
    rows = [line.rsplit(None, 1) for line in capsys.readouterr().out.splitlines()]
    keys = [[f"[{section}]", str(len(names))] for section, names in _SECTIONS.items()]
    assert rows == [*keys,
                    ["config keys", str(sum(len(names) for names in _SECTIONS.values()))],
                    ["a.py", "2"], ["b.py", "1"], ["defaulted params", "3"],
                    ["a.py", "1"], ["b.py", "0"], ["defaulted fields", "1"]]
