"""The counter behind the Options figure of each change: config keys and
defaulted parameters."""

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


def test_config_keys_are_the_parsers_sections():
    assert settings_count.config_keys() == {section: len(keys)
                                            for section, keys in _SECTIONS.items()}


def test_prints_sections_modules_and_both_totals(tmp_path, capsys):
    (tmp_path / "a.py").write_text("def f(x=1, y=2):\n    pass\n", encoding="utf-8")
    (tmp_path / "b.py").write_text("g = lambda z=0: z\n", encoding="utf-8")
    assert settings_count.main([str(tmp_path)]) == 0
    rows = [line.rsplit(None, 1) for line in capsys.readouterr().out.splitlines()]
    keys = [[f"[{section}]", str(len(names))] for section, names in _SECTIONS.items()]
    assert rows == [*keys,
                    ["config keys", str(sum(len(names) for names in _SECTIONS.values()))],
                    ["a.py", "2"], ["b.py", "1"], ["defaulted params", "3"]]
