"""sha256 of every artifact the five myoarm commands write on small configs.

Runs ``curves``, ``simulate``, ``ilc``, ``sweep`` and ``lowpass`` through
``myoarm.cli.main`` in a temporary directory with ``out = runs``, on a fixed
small config (2 iterations, a 1 s chord, a 20 % tip load, activation noise
0.01 at 2 Hz, 2 repetitions, sweep fractions 0 and 0.2). The config is
written in the syntax's variant spellings (mixed case, ``:`` and ``=`` with
or without spaces, comments); the ``config.ini`` echoes are canonical, so
the spelling moves no digest. ``sweep`` takes its loads from the sweep
fractions and rejects a configured tip load, so it runs on the same config
without the load. The tool prints one
``<sha256>  <command>/<file>`` line per artifact, sorted by path. After
each ``run_summary.json`` comes a ``<command>/run_summary.json#results``
line: the digest of that JSON without its ``config_ini`` echo, so a change
that moves only the echo (a config key added or removed) leaves it equal.
It uses only the CLI, so the outputs of two checkouts can be compared with
``diff``:

    PYTHONPATH=<checkout>/src python tools/artifact_digest.py > digests.txt

Without PYTHONPATH the package in ``src`` next to this script's directory is
used. ``MYOARM_*`` environment overrides apply as they do to the CLI.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"

COMMANDS = ("curves", "simulate", "ilc", "sweep", "lowpass")
CONFIG = """\
# variant spellings of the config syntax
[Experiment]
iterations = 2
repetitions: 2
seed = 3        ; inline comment
out = runs
SETTLE_TIME = 3
probe_hold=1
sweep_fractions = 0.0, 0.2

[ trajectory ]
duration = 1.0
cycles = 1

[disturbance]
load_fraction = 0.2
noise_amplitude = 0.01
noise_frequency_hz = 2.0
"""
SWEEP_CONFIG = CONFIG.replace("load_fraction = 0.2\n", "")


def _lines(path: Path, name: str) -> list[str]:
    """The ``sha256  name`` line of ``path``; for a ``run_summary.json``,
    then the ``name#results`` line of its JSON without ``config_ini``."""
    data = path.read_bytes()
    lines = [f"{hashlib.sha256(data).hexdigest()}  {name}"]
    if path.name == "run_summary.json":
        results = json.loads(data)
        results.pop("config_ini")
        text = json.dumps(results, sort_keys=True, indent=2, allow_nan=False)
        lines.append(f"{hashlib.sha256(text.encode()).hexdigest()}  {name}#results")
    return lines


def digests() -> list[str]:
    """Run every command on CONFIG (``sweep`` on SWEEP_CONFIG); one
    ``sha256  path`` line per artifact, and a ``#results`` line after each
    ``run_summary.json``."""
    if str(_SRC) not in sys.path:
        sys.path.append(str(_SRC))      # after PYTHONPATH, which thus wins
    from myoarm.cli import main

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("exp.ini").write_text(CONFIG, encoding="utf-8")
            Path("sweep.ini").write_text(SWEEP_CONFIG, encoding="utf-8")
            for command in COMMANDS:
                config = "sweep.ini" if command == "sweep" else "exp.ini"
                code = main([command, "--config", config])
                if code != 0:
                    raise RuntimeError(f"myoarm {command} exited with {code}")
            root = Path("runs")
            return [line for path in sorted(root.rglob("*")) if path.is_file()
                    for line in _lines(path, path.relative_to(root).as_posix())]
        finally:
            os.chdir(cwd)


def main() -> int:
    print("\n".join(digests()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
