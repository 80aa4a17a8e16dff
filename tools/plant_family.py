"""The shipped benchmark on a family of nearby plants, one row per plant.

Each plant is ``harness.benchmark_ilc_config()`` with at most one muscle
parameter moved through ``muscle_overrides`` (``PLANTS``; the first is the
benchmark itself). For each plant the tool runs the learning run, then the
robustness study at 0 % and 20 % tip load (``disturbance_sweep`` with
``sweep_fractions = (0.0, 0.2)``), and prints one row: the error at the
last iteration, the minimum and its iteration, the iterations after which
the feedforward shrank, the two open-loop replays and the PID error at
load 0, in mm. Iterations count from 0. Run from anywhere:

    python tools/plant_family.py

Without PYTHONPATH the package in ``src`` next to this script's directory
is used. ``PYTHONPATH=<checkout>/src`` runs another checkout's package.
Each plant takes about 20 s on one core.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"

# the benchmark, f0_max +/-20 %, four activation floors around the preset's
# 0.08, and t_deact +/-25 %
PLANTS = (
    {},
    {"f0_max": 360.0},
    {"f0_max": 240.0},
    {"a_min": 0.05},
    {"a_min": 0.07},
    {"a_min": 0.09},
    {"a_min": 0.12},
    {"t_deact": 0.03},
    {"t_deact": 0.05},
)
HEADER = ("plant", "last", "min @ it", "shrinks", "replay 0 %", "replay 20 %", "PID")


def _harness():
    if str(_SRC) not in sys.path:
        sys.path.append(str(_SRC))      # after PYTHONPATH, which thus wins
    from myoarm import harness
    return harness


def plant_name(overrides: dict) -> str:
    return ", ".join(f"{k} {v:g}" for k, v in overrides.items()) or "benchmark"


def plant_row(cfg, overrides: dict) -> dict:
    """Learn on ``cfg``'s plant with ``overrides``, then run the study at
    0 % and 20 % load; returns the row's values, errors in mm."""
    harness = _harness()
    cfg = replace(cfg, muscle_overrides=overrides, sweep_fractions=(0.0, 0.2))
    result = harness.run_ilc(cfg)
    result.final_log = None             # the study does not read it
    errors = result.summary.mean_abs_mm
    best = min(range(len(errors)), key=errors.__getitem__)
    unloaded, loaded = harness.disturbance_sweep(cfg, result).points
    return {
        "plant": plant_name(overrides),
        "last_mm": errors[-1],
        "min_mm": errors[best],
        "min_at": best,
        "shrinks": list(result.summary.ff_shrink_iterations),
        "replay_0_mm": unloaded.mean_abs_mm,
        "replay_20_mm": loaded.mean_abs_mm,
        "pid_mm": unloaded.pid_mean_abs_mm,
    }


def format_row(row: dict) -> tuple[str, ...]:
    return (row["plant"], f"{row['last_mm']:.4g}",
            f"{row['min_mm']:.4g} @ {row['min_at']}",
            " ".join(map(str, row["shrinks"])) or "none",
            f"{row['replay_0_mm']:.4g}", f"{row['replay_20_mm']:.4g}",
            f"{row['pid_mm']:.4g}")


def main() -> int:
    cfg = _harness().benchmark_ilc_config()
    print(" | ".join(HEADER))
    for overrides in PLANTS:
        print(" | ".join(format_row(plant_row(cfg, overrides))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
