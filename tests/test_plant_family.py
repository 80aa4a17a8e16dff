"""The plant-family table behind the learning law's robustness figures."""

import importlib.util
import math
from pathlib import Path

from myoarm.harness import ExperimentConfig, TrajectorySpec, compute_metrics, pid_baseline, run_ilc

_PATH = Path(__file__).resolve().parent.parent / "tools" / "plant_family.py"
_spec = importlib.util.spec_from_file_location("plant_family", _PATH)
plant_family = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(plant_family)

TINY = ExperimentConfig(iterations=3, settle_time=3.0, probe_hold=1.0,
                        trajectory=TrajectorySpec(duration=1.0, cycles=1))


def test_rows_of_two_plants_read_their_own_runs():
    plants = ({}, {"a_min": 0.1})
    rows = [plant_family.plant_row(TINY, overrides) for overrides in plants]
    assert [row["plant"] for row in rows] == ["benchmark", "a_min 0.1"]
    for row in rows:
        assert 0 <= row["min_at"] < TINY.iterations
        assert 0.0 < row["min_mm"] <= row["last_mm"]
        assert all(0 <= k < TINY.iterations for k in row["shrinks"])
        assert all(math.isfinite(row[key]) and row[key] > 0.0
                   for key in ("replay_0_mm", "replay_20_mm", "pid_mm"))
        cells = plant_family.format_row(row)
        assert len(cells) == len(plant_family.HEADER)
    # the unmoved plant is the config's own learning run, and its load-0
    # PID trial is the run's PID baseline
    result = run_ilc(TINY)
    assert rows[0]["last_mm"] == result.summary.mean_abs_mm[-1]
    assert rows[0]["pid_mm"] == compute_metrics(pid_baseline(TINY, result)).mean_abs_mm
    assert rows[1]["last_mm"] != rows[0]["last_mm"]
