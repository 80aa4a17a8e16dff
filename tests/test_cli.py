"""CLI tests: artifact layout, CSV schemas, exit codes, flag/env precedence,
byte-identical reruns and the modules a run imports. All commands run
through main(), in-process except where a fresh interpreter's modules are
checked.
"""

import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import asdict, astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest

import myoarm
from myoarm import cli, harness
from myoarm.cli import _cell, _write_trial_csv, main
from myoarm.config import parse_config
from myoarm.harness import TrialLog

TINY = """\
[experiment]
iterations = 2
seed = 3
settle_time = 3
probe_hold = 1
{extra}
[trajectory]
duration = 1.0
cycles = 1
"""


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path / "runs")])


def tiny_config(tmp_path, extra=""):
    path = tmp_path / "exp.ini"
    path.write_text(TINY.format(extra=extra), encoding="utf-8")
    return str(path)


def read_summary(tmp_path, command):
    path = tmp_path / "runs" / command / "run_summary.json"
    return json.loads(path.read_text(encoding="utf-8"))


def csv_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def test_curves_artifacts(tmp_path):
    assert run(tmp_path, "curves") == 0
    out = tmp_path / "runs" / "curves"
    lines = csv_lines(out / "curves.csv")
    assert lines[0].startswith("# myoarm-curves-v1")
    assert lines[1] == "x,fl,fpe,fv,ft"
    assert len(lines) == 2 + 201
    first = [float(tok) for tok in lines[2].split(",")]
    last = [float(tok) for tok in lines[-1].split(",")]
    assert first[0] == 0.0 and last[0] == 1.0
    assert (out / "config.ini").exists()
    summary = read_summary(tmp_path, "curves")
    assert summary["command"] == "curves"
    assert summary["rows"] == 201


def test_csv_is_lf_utf8_with_dot_decimals(tmp_path):
    run(tmp_path, "curves")
    raw = (tmp_path / "runs" / "curves" / "curves.csv").read_bytes()
    assert b"\r" not in raw
    raw.decode("utf-8")
    body = raw.decode("utf-8").splitlines()[2:]
    assert all(cell.count(".") <= 1 and "e" not in cell.split(".")[0]
               for line in body for cell in line.split(",") if cell)


def test_config_echo_reflects_overrides(tmp_path):
    run(tmp_path, "curves", "--seed", "9")
    echoed = parse_config(
        (tmp_path / "runs" / "curves" / "config.ini").read_text(), env={})
    assert echoed.seed == 9
    assert echoed.out == str(tmp_path / "runs")
    assert read_summary(tmp_path, "curves")["seed"] == 9


def test_muscle_overrides_reach_curves(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[muscle]\neps0_t = 0.02\n", encoding="utf-8")
    run(tmp_path, "curves", "--config", str(cfg))
    assert read_summary(tmp_path, "curves")["eps0_t"] == 0.02


# ---------------------------------------------------------------------------
# simulate / ilc
# ---------------------------------------------------------------------------

def test_simulate_artifacts(tmp_path):
    assert run(tmp_path, "simulate", "--config", tiny_config(tmp_path)) == 0
    trial = tmp_path / "runs" / "simulate" / "hold" / "iter_0.csv"
    lines = csv_lines(trial)
    assert lines[0].startswith("# myoarm-trial-v1")
    header = lines[1].split(",")
    assert header[:5] == ["t", "q0", "q1", "qdot0", "qdot1"]
    assert "tip_x_desired" in header and "tendon_force3" in header
    assert len(lines) == 2 + 1000            # one row per physics tick
    summary = read_summary(tmp_path, "simulate")
    assert summary["conditions"] == ["hold"]
    assert summary["metrics"]["samples"] == 1001
    assert len(summary["hold_drives"]) == 2


def test_ilc_artifacts(tmp_path):
    assert run(tmp_path, "ilc", "--config", tiny_config(tmp_path)) == 0
    out = tmp_path / "runs" / "ilc"
    assert (out / "train" / "iter_0.csv").exists()
    assert (out / "train" / "iter_1.csv").exists()
    est = csv_lines(out / "train" / "estimator_iter_1.csv")
    assert est[0].startswith("# myoarm-estimator-v1")
    assert est[1] == "quantity,row,col,value"
    quantities = {line.split(",")[0] for line in est[2:]}
    assert quantities == {"phi_hat", "xi_hat", "u_ff"}
    ff = csv_lines(out / "feedforward.csv")
    assert ff[1] == "drive0,drive1"
    assert len(ff) == 2 + 100                # one row per control tick
    summary = read_summary(tmp_path, "ilc")
    assert len(summary["mean_abs_mm"]) == 2
    assert summary["final_mean_abs_mm"] == summary["mean_abs_mm"][-1]
    assert summary["ff_shrink_iterations"] == []


def test_noise_free_ilc_imports_neither_numpy_random_nor_numpy_ma(tmp_path):
    # a noise-free learning run draws no random number and takes no masked
    # median, so it need not pay for either module's memory
    argv = ["ilc", "--config", tiny_config(tmp_path), "--out", str(tmp_path / "runs")]
    script = ("import sys\n"
              "from myoarm.cli import main\n"
              f"assert main({argv!r}) == 0\n"
              "print([m for m in ('numpy.random', 'numpy.ma') if m in sys.modules])\n")
    src = str(Path(myoarm.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_ilc_reruns_are_byte_identical(tmp_path):
    cfg = tiny_config(tmp_path)
    run(tmp_path, "ilc", "--config", cfg)
    out = tmp_path / "runs" / "ilc"
    first = {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    run(tmp_path, "ilc", "--config", cfg)
    second = {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert first == second
    assert "run_summary.json" in first


def _reference_trial_csv(log):
    """The row-by-row trial CSV formatter that the table writer replaced."""
    n_joints = log.q.shape[1]
    n_muscles = log.excitations.shape[1]
    columns = (["t"]
               + [f"q{j}" for j in range(n_joints)]
               + [f"qdot{j}" for j in range(n_joints)]
               + ["tip_x", "tip_y", "tip_x_desired", "tip_y_desired"]
               + [f"drive{j}" for j in range(n_joints)]
               + [f"exc{i}" for i in range(n_muscles)]
               + [f"tendon_force{i}" for i in range(n_muscles)])
    text = ("# myoarm-trial-v1: one row per physics tick; q/qdot/tip "
            "at tick start, drive/exc/force applied over the tick\n"
            + ",".join(columns) + "\n")
    for tick in range(log.excitations.shape[0]):
        row = ([log.time[tick]]
               + list(log.q[tick]) + list(log.qdot[tick])
               + list(log.tip[tick]) + list(log.tip_desired[tick])
               + list(log.drives[tick // log.decimation])
               + list(log.excitations[tick])
               + list(log.tendon_forces[tick]))
        text += ",".join(repr(float(v)) for v in row) + "\n"
    return text.encode("utf-8")


def _hand_log(decimation, n_ticks, n_joints=2, n_muscles=4, kept=None):
    """A TrialLog shaped as run_trial leaves it, holding awkward floats.

    ``kept`` < ``n_ticks`` mimics a trial that diverged at tick ``kept``:
    ``kept + 1`` states, ``kept`` ticks of inputs and the drives of every
    control tick begun, the broken one included.
    """
    rng = np.random.default_rng(decimation * 1000 + n_ticks)
    kept = n_ticks if kept is None else kept
    n_control = (n_ticks // decimation if kept == n_ticks
                 else kept // decimation + 1)

    def cells(*shape):
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, shape)
        flat = a.reshape(-1)
        awkward = [-0.0, 1.0, 5e-324, 1e300, 0.1 + 0.2][:flat.size]
        flat[:len(awkward)] = awkward
        return a

    return TrialLog(
        dt=1e-3, decimation=decimation,
        time=np.arange(kept + 1) * 1e-3,
        tip=cells(kept + 1, 2), tip_desired=cells(kept + 1, 2),
        q=cells(kept + 1, n_joints), qdot=cells(kept + 1, n_joints),
        drives=rng.random((n_control, n_joints)),
        excitations=rng.random((kept, n_muscles)),
        tendon_forces=cells(kept, n_muscles),
        muscle_lengths=cells(kept + 1, n_muscles),
        muscle_lengths_desired=cells(kept + 1, n_muscles),
        diverged=kept < n_ticks, diverged_at=kept if kept < n_ticks else None)


# held values whose runs float == would merge (0.0 beside -0.0) or split
# (nan, also with its sign bit set), and the infinities
_HELD = [0.0, -0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, -0.0, np.nan]


def _hold_specials(log):
    """Drives that hold each of ``_HELD`` for two control ticks and
    excitations that hold them for seven physics ticks, column-shifted."""
    for a, hold in ((log.drives, 2), (log.excitations, 7)):
        rows = np.arange(a.shape[0])[:, None] // hold + np.arange(a.shape[1])
        a[:] = np.take(_HELD, rows % len(_HELD))


_BLOCK = cli._BLOCK_ROWS
# over two blocks and not a whole number of them, and a drive held over
# the physics ticks 10k..10k+9 that span the first block boundary
_LONG = 10 * ((5 * _BLOCK // 2) // 10)
assert _LONG > 2 * _BLOCK and _LONG % _BLOCK and _BLOCK % 10


@pytest.mark.parametrize("decimation,n_ticks,kept,specials", [
    pytest.param(1, 37, None, False, id="1-37-None"),
    pytest.param(10, 120, None, False, id="10-120-None"),
    # diverged in the middle of control tick 5
    pytest.param(10, 120, 53, False, id="10-120-53"),
    pytest.param(10, _LONG, None, False, id="blocks"),
    pytest.param(10, _LONG, None, True, id="blocks-held-specials"),
    pytest.param(1, _LONG, _LONG - 3, True, id="blocks-held-specials-diverged"),
    # diverged at its first tick: the header only
    pytest.param(10, 120, 0, False, id="diverged-at-first-tick"),
])
def test_trial_csv_bytes_match_the_row_formatter(tmp_path, decimation,
                                                 n_ticks, kept, specials):
    log = _hand_log(decimation, n_ticks, kept=kept)
    if specials:
        _hold_specials(log)
    path = tmp_path / "iter_0.csv"
    _write_trial_csv(path, log)
    assert path.read_bytes() == _reference_trial_csv(log)
    if kept == 0:
        assert len(csv_lines(path)) == 2


def test_trial_csv_writer_holds_less_than_the_table_as_floats(tmp_path):
    # the writer formats a block of rows at a time, cut from the log's
    # arrays: its peak allocation stays below what the whole table would take
    # as Python floats, and below the table as one float64 array
    log = _hand_log(10, 16000)
    path = tmp_path / "iter_0.csv"
    _write_trial_csv(path, log)
    n_cells = 16000 * len(csv_lines(path)[1].split(","))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        floats = np.arange(n_cells, dtype=float).tolist()
        list_bytes = tracemalloc.get_traced_memory()[0] - before
        del floats
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        _write_trial_csv(path, log)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < list_bytes
    assert peak < n_cells * 8
    assert path.read_bytes() == _reference_trial_csv(log)


def test_feedforward_csv_bytes_match_the_cell_formatter(tmp_path, monkeypatch):
    awkward = [-0.0, 5e-324, 1e300, 0.1 + 0.2, 0.0, 1.0, 0.5, -1e-300]
    rows = np.arange(2 * _BLOCK + 7)[:, None] // 3 + np.arange(2)
    table = np.take(awkward, rows % len(awkward))
    real_run_ilc = cli.run_ilc

    def run_ilc_awkward_table(cfg, on_iteration=None):
        return replace(real_run_ilc(cfg, on_iteration), feedforward_drives=table)

    monkeypatch.setattr(cli, "run_ilc", run_ilc_awkward_table)
    assert run(tmp_path, "ilc", "--config", tiny_config(tmp_path)) == 0
    head, columns, body = (tmp_path / "runs" / "ilc" / "feedforward.csv"
                           ).read_bytes().split(b"\n", 2)
    assert head.startswith(b"# myoarm-feedforward-v1")
    assert columns == b"drive0,drive1"
    assert body == "".join(",".join(map(_cell, row)) + "\n"
                           for row in table).encode("utf-8")


# ---------------------------------------------------------------------------
# sweep / lowpass
# ---------------------------------------------------------------------------

def test_sweep_fans_out_condition_directories(tmp_path):
    cfg = tiny_config(tmp_path, "sweep_fractions = 0, 0.1, 0.2\n")
    assert run(tmp_path, "sweep", "--config", cfg) == 0
    out = tmp_path / "runs" / "sweep"
    for name in ("load_000", "load_100", "load_200"):
        assert (out / name / "iter_0.csv").exists()
    table = csv_lines(out / "sweep.csv")
    assert table[1].startswith("load_fraction,mean_abs_mm")
    assert len(table) == 2 + 3
    summary = read_summary(tmp_path, "sweep")
    assert summary["conditions"] == ["load_000", "load_100", "load_200"]
    assert [row["load_fraction"] for row in summary["table"]] == [0.0, 0.1, 0.2]
    assert all(not row["diverged"] for row in summary["table"])


def test_sweep_learns_once_and_reports_replay_and_pid_per_load(
        tmp_path, monkeypatch):
    runs, trials = [], []
    real_run_ilc, real_trial = cli.run_ilc, harness.run_trial

    def recording_run_ilc(cfg, on_iteration=None):
        runs.append(real_run_ilc(cfg, on_iteration))
        return runs[-1]

    def recording_trial(model, controller, *args, **kwargs):
        trials.append(type(controller).__name__)
        return real_trial(model, controller, *args, **kwargs)

    monkeypatch.setattr(cli, "run_ilc", recording_run_ilc)
    monkeypatch.setattr(harness, "run_trial", recording_trial)
    extra = "repetitions = 2\nsweep_fractions = 0, 0.2\n"
    assert run(tmp_path, "sweep", "--config", tiny_config(tmp_path, extra)) == 0
    monkeypatch.undo()
    # one learning run of `iterations` trials serves the whole study
    assert len(runs) == 1
    assert trials.count("DdilcController") == 2
    out = tmp_path / "runs" / "sweep"
    for name in ("load_000", "load_200"):
        for log in ("iter_0.csv", "iter_1.csv", "pid.csv"):
            assert csv_lines(out / name / log)[0].startswith("# myoarm-trial-v1")

    # the rows are disturbance_sweep's for the same learning run
    cfg = parse_config((out / "config.ini").read_text(), env={})
    [result] = runs
    points = harness.disturbance_sweep(cfg, result).points
    summary = read_summary(tmp_path, "sweep")
    assert summary["training"] == asdict(result.summary)
    assert summary["table"] == [asdict(p) for p in points]
    lines = csv_lines(out / "sweep.csv")
    assert lines[0].startswith("# myoarm-sweep-v2")
    assert lines[1].split(",") == [f.name for f in fields(harness.SweepPoint)]
    assert lines[2:] == [",".join(map(_cell, astuple(p))) for p in points]

    # load 0's PID trial is the baseline of the learning run's own park, so
    # its error ratio to the learning run is criterion 08's
    pid_mm = harness.compute_metrics(harness.pid_baseline(cfg, result)).mean_abs_mm
    row0 = summary["table"][0]
    assert row0["load_fraction"] == 0.0
    assert row0["pid_mean_abs_mm"] == pid_mm
    assert (summary["training"]["mean_abs_mm"][-1] / row0["pid_mean_abs_mm"]
            == result.summary.mean_abs_mm[-1] / pid_mm)


def test_sweep_drops_the_learning_runs_last_log(tmp_path, monkeypatch):
    # nothing in the study reads the learning run's final_log, which used to
    # stay alive through every replay and PID trial
    real_trial, real_sweep = harness.run_trial, cli.disturbance_sweep
    logs, last_learned, alive_at_first = [], [], []

    def tracked_trial(*args, **kwargs):
        if last_learned and not alive_at_first:
            alive_at_first.append(last_learned[0]() is not None)
        log = real_trial(*args, **kwargs)
        logs.append(weakref.ref(log))
        return log

    def tracked_sweep(*args, **kwargs):
        last_learned.append(logs[-1])
        return real_sweep(*args, **kwargs)

    monkeypatch.setattr(harness, "run_trial", tracked_trial)
    monkeypatch.setattr(cli, "disturbance_sweep", tracked_sweep)
    extra = "sweep_fractions = 0, 0.1\n"
    assert run(tmp_path, "sweep", "--config", tiny_config(tmp_path, extra)) == 0
    assert len(logs) == 2 + 2 * 2       # two learning trials, then per load
    assert alive_at_first == [False]


def test_sweep_trains_undisturbed_and_replays_each_load_with_the_noise(
        tmp_path, monkeypatch):
    calls, starts = [], []
    real = harness.run_trial

    def recording(model, controller, task, **kwargs):
        calls.append((type(controller).__name__, kwargs.get("disturbance"),
                      kwargs.get("seed")))
        starts.append(kwargs.get("start_state"))
        return real(model, controller, task, **kwargs)

    monkeypatch.setattr(harness, "run_trial", recording)
    extra = ("repetitions = 2\nsweep_fractions = 0, 0.1\n"
             "[disturbance]\nnoise_amplitude = 0.01\nnoise_frequency_hz = 2.0\n")
    assert run(tmp_path, "sweep", "--config", tiny_config(tmp_path, extra)) == 0
    nominal = harness.DisturbanceSpec()
    noisy = harness.DisturbanceSpec(noise_amplitude=0.01, noise_frequency_hz=2.0)
    loaded = replace(noisy, load_fraction=0.1)
    assert calls == [
        # the learning run sees no noise
        ("DdilcController", nominal, [3, 0]),
        ("DdilcController", nominal, [3, 1]),
        # each replay swaps the swept load in and keeps the noise; the PID
        # trial shares the replays' disturbance and takes the final learning
        # trial's seed
        ("ReplayController", noisy, [3, 0, 0]),
        ("ReplayController", noisy, [3, 0, 1]),
        ("PidController", noisy, [3, 1]),
        ("ReplayController", loaded, [3, 1, 0]),
        ("ReplayController", loaded, [3, 1, 1]),
        ("PidController", loaded, [3, 1]),
    ]
    # one park per load serves its replays and its PID trial
    assert starts[2] is starts[3] is starts[4]
    assert starts[5] is starts[6] is starts[7]


def test_sweep_runs_pid_on_each_loaded_plant(tmp_path, monkeypatch):
    calls = []
    real = harness.run_trial

    def recording(model, controller, task, **kwargs):
        calls.append((type(controller).__name__, kwargs.get("disturbance"),
                      kwargs.get("seed")))
        return real(model, controller, task, **kwargs)

    monkeypatch.setattr(harness, "run_trial", recording)
    extra = ("sweep_fractions = 0, 0.2\n"
             "[disturbance]\nnoise_amplitude = 0.01\nnoise_frequency_hz = 2.0\n")
    assert run(tmp_path, "sweep", "--config", tiny_config(tmp_path, extra)) == 0
    final_seed = [seed for name, _, seed in calls if name == "DdilcController"][-1]
    pid = [(dist, seed) for name, dist, seed in calls if name == "PidController"]
    replays = [dist for name, dist, _ in calls if name == "ReplayController"]
    assert [dist.load_fraction for dist, _ in pid] == [0.0, 0.2]
    for dist, seed in pid:
        # the PID trial shares its load's replay disturbance, noise included,
        # and replays the noise of the final learning trial
        assert dist in replays
        assert (dist.noise_amplitude, dist.noise_frequency_hz) == (0.01, 2.0)
        assert seed == final_seed
    # the load reaches the PID's plant
    table = read_summary(tmp_path, "sweep")["table"]
    assert table[0]["pid_mean_abs_mm"] != table[1]["pid_mean_abs_mm"]


def test_sweep_rejects_a_configured_load_before_any_tick(tmp_path, capsys,
                                                         monkeypatch):
    def no_tick(*args, **kwargs):
        raise AssertionError("a tick ran before the load check")

    monkeypatch.setattr(harness, "integrate_step", no_tick)
    extra = "[disturbance]\nload_fraction = 0.2\n"
    assert run(tmp_path, "sweep", "--config", tiny_config(tmp_path, extra)) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError"
    assert err["message"].startswith("[disturbance] load_fraction = 0.2: ")
    assert "sweep_fractions sets the study's loads" in err["message"]
    # the check runs before anything is written: no output directory at all
    assert not (tmp_path / "runs" / "sweep").exists()


@pytest.mark.parametrize("tick", [0, 37])
@pytest.mark.parametrize("command, key", [("ilc", None), ("sweep", "training")])
def test_divergence_reaches_run_summary(tmp_path, diverge_in_trial, command, key, tick):
    diverge_in_trial(1, tick)
    assert run(tmp_path, command, "--config", tiny_config(tmp_path)) == 0
    summary = read_summary(tmp_path, command)
    summary = summary if key is None else summary[key]
    assert summary["diverged"] == [False, True]
    assert summary["diverged_at"] == [None, tick]
    assert summary["diverged_reason"] == [None, "injected"]


@pytest.mark.parametrize("command, key", [("ilc", None), ("sweep", "training")])
def test_controller_counts_reach_run_summary(tmp_path, command, key):
    assert run(tmp_path, command, "--config", tiny_config(tmp_path)) == 0
    summary = read_summary(tmp_path, command)
    summary = summary if key is None else summary[key]
    for name in ("pjm_diag_resets", "xi_clips", "ff_clips"):
        assert len(summary[name]) == 2
        assert all(type(n) is int and n >= 0 for n in summary[name])
    # the PJM is diagonal, so no off-diagonal count is kept
    assert "pjm_offdiag_resets" not in summary


def test_lowpass_reports_attenuation_gap(tmp_path):
    assert run(tmp_path, "lowpass") == 0
    summary = read_summary(tmp_path, "lowpass")
    assert summary["frequencies_hz"] == [1.0, 50.0]
    assert summary["gap_db"] > 0.0
    lines = csv_lines(tmp_path / "runs" / "lowpass" / "lowpass.csv")
    assert lines[1].startswith("frequency_hz,")
    assert len(lines) == 2 + 2


# ---------------------------------------------------------------------------
# exit codes, flags, environment
# ---------------------------------------------------------------------------

def test_bad_config_exits_2_with_error_json(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[experiment]\nbogus = 1\n", encoding="utf-8")
    assert run(tmp_path, "curves", "--config", str(cfg)) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigError"
    assert "bogus" in err["error"]["message"]


def test_out_of_range_config_exits_2_naming_the_line(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[experiment]\niterations = 0\n", encoding="utf-8")
    assert run(tmp_path, "curves", "--config", str(cfg)) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError"
    assert err["message"].startswith("line 2: [experiment] iterations: ")


@pytest.mark.parametrize("text, start", [
    # keys with one value in use: a window of one error increment, and drive
    # bounds at the plant's [0, 1] domain
    ("[controller]\nerror_window = 2\n", "line 2: unknown key 'error_window'"),
    ("[controller]\nu_min = 0.0\n", "line 2: unknown key 'u_min'"),
    ("[controller]\nu_max = 1.2\n", "line 2: unknown key 'u_max'"),
    # keys with one value in use, now constants
    ("[controller]\nrest_command = 0.5\n", "line 2: unknown key 'rest_command'"),
    # the PJM is diagonal, so no off-diagonal cap remains to set
    ("[controller]\noffdiag_cap = 0.1\n", "line 2: unknown key 'offdiag_cap'"),
    ("[trajectory]\nkind = sine\n", "line 2: unknown key 'kind'"),
    # the park servos in whole seconds, so 3.5 used to park for 3
    ("[experiment]\nsettle_time = 3.5\n", "line 2: [experiment] settle_time: "),
    # each of these passed and failed with exit 1: np.random.default_rng
    # rejected the seed after the park, and round() overflowed on the ticks
    ("[experiment]\nseed = -1\n",
     "line 2: [experiment] seed: ExperimentConfig.seed must be >= 0"),
    ("[experiment]\ndt = 1e-320\n",
     "line 2: [experiment] dt: park round of 1.0 s is not a finite number "
     "of ticks of dt = 1e-320 s"),
    # the park's 1 s round rounded to no tick, so the park held nothing and
    # returned the slack rest state; either key order names dt
    ("[experiment]\ndt = 2.5\ncontrol_decimation = 1\n",
     "line 2: [experiment] dt: park round of 1.0 s rounds to no tick of "
     "dt = 2.5 s"),
    ("[experiment]\ncontrol_decimation = 1\ndt = 2.5\n",
     "line 3: [experiment] dt: park round of 1.0 s rounds to no tick of "
     "dt = 2.5 s"),
    # both write load_100: the second replay's log used to overwrite the
    # first's while the sweep summary listed load_100 twice
    ("[experiment]\nsweep_fractions = 0.1, 0.1004\n",
     "line 2: [experiment] sweep_fractions: ExperimentConfig.sweep_fractions "
     "0.1 and 0.1004 share the output directory load_100"),
    # each of these passed and failed only after the park: 0.4 ticks held
    # nothing and the probe's NaN sensitivity broke the controller's pinv
    ("[experiment]\nprobe_hold = 0.0004\n",
     "line 2: [experiment] probe_hold: ExperimentConfig.probe_hold of 0.0004 s "
     "rounds to no tick of dt = 0.001 s"),
    ("[trajectory]\nduration = 0.0004\n",
     "line 2: [trajectory] duration: ExperimentConfig.trajectory.duration of "
     "0.0004 s rounds to no tick of dt = 0.001 s"),
    # the converter only converts: the dataclass that holds the value
    # checks it and names its field
    ("[trajectory]\namplitude = inf\n",
     "line 2: [trajectory] amplitude: TrajectorySpec.amplitude must be a "
     "finite number, got inf"),
    ("[muscle]\nf0_max = inf\n",
     "line 2: [muscle] f0_max: MuscleParams.f0_max must be a finite number, "
     "got inf"),
    ("[experiment]\npreset =\n",
     "line 2: [experiment] preset: unknown arm preset ''; choose from "),
])
def test_config_key_exits_2_naming_the_line(tmp_path, capsys, text, start):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text, encoding="utf-8")
    assert run(tmp_path, "curves", "--config", str(cfg)) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError"
    assert err["message"].startswith(start)


def test_unreachable_trajectory_exits_1_naming_the_point(tmp_path, capsys):
    path = tmp_path / "far.ini"        # TINY ends inside [trajectory]
    path.write_text(TINY.format(extra="") + "offset_x = 2.0\n",
                    encoding="utf-8")
    assert run(tmp_path, "simulate", "--config", str(path)) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "UnreachableTrajectoryError"
    assert "trajectory sample 0 at (2.0, -0.2): " in err["message"]
    # the config echo and the summary are written only by a completed run
    out = tmp_path / "runs" / "simulate"
    assert not (out / "config.ini").exists()
    assert not (out / "run_summary.json").exists()


def test_simulate_rejects_decimation_before_parking(tmp_path, capsys, monkeypatch):
    def no_park(*args, **kwargs):
        raise AssertionError("park_state ran before the decimation check")

    monkeypatch.setattr(harness, "park_state", no_park)
    config = tiny_config(tmp_path, extra="control_decimation = 3")
    assert run(tmp_path, "simulate", "--config", config) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    # the full config's message: [trajectory] duration = 1.0 comes later in
    # the file, and the run's 1 s chord is the one counted
    assert err == {"type": "ConfigError",
                   "message": "line 6: [experiment] control_decimation: "
                              "ExperimentConfig.control_decimation 3 must "
                              "divide the 1000 trajectory ticks"}


def test_negative_seed_flag_exits_2_before_parking(tmp_path, capsys, monkeypatch):
    def no_park(*args, **kwargs):
        raise AssertionError("park_state ran before the seed check")

    monkeypatch.setattr(harness, "park_state", no_park)
    assert run(tmp_path, "ilc", "--seed", "-1") == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "ConfigError",
                   "message": "--seed: ExperimentConfig.seed must be >= 0, got -1"}


def test_nan_hold_drive_exits_1_naming_tick_and_channel(tmp_path, capsys, monkeypatch):
    real_park = harness.park_state

    def nan_park(*args, **kwargs):
        state, u_hold = real_park(*args, **kwargs)
        u_hold[1] = np.nan
        return state, u_hold

    monkeypatch.setattr(harness, "park_state", nan_park)
    assert run(tmp_path, "simulate", "--config", tiny_config(tmp_path)) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err == {"type": "ValueError", "message": "control tick 0: drive 1 is nan"}
    out = tmp_path / "runs" / "simulate"
    assert not (out / "config.ini").exists()
    assert not (out / "run_summary.json").exists()


@pytest.mark.parametrize("command", ["sweep", "ilc"])
def test_unwritable_out_exits_2_before_any_tick(tmp_path, capsys, monkeypatch,
                                                command):
    def no_tick(*args, **kwargs):
        raise AssertionError("a tick ran before the output check")

    monkeypatch.setattr(harness, "integrate_step", no_tick)
    blocker = tmp_path / "runs"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    assert run(tmp_path, command, "--config", tiny_config(tmp_path)) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ConfigError"
    assert err["message"].startswith("[experiment] out: cannot write ")
    assert blocker.read_text(encoding="utf-8") == "a file, not a directory"


@pytest.mark.parametrize("var,value", [("MYOARM_SEED", "1"),
                                       ("MYOARM_EXPERIMENT__DT", "fast"),
                                       # each used to exit 1
                                       ("MYOARM_EXPERIMENT__SEED", "-1"),
                                       ("MYOARM_EXPERIMENT__DT", "1e-320")])
def test_bad_env_override_exits_2_before_any_output(tmp_path, capsys,
                                                    monkeypatch, var, value):
    monkeypatch.setenv(var, value)
    assert run(tmp_path, "curves") == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["type"] == "ConfigError"
    assert var in err["message"]
    assert not (tmp_path / "runs").exists()


def test_missing_config_file_exits_1(tmp_path, capsys):
    assert run(tmp_path, "curves", "--config", str(tmp_path / "nope.ini")) == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "FileNotFoundError"


def test_config_file_with_a_byte_order_mark_loads(tmp_path):
    cfg = tmp_path / "bom.ini"
    cfg.write_text("[experiment]\nseed = 9\n", encoding="utf-8-sig")
    assert cfg.read_bytes().startswith(b"\xef\xbb\xbf")
    assert run(tmp_path, "curves", "--config", str(cfg)) == 0
    assert read_summary(tmp_path, "curves")["seed"] == 9


def test_unknown_command_is_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["teleport", "--out", str(tmp_path)])


def test_preset_flag_overrides_config(tmp_path):
    assert run(tmp_path, "curves", "--preset", "spatial-ltdm") == 0
    echoed = parse_config(
        (tmp_path / "runs" / "curves" / "config.ini").read_text(), env={})
    assert echoed.preset == "spatial-ltdm"
    # the flag ignores case and '_' versus '-', like the config file
    assert run(tmp_path, "curves", "--preset", "spatial_ltdm") == 0
    ini = (tmp_path / "runs" / "curves" / "config.ini").read_text()
    assert "preset = spatial-ltdm\n" in ini


def test_env_overrides_file_and_flag_beats_env(tmp_path, monkeypatch):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[experiment]\nseed = 3\n", encoding="utf-8")
    monkeypatch.setenv("MYOARM_EXPERIMENT__SEED", "11")
    run(tmp_path, "curves", "--config", str(cfg))
    assert read_summary(tmp_path, "curves")["seed"] == 11
    run(tmp_path, "curves", "--config", str(cfg), "--seed", "12")
    assert read_summary(tmp_path, "curves")["seed"] == 12
