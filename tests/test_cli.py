"""CLI tests: artifact layout, CSV schemas, exit codes, flag/env precedence,
and byte-identical reruns. All commands run in-process through main().
"""

import json

import numpy as np
import pytest

from myoarm import cli, harness
from myoarm.cli import _write_trial_csv, main
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
    assert echoed.out_dir == str(tmp_path / "runs")
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
        flat[:5] = [-0.0, 1.0, 5e-324, 1e300, 0.1 + 0.2]
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
        diverged=kept < n_ticks, diverged_at=kept if kept < n_ticks else None)


@pytest.mark.parametrize("decimation,n_ticks,kept", [
    (1, 37, None),
    (10, 120, None),
    (10, 120, 53),        # diverged in the middle of control tick 5
])
def test_trial_csv_bytes_match_the_row_formatter(tmp_path, decimation,
                                                 n_ticks, kept):
    log = _hand_log(decimation, n_ticks, kept=kept)
    path = tmp_path / "iter_0.csv"
    _write_trial_csv(path, log)
    assert path.read_bytes() == _reference_trial_csv(log)


# ---------------------------------------------------------------------------
# sweep / compare / lowpass
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


def test_compare_reports_both_controllers(tmp_path):
    assert run(tmp_path, "compare", "--config", tiny_config(tmp_path)) == 0
    out = tmp_path / "runs" / "compare"
    assert (out / "ddilc" / "iter_1.csv").exists()
    assert (out / "pid" / "iter_0.csv").exists()
    summary = read_summary(tmp_path, "compare")
    assert summary["conditions"] == ["ddilc", "pid"]
    assert summary["error_ratio"] == pytest.approx(
        summary["ddilc_final_mean_abs_mm"] / summary["pid"]["mean_abs_mm"])


def test_compare_runs_pid_on_the_disturbed_plant(tmp_path, monkeypatch):
    calls = []
    real = harness.run_trial

    def recording(model, controller, points, dt, **kwargs):
        calls.append((type(controller).__name__, kwargs.get("disturbance"),
                      kwargs.get("seed")))
        return real(model, controller, points, dt, **kwargs)

    monkeypatch.setattr(harness, "run_trial", recording)
    extra = ("[disturbance]\nload_fraction = 0.2\nnoise_amplitude = 0.01\n"
             "noise_frequency_hz = 2.0\n")
    assert run(tmp_path, "compare", "--config", tiny_config(tmp_path, extra)) == 0
    (ddilc, dist_ddilc, seed_ddilc), (pid, dist_pid, seed_pid) = calls[-2:]
    assert (ddilc, pid) == ("DdilcController", "PidController")
    assert dist_ddilc.load_fraction == dist_pid.load_fraction == 0.2
    assert dist_pid == dist_ddilc
    # the PID trial replays the noise of the final DDILC trial
    assert seed_pid == seed_ddilc == [3, 1]


@pytest.mark.parametrize("tick", [0, 37])
@pytest.mark.parametrize("command, key", [("ilc", None), ("compare", "ddilc")])
def test_divergence_reaches_run_summary(tmp_path, diverge_in_trial, command, key, tick):
    diverge_in_trial(1, tick)
    assert run(tmp_path, command, "--config", tiny_config(tmp_path)) == 0
    summary = read_summary(tmp_path, command)
    summary = summary if key is None else summary[key]
    assert summary["diverged"] == [False, True]
    assert summary["diverged_at"] == [None, tick]
    assert summary["diverged_reason"] == [None, "injected"]


@pytest.mark.parametrize("command, key", [("ilc", None), ("compare", "ddilc")])
def test_controller_counts_reach_run_summary(tmp_path, command, key):
    assert run(tmp_path, command, "--config", tiny_config(tmp_path)) == 0
    summary = read_summary(tmp_path, command)
    summary = summary if key is None else summary[key]
    for name in ("pjm_diag_resets", "pjm_offdiag_resets", "xi_clips", "ff_clips"):
        assert len(summary[name]) == 2
        assert all(type(n) is int and n >= 0 for n in summary[name])
    # the PJM starts diagonal, and the sign rule resets every off-diagonal
    # update to 0 (see the control module docstring)
    assert min(summary["pjm_offdiag_resets"]) > 0


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
    # a drive bound outside the plant's [0, 1] domain
    ("[controller]\nu_max = 1.2\n", "line 2: [controller] u_max: "),
    # keys with one value in use, now constants
    ("[controller]\nrest_command = 0.5\n", "line 2: unknown key 'rest_command'"),
    ("[trajectory]\nkind = sine\n", "line 2: unknown key 'kind'"),
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


def test_nan_hold_drive_exits_1_naming_tick_and_channel(tmp_path, capsys, monkeypatch):
    real_park = cli.park_state

    def nan_park(*args, **kwargs):
        state, u_hold = real_park(*args, **kwargs)
        u_hold[1] = np.nan
        return state, u_hold

    monkeypatch.setattr(cli, "park_state", nan_park)
    assert run(tmp_path, "simulate", "--config", tiny_config(tmp_path)) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err == {"type": "ValueError", "message": "control tick 0: drive 1 is nan"}
    out = tmp_path / "runs" / "simulate"
    assert not (out / "config.ini").exists()
    assert not (out / "run_summary.json").exists()


@pytest.mark.parametrize("var,value", [("MYOARM_SEED", "1"),
                                       ("MYOARM_EXPERIMENT__DT", "fast")])
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
