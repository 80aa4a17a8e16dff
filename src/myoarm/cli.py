"""Command-line front end: experiment dispatch and artifact serialization.

Usage: ``myoarm <command> [--config PATH] [--seed N] [--out DIR]
[--preset NAME]``. Commands:

* ``curves``    — dump the normalized muscle characteristic curves as CSV;
* ``simulate``  — park on the trajectory start and hold, logging one
  open-loop trial (the null baseline every learning run starts from);
* ``ilc``       — run the iterative learning experiment, logging every
  iteration's trial and estimator state;
* ``sweep``     — the robustness study: learn once on the nominal plant,
  then, at each tip load, replay the converged feedforward open-loop and
  run the task-space PID baseline from the same park;
* ``lowpass``   — measure tendon-force attenuation of 1 Hz vs 50 Hz
  excitation ripple on one isometric muscle.

Each experiment is one ``harness`` function called with the
``ExperimentConfig``: ``hold_trial``, ``run_ilc``, then
``disturbance_sweep`` with the learning run's ``IlcResult``, and
``lowpass_attenuation_test``. This module only dispatches and writes the
artifacts.

Every run writes, under ``<out>/<command>/``, per-condition directories of
per-trial CSV logs named ``iter_<k>.csv`` (a sweep load's PID trial is
``pid.csv``); once the command completes it adds the exact configuration
used (``config.ini``) and a ``run_summary.json`` (sorted keys, no
timestamps, so identical config+seed reproduce it byte for byte), and a
failed command writes neither. CSV files are UTF-8 with LF line endings,
``.`` decimal separators, and a versioned ``#``-comment schema line above
the column header. A float cell is Python's shortest round-trip ``repr``, so
``float(cell)`` gives back the logged value exactly; integer and flag cells
are plain integers. The float tables (trial logs, ``feedforward.csv``) are
formatted ``_BLOCK_ROWS`` rows at a time, each block cut from the arrays
it comes from, with one ``repr`` per run of bit-identical values in a
column, such as a drive held over its control tick; the mixed-type rows
(curves, estimator, sweep, lowpass) go through ``_cell``. Failures exit
nonzero after printing a one-line machine-readable error JSON to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, astuple, fields, replace
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config,
    serialize_config,
    sweep_condition,
)
from .control import DdilcController
from .harness import (
    DisturbanceSpec,
    LowpassPoint,
    SweepPoint,
    TrialLog,
    compute_metrics,
    disturbance_sweep,
    hold_trial,
    lowpass_attenuation_test,
    run_ilc,
)
from .muscle import MuscleParams, curve_samples
from .presets import PRESETS, preset_key

__all__ = ["main", "dispatch"]

_COMMANDS = {
    "curves": "dump normalized muscle curves (x, fl, fpe, fv, ft) as CSV",
    "simulate": "hold the parked posture open-loop for one logged trial",
    "ilc": "run the iterative learning experiment",
    "sweep": "learned replay and PID baseline under increasing tip load",
    "lowpass": "tendon-force attenuation of 1 Hz vs 50 Hz drive ripple",
}


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    # exact type first: the float cells of the mixed-type rows (np.float64
    # subclasses float)
    if type(value) is float:
        return repr(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _create(path: Path):
    """``path`` opened for UTF-8 text with LF line endings, its directory made
    first: a command creates its output tree only as it writes."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def _check_writable(out: Path) -> None:
    """Fail before the run, creating nothing, when ``out`` cannot be made: its
    nearest existing ancestor must be a writable directory."""
    existing = out
    while not existing.exists() and existing != existing.parent:
        existing = existing.parent
    if not existing.is_dir() or not os.access(existing, os.W_OK | os.X_OK):
        raise ConfigError(f"[experiment] out: cannot write {str(out)!r}: "
                          f"{str(existing)!r} is not a writable directory")


def _write_csv(path: Path, schema_note: str, columns, rows) -> None:
    with _create(path) as fh:
        fh.write(f"# {schema_note}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


# rows per block of a float table: its cells are held as strings one block at
# a time, so a 256-row block costs a few hundred kB at any log length
_BLOCK_ROWS = 256


def _float_columns(block: np.ndarray) -> list[list[str]]:
    """The cells of a (rows x columns) float64 block, one list per column.

    ``repr`` runs once per run of bit-identical values in a column (a drive
    held over its control tick): runs compare the int64 view, since float
    ``==`` joins ``-0.0`` with ``0.0`` and never ``nan`` with itself.
    """
    n = block.shape[0]
    bits = block.view(np.int64)
    starts = bits[1:] != bits[:-1]      # row i + 1 starts a new run
    n_runs = starts.sum(axis=0).tolist()
    columns = []
    for j, values in enumerate(block.T.tolist()):
        if n_runs[j] == n - 1:          # every value its own run
            columns.append(list(map(repr, values)))
            continue
        edges = [0, *(np.flatnonzero(starts[:, j]) + 1).tolist(), n]
        cells = []
        for a, b in zip(edges, edges[1:]):
            cells += [repr(values[a])] * (b - a)
        columns.append(cells)
    return columns


def _write_float_table(path: Path, schema_note: str, columns,
                       blocks) -> None:
    """``_write_csv`` of a float table given as an iterable of nonempty
    (rows x columns) blocks of at most ``_BLOCK_ROWS`` rows, written one
    block at a time; each cell is ``repr`` of its value, as ``_cell`` formats
    a float."""
    with _create(path) as fh:
        fh.write(f"# {schema_note}\n")
        fh.write(",".join(columns) + "\n")
        for block in blocks:
            cells = _float_columns(np.ascontiguousarray(block, dtype=float))
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    with _create(path) as fh:
        fh.write(text + "\n")


def _write_trial_csv(path: Path, log: TrialLog) -> None:
    """Per-tick log: state at the start of each tick, inputs held over it."""
    n_ticks, n_muscles = log.excitations.shape
    n_joints = log.q.shape[1]
    columns = (["t"]
               + [f"q{j}" for j in range(n_joints)]
               + [f"qdot{j}" for j in range(n_joints)]
               + ["tip_x", "tip_y", "tip_x_desired", "tip_y_desired"]
               + [f"drive{j}" for j in range(n_joints)]
               + [f"exc{i}" for i in range(n_muscles)]
               + [f"tendon_force{i}" for i in range(n_muscles)])

    def blocks():
        # state columns end with the state after the last tick, and a
        # diverged trial's drives cover the control tick it broke off: a block
        # takes only its ticks' rows, a tick's drive from row tick // decimation
        for start in range(0, n_ticks, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n_ticks)
            yield np.column_stack([
                *(a[start:stop] for a in (log.time, log.q, log.qdot, log.tip,
                                          log.tip_desired)),
                log.drives[np.arange(start, stop) // log.decimation],
                log.excitations[start:stop], log.tendon_forces[start:stop]])

    _write_float_table(path, "myoarm-trial-v1: one row per physics tick; "
                       "q/qdot/tip at tick start, drive/exc/force applied over "
                       "the tick", columns, blocks())


def _write_estimator_csv(path: Path, controller: DdilcController,
                         iteration: int) -> None:
    """Long-format dump of the estimator state after one iteration."""
    rows = [(name, r, c, value)
            for name, matrix in (("phi_hat", controller.est.phi_hat),
                                 ("xi_hat", controller.xi_hat),
                                 ("u_ff", controller.u_ff))
            for r, row in enumerate(np.atleast_2d(matrix).tolist())
            for c, value in enumerate(row)]
    _write_csv(path, f"myoarm-estimator-v1: state after iteration "
               f"{iteration}; phi_hat = output-increment model, xi_hat = "
               "feedback gain, u_ff = feedforward used this iteration",
               ["quantity", "row", "col", "value"], rows)


# ---------------------------------------------------------------------------
# command runners (each returns the summary payload for run_summary.json)
# ---------------------------------------------------------------------------

def _cmd_curves(cfg: ExperimentConfig, out: Path) -> dict:
    params = MuscleParams(**cfg.muscle_overrides)
    rows = curve_samples(params)
    _write_csv(out / "curves.csv",
               "myoarm-curves-v1: fl/fpe at fiber length 0.5+x, fv at "
               "velocity 2x-1, ft at tendon strain 2x*eps0_t",
               ["x", "fl", "fpe", "fv", "ft"], rows)
    return {"rows": len(rows), "files": ["curves.csv"],
            "eps0_t": params.eps0_t}


def _cmd_simulate(cfg: ExperimentConfig, out: Path) -> dict:
    log, u_hold = hold_trial(cfg)
    _write_trial_csv(out / "hold" / "iter_0.csv", log)
    return {"conditions": ["hold"], "hold_drives": [float(u) for u in u_hold],
            "metrics": asdict(compute_metrics(log))}


def _cmd_ilc(cfg: ExperimentConfig, out: Path) -> dict:
    cond = out / "train"

    def on_iteration(k, log, metrics, controller):
        _write_trial_csv(cond / f"iter_{k}.csv", log)
        _write_estimator_csv(cond / f"estimator_iter_{k}.csv", controller, k)

    result = run_ilc(cfg, on_iteration=on_iteration)
    table = result.feedforward_drives
    _write_float_table(out / "feedforward.csv",
                       "myoarm-feedforward-v1: converged drive table, one row "
                       "per control tick",
                       [f"drive{j}" for j in range(cfg.model.n_joints)],
                       (table[start:start + _BLOCK_ROWS]
                        for start in range(0, table.shape[0], _BLOCK_ROWS)))
    summary = result.summary
    return {**asdict(summary), "final_mean_abs_mm": summary.mean_abs_mm[-1],
            "conditions": ["train"],
            "sensitivity_m_per_drive": result.sensitivity.tolist()}


def _cmd_sweep(cfg: ExperimentConfig, out: Path) -> dict:
    if cfg.disturbance.load_fraction != 0.0:
        raise ConfigError(
            f"[disturbance] load_fraction = {cfg.disturbance.load_fraction!r}: "
            "sweep learns on the unloaded plant and [experiment] "
            "sweep_fractions sets the study's loads; leave it at 0")
    # learn on the nominal plant; the noise applies to the study's trials.
    # The study reads nothing of the learning run's last trial log, so that
    # log is dropped before the study's trials run
    result = replace(run_ilc(replace(cfg, disturbance=DisturbanceSpec())),
                     final_log=None)
    conditions = [sweep_condition(f) for f in cfg.sweep_fractions]
    dirs = [out / name for name in conditions]

    def on_trial(fi, rep, log):
        name = "pid.csv" if rep is None else f"iter_{rep}.csv"
        _write_trial_csv(dirs[fi] / name, log)

    sweep = disturbance_sweep(cfg, result, on_trial=on_trial)
    _write_csv(out / "sweep.csv",
               "myoarm-sweep-v2: open-loop replay error and task-space PID "
               "error vs tip load (fraction of the 2.5 kg rated load)",
               [f.name for f in fields(SweepPoint)],
               [astuple(p) for p in sweep.points])
    return {
        "conditions": conditions,
        "training": asdict(result.summary),
        "repetitions": cfg.repetitions,
        "table": [asdict(p) for p in sweep.points],
    }


def _cmd_lowpass(cfg: ExperimentConfig, out: Path) -> dict:
    points = lowpass_attenuation_test(cfg.model)
    _write_csv(out / "lowpass.csv",
               "myoarm-lowpass-v1: lock-in tendon-force response to "
               "excitation ripple on one isometric muscle",
               [f.name for f in fields(LowpassPoint)],
               [astuple(p) for p in points])
    return {
        "frequencies_hz": [p.frequency_hz for p in points],
        "measured_db": [p.measured_db for p in points],
        "activation_oracle_db": [p.activation_oracle_db for p in points],
        "gap_db": points[0].measured_db - points[-1].measured_db,
    }


_RUNNERS = {
    "curves": _cmd_curves,
    "simulate": _cmd_simulate,
    "ilc": _cmd_ilc,
    "sweep": _cmd_sweep,
    "lowpass": _cmd_lowpass,
}


# ---------------------------------------------------------------------------
# dispatch and entry point
# ---------------------------------------------------------------------------

def dispatch(command: str, cfg: ExperimentConfig) -> int:
    """Run one command, writing artifacts under ``<out>/<command>/``.

    When the command completes, the output directory receives the exact
    configuration used (``config.ini``) and a deterministic
    ``run_summary.json``; a command that fails writes neither. Directories
    are made as files are written, so a command that fails its config
    checks before it writes leaves no directory behind; an output path that
    cannot be written fails before the run.
    """
    if command not in _RUNNERS:
        raise ConfigError(f"unknown command {command!r}; expected one of "
                          f"{', '.join(_RUNNERS)}")
    out = Path(cfg.out) / command
    _check_writable(out)
    echo = serialize_config(cfg)
    payload = {"command": command, "seed": cfg.seed, "config_ini": echo}
    payload.update(_RUNNERS[command](cfg, out))
    with _create(out / "config.ini") as fh:
        fh.write(echo)
    _write_json(out / "run_summary.json", payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="INI experiment config (defaults apply if omitted)")
    common.add_argument("--seed", type=int, metavar="N",
                        help="override the experiment seed")
    common.add_argument("--out", metavar="DIR",
                        help="override the output directory")
    common.add_argument("--preset", type=preset_key, choices=sorted(PRESETS),
                        help="override the arm preset")
    parser = argparse.ArgumentParser(
        prog="myoarm",
        description="Muscle-driven planar arm simulator with a data-driven "
                    "iterative learning controller.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    for name, help_text in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def _print_error(exc: BaseException) -> None:
    print(json.dumps({"error": {"type": type(exc).__name__,
                                "message": str(exc)}},
                     sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = (load_config(args.config) if args.config is not None
               else parse_config(""))
        # each override flag is named after its ExperimentConfig field
        for name in ("seed", "out", "preset"):
            value = getattr(args, name)
            if value is None:
                continue
            try:
                cfg = replace(cfg, **{name: value})
            except ValueError as exc:   # e.g. --seed -1
                raise ConfigError(f"--{name}: {exc}") from exc
        return dispatch(args.command, cfg)
    except ConfigError as exc:
        _print_error(exc)
        return 2
    except Exception as exc:    # CLI boundary: report, don't traceback
        _print_error(exc)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
