"""Experiment configuration: INI parsing, env overrides, validation, echo.

The configuration format is sectioned plain text (``configparser`` INI):

* ``[experiment]`` — preset, iterations, repetitions, seed, out, dt,
  control_decimation, settle_time, probe_delta, probe_hold,
  divergence_patience, sweep_fractions;
* ``[trajectory]`` — kind, amplitude, spatial_period, cycles, duration,
  offset_x/offset_y, direction_x/direction_y;
* ``[controller]`` — any ``DdilcParams`` field;
* ``[muscle]`` — any ``MuscleParams`` field (sparse overrides applied to the
  preset's muscles);
* ``[disturbance]`` — load_fraction, noise_amplitude, noise_frequency_hz;
* ``[pid]`` — kp, ki, kd, torque_scale.

Every key is optional (an empty file yields the benchmark defaults), unknown
sections or keys are hard errors carrying the offending line number, and
values are validated on load so a bad config never reaches a simulation.
After the file, environment variables override individual keys using the
documented prefix scheme ``MYOARM_<SECTION>__<KEY>`` (for example
``MYOARM_EXPERIMENT__SEED=3`` or ``MYOARM_CONTROLLER__FEEDFORWARD_SCALE=0.2``).
``serialize_config`` emits a canonical full dump that parses back to an equal
configuration; every experiment writes that echo next to its artifacts.
"""

from __future__ import annotations

import configparser
import math
import os
import re
from dataclasses import dataclass, field, fields

from .arm import ArmModel
from .control import DdilcParams
from .harness import DisturbanceSpec, IlcConfig, PidGains, TrajectorySpec
from .muscle import MuscleParams
from .presets import PRESETS, make_arm, preset_key

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "serialize_config",
    "arm_from_config",
    "ilc_config_from",
    "ENV_PREFIX",
]

ENV_PREFIX = "MYOARM_"


class ConfigError(ValueError):
    """A configuration problem, with the source line when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


@dataclass
class ExperimentConfig:
    """One experiment, fully specified: plant, task, controller, outputs."""

    preset: str = "planar2x4"
    iterations: int = 50
    repetitions: int = 1
    seed: int = 0
    out_dir: str = "runs"
    dt: float = 1e-3
    control_decimation: int = 10
    settle_time: float = 12.0
    probe_delta: float = 0.2
    probe_hold: float = 8.0
    divergence_patience: int = 3
    sweep_fractions: tuple[float, ...] = (0.0, 0.05, 0.10, 0.15, 0.20)
    trajectory: TrajectorySpec = field(
        default_factory=lambda: TrajectorySpec(duration=8.0))
    controller: DdilcParams = field(default_factory=DdilcParams)
    muscle_overrides: dict[str, float] = field(default_factory=dict)
    disturbance: DisturbanceSpec = field(default_factory=DisturbanceSpec)
    pid: PidGains = field(default_factory=PidGains)


_FLOAT_LIST = "float list"

_EXPERIMENT_KEYS: dict[str, object] = {
    "preset": str,
    "iterations": int,
    "repetitions": int,
    "seed": int,
    "out": str,
    "dt": float,
    "control_decimation": int,
    "settle_time": float,
    "probe_delta": float,
    "probe_hold": float,
    "divergence_patience": int,
    "sweep_fractions": _FLOAT_LIST,
}
_TRAJECTORY_KEYS: dict[str, object] = {
    "kind": str,
    "amplitude": float,
    "spatial_period": float,
    "cycles": int,
    "duration": float,
    "offset_x": float,
    "offset_y": float,
    "direction_x": float,
    "direction_y": float,
}
_CONTROLLER_KEYS: dict[str, object] = {
    f.name: (int if f.name == "error_window" else float)
    for f in fields(DdilcParams)}
_MUSCLE_KEYS: dict[str, object] = {f.name: float for f in fields(MuscleParams)}
_DISTURBANCE_KEYS: dict[str, object] = {
    "load_fraction": float,
    "noise_amplitude": float,
    "noise_frequency_hz": float,
}
_PID_KEYS: dict[str, object] = {
    "kp": float, "ki": float, "kd": float, "torque_scale": float}

_SECTIONS: dict[str, dict[str, object]] = {
    "experiment": _EXPERIMENT_KEYS,
    "trajectory": _TRAJECTORY_KEYS,
    "controller": _CONTROLLER_KEYS,
    "muscle": _MUSCLE_KEYS,
    "disturbance": _DISTURBANCE_KEYS,
    "pid": _PID_KEYS,
}


def _find_line(text: str, section: str, key: str | None = None) -> int | None:
    """Best-effort line number of a section header or of a key inside it."""
    in_section = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        m = re.match(r"\[([^\]]+)\]", line)
        if m:
            if key is None and m.group(1).strip().lower() == section:
                return lineno
            in_section = m.group(1).strip().lower() == section
            continue
        if key is not None and in_section and re.match(
                rf"{re.escape(key)}\s*[=:]", line, re.IGNORECASE):
            return lineno
    return None


def _coerce(section: str, key: str, raw: str, typ,
            line: int | None = None):
    raw = raw.strip()
    if typ is str:
        if not raw:
            raise ConfigError(f"[{section}] {key} must not be empty", line)
        return raw
    if typ is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(
                f"[{section}] {key}: expected an integer, got {raw!r}",
                line) from None
    if typ is float:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(
                f"[{section}] {key}: expected a number, got {raw!r}",
                line) from None
        if not math.isfinite(value):
            raise ConfigError(f"[{section}] {key} must be finite", line)
        return value
    if typ is _FLOAT_LIST:
        tokens = [tok for tok in raw.replace(",", " ").split() if tok]
        if not tokens:
            raise ConfigError(
                f"[{section}] {key}: expected a list of numbers", line)
        return tuple(_coerce(section, key, tok, float, line) for tok in tokens)
    raise AssertionError(f"unhandled option type {typ!r}")


def _read_sections(text: str) -> dict[str, dict[str, object]]:
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError(f"key outside any [section]: {exc.line.strip()!r}",
                          exc.lineno) from exc
    except configparser.ParsingError as exc:
        lineno, content = exc.errors[0]
        raise ConfigError(f"malformed line {content}", lineno) from exc
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    values: dict[str, dict[str, object]] = {name: {} for name in _SECTIONS}
    for section in parser.sections():
        name = section.strip().lower()
        if name not in _SECTIONS:
            raise ConfigError(
                f"unknown section [{section}]; expected one of "
                f"{', '.join(_SECTIONS)}", _find_line(text, name))
        keys = _SECTIONS[name]
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigError(
                    f"unknown key {key!r} in [{name}]; expected one of "
                    f"{', '.join(keys)}", _find_line(text, name, key))
            values[name][key] = _coerce(name, key, raw, keys[key],
                                        _find_line(text, name, key))
    return values


def _apply_env(values: dict[str, dict[str, object]], env) -> None:
    for var in sorted(env):
        if not var.startswith(ENV_PREFIX):
            continue
        rest = var[len(ENV_PREFIX):]
        if "__" not in rest:
            raise ConfigError(
                f"{var}: environment overrides use "
                f"{ENV_PREFIX}<SECTION>__<KEY>")
        section, key = (part.lower() for part in rest.split("__", 1))
        if section not in _SECTIONS:
            raise ConfigError(f"{var}: unknown section {section!r}")
        if key not in _SECTIONS[section]:
            raise ConfigError(f"{var}: unknown key {key!r} in [{section}]")
        values[section][key] = _coerce(section, key, env[var],
                                       _SECTIONS[section][key])


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def parse_config(text: str, env=None) -> ExperimentConfig:
    """Parse and validate sectioned config text into an ExperimentConfig.

    ``env`` defaults to ``os.environ``; pass a mapping to isolate tests.
    Precedence: built-in defaults < file < environment overrides.
    """
    values = _read_sections(text)
    _apply_env(values, os.environ if env is None else env)

    exp = values["experiment"]
    defaults = ExperimentConfig()

    preset = preset_key(exp.get("preset", defaults.preset))
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {exp.get('preset')!r}; available: "
                          f"{', '.join(PRESETS)}")

    iterations = exp.get("iterations", defaults.iterations)
    repetitions = exp.get("repetitions", defaults.repetitions)
    seed = exp.get("seed", defaults.seed)
    out_dir = exp.get("out", defaults.out_dir)
    dt = exp.get("dt", defaults.dt)
    control_decimation = exp.get("control_decimation",
                                 defaults.control_decimation)
    settle_time = exp.get("settle_time", defaults.settle_time)
    probe_delta = exp.get("probe_delta", defaults.probe_delta)
    probe_hold = exp.get("probe_hold", defaults.probe_hold)
    divergence_patience = exp.get("divergence_patience",
                                  defaults.divergence_patience)
    sweep_fractions = tuple(exp.get("sweep_fractions",
                                    defaults.sweep_fractions))

    _require(iterations >= 1, "[experiment] iterations must be >= 1")
    _require(repetitions >= 1, "[experiment] repetitions must be >= 1")
    _require(dt > 0.0, "[experiment] dt must be > 0")
    _require(control_decimation >= 1,
             "[experiment] control_decimation must be >= 1")
    _require(settle_time >= 3.0, "[experiment] settle_time must be >= 3")
    _require(0.0 < probe_delta <= 0.5,
             "[experiment] probe_delta must lie in (0, 0.5]")
    _require(probe_hold > 0.0, "[experiment] probe_hold must be > 0")
    _require(divergence_patience >= 1,
             "[experiment] divergence_patience must be >= 1")
    _require(all(0.0 <= f <= 0.5 for f in sweep_fractions),
             "[experiment] sweep_fractions must lie in [0, 0.5]")

    traj = values["trajectory"]
    traj_defaults = defaults.trajectory
    try:
        trajectory = TrajectorySpec(
            amplitude=traj.get("amplitude", traj_defaults.amplitude),
            spatial_period=traj.get("spatial_period",
                                    traj_defaults.spatial_period),
            cycles=traj.get("cycles", traj_defaults.cycles),
            duration=traj.get("duration", traj_defaults.duration),
            offset=(traj.get("offset_x", traj_defaults.offset[0]),
                    traj.get("offset_y", traj_defaults.offset[1])),
            direction=(traj.get("direction_x", traj_defaults.direction[0]),
                       traj.get("direction_y", traj_defaults.direction[1])),
            kind=traj.get("kind", traj_defaults.kind),
        )
        controller = DdilcParams(**values["controller"])
        disturbance = DisturbanceSpec(**values["disturbance"])
        pid = PidGains(**values["pid"])
        MuscleParams(**values["muscle"])     # bounds check of the overrides
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc

    return ExperimentConfig(
        preset=preset,
        iterations=iterations,
        repetitions=repetitions,
        seed=seed,
        out_dir=out_dir,
        dt=dt,
        control_decimation=control_decimation,
        settle_time=settle_time,
        probe_delta=probe_delta,
        probe_hold=probe_hold,
        divergence_patience=divergence_patience,
        sweep_fractions=sweep_fractions,
        trajectory=trajectory,
        controller=controller,
        muscle_overrides=dict(values["muscle"]),
        disturbance=disturbance,
        pid=pid,
    )


def load_config(path, env=None) -> ExperimentConfig:
    """Parse a config file from disk (UTF-8)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), env=env)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical full INI dump; parses back to an equal ExperimentConfig."""
    traj = cfg.trajectory
    ctrl = cfg.controller
    dist = cfg.disturbance
    lines = [
        "[experiment]",
        f"preset = {cfg.preset}",
        f"iterations = {cfg.iterations}",
        f"repetitions = {cfg.repetitions}",
        f"seed = {cfg.seed}",
        f"out = {cfg.out_dir}",
        f"dt = {_fmt(cfg.dt)}",
        f"control_decimation = {cfg.control_decimation}",
        f"settle_time = {_fmt(cfg.settle_time)}",
        f"probe_delta = {_fmt(cfg.probe_delta)}",
        f"probe_hold = {_fmt(cfg.probe_hold)}",
        f"divergence_patience = {cfg.divergence_patience}",
        "sweep_fractions = " + ", ".join(repr(f) for f in cfg.sweep_fractions),
        "",
        "[trajectory]",
        f"kind = {traj.kind}",
        f"amplitude = {_fmt(traj.amplitude)}",
        f"spatial_period = {_fmt(traj.spatial_period)}",
        f"cycles = {traj.cycles}",
        f"duration = {_fmt(traj.duration)}",
        f"offset_x = {_fmt(float(traj.offset[0]))}",
        f"offset_y = {_fmt(float(traj.offset[1]))}",
        f"direction_x = {_fmt(float(traj.direction[0]))}",
        f"direction_y = {_fmt(float(traj.direction[1]))}",
        "",
        "[controller]",
        *(f"{name} = {_fmt(getattr(ctrl, name))}" for name in _CONTROLLER_KEYS),
        "",
        "[muscle]",
        *(f"{name} = {_fmt(value)}"
          for name, value in sorted(cfg.muscle_overrides.items())),
        "",
        "[disturbance]",
        f"load_fraction = {_fmt(dist.load_fraction)}",
        f"noise_amplitude = {_fmt(dist.noise_amplitude)}",
        f"noise_frequency_hz = {_fmt(dist.noise_frequency_hz)}",
        "",
        "[pid]",
        f"kp = {_fmt(cfg.pid.kp)}",
        f"ki = {_fmt(cfg.pid.ki)}",
        f"kd = {_fmt(cfg.pid.kd)}",
        f"torque_scale = {_fmt(cfg.pid.torque_scale)}",
        "",
    ]
    return "\n".join(lines)


def arm_from_config(cfg: ExperimentConfig) -> ArmModel:
    """Instantiate the configured preset with its muscle overrides."""
    return make_arm(cfg.preset, muscle_overrides=cfg.muscle_overrides or None)


def ilc_config_from(cfg: ExperimentConfig,
                    model: ArmModel | None = None) -> IlcConfig:
    """Assemble the learning-run configuration from an experiment config.

    An all-zero disturbance section means "none" (the trial runs the plain
    deterministic plant).
    """
    dist = cfg.disturbance
    active = dist.load_fraction > 0.0 or dist.noise_amplitude > 0.0
    return IlcConfig(
        model=arm_from_config(cfg) if model is None else model,
        trajectory=cfg.trajectory,
        controller=cfg.controller,
        iterations=cfg.iterations,
        dt=cfg.dt,
        control_decimation=cfg.control_decimation,
        seed=cfg.seed,
        disturbance=dist if active else None,
        settle_time=cfg.settle_time,
        probe_delta=cfg.probe_delta,
        probe_hold=cfg.probe_hold,
        divergence_patience=cfg.divergence_patience,
    )
