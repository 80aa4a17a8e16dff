"""Experiment configuration: INI parsing, env overrides, validation, echo.

The configuration format is sectioned plain text (``configparser`` INI). The
sections and keys are derived from the dataclasses, not listed by hand:

* ``[experiment]`` — the run fields of ``ExperimentConfig`` (preset,
  iterations, repetitions, seed, out, dt, control_decimation, settle_time,
  probe_delta, probe_hold, divergence_patience, sweep_fractions), with
  ``out`` standing for ``out_dir``;
* ``[trajectory]`` — the ``TrajectorySpec`` fields, each pair split into
  ``_x``/``_y`` keys (offset_x/offset_y, direction_x/direction_y);
* ``[controller]``, ``[disturbance]``, ``[pid]`` — exactly the fields of
  ``DdilcParams``, ``DisturbanceSpec`` and ``PidGains``;
* ``[muscle]`` — any ``MuscleParams`` field (sparse overrides applied to the
  preset's muscles).

Each key takes the type of its default value (a tuple default is a list of
numbers). ``_flatten`` and ``_unflatten`` are the only places that spell out
this layout; parsing, environment overrides and the echo all go through them.

Every key is optional (an empty file yields the benchmark defaults), unknown
sections or keys are hard errors carrying the offending line number, and
values are validated on load so a bad config never reaches a simulation; an
invalid value is reported with its line or environment variable.
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
from dataclasses import asdict, dataclass, field, fields

from .arm import ArmModel
from .control import DdilcParams
from .harness import (
    DisturbanceSpec,
    IlcConfig,
    PidGains,
    TrajectorySpec,
    _check_run_fields,
)
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
    """One experiment, fully specified: plant, task, controller, outputs.

    Construction validates every field, so ``dataclasses.replace`` cannot
    build an invalid config; the preset name is normalized to its
    ``PRESETS`` key.
    """

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
    trajectory: TrajectorySpec = field(default_factory=TrajectorySpec)
    controller: DdilcParams = field(default_factory=DdilcParams)
    muscle_overrides: dict[str, float] = field(default_factory=dict)
    disturbance: DisturbanceSpec = DisturbanceSpec()
    pid: PidGains = field(default_factory=PidGains)

    def __post_init__(self) -> None:
        _check_run_fields(self)
        key = preset_key(self.preset)
        if key not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}; available: "
                             f"{', '.join(PRESETS)}")
        self.preset = key
        if self.repetitions < 1:
            raise ValueError("ExperimentConfig.repetitions must be >= 1")
        if not all(0.0 <= f <= 0.5 for f in self.sweep_fractions):
            raise ValueError(
                "ExperimentConfig.sweep_fractions must lie in [0, 0.5]")
        MuscleParams(**self.muscle_overrides)    # bounds check of the overrides


# trajectory fields written as two keys, <name>_x and <name>_y
_PAIRS = ("offset", "direction")


def _flatten(cfg: ExperimentConfig) -> dict[str, dict[str, object]]:
    """The config as ``{section: {key: value}}``, in echo order."""
    flat = asdict(cfg)
    trajectory = {}
    for key, value in flat["trajectory"].items():
        if key in _PAIRS:
            trajectory[f"{key}_x"], trajectory[f"{key}_y"] = map(float, value)
        else:
            trajectory[key] = value
    return {
        "experiment": {("out" if key == "out_dir" else key): value
                       for key, value in flat.items()
                       if not isinstance(value, dict)},
        "trajectory": trajectory,
        "controller": flat["controller"],
        "muscle": dict(sorted(cfg.muscle_overrides.items())),
        "disturbance": flat["disturbance"],
        "pid": flat["pid"],
    }


def _unflatten(values: dict[str, dict[str, object]]) -> ExperimentConfig:
    """Inverse of ``_flatten``; raises ValueError on an invalid value."""
    run = dict(values["experiment"])
    run["out_dir"] = run.pop("out")
    traj = dict(values["trajectory"])
    for name in _PAIRS:
        traj[name] = (traj.pop(f"{name}_x"), traj.pop(f"{name}_y"))
    return ExperimentConfig(
        **run,
        trajectory=TrajectorySpec(**traj),
        controller=DdilcParams(**values["controller"]),
        muscle_overrides=dict(values["muscle"]),
        disturbance=DisturbanceSpec(**values["disturbance"]),
        pid=PidGains(**values["pid"]),
    )


_DEFAULTS = _flatten(ExperimentConfig())
# each key's type is its default's; [muscle] holds sparse MuscleParams fields
_SECTIONS: dict[str, dict[str, type]] = {
    **{section: {key: type(value) for key, value in keys.items()}
       for section, keys in _DEFAULTS.items()},
    "muscle": {f.name: float for f in fields(MuscleParams)},
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


def _coerce(where: str, raw: str, typ: type, line: int | None = None):
    """``raw`` as a value of ``typ``; ``where`` names the key in errors."""
    raw = raw.strip()
    if typ is str:
        if not raw:
            raise ConfigError(f"{where} must not be empty", line)
        return raw
    if typ is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected an integer, got {raw!r}",
                              line) from None
    if typ is float:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected a number, got {raw!r}",
                              line) from None
        if not math.isfinite(value):
            raise ConfigError(f"{where} must be finite", line)
        return value
    if typ is tuple:
        tokens = [tok for tok in raw.replace(",", " ").split() if tok]
        if not tokens:
            raise ConfigError(f"{where}: expected a list of numbers", line)
        return tuple(_coerce(where, tok, float, line) for tok in tokens)
    raise AssertionError(f"unhandled option type {typ!r}")


# (section, key) -> (name of the key in its source, file line or None)
_Sources = dict[tuple[str, str], tuple[str, int | None]]


def _read_sections(text: str) -> tuple[dict[str, dict[str, object]], _Sources]:
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
    sources: _Sources = {}
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
            where = f"[{name}] {key}"
            line = _find_line(text, name, key)
            values[name][key] = _coerce(where, raw, keys[key], line)
            sources[name, key] = (where, line)
    return values, sources


def _apply_env(values: dict[str, dict[str, object]], sources: _Sources,
               env) -> None:
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
        values[section][key] = _coerce(var, env[var], _SECTIONS[section][key])
        sources[section, key] = (var, None)


def parse_config(text: str, env=None) -> ExperimentConfig:
    """Parse and validate sectioned config text into an ExperimentConfig.

    ``env`` defaults to ``os.environ``; pass a mapping to isolate tests.
    Precedence: built-in defaults < file < environment overrides.
    """
    values, sources = _read_sections(text)
    _apply_env(values, sources, os.environ if env is None else env)
    try:
        return _unflatten({section: {**defaults, **values[section]}
                           for section, defaults in _DEFAULTS.items()})
    except ValueError as exc:
        # Name the source: add the overrides to the defaults one at a time
        # and report the first whose addition fails.
        trial = {section: dict(defaults)
                 for section, defaults in _DEFAULTS.items()}
        for (section, key), (where, line) in sources.items():
            trial[section][key] = values[section][key]
            try:
                _unflatten(trial)
            except ValueError as first:
                raise ConfigError(f"{where}: {first}", line) from first
        raise ConfigError(str(exc)) from exc


def load_config(path, env=None) -> ExperimentConfig:
    """Parse a config file from disk (UTF-8)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), env=env)


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(map(repr, value))
    return repr(value) if isinstance(value, float) else str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical full INI dump; parses back to an equal ExperimentConfig."""
    lines = []
    for section, values in _flatten(cfg).items():
        lines += [f"[{section}]",
                  *(f"{key} = {_fmt(value)}" for key, value in values.items()),
                  ""]
    return "\n".join(lines)


def arm_from_config(cfg: ExperimentConfig) -> ArmModel:
    """Instantiate the configured preset with its muscle overrides."""
    return make_arm(cfg.preset, muscle_overrides=cfg.muscle_overrides or None)


def ilc_config_from(cfg: ExperimentConfig,
                    model: ArmModel | None = None) -> IlcConfig:
    """Assemble the learning-run configuration from an experiment config.

    Every ``IlcConfig`` field but the model is the experiment field of the
    same name.
    """
    shared = {f.name: getattr(cfg, f.name) for f in fields(IlcConfig)
              if f.name != "model"}
    return IlcConfig(model=arm_from_config(cfg) if model is None else model,
                     **shared)
