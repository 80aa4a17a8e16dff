"""The INI converter of the run description: parsing, env overrides, echo.

``harness.ExperimentConfig`` describes a run and validates itself; this
module only converts between it and sectioned plain text, and re-exports it
with ``sweep_condition``. The sections and keys are derived from the
dataclasses, not listed by hand:

* ``[experiment]`` — the run fields of ``ExperimentConfig`` (preset,
  iterations, repetitions, seed, out, dt, control_decimation, settle_time,
  probe_delta, probe_hold, divergence_patience, sweep_fractions);
* ``[trajectory]``, ``[controller]``, ``[disturbance]``, ``[pid]`` — exactly
  the fields of ``TrajectorySpec``, ``DdilcParams``, ``DisturbanceSpec`` and
  ``PidGains``;
* ``[muscle]`` — any ``MuscleParams`` field (sparse overrides applied to the
  preset's muscles).

Each key is the name of its dataclass field and takes the type of its
default value (a tuple default is a list of numbers). ``_flatten`` and
``_unflatten`` group the fields into these sections; parsing, environment
overrides and the echo all go through them.

The text is read one line at a time. A line first loses its comment, which
starts at ``#`` or ``;`` at the start of the line or after whitespace. What
is left is blank, a ``[section]`` header, or a ``key = value`` or
``key: value`` line split at the first delimiter; anything else is a
malformed line. A value is one line. Section names and keys ignore case, and
``[DEFAULT]`` is not special.

Every key is optional (an empty file yields the benchmark defaults). An
unknown section or key, a section or key given twice in any case, and a key
outside a section are hard errors carrying the offending line number. The
converter only converts: a value is text that reads as its key's type, and
the dataclasses check it (a finite number, an integer, an empty name, a
range) as they check a value built in Python, so a bad config never reaches
a simulation. An invalid value is reported with the dataclass's message,
prefixed with its line or environment variable.
After the file, environment variables override individual keys using the
documented prefix scheme ``MYOARM_<SECTION>__<KEY>`` (for example
``MYOARM_EXPERIMENT__SEED=3`` or ``MYOARM_CONTROLLER__FEEDFORWARD_SCALE=0.2``);
two variables for one key are an error.
``serialize_config`` emits a canonical full dump that parses back to an equal
configuration; every experiment writes that echo next to its artifacts.
"""

from __future__ import annotations

import os
import re
from dataclasses import asdict, fields

from .arm import ArmModel
from .control import DdilcParams
from .harness import (
    _COMMENT,
    DisturbanceSpec,
    ExperimentConfig,
    PidGains,
    TrajectorySpec,
    sweep_condition,
)
from .muscle import MuscleParams

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "serialize_config",
    "arm_from_config",
    "ilc_config_from",
    "sweep_condition",
    "ENV_PREFIX",
]

ENV_PREFIX = "MYOARM_"


class ConfigError(ValueError):
    """A configuration problem, with the source line when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


def _flatten(cfg: ExperimentConfig) -> dict[str, dict[str, object]]:
    """The config as ``{section: {key: value}}``, in echo order."""
    flat = asdict(cfg)
    return {
        "experiment": {key: value for key, value in flat.items()
                       if not isinstance(value, dict)},
        "trajectory": flat["trajectory"],
        "controller": flat["controller"],
        "muscle": dict(sorted(cfg.muscle_overrides.items())),
        "disturbance": flat["disturbance"],
        "pid": flat["pid"],
    }


def _unflatten(values: dict[str, dict[str, object]]) -> ExperimentConfig:
    """Inverse of ``_flatten``; raises ValueError on an invalid value."""
    return ExperimentConfig(
        **values["experiment"],
        trajectory=TrajectorySpec(**values["trajectory"]),
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


def _coerce(where: str, raw: str, typ: type, line: int | None = None):
    """``raw`` as a value of ``typ``; ``where`` names the key in errors.

    Only text that is no value of ``typ`` fails here. The dataclasses check
    the value (an empty name, an infinite number), and ``parse_config``
    names its line."""
    raw = raw.strip()
    if typ is str:
        return raw
    if typ is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected an integer, got {raw!r}",
                              line) from None
    if typ is float:
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected a number, got {raw!r}",
                              line) from None
    if typ is tuple:
        tokens = [tok for tok in raw.replace(",", " ").split() if tok]
        if not tokens:
            raise ConfigError(f"{where}: expected a list of numbers", line)
        return tuple(_coerce(where, tok, float, line) for tok in tokens)
    raise AssertionError(f"unhandled option type {typ!r}")


# (section, key) -> (name of the key in its source, file line or None)
_Sources = dict[tuple[str, str], tuple[str, int | None]]


_HEADER = re.compile(r"\[([^\]]*)\]")
_KEY = re.compile(r"([^=:]+?)\s*[=:](.*)")


def _read_sections(text: str) -> tuple[dict[str, dict[str, object]], _Sources]:
    values: dict[str, dict[str, object]] = {name: {} for name in _SECTIONS}
    sources: _Sources = {}
    seen: set[str] = set()
    name = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw, count=1).strip()
        if not line:
            continue
        if line.startswith("["):
            header = _HEADER.fullmatch(line)
            if not header:
                raise ConfigError(f"malformed line {line!r}", lineno)
            section = header.group(1).strip()
            name = section.lower()
            if name not in _SECTIONS:
                raise ConfigError(
                    f"unknown section [{section}]; expected one of "
                    f"{', '.join(_SECTIONS)}", lineno)
            if name in seen:
                raise ConfigError(f"duplicate section [{name}]", lineno)
            seen.add(name)
            continue
        if name is None:
            raise ConfigError(f"key outside any [section]: {line!r}", lineno)
        pair = _KEY.fullmatch(line)
        if not pair:
            raise ConfigError(f"malformed line {line!r}", lineno)
        key, keys = pair.group(1).lower(), _SECTIONS[name]
        if key not in keys:
            raise ConfigError(
                f"unknown key {key!r} in [{name}]; expected one of "
                f"{', '.join(keys)}", lineno)
        if key in values[name]:
            raise ConfigError(f"duplicate key {key!r} in [{name}]", lineno)
        where = f"[{name}] {key}"
        values[name][key] = _coerce(where, pair.group(2), keys[key], lineno)
        sources[name, key] = (where, lineno)
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
        # only a variable's entry has no line; the file's entry goes, so the
        # variable counts as the last override
        previous = sources.pop((section, key), None)
        if previous and previous[1] is None:
            raise ConfigError(f"{previous[0]} and {var} both set "
                              f"[{section}] {key}")
        values[section][key] = _coerce(var, env[var], _SECTIONS[section][key])
        sources[section, key] = (var, None)


def parse_config(text: str, env=None) -> ExperimentConfig:
    """Parse and validate sectioned config text into an ExperimentConfig.

    ``env`` defaults to ``os.environ``; pass a mapping to isolate tests.
    Precedence: built-in defaults < file < environment overrides.
    """
    values, sources = _read_sections(text)
    _apply_env(values, sources, os.environ if env is None else env)

    def build(drop):
        """The config of the defaults and every override but ``drop``."""
        return _unflatten({
            section: {**defaults, **{key: value
                                     for key, value in values[section].items()
                                     if (section, key) != drop}}
            for section, defaults in _DEFAULTS.items()})

    try:
        return build(None)
    except ValueError as exc:
        # Name the source of the full config's message: the last override
        # whose removal lets the config build, else the last whose removal
        # changes the message, else none.
        blamed = None
        for source in reversed(sources):
            try:
                build(source)
            except ValueError as other:
                if blamed is None and str(other) != str(exc):
                    blamed = source
            else:
                blamed = source
                break
        if blamed is None:
            raise ConfigError(str(exc)) from exc
        where, line = sources[blamed]
        raise ConfigError(f"{where}: {exc}", line) from exc


def load_config(path, env=None) -> ExperimentConfig:
    """Parse a config file from disk (UTF-8, with or without a BOM)."""
    with open(path, "r", encoding="utf-8-sig") as fh:
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
    """The configured arm, ``cfg.model``."""
    return cfg.model


def ilc_config_from(cfg: ExperimentConfig, model: ArmModel) -> ExperimentConfig:
    """``cfg`` itself, which ``run_ilc`` takes; ``model`` must be ``cfg.model``.

    Kept for the benchmark's ``ilc-planar-fastctl`` workload, which calls it
    and whose files change only with the benchmark; a model other than the
    configured arm raises ``ValueError`` rather than being ignored.
    """
    if model != cfg.model:
        raise ValueError("ilc_config_from: the model is not the arm that "
                         "cfg describes (cfg.model)")
    return cfg
