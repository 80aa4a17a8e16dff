"""Config-layer tests: defaults, typed parsing, hard errors on unknown keys,
field-naming validation errors, env-var overrides, and round-trip identity.
"""

import random
import re
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from myoarm.config import (
    ConfigError,
    ExperimentConfig,
    arm_from_config,
    ilc_config_from,
    load_config,
    parse_config,
    serialize_config,
    sweep_condition,
)
from myoarm.control import DdilcParams
from myoarm.harness import DisturbanceSpec, PidGains, TrajectorySpec
from myoarm.muscle import MuscleParams
from myoarm.presets import PRESETS, planar2x4, spatial_ltdm


def parse(text: str, env=None) -> ExperimentConfig:
    return parse_config(text, env={} if env is None else env)


# ---------------------------------------------------------------------------
# defaults and happy-path parsing
# ---------------------------------------------------------------------------

def test_empty_file_gives_benchmark_defaults():
    cfg = parse("")
    assert cfg.preset == "planar2x4"
    assert cfg.iterations == 50
    assert cfg.seed == 0
    assert cfg.repetitions == 1
    assert cfg.out == "runs"
    assert cfg.dt == 1e-3
    assert cfg.control_decimation == 10
    assert cfg.trajectory.duration == 8.0
    assert cfg.trajectory.amplitude == 0.15
    assert cfg.muscle_overrides == {}
    assert cfg.disturbance.load_fraction == 0.0
    assert (cfg.pid.kp, cfg.pid.ki, cfg.pid.kd) == (800.0, 10.0, 20.0)
    assert cfg.sweep_fractions == (0.0, 0.05, 0.10, 0.15, 0.20)


def test_readme_config_block_is_the_defaults():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.DOTALL)
    assert parse_config(block, env={}) == ExperimentConfig()


def test_readme_config_block_states_each_bound():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.DOTALL)
    lines = {}
    section = None
    for line in block.splitlines():
        if line.startswith("["):
            section = line[1:line.index("]")]
        elif "=" in line and not line.startswith(";"):
            lines[section, line.split("=")[0].strip()] = line
    for section, cls in (("experiment", ExperimentConfig), ("trajectory", TrajectorySpec),
                         ("controller", DdilcParams), ("disturbance", DisturbanceSpec),
                         ("pid", PidGains)):
        for key, bound in cls._BOUNDS.items():
            assert bound in lines[section, key], (section, key, bound)


def test_full_file_parses_every_section():
    cfg = parse("""
    [experiment]
    preset = spatial_ltdm
    iterations = 7
    repetitions = 2
    seed = 42
    out = results
    dt = 0.002
    control_decimation = 5
    settle_time = 4.0
    probe_delta = 0.1
    probe_hold = 2.0
    divergence_patience = 2
    sweep_fractions = 0, 0.1 0.2

    [trajectory]
    amplitude = 0.05
    spatial_period = 0.1
    cycles = 3
    duration = 6.0
    offset_x = 0.4
    offset_y = -0.1
    direction_x = 1.0
    direction_y = 0.0

    [controller]
    feedforward_scale = 0.2
    diag_span = 3.0

    [muscle]
    a_min = 0.05
    eps0_t = 0.02

    [disturbance]
    load_fraction = 0.1
    noise_amplitude = 0.01
    noise_frequency_hz = 8.0

    [pid]
    kp = 100.0
    """)
    assert cfg.preset == "spatial-ltdm"
    assert cfg.iterations == 7
    assert cfg.repetitions == 2
    assert cfg.seed == 42
    assert cfg.out == "results"
    assert cfg.dt == 0.002
    assert cfg.control_decimation == 5
    assert cfg.sweep_fractions == (0.0, 0.1, 0.2)
    assert (cfg.trajectory.offset_x, cfg.trajectory.offset_y) == (0.4, -0.1)
    assert (cfg.trajectory.direction_x, cfg.trajectory.direction_y) == (1.0, 0.0)
    assert cfg.trajectory.cycles == 3
    assert cfg.controller.feedforward_scale == 0.2
    assert cfg.controller.diag_span == 3.0
    assert cfg.controller.diag_floor == 10.0       # untouched default
    assert cfg.muscle_overrides == {"a_min": 0.05, "eps0_t": 0.02}
    assert cfg.disturbance.noise_frequency_hz == 8.0
    assert cfg.pid.kp == 100.0 and cfg.pid.ki == 10.0


def test_comments_and_case_are_tolerated():
    cfg = parse("""
    # a full-line comment
    [EXPERIMENT]
    Seed = 4   ; trailing comment
    """)
    assert cfg.seed == 4


def test_load_config_reads_utf8_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[experiment]\nseed = 9\n", encoding="utf-8")
    assert load_config(path, env={}).seed == 9


# ---------------------------------------------------------------------------
# hard errors
# ---------------------------------------------------------------------------

def test_unknown_section_is_an_error_with_line():
    with pytest.raises(ConfigError) as err:
        parse("[experiment]\nseed = 1\n\n[typo]\nx = 1\n")
    assert "typo" in str(err.value)
    assert err.value.line == 4


def test_unknown_key_is_an_error_with_line():
    with pytest.raises(ConfigError) as err:
        parse("[experiment]\nseed = 1\nbogus = 2\n")
    assert "bogus" in str(err.value)
    assert err.value.line == 3


@pytest.mark.parametrize("text, line, message", [
    ("[experiment]\nseed = 1\nseed = 2\n", 3,
     "duplicate key 'seed' in [experiment]"),
    ("[experiment]\nseed = 1\n[pid]\n[experiment]\n", 4,
     "duplicate section [experiment]"),
])
def test_duplicate_key_or_section_names_its_line(text, line, message):
    # configparser's own text used to come through, with .line None
    with pytest.raises(ConfigError) as err:
        parse(text)
    assert str(err.value) == f"line {line}: {message}"
    assert err.value.line == line


@pytest.mark.parametrize("text, message", [
    ("[DEFAULT]\nseed = 5\n", "line 1: unknown section [DEFAULT]; "),
    ("[experiment]\nseed = 1\n[Experiment]\nseed = 2\n",
     "line 3: duplicate section [experiment]"),
    ("[experiment]\nseed = 1\n[ EXPERIMENT ]\n",
     "line 3: duplicate section [experiment]"),
    ("[experiment]\nSeed = 1\nSEED: 2\n",
     "line 3: duplicate key 'seed' in [experiment]"),
    # a value is one line: an indented line is not glued onto the last value
    ("[experiment]\nrepetitions: 2\n  more\n",
     "line 3: malformed line 'more'"),
    ("[experiment]\nseed\n", "line 2: malformed line 'seed'"),
    ("[experiment] x\n", "line 1: malformed line '[experiment] x'"),
    ("[experiment\n", "line 1: malformed line '[experiment'"),
    ("[experiment]\n= 4\n", "line 2: malformed line '= 4'"),
    # the first offending line in file order is reported
    ("[experiment]\nbogus = 1\nseed\n", "line 2: unknown key 'bogus'"),
])
def test_reader_errors_name_their_line(text, message):
    with pytest.raises(ConfigError) as err:
        parse(text)
    assert str(err.value).startswith(message)


def test_comment_needs_whitespace_or_line_start():
    assert parse("[experiment]\nout = runs#1\n").out == "runs#1"
    assert parse("[experiment]\nout = a;b # c\n").out == "a;b"
    cfg = parse("  ; indented comment\n[experiment]  # note\n"
                "  seed: 5\n#[pid]\n")
    assert cfg.seed == 5


def test_key_outside_section_is_an_error():
    with pytest.raises(ConfigError):
        parse("seed = 1\n")


def test_type_errors_name_section_and_key():
    with pytest.raises(ConfigError, match="iterations"):
        parse("[experiment]\niterations = soon\n")
    with pytest.raises(ConfigError, match="dt"):
        parse("[experiment]\ndt = fast\n")
    with pytest.raises(ConfigError, match="finite"):
        parse("[experiment]\ndt = inf\n")
    with pytest.raises(ConfigError, match="sweep_fractions"):
        parse("[experiment]\nsweep_fractions =\n")


@pytest.mark.parametrize("text,needle", [
    ("[muscle]\nt_act = -1\n", "t_act"),
    ("[trajectory]\namplitude = 0\n", "amplitude"),
    ("[trajectory]\nkind = square\n", "kind"),
    ("[controller]\nestimator_step = 2\n", "estimator_step"),
    ("[disturbance]\nload_fraction = 0.9\n", "load_fraction"),
    ("[pid]\nkp = -1\n", "kp"),
    ("[experiment]\niterations = 0\n", "iterations"),
    ("[experiment]\nsettle_time = 1\n", "settle_time"),
    ("[experiment]\nprobe_delta = 0.7\n", "probe_delta"),
    ("[experiment]\nsweep_fractions = 0.9\n", "sweep_fractions"),
    ("[experiment]\npreset = hexapod\n", "hexapod"),
])
def test_validation_errors_name_the_field(text, needle):
    with pytest.raises(ConfigError, match=needle):
        parse(text)


def test_config_error_is_a_value_error():
    assert issubclass(ConfigError, ValueError)


def test_empty_sweep_fractions_are_rejected():
    # a sweep of no loads used to run the whole learning run, write a
    # header-only sweep.csv and echo a config.ini that load_config rejects
    with pytest.raises(ValueError, match="^ExperimentConfig.sweep_fractions "
                                         "must not be empty$"):
        ExperimentConfig(sweep_fractions=())


# ---------------------------------------------------------------------------
# environment overrides
# ---------------------------------------------------------------------------

def test_env_overrides_file():
    env = {"MYOARM_EXPERIMENT__SEED": "7",
           "MYOARM_TRAJECTORY__DURATION": "4.0",
           "IGNORED": "1"}
    cfg = parse("[experiment]\nseed = 3\n", env=env)
    assert cfg.seed == 7
    assert cfg.trajectory.duration == 4.0


def test_env_unknown_key_is_an_error():
    with pytest.raises(ConfigError, match="MYOARM_EXPERIMENT__BOGUS"):
        parse("", env={"MYOARM_EXPERIMENT__BOGUS": "1"})
    with pytest.raises(ConfigError, match="MYOARM_NOWHERE__SEED"):
        parse("", env={"MYOARM_NOWHERE__SEED": "1"})
    with pytest.raises(ConfigError, match="SECTION"):
        parse("", env={"MYOARM_SEED": "1"})


def test_env_values_are_validated():
    env = {"MYOARM_EXPERIMENT__ITERATIONS": "0"}
    with pytest.raises(ConfigError) as err:
        parse("[experiment]\nseed = 4\n", env=env)
    assert str(err.value) == ("MYOARM_EXPERIMENT__ITERATIONS: "
                              "ExperimentConfig.iterations must be >= 1, got 0")
    assert err.value.line is None
    # the source that wins is named: the variable over the file ...
    with pytest.raises(ConfigError, match="^MYOARM_EXPERIMENT__ITERATIONS: "):
        parse("[experiment]\niterations = 3\n", env=env)
    # ... and a valid override hides an invalid file value
    cfg = parse("[experiment]\niterations = 0\n",
                env={"MYOARM_EXPERIMENT__ITERATIONS": "3"})
    assert cfg.iterations == 3


def test_env_override_counts_as_the_last_override():
    # the file's probe_hold stands before dt, but the variable replaces it
    # and so is the override whose removal lets the config build
    with pytest.raises(ConfigError) as err:
        parse("[experiment]\nprobe_hold = 0.0009\ndt = 0.002\n",
              env={"MYOARM_EXPERIMENT__PROBE_HOLD": "0.0009"})
    assert str(err.value).startswith("MYOARM_EXPERIMENT__PROBE_HOLD: ")
    assert err.value.line is None


def test_two_env_variables_for_one_key_are_an_error():
    env = {"MYOARM_EXPERIMENT__SEED": "3", "MYOARM_experiment__seed": "7"}
    with pytest.raises(ConfigError) as err:
        parse("", env=env)
    assert str(err.value) == ("MYOARM_EXPERIMENT__SEED and "
                              "MYOARM_experiment__seed both set "
                              "[experiment] seed")


def test_out_of_range_file_value_names_its_line():
    with pytest.raises(ConfigError) as err:
        parse("[experiment]\niterations = 0\n")
    assert str(err.value) == ("line 2: [experiment] iterations: "
                              "ExperimentConfig.iterations must be >= 1, got 0")
    assert err.value.line == 2
    # the failing key is named, after valid keys of other sections
    with pytest.raises(ConfigError, match=r"^line 5: \[pid\] kp: ") as err:
        parse("[experiment]\nseed = 4\n\n[pid]\nkp = -1\n")
    assert err.value.line == 5


def test_error_is_the_full_configs_named_by_the_key_that_breaks_it():
    # probe_hold = 0.0004 s rounds to no tick of the default dt, but to 4 of
    # the file's dt: the full config fails on iterations alone, and removing
    # that key is what lets it build
    with pytest.raises(ConfigError) as err:
        parse("[experiment]\nprobe_hold = 0.0004\ndt = 0.0001\niterations = 0\n")
    assert str(err.value) == ("line 4: [experiment] iterations: "
                              "ExperimentConfig.iterations must be >= 1, got 0")
    # either removal builds it: the later key is named
    with pytest.raises(ConfigError) as err:
        parse("[experiment]\ncontrol_decimation = 16\n"
              "[trajectory]\nduration = 1.0\n")
    assert str(err.value) == ("line 4: [trajectory] duration: "
                              "ExperimentConfig.control_decimation 16 must "
                              "divide the 1000 trajectory ticks")
    # no single removal builds it: the last key whose removal changes the
    # message is named
    with pytest.raises(ConfigError) as err:
        parse("[experiment]\niterations = 0\nseed = -1\n")
    assert str(err.value) == ("line 2: [experiment] iterations: "
                              "ExperimentConfig.iterations must be >= 1, got 0")


# ---------------------------------------------------------------------------
# serialization round trip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("section, name, value", [
    (ExperimentConfig(), "sweep_fractions", ()),
    (ExperimentConfig(), "control_decimation", 3),
    (TrajectorySpec(), "cycles", 3),
    (PidGains(), "kp", 1.0),
    (DdilcParams(), "gain_step", 0.0),
])
def test_run_description_is_frozen(section, name, value):
    # an assignment used to skip every construction check: the first two
    # were accepted, and their echo failed to load
    with pytest.raises(FrozenInstanceError):
        setattr(section, name, value)


def test_config_keeps_its_own_muscle_overrides():
    # the caller's dict used to be kept: changing it changed the echo to
    # "f0_max = -1.0", and cfg.model then raised
    overrides = {"a_min": 0.05}
    cfg = ExperimentConfig(muscle_overrides=overrides)
    overrides["f0_max"] = -1.0
    assert cfg.muscle_overrides == {"a_min": 0.05}
    assert "f0_max" not in serialize_config(cfg)
    assert all(mp.a_min == 0.05 for mp in cfg.model.muscles)


@pytest.mark.parametrize("build, message", [
    # each used to be accepted: the first two parked, then failed with
    # "'float' object cannot be interpreted as an integer", and the echo
    # of the first, "control_decimation = 10.0", failed to load
    (lambda: ExperimentConfig(control_decimation=10.0),
     "ExperimentConfig.control_decimation must be an integer, got 10.0"),
    (lambda: ExperimentConfig(iterations=2.5),
     "ExperimentConfig.iterations must be an integer, got 2.5"),
    # echoed "seed = True"
    (lambda: ExperimentConfig(seed=True), "ExperimentConfig.seed must be an integer, got True"),
    (lambda: ExperimentConfig(repetitions=2.0),
     "ExperimentConfig.repetitions must be an integer, got 2.0"),
    (lambda: ExperimentConfig(divergence_patience=False),
     "ExperimentConfig.divergence_patience must be an integer, got False"),
    (lambda: TrajectorySpec(cycles=1.5), "TrajectorySpec.cycles must be an integer, got 1.5"),
    # these two surfaced only as "trajectory sample 0 at (nan, nan): inverse
    # kinematics did not converge within 100 steps"
    (lambda: TrajectorySpec(amplitude=float("inf")),
     "TrajectorySpec.amplitude must be a finite number, got inf"),
    (lambda: TrajectorySpec(offset_x=float("nan")),
     "TrajectorySpec.offset_x must be a finite number, got nan"),
    # these three were accepted silently
    (lambda: PidGains(torque_scale=float("inf")),
     "PidGains.torque_scale must be a finite number, got inf"),
    (lambda: DdilcParams(gain_step=float("inf")),
     "DdilcParams.gain_step must be a finite number, got inf"),
    (lambda: DdilcParams(diag_floor=float("inf")),
     "DdilcParams.diag_floor must be a finite number, got inf"),
    (lambda: ExperimentConfig(dt=float("nan")),
     "ExperimentConfig.dt must be a finite number, got nan"),
    (lambda: ExperimentConfig(settle_time=True),
     "ExperimentConfig.settle_time must be a finite number, got True"),
    # each but "300" used to build: its echo failed to load ("out must not
    # be empty", "unknown section [x]", "f0_max must be finite", "expected a
    # number, got 'True'") or loaded back as another value ('runs', 'a',
    # 'a'); "300" raised a TypeError from the muscle's own check. The
    # overrides are rejected by the muscles the config builds.
    *((lambda out=out: ExperimentConfig(out=out),
       "ExperimentConfig.out must be one line of text with no surrounding whitespace "
       f"and no '#' or ';' after whitespace, got {out!r}")
      for out in ("", "a b\n[x]", " runs ", "a #b", "a ;b")),
    *((lambda v=v: ExperimentConfig(muscle_overrides={"f0_max": v}),
       f"MuscleParams.f0_max must be a finite number, got {v!r}")
      for v in (float("inf"), True, "300")),
    # each of these used to build: a muscle checked only "> 0", so
    # f0_max = True was a 1 N muscle, and the noise echoed as
    # "noise_amplitude = True", which failed to load
    *((lambda name=name, v=v: MuscleParams(**{name: v}),
       f"MuscleParams.{name} must be a finite number, got {v!r}")
      for name, v in (("f0_max", float("inf")), ("t_act", float("inf")),
                      ("k_pe", float("inf")), ("f0_max", True))),
    (lambda: planar2x4({"f0_max": float("inf")}),
     "MuscleParams.f0_max must be a finite number, got inf"),
    (lambda: DisturbanceSpec(noise_amplitude=True),
     "DisturbanceSpec.noise_amplitude must be a finite number, got True"),
    # these two built, as (0.1,) and (0.0, 0.2)
    (lambda: ExperimentConfig(sweep_fractions=("0.1",)),
     "ExperimentConfig.sweep_fractions must be a finite number, got '0.1'"),
    (lambda: ExperimentConfig(sweep_fractions=(False, 0.2)),
     "ExperimentConfig.sweep_fractions must be a finite number, got False"),
    # these raised AttributeError from preset_key, and TypeError from
    # MuscleParams(**overrides) and from the keyword call itself
    (lambda: ExperimentConfig(preset=3), "ExperimentConfig.preset must be a preset name, got 3"),
    *((lambda key=key: ExperimentConfig(muscle_overrides={key: 1.0}),
       f"ExperimentConfig.muscle_overrides: {key!r} is not a MuscleParams field; "
       f"choose from {[f.name for f in fields(MuscleParams)]}")
      for key in ("bogus", 1)),
])
def test_run_description_holds_only_values_its_echo_reads_back(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_out_reads_back_with_delimiters_and_inner_space():
    # '#' and ';' start a comment only after whitespace; '=' and ':' after
    # the key's own delimiter stay in the value
    cfg = ExperimentConfig(out="runs#1;a b=c:d", muscle_overrides={"f0_max": 300})
    assert parse(serialize_config(cfg)) == cfg


def test_integer_and_float_fields_take_numbers_that_read_back():
    # an int in a float field echoes as an integer and parses back equal
    cfg = ExperimentConfig(settle_time=3, trajectory=TrajectorySpec(duration=1))
    assert parse(serialize_config(cfg)) == cfg


def test_sweep_fractions_are_stored_as_a_tuple():
    # a list used to be kept, and echoed as "[0.0, 0.2]", which does not parse
    cfg = ExperimentConfig(sweep_fractions=[0.0, 0.2])
    assert cfg.sweep_fractions == (0.0, 0.2)
    assert type(cfg.sweep_fractions) is tuple
    assert "sweep_fractions = 0.0, 0.2\n" in serialize_config(cfg)
    assert parse(serialize_config(cfg)) == cfg
    # an int is a number too, stored as a float: the echo does not change
    ints = ExperimentConfig(sweep_fractions=[0, 0.2])
    assert type(ints.sweep_fractions[0]) is float
    assert serialize_config(ints) == serialize_config(cfg)


def test_round_trip_defaults():
    cfg = parse("")
    assert parse(serialize_config(cfg)) == cfg


def test_round_trip_preserves_every_field():
    cfg = parse("""
    [experiment]
    preset = spatial-ltdm
    iterations = 3
    seed = 11
    dt = 0.0005
    sweep_fractions = 0, 0.125, 0.25
    [trajectory]
    duration = 2.5
    direction_x = 0.707
    direction_y = 0.707
    [controller]
    diag_floor = 12.5
    [muscle]
    eps0_t = 0.02
    l_slack_tendon = 0.015
    [disturbance]
    noise_amplitude = 0.02
    noise_frequency_hz = 8.0
    [pid]
    kd = 15.0
    """)
    text = serialize_config(cfg)
    again = parse(text)
    assert again == cfg
    assert serialize_config(again) == text


# The echo of the default config, byte for byte: every artifact directory
# holds it, so a change to the key layout or the number format shows here.
DEFAULT_ECHO = """\
[experiment]
preset = planar2x4
iterations = 50
repetitions = 1
seed = 0
out = runs
dt = 0.001
control_decimation = 10
settle_time = 12.0
probe_delta = 0.2
probe_hold = 8.0
divergence_patience = 3
sweep_fractions = 0.0, 0.05, 0.1, 0.15, 0.2

[trajectory]
amplitude = 0.15
spatial_period = 0.2
cycles = 2
duration = 8.0
offset_x = 0.45
offset_y = -0.2
direction_x = 0.0
direction_y = 1.0

[controller]
gain_step = 0.5
energy_weight = 1.0
estimator_step = 1.0
estimator_weight = 1.0
feedforward_scale = 0.3
diag_floor = 10.0
diag_span = 2.0

[muscle]

[disturbance]
load_fraction = 0.0
noise_amplitude = 0.0
noise_frequency_hz = 0.0

[pid]
kp = 800.0
ki = 10.0
kd = 20.0
torque_scale = 6.0
"""


def test_default_echo_is_pinned():
    assert serialize_config(parse("")) == DEFAULT_ECHO


def _floats(lo, hi, **kwargs):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kwargs)


_POSITIVE = _floats(1e-6, 1e6)
_FRACTION = _floats(0.0, 0.5)
_MUSCLE_DEFAULTS = {f.name: f.default for f in fields(MuscleParams)}


@st.composite
def _controllers(draw):
    return DdilcParams(
        gain_step=draw(_POSITIVE), energy_weight=draw(_POSITIVE),
        estimator_step=draw(_floats(0.0, 1.0, exclude_min=True)),
        estimator_weight=draw(_POSITIVE), feedforward_scale=draw(_POSITIVE),
        diag_floor=draw(_POSITIVE), diag_span=draw(_floats(1.0, 10.0)))


# every field scaled by a factor near 1 stays inside MuscleParams' bounds
_muscle_overrides = st.dictionaries(
    st.sampled_from(sorted(_MUSCLE_DEFAULTS)), _floats(0.5, 0.99),
    max_size=len(_MUSCLE_DEFAULTS),
).map(lambda scales: {name: _MUSCLE_DEFAULTS[name] * scale
                      for name, scale in scales.items()})

_COORD = _floats(-2.0, 2.0)


@st.composite
def _trajectories(draw, durations):
    direction_x, direction_y = draw(st.tuples(_COORD, _COORD).filter(
        lambda d: d != (0.0, 0.0)))
    return TrajectorySpec(
        amplitude=draw(_POSITIVE), spatial_period=draw(_POSITIVE),
        cycles=draw(st.integers(1, 10)), duration=draw(durations),
        offset_x=draw(_COORD), offset_y=draw(_COORD),
        direction_x=direction_x, direction_y=direction_y)


@st.composite
def _configs(draw):
    preset = draw(st.sampled_from(sorted(PRESETS)))
    dt = draw(_floats(1e-6, 1.0))
    decimation = draw(st.integers(1, 100))
    # probe_hold lasts at least one tick of dt, and the trajectory's duration
    # a whole number of control ticks
    spans = _floats(1.0, 1e6).map(lambda ticks: ticks * dt)
    durations = st.integers(1, 10_000).map(lambda n: n * decimation * dt)
    return draw(st.builds(
        ExperimentConfig,
        preset=st.just(preset),
        iterations=st.integers(1, 500),
        repetitions=st.integers(1, 20),
        seed=st.integers(0, 2**32),
        out=st.text("abcxyz019_-./", min_size=1, max_size=12),
        dt=st.just(dt),
        control_decimation=st.just(decimation),
        settle_time=st.integers(3, 1000).map(float),
        probe_delta=_floats(0.0, 0.5, exclude_min=True),
        probe_hold=spans,
        divergence_patience=st.integers(1, 10),
        sweep_fractions=st.lists(_FRACTION, min_size=1, max_size=6,
                                 unique_by=sweep_condition).map(tuple),
        trajectory=_trajectories(durations),
        controller=_controllers(),
        muscle_overrides=_muscle_overrides,
        disturbance=st.builds(DisturbanceSpec, load_fraction=_FRACTION,
                              noise_amplitude=_floats(0.0, 1.0),
                              noise_frequency_hz=_floats(0.0, 100.0)),
        pid=st.builds(PidGains, kp=_floats(0.0, 1e4), ki=_floats(0.0, 1e4),
                      kd=_floats(0.0, 1e4), torque_scale=_POSITIVE),
    ))


def _respell(text: str, rnd) -> str:
    """``text`` spelled another way that reads alike: random case of section
    names and keys, ``=`` or ``:``, extra spaces and comments."""
    def case(word):
        return "".join(rnd.choice((c.lower(), c.upper())) for c in word)

    def pad():
        return " " * rnd.randint(0, 3)

    lines = []
    for line in text.splitlines():
        if rnd.random() < 0.2:
            lines.append(f"{pad()}{rnd.choice('#;')} comment = [x]")
        if line.startswith("["):
            line = f"{pad()}[{pad()}{case(line[1:-1])}{pad()}]{pad()}"
        elif line:
            key, value = line.split(" = ", 1)
            line = f"{pad()}{case(key)}{pad()}{rnd.choice('=:')}{pad()}{value}"
        if line and rnd.random() < 0.3:
            line += f" {pad()}{rnd.choice('#;')} inline; note"
        lines.append(line)
    return "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(_configs(), st.randoms(use_true_random=False))
@example(ExperimentConfig(
    preset="spatial-ltdm", sweep_fractions=(0.0, 0.125, 0.5),
    controller=DdilcParams(diag_span=3.0),
    muscle_overrides={"eps0_t": 0.02, "a_min": 0.05},
    disturbance=DisturbanceSpec(0.2, 0.01, 2.0), pid=PidGains(kd=15.0)),
    random.Random(0))
def test_round_trip_random_configs(cfg, rnd):
    text = serialize_config(cfg)
    again = parse(text)
    assert again == cfg
    assert serialize_config(again) == text
    assert parse(_respell(text, rnd)) == cfg


# ---------------------------------------------------------------------------
# model and run assembly
# ---------------------------------------------------------------------------

def test_arm_from_config_applies_muscle_overrides():
    cfg = parse("[muscle]\na_min = 0.02\n")
    model = arm_from_config(cfg)
    assert all(mp.a_min == 0.02 for mp in model.muscles)


def test_arm_from_config_spatial_preset():
    model = arm_from_config(parse("[experiment]\npreset = spatial_ltdm\n"))
    assert model.n_joints == 7


def test_ilc_config_from_returns_cfg_and_rejects_another_arm():
    cfg = parse("[experiment]\niterations = 4\n")
    assert ilc_config_from(cfg, arm_from_config(cfg)) is cfg
    # a model other than cfg.model is not silently ignored
    with pytest.raises(ValueError, match="cfg.model"):
        ilc_config_from(cfg, spatial_ltdm())
