"""The one field rule: each number field of the run and plant dataclasses
holds a number of its annotated kind and lies within the bound its class
declares in ``_BOUNDS``; ``ValueError("<Class>.<field> must be <bound>, got
<value>")`` otherwise."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from myoarm.arm import ArmModel, LinkParams, MuscleRoute, rest_state
from myoarm.control import DdilcController, DdilcParams
from myoarm.harness import (
    DisturbanceSpec,
    ExperimentConfig,
    PidGains,
    Task,
    TrajectorySpec,
    probe_sensitivity,
)
from myoarm.muscle import MuscleParams, _check_bound
from myoarm.presets import planar2x4

_ARM = planar2x4()

# each class with a builder that fills in its other fields
BUILDERS = {
    LinkParams: lambda **kw: LinkParams(**{"length": 0.3, "mass": 1.0, "com": 0.15,
                                           "inertia": 0.01, **kw}),
    MuscleRoute: lambda **kw: MuscleRoute(**{"joint": 0, "moment_arm": 0.02, "sign": 1,
                                             "l_ref": 0.15, **kw}),
    ArmModel: lambda **kw: replace(_ARM, **kw),
    MuscleParams: MuscleParams,
    DdilcParams: DdilcParams,
    TrajectorySpec: TrajectorySpec,
    DisturbanceSpec: DisturbanceSpec,
    PidGains: PidGains,
    Task: lambda **kw: Task(**{"points": np.zeros((11, 2)), "joint_path": np.zeros((11, 2)),
                               "dt": 1e-3, "decimation": 1, **kw}),
    ExperimentConfig: ExperimentConfig,
}

_KINDS = {"int": int, "float": float}


def _number_fields(cls):
    return {f.name: _KINDS[f.type] for f in fields(cls) if f.type in _KINDS}


def _just_outside(bound: str, kind: type) -> list:
    """The values nearest ``bound`` that lie outside it."""
    if bound.startswith("in "):
        lo, hi = map(float, bound[4:-1].split(","))
        return [lo if bound[3] == "(" else math.nextafter(lo, -math.inf),
                hi if bound[-1] == ")" else math.nextafter(hi, math.inf)]
    op, x = bound.split()
    if kind is int:
        return [int(x) if op == ">" else int(x) - 1]
    return [float(x) if op == ">" else math.nextafter(float(x), -math.inf)]


NUMBER_FIELDS = [(cls, name, kind) for cls in BUILDERS
                 for name, kind in _number_fields(cls).items()]
BOUNDED = [(cls, name, bound, v) for cls in BUILDERS
           for name, bound in cls._BOUNDS.items()
           for v in _just_outside(bound, _number_fields(cls)[name])]


def _id(case) -> str:
    return f"{case[0].__name__}.{case[1]}" + (f"={case[3]!r}" if len(case) > 3 else "")


@pytest.mark.parametrize("case", NUMBER_FIELDS, ids=map(_id, NUMBER_FIELDS))
def test_every_number_field_rejects_a_bool(case):
    cls, name, kind = case
    what = "an integer" if kind is int else "a finite number"
    with pytest.raises(ValueError) as err:
        BUILDERS[cls](**{name: True})
    assert str(err.value) == f"{cls.__name__}.{name} must be {what}, got True"


@pytest.mark.parametrize("case", BOUNDED, ids=map(_id, BOUNDED))
def test_every_bound_rejects_the_values_just_outside_it(case):
    cls, name, bound, v = case
    with pytest.raises(ValueError) as err:
        BUILDERS[cls](**{name: v})
    assert str(err.value) == f"{cls.__name__}.{name} must be {bound}, got {v!r}"


def test_every_class_declares_bounds_on_number_fields_and_builds_by_default():
    for cls, build in BUILDERS.items():
        assert cls._BOUNDS, cls
        assert set(cls._BOUNDS) <= set(_number_fields(cls)), cls
        assert "_BOUNDS" not in {f.name for f in fields(cls)}
        build()


# each of these used to build, or to fail with an error that named no field
@pytest.mark.parametrize("build, message", [
    (lambda: BUILDERS[LinkParams](length=math.inf),
     "LinkParams.length must be a finite number, got inf"),
    (lambda: BUILDERS[MuscleRoute](moment_arm=math.inf),
     "MuscleRoute.moment_arm must be a finite number, got inf"),
    # an arm built with it failed with "tuple indices must be integers"
    (lambda: BUILDERS[MuscleRoute](joint=0.0),
     "MuscleRoute.joint must be an integer, got 0.0"),
    (lambda: replace(_ARM, tip_mass=True), "ArmModel.tip_mass must be a finite number, got True"),
    # failed with numpy's LinAlgError from the conditioning check
    (lambda: replace(_ARM, tip_mass=math.nan),
     "ArmModel.tip_mass must be a finite number, got nan"),
    (lambda: replace(_ARM, viscous_friction=-0.1),
     "ArmModel.viscous_friction must be >= 0, got -0.1"),
], ids=["link-length-inf", "moment-arm-inf", "joint-float", "tip-mass-bool",
        "tip-mass-nan", "friction-negative"])
def test_plant_values_once_accepted_are_rejected(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_bounds_outside_a_field_use_the_same_rule():
    with pytest.raises(ValueError) as err:
        probe_sensitivity(_ARM, rest_state(_ARM), 1e-3, delta=0.6, hold_time=0.2,
                          rest=[0.5, 0.5])
    assert str(err.value) == "probe delta must be in (0, 0.5], got 0.6"
    # a step's own dt, as the park, the probe and the trajectory convert
    # seconds to ticks with it
    with pytest.raises(ValueError) as err:
        probe_sensitivity(_ARM, rest_state(_ARM), 0.0, delta=0.2, hold_time=0.2,
                          rest=[0.5, 0.5])
    assert str(err.value) == "dt must be > 0, got 0.0"
    with pytest.raises(ValueError) as err:
        ExperimentConfig(sweep_fractions=(0.0, -0.1))
    assert str(err.value) == "ExperimentConfig.sweep_fractions must be in [0, 0.5], got -0.1"
    with pytest.raises(ValueError) as err:
        DdilcController(np.eye(2), DdilcParams(), 4, response_lag_ticks=-1.0,
                        rest_drive=[0.5, 0.5])
    assert str(err.value) == "DdilcController.response_lag_ticks must be >= 0, got -1.0"


@pytest.mark.parametrize("bound, inside, outside", [
    ("> 0", [1e-300, 2.0], [0.0, -1.0, math.nan]),
    (">= 1", [1, 1.0, 7], [0, 0.999, math.nan]),
    ("in (0, 1)", [0.5, 1e-9], [0.0, 1.0, math.nan]),
    ("in (0, 0.5]", [0.5, 0.1], [0.0, 0.51, math.nan]),
    ("in [0, 0.5]", [0.0, 0.5], [-1e-9, 0.6, math.nan]),
])
def test_check_bound_reads_each_form(bound, inside, outside):
    for v in inside:
        _check_bound("x", v, bound)
    for v in outside:
        with pytest.raises(ValueError) as err:
            _check_bound("x", v, bound)
        assert str(err.value) == f"x must be {bound}, got {v!r}"
