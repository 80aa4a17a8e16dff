"""The float kernels against the pre-float tick in ``reference_tick``, bit for
bit: one muscle step on random in-range inputs, and whole holds and trials on
both presets (joint stops, activation noise, a controller that reads the
posture, and a divergence included).
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_tick as ref
from myoarm import arm as arm_module
from myoarm.arm import rest_state
from myoarm.harness import (
    DisturbanceSpec,
    PidController,
    PidGains,
    ReplayController,
    Task,
    TrajectorySpec,
    TrialLog,
    _hold,
    generate_trajectory,
    joint_path,
    run_trial,
)
from myoarm.muscle import MuscleParams, MuscleState, step_muscle
from myoarm.presets import planar2x4, spatial_ltdm

DT = 1e-3

_PARAMS = st.builds(MuscleParams, t_act=st.floats(0.002, 0.05), t_deact=st.floats(0.01, 0.1),
                    gamma=st.floats(0.2, 0.8), eps0_t=st.floats(0.01, 0.1),
                    k_toe=st.floats(0.5, 6.0), f_toe=st.floats(0.05, 0.95),
                    k_pe=st.floats(1.0, 8.0), eps0_m=st.floats(0.3, 0.9),
                    pennation_factor=st.floats(0.7, 1.0), a_min=st.floats(0.001, 0.2))


@given(_PARAMS, st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.3, 1.8),
       st.floats(-0.02, 0.2), st.floats(1e-5, 1e-2))
@settings(max_examples=300, deadline=None)
def test_step_muscle_equals_the_reference_composition(p, a, u, l_fiber, strain, dt):
    # strain spans slack, toe and linear tendon branches
    l_mtu = l_fiber * p.l0_fiber * p.pennation_factor + (1.0 + strain) * p.l_slack_tendon
    want_state, want_force = ref.step_muscle(MuscleState(a, l_fiber), u, l_mtu, dt, p)
    want = (want_state.activation, want_state.l_fiber_norm, want_state.v_fiber_norm,
            want_force)
    assert step_muscle(a, l_fiber, u, l_mtu, dt, p) == want


def _same_state(a, b):
    assert a.q.tobytes() == b.q.tobytes()
    assert a.qdot.tobytes() == b.qdot.tobytes()
    assert ([(m.activation, m.l_fiber_norm, m.v_fiber_norm) for m in a.muscle_states]
            == [(m.activation, m.l_fiber_norm, m.v_fiber_norm) for m in b.muscle_states])


@pytest.mark.parametrize("preset, drive, stops", [
    (planar2x4, 0.7, False),
    # 0.8 on every joint drives spatial-ltdm onto its joint stops
    (spatial_ltdm, 0.8, True),
])
def test_hold_matches_the_reference_bit_for_bit(preset, drive, stops):
    model = preset()
    start = rest_state(model)
    drives = np.full(model.n_joints, drive)
    want_state, want_qs, want_stops = ref.hold(model, start, drives, DT, 600)
    assert (want_stops > 0) == stops
    state, qs = _hold(model, start, drives, DT, 600, "test", 0)
    _same_state(state, want_state)
    assert qs.tobytes() == want_qs.tobytes()
    # the hold leaves its start state alone
    _same_state(start, rest_state(model))


def _same_log(have: TrialLog, want: TrialLog):
    for f in fields(TrialLog):
        a, b = getattr(have, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape, f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert a == b, f.name


def _planar_task():
    model = planar2x4()
    points = generate_trajectory(TrajectorySpec(duration=1.0, cycles=1), DT)
    q_d = joint_path(model, points)
    return model, points, q_d, rest_state(model, q_d[0])


def _both(model, make_controller, points, q_d, start, *, decimation, **kwargs):
    task = Task(points, q_d, DT, decimation)
    return (run_trial(model, make_controller(), task, start_state=start, **kwargs),
            ref.run_trial(model, make_controller(), points, DT, start_state=start,
                          decimation=decimation, desired_joint_path=q_d, **kwargs))


def test_noisy_loaded_trial_matches_the_reference_bit_for_bit():
    model, points, q_d, start = _planar_task()
    rng = np.random.default_rng(5)
    table = rng.uniform(0.3, 0.7, size=(100, model.n_joints))
    dist = DisturbanceSpec(load_fraction=0.1, noise_amplitude=0.05, noise_frequency_hz=8.0)
    have, want = _both(model, lambda: ReplayController(table), points, q_d, start,
                       disturbance=dist, seed=[1, 2], decimation=10)
    assert not want.diverged
    _same_log(have, want)


def test_pid_trial_matches_the_reference_bit_for_bit():
    # the PID controller reads the posture it is handed at every control tick
    model, points, q_d, start = _planar_task()
    have, want = _both(model, lambda: PidController(model, PidGains(), 10 * DT),
                       points, q_d, start, disturbance=DisturbanceSpec(), seed=0,
                       decimation=10)
    _same_log(have, want)


def test_spatial_trial_matches_the_reference_bit_for_bit():
    model = spatial_ltdm()
    start = rest_state(model)
    q_d = np.tile(np.asarray(model.q_ref), (501, 1))
    points = np.zeros((501, 2))
    table = np.full((50, model.n_joints), 0.8)
    have, want = _both(model, lambda: ReplayController(table), points, q_d, start,
                       disturbance=DisturbanceSpec(noise_amplitude=0.02,
                                                   noise_frequency_hz=3.0),
                       seed=4, decimation=10)
    assert not want.diverged
    _same_log(have, want)


def test_diverged_trial_matches_the_reference_bit_for_bit(monkeypatch):
    # a 1 rad/s joint-speed bound, which a full drive on joint 0 crosses
    # mid-trial; both ticks read the bound from the arm module
    monkeypatch.setattr(arm_module, "_QDOT_MAX", 1.0)
    model, points, q_d, start = _planar_task()
    table = np.tile((1.0, 0.5), (100, 1))
    have, want = _both(model, lambda: ReplayController(table), points, q_d, start,
                       disturbance=DisturbanceSpec(), seed=0, decimation=10)
    assert want.diverged and 0 < want.diverged_at < 1000
    assert want.diverged_at % 10 != 0
    _same_log(have, want)
