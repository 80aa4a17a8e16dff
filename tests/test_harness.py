"""Harness tests: frozen trajectory samples, inverse-kinematics round trips,
trial determinism and divergence capture, metric arithmetic, parking and
probing, a short end-to-end learning run, the disturbance sweep, the PID
stand-in, and the muscle low-pass measurement.
"""

import math
import re
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from myoarm import harness, muscle
from myoarm.arm import (
    ArmModel,
    ArmState,
    IntegrationDivergedError,
    forward_kinematics,
    muscle_lengths,
    rest_state,
    tip_path,
)
from myoarm.control import DdilcController, DdilcParams
from myoarm.harness import (
    DisturbanceSpec,
    ExperimentConfig,
    IlcResult,
    PidController,
    PidGains,
    ProbeResult,
    ReplayController,
    Task,
    TrajectorySpec,
    TrialLog,
    UnreachableTrajectoryError,
    benchmark_ilc_config,
    compute_metrics,
    disturbance_sweep,
    generate_trajectory,
    joint_path,
    lowpass_attenuation_test,
    park_state,
    pid_baseline,
    probe_sensitivity,
    run_ilc,
    run_trial,
)
from myoarm.presets import planar2x4, spatial_ltdm

DT = 1e-3
REST = np.full(2, 0.5)     # a probe rest drive on planar2x4


@pytest.fixture(scope="module")
def model():
    return planar2x4()


@pytest.fixture(scope="module")
def short_run():
    """A short learning run shared by the convergence, sweep, and export tests."""
    cfg = ExperimentConfig(trajectory=TrajectorySpec(duration=3.0, cycles=1),
                           iterations=8, dt=DT, control_decimation=10, seed=0,
                           settle_time=6.0, probe_hold=4.0)
    return cfg, run_ilc(cfg)


# ---------------------------------------------------------------------------
# trajectory generation
# ---------------------------------------------------------------------------

def test_trajectory_frozen_samples():
    # Default chord: offset (0.45, -0.2), direction +y, so the transverse
    # unit vector is -x. At s = period/4 the sine is at its +amplitude crest.
    pts = generate_trajectory(TrajectorySpec(duration=8.0), DT)
    assert pts.shape == (8001, 2)
    assert pts[0] == pytest.approx([0.45, -0.2], abs=1e-15)
    # tick 1000: s = 2 cycles * 0.2 m * (1000/8000) = 0.05 m = period/4
    assert pts[1000] == pytest.approx([0.30, -0.15], abs=1e-12)
    # end of the chord: s = 0.4 m, transverse sine back to zero
    assert pts[-1] == pytest.approx([0.45, 0.2], abs=1e-12)


def test_trajectory_direction_normalized():
    spec = TrajectorySpec(duration=2.0, cycles=1, direction_x=3.0, direction_y=3.0)
    pts = generate_trajectory(spec, 1e-2)
    chord = pts[-1] - pts[0]
    # chord length is cycles * spatial_period regardless of direction scale
    assert math.hypot(*chord) == pytest.approx(0.2, abs=1e-12)
    assert chord[0] == pytest.approx(chord[1], abs=1e-12)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        TrajectorySpec(amplitude=0.0)
    with pytest.raises(ValueError):
        TrajectorySpec(spatial_period=-0.1)
    with pytest.raises(ValueError):
        TrajectorySpec(duration=0.0)
    with pytest.raises(ValueError):
        TrajectorySpec(cycles=0)
    with pytest.raises(ValueError):
        TrajectorySpec(direction_x=0.0, direction_y=0.0)
    with pytest.raises(ValueError):
        generate_trajectory(TrajectorySpec(), 0.0)
    with pytest.raises(ValueError):
        generate_trajectory(TrajectorySpec(duration=1e-4), DT)


def test_disturbance_validation_and_mass():
    assert DisturbanceSpec(load_fraction=0.2).tip_mass == pytest.approx(0.5)
    with pytest.raises(FrozenInstanceError):    # one default instance is shared
        DisturbanceSpec().load_fraction = 0.1
    with pytest.raises(ValueError):
        DisturbanceSpec(load_fraction=0.6)
    with pytest.raises(ValueError):
        DisturbanceSpec(load_fraction=-0.1)
    with pytest.raises(ValueError):
        DisturbanceSpec(noise_amplitude=-1e-3)
    with pytest.raises(ValueError):
        DisturbanceSpec(noise_frequency_hz=-1.0)


@pytest.mark.parametrize("name", ["noise_amplitude", "noise_frequency_hz"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_disturbance_rejects_non_finite_noise(name, value):
    # a NaN amplitude used to pass, and hold_trial failed only after its park
    # with "excitation u must be in [0, 1], got nan", naming neither
    with pytest.raises(ValueError, match=f"^DisturbanceSpec.{name} must be "
                                         f"a finite number, got {value!r}$"):
        DisturbanceSpec(**{name: value})


# ---------------------------------------------------------------------------
# inverse kinematics and batched kinematic paths
# ---------------------------------------------------------------------------

def test_joint_path_round_trip(model):
    pts = generate_trajectory(TrajectorySpec(duration=2.0, cycles=1), 1e-2)
    qs = joint_path(model, pts)
    assert qs.shape == (pts.shape[0], model.n_joints)
    back = tip_path(model, qs)
    assert np.max(np.hypot(*(back - pts).T)) < 1e-8
    for j, (lo, hi) in enumerate(model.joint_limits):
        assert np.all(qs[:, j] >= lo - 1e-9)
        assert np.all(qs[:, j] <= hi + 1e-9)


def _list_built_joint_path(model, points):
    """``joint_path``'s Newton solve with each posture kept as a list of
    floats and the list of lists handed to ``np.array``: the reference for
    its flat buffer. Reachable paths only."""
    q = [float(v) for v in model.q_ref]
    rows = []
    for px, py in np.asarray(points, dtype=float).tolist():
        for _ in range(harness._IK_MAX_ITER):
            tx, ty, jx, jy = harness._tip_jacobian(model, q)
            ex, ey = px - tx, py - ty
            if math.hypot(ex, ey) < harness._IK_TOL:
                break
            dq, _ = harness._pinv_solve(jx, jy, ex, ey)
            q = [qi + d for qi, d in zip(q, dq)]
        else:
            raise AssertionError("the reference path must be reachable")
        rows.append(q)
    return np.array(rows).reshape(-1, model.n_joints)


@pytest.mark.parametrize("arm,spec,dt", [
    (planar2x4, TrajectorySpec(), DT),
    # a sine chord through the tip at q_ref: seven joints for two
    # coordinates, the redundant case
    (spatial_ltdm, TrajectorySpec(amplitude=0.05, spatial_period=0.1,
                                  cycles=1, duration=1.0, offset_x=-0.445,
                                  offset_y=0.519, direction_x=1.0,
                                  direction_y=0.0), 1e-2),
], ids=["planar2x4", "spatial-ltdm"])
def test_joint_path_matches_the_list_built_path(arm, spec, dt):
    model = arm()
    pts = generate_trajectory(spec, dt)
    qs = joint_path(model, pts)
    assert qs.dtype == np.float64
    assert qs.shape == (pts.shape[0], model.n_joints)
    assert qs.tobytes() == _list_built_joint_path(model, pts).tobytes()


def test_joint_path_walks_the_chain_once_per_newton_step(model, monkeypatch):
    # each sample used to start with a walk at the posture the last sample's
    # convergence test had just walked: one walk per step plus one per sample
    pts = generate_trajectory(TrajectorySpec(duration=0.2, cycles=1), DT)
    walks, steps = [], []
    walk, solve = harness._tip_jacobian, harness._pinv_solve
    monkeypatch.setattr(harness, "_tip_jacobian",
                        lambda *a: walks.append(None) or walk(*a))
    monkeypatch.setattr(harness, "_pinv_solve",
                        lambda *a: steps.append(None) or solve(*a))
    joint_path(model, pts)
    assert len(steps) >= len(pts)
    assert len(walks) == len(steps) + 1


def test_joint_path_unreachable_names_sample(model):
    # link lengths 0.38 + 0.34 = 0.72 m of reach; 1.5 m is out of range
    pts = np.array([[0.45, -0.2], [1.5, 0.0]])
    with pytest.raises(UnreachableTrajectoryError) as err:
        joint_path(model, pts)
    assert err.value.index == 1


def test_tip_path_matches_forward_kinematics(model):
    rng = np.random.default_rng(3)
    qs = np.asarray(model.q_ref) + 0.3 * rng.standard_normal((10, model.n_joints))
    batched = tip_path(model, qs)
    for row, q in zip(batched, qs):
        assert row == pytest.approx(forward_kinematics(model, q), abs=1e-12)


def test_muscle_length_path_matches_per_sample(model):
    rng = np.random.default_rng(4)
    qs = np.asarray(model.q_ref) + 0.3 * rng.standard_normal((10, model.n_joints))
    batched = muscle_lengths(model, qs)
    for row, q in zip(batched, qs):
        assert row == pytest.approx(muscle_lengths(model, q), abs=1e-12)


# ---------------------------------------------------------------------------
# trial execution
# ---------------------------------------------------------------------------

def _one_second_points():
    return generate_trajectory(TrajectorySpec(duration=1.0, cycles=1), DT)


def _rest(n_control):
    """Replays the rest drive 0.5 on both joints for ``n_control`` ticks."""
    return ReplayController(np.full((n_control, 2), 0.5))


def _task_along(model, pts, decimation=10):
    """The task along ``pts`` at ``DT``: their inverse-kinematics path and
    ``decimation`` physics ticks per control tick."""
    return Task(pts, joint_path(model, pts), DT, decimation)


UNDISTURBED = dict(disturbance=DisturbanceSpec(), seed=0)   # no load, no noise


def test_task_needs_two_samples(model):
    pts = _one_second_points()[:1]
    with pytest.raises(ValueError, match="^trajectory must contain at least "
                                         "two samples$"):
        _task_along(model, pts, decimation=1)


def test_task_needs_one_posture_per_sample(model):
    # a joint path solved for a longer chord used to run, and the trial
    # logged its desired muscle lengths along the wrong postures
    pts = _one_second_points()
    longer = generate_trajectory(TrajectorySpec(duration=1.5, cycles=2), DT)
    with pytest.raises(ValueError, match="^joint path of 1501 postures for "
                                         "1001 samples$"):
        Task(pts, joint_path(model, longer), DT, 10)


@pytest.mark.parametrize("points, joints, message", [
    # each used to build; a trial replayed along the first two logged a
    # ``tip_desired`` of shape (5,) or (5, 3), and along the third failed
    # in numpy broadcasting
    ((5,), (5, 2), "trajectory must be (T+1, 2) tip points, got shape (5,)"),
    ((5, 3), (5, 2), "trajectory must be (T+1, 2) tip points, got shape (5, 3)"),
    ((5, 2), (5,), "joint path must be 2-D, one posture per sample, got shape (5,)"),
], ids=["flat-points", "3-d-points", "flat-joint-path"])
def test_task_checks_its_array_shapes(points, joints, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Task(np.zeros(points), np.zeros(joints), DT, 1)


@pytest.mark.parametrize("dt, decimation, message", [
    # each used to build: nan failed at the first tick with "fv_target must
    # be in (0, 1.6), got nan", inf logged a trial diverged at tick 0 on a
    # nan time axis, and 2.0 failed with "slice indices must be integers"
    (math.nan, 1, "Task.dt must be a finite number, got nan"),
    (math.inf, 1, "Task.dt must be a finite number, got inf"),
    (0.0, 1, "Task.dt must be > 0, got 0.0"),
    (DT, 2.0, "Task.decimation must be an integer, got 2.0"),
], ids=["nan-dt", "inf-dt", "zero-dt", "float-decimation"])
def test_task_checks_its_rates(dt, decimation, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Task(np.zeros((5, 2)), np.zeros((5, 2)), dt, decimation)


def test_task_decimation_must_divide(model):
    pts = _one_second_points()[:11]          # 10 ticks
    with pytest.raises(ValueError, match="^decimation 3 must divide the 10 "
                                         "trajectory ticks$"):
        _task_along(model, pts, decimation=3)
    with pytest.raises(ValueError, match="^decimation 0 must divide"):
        _task_along(model, pts, decimation=0)
    assert _task_along(model, pts, decimation=5).n_control == 2


def test_run_trial_shapes_and_rest_drive(model):
    pts = _one_second_points()
    log = run_trial(model, _rest(100), _task_along(model, pts), **UNDISTURBED,
                    start_state=rest_state(model))
    assert (log.dt, log.decimation) == (DT, 10)
    assert log.tip.shape == (1001, 2)
    assert log.q.shape == (1001, model.n_joints)
    assert log.qdot.shape == (1001, model.n_joints)
    assert log.drives.shape == (100, model.n_joints)
    assert np.all(log.drives == 0.5)
    assert log.excitations.shape == (1000, model.n_muscles)
    assert log.tendon_forces.shape == (1000, model.n_muscles)
    assert log.muscle_lengths_desired.shape == (1001, model.n_muscles)
    assert log.time[-1] == pytest.approx(1.0)
    assert not log.diverged and log.diverged_at is None


def test_ddilc_trial_holds_no_python_object_per_tick(model):
    # A trial's log arrays are built from flat float buffers of the same
    # values, so a trial peaks below twice its log. The controller's error
    # record, its feedforward rows and the trial's targets used to hold a
    # Python list per control tick, 1.4 MB more at the peak of these 4000
    # ticks.
    pts = generate_trajectory(TrajectorySpec(duration=4.0, cycles=1), DT)
    task = Task(pts, joint_path(model, pts), DT, 1)
    ctl = DdilcController(np.array([[0.05, 0.02], [-0.01, 0.04]]), DdilcParams(),
                          task.n_control, response_lag_ticks=10.0, rest_drive=REST)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = run_trial(model, ctl, task, **UNDISTURBED, start_state=rest_state(model))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert task.n_control == 4000 and not log.diverged
    log_bytes = sum(a.nbytes for a in (log.time, log.tip, log.q, log.qdot, log.drives,
                                       log.excitations, log.tendon_forces,
                                       log.muscle_lengths, log.muscle_lengths_desired))
    assert peak < 2 * log_bytes


def _ddilc(horizon):
    return DdilcController(np.array([[0.05, 0.02], [-0.01, 0.04]]), DdilcParams(),
                           horizon, response_lag_ticks=10.0, rest_drive=REST)


def test_a_ddilc_longer_than_the_trial_fails_and_learns_nothing(model):
    # a horizon of 100 on 50 control ticks used to learn silently, the final
    # error into row 99, which no tick plays
    pts = generate_trajectory(TrajectorySpec(duration=0.5, cycles=1), DT)
    ctl = _ddilc(100)
    with pytest.raises(ValueError, match=r"^the trial ran 50 control ticks on a "
                                         r"DDILC horizon of 100$"):
        run_trial(model, ctl, _task_along(model, pts), **UNDISTURBED,
                  start_state=rest_state(model, joint_path(model, pts[:1])[0]))
    ctl.begin_iteration()
    assert not ctl.u_ff.any()


def test_a_ddilc_shorter_than_the_trial_fails_at_its_horizon(model):
    # a horizon of 25 on 50 control ticks used to raise a bare IndexError
    pts = generate_trajectory(TrajectorySpec(duration=0.5, cycles=1), DT)
    with pytest.raises(ValueError, match=r"^control tick 25 is past the DDILC "
                                         r"horizon of 25 control ticks$"):
        run_trial(model, _ddilc(25), _task_along(model, pts), **UNDISTURBED,
                  start_state=rest_state(model, joint_path(model, pts[:1])[0]))


def test_run_trial_logs_the_points_read_only_without_a_copy(model):
    pts = _one_second_points()
    log = run_trial(model, _rest(100), _task_along(model, pts), **UNDISTURBED,
                    start_state=rest_state(model))
    assert np.shares_memory(log.tip_desired, pts)
    assert np.array_equal(log.tip_desired, pts)
    with pytest.raises(ValueError, match="read-only"):
        log.tip_desired[0, 0] = 0.0
    assert pts.flags.writeable


def test_run_trial_deterministic_under_noise(model):
    pts = _one_second_points()
    dist = DisturbanceSpec(noise_amplitude=0.05, noise_frequency_hz=8.0)
    kw = dict(disturbance=dist, seed=[1, 2], start_state=rest_state(model))
    task = _task_along(model, pts)
    a = run_trial(model, _rest(100), task, **kw)
    b = run_trial(model, _rest(100), task, **kw)
    assert np.array_equal(a.tip, b.tip)
    assert np.array_equal(a.excitations, b.excitations)
    assert np.array_equal(a.tendon_forces, b.tendon_forces)


def test_run_trial_seed_and_noise_change_excitations(model):
    pts = _one_second_points()
    dist = DisturbanceSpec(noise_amplitude=0.05, noise_frequency_hz=8.0)
    start = rest_state(model)
    task = _task_along(model, pts)
    a = run_trial(model, _rest(100), task, disturbance=dist, seed=[1, 2],
                  start_state=start)
    c = run_trial(model, _rest(100), task, disturbance=dist, seed=[9, 9],
                  start_state=start)
    clean = run_trial(model, _rest(100), task, disturbance=DisturbanceSpec(),
                      seed=[1, 2], start_state=start)
    assert not np.array_equal(a.excitations, c.excitations)
    assert not np.array_equal(a.excitations, clean.excitations)
    # excitation noise is clipped to [0, 1] like any drive
    assert np.all(a.excitations >= 0.0) and np.all(a.excitations <= 1.0)


def test_run_trial_tip_load_changes_motion(model):
    task = _task_along(model, _one_second_points())
    start = rest_state(model, task.joint_path[0])
    plain = run_trial(model, _rest(100), task, start_state=start,
                      disturbance=DisturbanceSpec(), seed=0)
    loaded = run_trial(model, _rest(100), task, start_state=start,
                       disturbance=DisturbanceSpec(load_fraction=0.2), seed=0)
    assert not loaded.diverged
    assert not np.allclose(plain.tip[-1], loaded.tip[-1], atol=1e-6)
    # no load and no noise amplitude is no disturbance, bit for bit
    inert = run_trial(model, _rest(100), task, start_state=start,
                      disturbance=DisturbanceSpec(noise_frequency_hz=8.0),
                      seed=0)
    for f in fields(TrialLog):
        np.testing.assert_array_equal(getattr(inert, f.name), getattr(plain, f.name))


def test_run_trial_records_divergence(model):
    pts = _one_second_points()
    poisoned = rest_state(model)
    poisoned.qdot = np.full(model.n_joints, np.nan)
    log = run_trial(model, _rest(100), _task_along(model, pts), **UNDISTURBED,
                    start_state=poisoned)
    assert log.diverged and log.diverged_at == 0
    assert log.tip.shape == (1, 2)
    assert log.excitations.shape == (0, model.n_muscles)
    assert log.drives.shape == (1, model.n_joints)
    # the metrics cover the start sample, the only one kept
    metrics = compute_metrics(log)
    assert metrics.diverged and metrics.samples == 1 and metrics.std_mm == 0.0
    want = math.hypot(*(log.tip[0] - pts[0])) * 1e3
    assert metrics.mean_abs_mm == pytest.approx(want, rel=1e-15)


def test_run_trial_keeps_divergence_reason(model, monkeypatch):
    pts = _one_second_points()
    monkeypatch.setattr(muscle, "inverse_force_velocity", lambda fv: math.inf)
    log = run_trial(model, _rest(100), _task_along(model, pts), **UNDISTURBED,
                    start_state=rest_state(model))
    assert log.diverged and log.diverged_at == 0
    assert "l_fiber_norm of muscle 0" in log.diverged_reason


def test_run_trial_records_a_non_positive_muscle_tendon_length(model):
    # a fast swing from the chord's start turns joint 0 so far that muscle 0's
    # muscle-tendon length reaches zero, a divergence and not step_muscle's
    # ValueError
    task = _task_along(model, _one_second_points())
    start = rest_state(model, task.joint_path[0])
    start.qdot[:] = (200.0, -200.0)
    log = run_trial(model, _rest(100), task, **UNDISTURBED, start_state=start)
    assert log.diverged and log.diverged_at > 0
    assert re.fullmatch(r"muscle-tendon length of muscle \d+ is -\S+, not positive",
                        log.diverged_reason)
    assert log.q.shape == (log.diverged_at + 1, model.n_joints)


def test_run_trial_names_a_nan_drive_before_its_physics(model, monkeypatch):
    # a NaN drive used to reach the muscle as "excitation u must be in
    # [0, 1], got nan", without its tick or channel
    ticks = []
    real_step = harness.integrate_step

    def counting_step(*args):
        ticks.append(None)
        return real_step(*args)

    monkeypatch.setattr(harness, "integrate_step", counting_step)
    table = np.full((100, model.n_joints), 0.5)
    table[7, 1] = np.nan
    task = _task_along(model, _one_second_points())
    with pytest.raises(ValueError, match=r"^control tick 7: drive 1 is nan$"):
        run_trial(model, ReplayController(table), task, **UNDISTURBED,
                  start_state=rest_state(model))
    assert len(ticks) == 7 * 10


@pytest.mark.parametrize("shape", [(3,), (1,), (1, 2)])
def test_run_trial_rejects_a_drive_not_one_per_joint(model, monkeypatch, shape):
    # a 3-column table on the 2-joint arm used to run, and the trial CSV got
    # rows one cell longer than its header
    ticks = []
    real_step = harness.integrate_step

    def counting_step(*args):
        ticks.append(None)
        return real_step(*args)

    monkeypatch.setattr(harness, "integrate_step", counting_step)
    message = f"control tick 0: drive of shape {shape} is not one value per joint (2)"
    task = _task_along(model, _one_second_points())
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_trial(model, ReplayController(np.full((100, *shape), 0.5)), task,
                  **UNDISTURBED, start_state=rest_state(model))
    assert ticks == []


def test_run_trial_clips_finite_drives(model):
    table = np.full((100, model.n_joints), 0.5)
    table[3] = (-0.2, 1.7)
    log = run_trial(model, ReplayController(table),
                    _task_along(model, _one_second_points()), **UNDISTURBED,
                    start_state=rest_state(model))
    assert log.drives[3].tolist() == [0.0, 1.0]
    assert log.drives[4].tolist() == [0.5, 0.5]


class _Recorder:
    """A rest-drive controller that records every protocol call: the tip,
    a copy of the posture and the targets of each step."""

    def __init__(self):
        self.calls = []

    def begin_iteration(self):
        self.calls.append(("begin",))

    def step(self, tc, y, q, y_d, y_d_next):
        self.calls.append(("step", tc, tuple(y), list(q), list(y_d), list(y_d_next)))
        return [0.5, 0.5]

    def finish_iteration(self, y_final, y_d_final):
        self.calls.append(("finish", tuple(y_final), list(y_d_final)))


def test_every_controller_gets_the_ticks_tip_posture_and_targets(model):
    task = _task_along(model, _one_second_points())
    rec = _Recorder()
    log = run_trial(model, rec, task, **UNDISTURBED,
                    start_state=rest_state(model, task.joint_path[0]))
    assert not log.diverged
    assert rec.calls[0] == ("begin",)
    steps = rec.calls[1:-1]
    assert [c[:2] for c in steps] == [("step", tc) for tc in range(task.n_control)]
    dec = task.decimation
    for _, tc, y, q, y_d, y_d_next in steps:
        assert q == log.q[tc * dec].tolist()
        assert y == tuple(forward_kinematics(model, q))
        assert y_d == task.points[tc * dec].tolist()
        assert y_d_next == task.points[(tc + 1) * dec].tolist()
    assert rec.calls[-1] == ("finish", tuple(forward_kinematics(model, log.q[-1])),
                             task.points[-1].tolist())


def test_a_diverged_trial_steps_no_further_and_does_not_finish(model, diverge_in_trial):
    # physics tick 37 falls in control tick 3 at decimation 10
    diverge_in_trial(0, 37)
    task = _task_along(model, _one_second_points())
    rec = _Recorder()
    log = harness.run_trial(model, rec, task, **UNDISTURBED,
                            start_state=rest_state(model, task.joint_path[0]))
    assert log.diverged_at == 37
    assert [c[:2] for c in rec.calls] == [("begin",)] + [("step", tc) for tc in range(4)]


def test_a_pid_trial_builds_no_arm_state_per_tick(model, monkeypatch):
    # the PID used to be handed a new ArmState at every control tick only to
    # read its posture
    task = _task_along(model, _one_second_points())
    start, _ = park_state(model, task.joint_path[0], DT, total_time=3.0)
    real, built = ArmState.from_floats.__func__, []
    monkeypatch.setattr(ArmState, "from_floats",
                        classmethod(lambda cls, s: built.append(None) or real(cls, s)))
    log = run_trial(model, PidController(model, PidGains(), 10 * DT), task,
                    **UNDISTURBED, start_state=start)
    assert not log.diverged
    assert built == []


def _no_physics(monkeypatch, what):
    def no_step(*args):
        raise AssertionError(f"{what} ticked before its input check")

    monkeypatch.setattr(harness, "integrate_step", no_step)


@pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
def test_run_trial_rejects_a_joint_path_of_another_arm(model, monkeypatch, as_list):
    # a 7-column path used to run all 500 ticks, then fail to broadcast
    # while the log was built; Task also takes the path as nested lists
    pts = generate_trajectory(TrajectorySpec(duration=0.5, cycles=1), DT)
    path = np.zeros((len(pts), 7))
    task = Task(pts, path.tolist() if as_list else path, DT, 1)
    _no_physics(monkeypatch, "run_trial")
    with pytest.raises(ValueError, match=r"^joint path has 7 joints for an arm of 2$"):
        run_trial(model, _rest(500), task, **UNDISTURBED, start_state=rest_state(model))


@pytest.mark.parametrize("start, message", [
    (lambda m: rest_state(spatial_ltdm()), "start state q has 7 joints for an arm of 2"),
    (lambda m: replace(rest_state(m), qdot=np.zeros(3)),
     "start state qdot has 3 joints for an arm of 2"),
    (lambda m: replace(rest_state(m), muscle_states=rest_state(m).muscle_states[:3]),
     "start state has 3 muscles for an arm of 4"),
], ids=["spatial-state", "qdot", "muscles"])
def test_run_trial_rejects_a_start_state_of_another_arm(model, monkeypatch, start, message):
    # a spatial-ltdm rest state used to raise a bare IndexError from
    # inside integrate_step
    task = _task_along(model, _one_second_points())
    state = start(model)
    _no_physics(monkeypatch, "run_trial")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_trial(model, _rest(100), task, **UNDISTURBED, start_state=state)


@pytest.mark.parametrize("drive, message", [
    ([-0.2, 1.7], None),
    ([0.5, math.nan], "control tick 3: drive 1 is nan"),
    ([0.5, 0.5, 0.5], "control tick 3: drive of shape (3,) is not one value "
                      "per joint (2)"),
    ([[0.5, 0.5]], "control tick 3: drive of shape (1, 2) is not one value "
                   "per joint (2)"),
    ([[0.5], [0.5]], "control tick 3: drive of shape (2, 1) is not one value "
                     "per joint (2)"),
    ([0, 1], None),
])
def test_checked_drive_reads_a_list_as_it_reads_an_array(drive, message):
    # DdilcController's list skips the array round trip: same floats, same errors
    for raw in (drive, np.array(drive)):
        if message is None:
            out = harness._checked_drive(3, raw, 2)
            assert out == [min(max(float(v), 0.0), 1.0) for v in drive]
            assert all(type(v) is float for v in out)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                harness._checked_drive(3, raw, 2)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _stub_log(tip, desired, muscle=None, muscle_desired=None):
    n = tip.shape[0]
    muscle = np.zeros((n, 4)) if muscle is None else muscle
    return TrialLog(dt=DT, decimation=1, time=np.arange(n) * DT, tip=tip,
                    tip_desired=desired, q=np.zeros((n, 2)),
                    qdot=np.zeros((n, 2)),
                    drives=np.zeros((n - 1, 2)),
                    excitations=np.zeros((n - 1, 4)),
                    tendon_forces=np.zeros((n - 1, 4)),
                    muscle_lengths=muscle,
                    muscle_lengths_desired=(muscle if muscle_desired is None
                                            else muscle_desired))


def test_compute_metrics_hand_values():
    # tip errors of exactly 3 mm then 4 mm
    tip = np.array([[0.003, 0.0], [0.0, 0.004]])
    m = compute_metrics(_stub_log(tip, np.zeros((2, 2))))
    assert m.mean_abs_mm == pytest.approx(3.5, abs=1e-12)
    assert m.mse_mm2 == pytest.approx(12.5, abs=1e-12)
    assert m.std_mm == pytest.approx(0.5, abs=1e-12)
    assert m.muscle_len_mean_abs_mm == 0.0
    assert m.samples == 2 and not m.diverged


def test_compute_metrics_muscle_lengths():
    tip = np.zeros((2, 2))
    muscle = np.zeros((2, 4))
    m = compute_metrics(_stub_log(tip, tip, muscle, muscle + 0.002))
    assert m.muscle_len_mean_abs_mm == pytest.approx(2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# parking, settling, and probing
# ---------------------------------------------------------------------------

def test_park_state_holds_trajectory_start(model):
    pts = generate_trajectory(TrajectorySpec(duration=8.0), DT)
    q_target = joint_path(model, pts[:1])[0]
    state, u_hold = park_state(model, q_target, DT, total_time=12.0)
    assert u_hold.shape == (model.n_joints,)
    assert np.all(u_hold >= 0.0) and np.all(u_hold <= 1.0)
    residual_mm = math.hypot(*(forward_kinematics(model, state.q) - pts[0])) * 1e3
    assert residual_mm < 10.0
    assert np.max(np.abs(state.qdot)) < 0.05


def test_park_divergence_names_the_tick(model, monkeypatch):
    # a 3 s park is two 1 s servo rounds and a 2 s hold; call 1501 is tick 1500
    real, calls, injected = harness.integrate_step, [], []

    def diverge_on_1501st_call(*args):
        calls.append(args)
        if len(calls) == 1501:
            injected.append(ArmState.from_floats(args[1]))
            raise IntegrationDivergedError("injected", injected[0])
        return real(*args)

    monkeypatch.setattr(harness, "integrate_step", diverge_on_1501st_call)
    with pytest.raises(IntegrationDivergedError,
                       match=r"^park diverged at tick 1500: injected$") as err:
        park_state(model, np.asarray(model.q_ref), DT, total_time=3.0)
    assert err.value.last_state is injected[0]


def test_park_state_needs_time(model):
    with pytest.raises(ValueError):
        park_state(model, np.asarray(model.q_ref), DT, total_time=2.0)


def test_park_state_needs_whole_seconds(model, monkeypatch):
    # the servo runs in 1 s rounds, so 3.5 s used to park for 3 s
    def no_step(*args):
        raise AssertionError("park_state ticked before the time check")

    monkeypatch.setattr(harness, "integrate_step", no_step)
    with pytest.raises(ValueError, match=r"^park_state total_time must be a "
                                         r"whole number of seconds >= 3$"):
        park_state(model, np.asarray(model.q_ref), DT, total_time=3.5)


def test_park_state_needs_a_tick_per_round(model, monkeypatch):
    # round(1 / 2.5) is 0: every 1 s round held nothing, and the park
    # returned the slack rest state
    def no_step(*args):
        raise AssertionError("park_state ticked before the round check")

    monkeypatch.setattr(harness, "integrate_step", no_step)
    with pytest.raises(ValueError, match=r"^park round of 1.0 s rounds to no "
                                         r"tick of dt = 2.5 s$"):
        park_state(model, np.asarray(model.q_ref), 2.5, total_time=3)


def test_park_state_rejects_a_target_of_another_arm(model, monkeypatch):
    # a 7-joint target used to fail to broadcast against the arm's 2 joints
    _no_physics(monkeypatch, "park_state")
    with pytest.raises(ValueError, match=r"^park target has 7 joints for an arm of 2$"):
        park_state(model, np.zeros(7), DT, total_time=3)


def test_generate_trajectory_needs_a_finite_tick_count():
    # round() of the infinite count used to raise OverflowError
    with pytest.raises(ValueError, match=r"^trajectory duration of 8.0 s is not "
                                         r"a finite number of ticks of "
                                         r"dt = 1e-320 s$"):
        generate_trajectory(TrajectorySpec(), 1e-320)


def test_probe_needs_a_hold_of_one_tick(model, monkeypatch):
    # 0.4 ticks rounds to none: every hold was empty, the sensitivity NaN,
    # and the controller's pinv raised only after the park
    def no_step(*args):
        raise AssertionError("probe_sensitivity ticked before the hold check")

    monkeypatch.setattr(harness, "integrate_step", no_step)
    with pytest.raises(ValueError, match=r"^probe hold_time of 0.0004 s rounds "
                                         r"to no tick of dt = 0.001 s$"):
        probe_sensitivity(model, rest_state(model), DT, delta=0.2,
                          hold_time=0.0004, rest=REST)


def test_probe_validation(model):
    state = rest_state(model)
    with pytest.raises(ValueError):
        probe_sensitivity(model, state, DT, delta=0.0, hold_time=0.2, rest=REST)
    with pytest.raises(ValueError):
        probe_sensitivity(model, state, DT, delta=0.6, hold_time=0.2, rest=REST)
    with pytest.raises(ValueError):
        probe_sensitivity(model, state, DT, delta=0.2, hold_time=0.2,
                          rest=[1.5, 0.5])
    # a NaN rest drive used to pass and fail inside the muscle
    with pytest.raises(ValueError, match=r"^probe rest drives must lie in \[0, 1\]$"):
        probe_sensitivity(model, state, DT, delta=0.2, hold_time=0.2,
                          rest=[np.nan, 0.5])


@pytest.mark.parametrize("rest", [0.5, [0.5], [0.5, 0.5, 0.5]],
                         ids=["scalar", "one", "three"])
def test_probe_rest_must_be_one_drive_per_joint(model, monkeypatch, rest):
    def no_hold(*args, **kwargs):
        raise AssertionError("a probe hold ran before the rest check")

    monkeypatch.setattr(harness, "_hold", no_hold)
    with pytest.raises(ValueError, match=r"^probe rest must be one drive per joint \(2\)$"):
        probe_sensitivity(model, rest_state(model), DT, delta=0.2,
                          hold_time=0.2, rest=rest)


def test_probe_rejects_a_start_state_of_another_arm(model, monkeypatch):
    # a spatial-ltdm rest state used to raise a bare IndexError from inside
    # integrate_step
    _no_physics(monkeypatch, "probe_sensitivity")
    with pytest.raises(ValueError, match=r"^probe start state q has 7 joints "
                                         r"for an arm of 2$"):
        probe_sensitivity(model, rest_state(spatial_ltdm()), DT, delta=0.2,
                          hold_time=0.2, rest=REST)


def test_probe_blow_up_stops_at_the_joint_speed_bound():
    # spatial-ltdm cannot hold a 3 s park, and channel 0's hold from it blows
    # up; the joint stops keep q in range, so only the speed shows it
    arm = spatial_ltdm()
    start, u_hold = park_state(arm, np.asarray(arm.q_ref), DT, total_time=3.0)
    with pytest.raises(IntegrationDivergedError, match=(
            r"^probe hold channel 0 diverged at tick \d+: qdot\[0\] = \S+ rad/s, "
            r"at or beyond the 10000 rad/s bound$")) as err:
        probe_sensitivity(arm, start, DT, delta=0.2, hold_time=0.5, rest=u_hold)
    assert np.max(np.abs(err.value.last_state.qdot)) < 1e4


def test_probe_steps_down_from_saturated_rest(model):
    state, _ = park_state(model, np.asarray(model.q_ref), DT, total_time=3.0)
    probe = probe_sensitivity(model, state, DT, delta=0.2, hold_time=0.5,
                              rest=np.array([1.0, 0.1]))
    assert np.all(np.isfinite(probe.sensitivity))


def test_probe_deterministic_and_sane(model):
    state, _ = park_state(model, np.asarray(model.q_ref), DT, total_time=3.0)
    a = probe_sensitivity(model, state, DT, delta=0.2, hold_time=2.0, rest=REST)
    b = probe_sensitivity(model, state, DT, delta=0.2, hold_time=2.0, rest=REST)
    assert np.array_equal(a.sensitivity, b.sensitivity)
    assert np.array_equal(a.response_time_s, b.response_time_s)
    assert a.sensitivity.shape == (2, model.n_joints)
    # every drive channel moves the tip by at least millimeters per unit drive
    assert np.all(np.hypot(*a.sensitivity) > 1e-3)
    assert np.all(a.response_time_s >= 0.0)
    assert a.lag_s == pytest.approx(float(np.median(a.response_time_s)))


@given(st.lists(st.floats(0.0, 1e300), min_size=1, max_size=8))
def test_lag_is_numpys_median(times):
    times = np.array(times)
    lag = ProbeResult(np.zeros((2, len(times))), times).lag_s
    assert type(lag) is float and lag == float(np.median(times))


def test_probe_divergence_names_the_hold_and_tick(model, monkeypatch):
    state = rest_state(model)
    with monkeypatch.context() as patch:
        patch.setattr(muscle, "inverse_force_velocity", lambda fv: math.inf)
        with pytest.raises(IntegrationDivergedError, match=(
                r"^probe hold rest diverged at tick 0: "
                r"non-finite l_fiber_norm of muscle 0$")) as err:
            probe_sensitivity(model, state, DT, delta=0.2, hold_time=0.2,
                              rest=REST)
    assert np.array_equal(err.value.last_state.q, state.q)

    # 0.2 s holds: call 201 is channel 0's first tick, so call 203 is tick 2
    real, calls, injected = harness.integrate_step, [], []

    def diverge_on_203rd_call(*args):
        calls.append(args)
        if len(calls) == 203:
            injected.append(ArmState.from_floats(args[1]))
            raise IntegrationDivergedError("injected", injected[0])
        return real(*args)

    monkeypatch.setattr(harness, "integrate_step", diverge_on_203rd_call)
    with pytest.raises(IntegrationDivergedError,
                       match=r"^probe hold channel 0 diverged at tick 2: "
                             r"injected$") as err:
        probe_sensitivity(model, state, DT, delta=0.2, hold_time=0.2, rest=REST)
    assert err.value.last_state is injected[0]


# ---------------------------------------------------------------------------
# the learning loop
# ---------------------------------------------------------------------------

def test_ilc_config_validation():
    traj = TrajectorySpec(duration=1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(trajectory=traj, iterations=0)
    with pytest.raises(ValueError):
        ExperimentConfig(trajectory=traj, dt=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(trajectory=traj, control_decimation=0)
    with pytest.raises(ValueError):
        ExperimentConfig(trajectory=traj, divergence_patience=0)


def test_run_ilc_rejects_decimation_before_parking(monkeypatch):
    def no_park(*args, **kwargs):
        raise AssertionError("park_state ran before the decimation check")

    monkeypatch.setattr(harness, "park_state", no_park)
    # the config itself rejects the decimation, so no run can reach the park
    with pytest.raises(ValueError, match=r"^ExperimentConfig.control_decimation "
                                         r"3 must divide the 1000 trajectory "
                                         r"ticks$"):
        run_ilc(ExperimentConfig(trajectory=TrajectorySpec(duration=1.0),
                                 control_decimation=3))


# half a second of chord, one control tick per physics tick
HALF_SECOND = ExperimentConfig(
    trajectory=TrajectorySpec(duration=0.5, cycles=1), iterations=2,
    control_decimation=1, settle_time=3.0, probe_hold=0.5)


def _count_ticks(monkeypatch) -> list[int]:
    """Counts ``harness.integrate_step`` calls in the returned one-item list."""
    real, count = harness.integrate_step, [0]

    def counted(*args):
        count[0] += 1
        return real(*args)

    monkeypatch.setattr(harness, "integrate_step", counted)
    return count


def _credited_ticks(cfg: ExperimentConfig, n_joints: int,
                    trials: bool) -> int:
    """The physics ticks the benchmark credits a park, a probe and, with
    ``trials``, the learning trials of ``cfg``."""
    ticks = (int(cfg.settle_time) * round(1.0 / cfg.dt)
             + (n_joints + 1) * round(cfg.probe_hold / cfg.dt))
    if trials:
        ticks += cfg.iterations * round(cfg.trajectory.duration / cfg.dt)
    return ticks


@pytest.mark.parametrize("errors, diverged, shrinks", [
    ([5, 4, 5, 6, 7, 3, 4, 5, 6], (), [4, 8]),
    ([5, 6, 7, 8], (), [3]),
    ([5, 6, 6, 7, 8], (), []),          # an equal error ends the streak
    # a diverged trial counts as growth; the next has nothing to compare with
    ([5, 6, 7, 1, 2], (3,), [3]),
    ([5, 5, 5], (0, 1, 2), [2]),
], ids=["twice", "once", "equal", "diverged-then-finite", "all-diverged"])
def test_patience_rule_shrinks_after_growing_errors(monkeypatch, errors, diverged,
                                                    shrinks):
    scripted = iter([harness.TrialMetrics(e, 0.0, 0.0, 0.0, 1, k in diverged)
                     for k, e in enumerate(errors)])
    monkeypatch.setattr(harness, "compute_metrics", lambda log: next(scripted))
    tables = []
    result = run_ilc(replace(HALF_SECOND, iterations=len(errors), divergence_patience=3),
                     on_iteration=lambda k, log, m, ctl: tables.append(ctl.u_ff.copy()))
    assert result.summary.ff_shrink_iterations == shrinks
    # the trial after a shrink runs no zero table: the next begin_iteration
    # still learns, at half gain, from the trial that triggered the shrink
    for k in shrinks:
        if k + 1 < len(errors):
            assert np.any(tables[k + 1] != 0.0)


def test_run_ilc_ticks_as_the_benchmark_credits(monkeypatch):
    count = _count_ticks(monkeypatch)
    run_ilc(HALF_SECOND)
    assert count[0] == _credited_ticks(HALF_SECOND, 2, trials=True) == 5500


def test_spatial_park_and_probe_tick_as_the_benchmark_credits(monkeypatch):
    count = _count_ticks(monkeypatch)
    cfg = replace(HALF_SECOND, preset="spatial-ltdm", probe_hold=0.1)
    arm = cfg.model
    start, u_hold = park_state(arm, np.asarray(arm.q_ref), cfg.dt,
                               total_time=cfg.settle_time)
    probe_sensitivity(arm, start, cfg.dt, delta=cfg.probe_delta,
                      hold_time=cfg.probe_hold, rest=u_hold)
    assert count[0] == _credited_ticks(cfg, 7, trials=False) == 3800


def test_run_ilc_learns(short_run):
    cfg, result = short_run
    s = result.summary
    assert s.iterations == 8
    assert len(s.mean_abs_mm) == 8
    assert not any(s.diverged)
    assert s.ff_shrink_iterations == []
    # learning must at least halve the first-iteration error in 8 repetitions
    assert s.mean_abs_mm[-1] < 0.5 * s.mean_abs_mm[0]
    n_control = round(cfg.trajectory.duration / (cfg.dt * cfg.control_decimation))
    assert result.feedforward_drives.shape == (n_control, 2)
    assert np.all((result.feedforward_drives >= 0.0) & (result.feedforward_drives <= 1.0))
    assert result.final_log.tip.shape[0] == result.task.points.shape[0]
    # the task is the config's trajectory and its inverse kinematics, bit
    # for bit, with one control tick per table row
    points = generate_trajectory(cfg.trajectory, cfg.dt)
    assert np.array_equal(result.task.points, points)
    assert np.array_equal(result.task.joint_path, joint_path(cfg.model, points))
    assert result.task.n_control == result.feedforward_drives.shape[0]


def test_run_ilc_deterministic(short_run):
    cfg, first = short_run
    again = run_ilc(cfg)
    assert again.summary.mean_abs_mm == first.summary.mean_abs_mm
    assert again.summary.mse_mm2 == first.summary.mse_mm2
    assert np.array_equal(again.feedforward_drives, first.feedforward_drives)
    assert np.array_equal(again.sensitivity, first.sensitivity)


def test_noise_free_run_ilc_does_not_depend_on_the_seed():
    # the seed only phases the activation noise; the controller draws nothing
    cfg = ExperimentConfig(trajectory=TrajectorySpec(duration=1.0, cycles=1),
                           iterations=2, dt=DT, control_decimation=10, seed=0,
                           settle_time=3.0, probe_hold=1.0)
    a, b = run_ilc(cfg), run_ilc(replace(cfg, seed=5))
    assert a.summary.mean_abs_mm == b.summary.mean_abs_mm
    assert np.array_equal(a.feedforward_drives, b.feedforward_drives)


def test_run_ilc_callback_sees_every_iteration():
    cfg = ExperimentConfig(trajectory=TrajectorySpec(duration=1.0, cycles=1),
                           iterations=2, dt=DT, control_decimation=10, seed=0,
                           settle_time=3.0, probe_hold=1.0)
    seen = []
    run_ilc(cfg, on_iteration=lambda k, log, metrics, ctrl: seen.append(
        (k, metrics.mean_abs_mm)))
    assert [k for k, _ in seen] == [0, 1]
    assert all(np.isfinite(v) for _, v in seen)


@pytest.mark.parametrize("tick", [0, 37])
def test_run_ilc_summary_records_divergence(diverge_in_trial, tick):
    diverge_in_trial(1, tick)
    cfg = ExperimentConfig(trajectory=TrajectorySpec(duration=1.0, cycles=1),
                           iterations=3, dt=DT, control_decimation=10, seed=0,
                           settle_time=3.0, probe_hold=1.0)
    s = run_ilc(cfg).summary
    assert s.diverged == [False, True, False]
    assert s.diverged_at == [None, tick, None]
    assert s.diverged_reason == [None, "injected", None]


def test_benchmark_config_defaults():
    cfg = benchmark_ilc_config()
    assert cfg.trajectory.duration == 8.0
    assert cfg.iterations == 50
    assert cfg.dt == DT
    assert cfg.control_decimation == 10
    assert cfg.model.n_joints == 2
    assert replace(cfg, iterations=3).iterations == 3


# ---------------------------------------------------------------------------
# disturbance sweep
# ---------------------------------------------------------------------------

ONE_SECOND = ExperimentConfig(trajectory=TrajectorySpec(duration=1.0, cycles=1),
                              sweep_fractions=(0.0,))


def _learned(pts, desired_q, *, drives=None, start_state=None):
    """An ``IlcResult`` holding only what the sweep and the PID baseline
    read: the task along the points and their joint path at ``DT`` and
    decimation 10, a drive table and a start state."""
    task = Task(pts, desired_q, DT, 10)
    return IlcResult(summary=None, feedforward_drives=drives, sensitivity=None,
                     start_state=start_state, task=task, final_log=None)


@pytest.mark.parametrize("experiment", ["hold_trial", "run_ilc",
                                        "disturbance_sweep"])
def test_each_experiment_builds_its_arm_once(model, monkeypatch, experiment):
    # the sweep used to build it once, then twice more per load for its PID
    # trial: 7 times for three loads. The configs are built, and build their
    # arm, before the count starts
    pts = _one_second_points()
    sweep_cfg = replace(ONE_SECOND, settle_time=3.0,
                        sweep_fractions=(0.0, 0.1, 0.2))
    result = _learned(pts, joint_path(model, pts), drives=np.full((100, 2), 0.5))
    runs = {"hold_trial": lambda: harness.hold_trial(HALF_SECOND),
            "run_ilc": lambda: run_ilc(HALF_SECOND),
            "disturbance_sweep": lambda: disturbance_sweep(sweep_cfg, result)}
    real_make_arm, builds = harness.make_arm, []

    def counted(*args):
        builds.append(args)
        return real_make_arm(*args)

    monkeypatch.setattr(harness, "make_arm", counted)
    runs[experiment]()
    assert len(builds) == 1


def test_one_trial_log_is_alive_at_a_time(monkeypatch):
    # each run_trial of run_ilc and of disturbance_sweep starts after the
    # logs of the trials before it are gone
    real_trial = harness.run_trial
    logs, alive = [], []

    def tracked_trial(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in logs))
        log = real_trial(*args, **kwargs)
        logs.append(weakref.ref(log))
        return log

    monkeypatch.setattr(harness, "run_trial", tracked_trial)
    cfg = replace(ONE_SECOND, iterations=3, repetitions=2, settle_time=3.0,
                  probe_hold=1.0, sweep_fractions=(0.0, 0.1))
    result = run_ilc(cfg)
    assert alive == [0, 0, 0]
    assert logs[-1]() is result.final_log
    logs.clear()
    alive.clear()
    disturbance_sweep(cfg, result)
    # per load two replays, then the PID trial
    assert alive == [0] * 6


def test_disturbance_sweep_points(short_run):
    cfg, result = short_run
    sweep = disturbance_sweep(replace(cfg, sweep_fractions=(0.0, 0.1, 0.2)),
                              result)
    assert [p.load_fraction for p in sweep.points] == [0.0, 0.1, 0.2]
    errs = sweep.mean_errors()
    assert errs.shape == (3,)
    assert np.all(np.isfinite(errs))
    assert not any(p.diverged for p in sweep.points)
    # the learned table replayed without load must beat the unlearned trial
    assert errs[0] < result.summary.mean_abs_mm[0]


@pytest.mark.parametrize("shape", [(99, 2), (101, 2), (100, 3)])
def test_disturbance_sweep_rejects_a_table_before_parking(model, monkeypatch, shape):
    # a short table used to fail with a bare IndexError after the park
    parks = []
    monkeypatch.setattr(harness, "park_state", lambda *a, **k: parks.append(None))
    message = (f"drive table of shape {shape} is not one row of 2 drives per "
               "control tick (100)")
    pts = _one_second_points()
    result = _learned(pts, joint_path(model, pts), drives=np.full(shape, 0.5))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        disturbance_sweep(ONE_SECOND, result)
    assert parks == []


def test_disturbance_sweep_runs_at_the_tasks_rates(short_run, monkeypatch):
    # the task carries its dt and decimation, so a sweep config with other
    # rates parks and tracks as the learning run's own config does; a PID
    # period or a table check read from this config would differ
    cfg, result = short_run
    own = replace(cfg, sweep_fractions=(0.1,), settle_time=3.0)
    other = replace(own, dt=5e-4, control_decimation=40)
    real_park, park_dts = harness.park_state, []

    def recorded_park(model, q_target, dt, **kwargs):
        park_dts.append(dt)
        return real_park(model, q_target, dt, **kwargs)

    monkeypatch.setattr(harness, "park_state", recorded_park)
    rates = []
    sweep = disturbance_sweep(other, result, on_trial=lambda fi, rep, log: (
        rates.append((log.dt, log.decimation, log.time.shape[0]))))
    assert park_dts == [DT]
    assert rates == [(DT, 10, 3001)] * 2        # the replay, then the PID trial
    assert sweep.points == disturbance_sweep(own, result).points


def test_disturbance_sweep_parks_on_the_given_joint_path(model, monkeypatch):
    # the park target is task.joint_path[0], not a second IK solve
    pts = _one_second_points()
    result = _learned(pts, joint_path(model, pts), drives=np.full((100, 2), 0.5))

    def no_ik(*args):
        raise AssertionError("disturbance_sweep solved inverse kinematics")

    monkeypatch.setattr(harness, "joint_path", no_ik)
    sweep = disturbance_sweep(replace(ONE_SECOND, settle_time=3.0), result)
    assert not sweep.points[0].diverged


def test_disturbance_sweep_repetition_scatter(short_run):
    cfg, result = short_run
    noisy = replace(cfg, sweep_fractions=(0.0,), settle_time=3.0, repetitions=2,
                    disturbance=DisturbanceSpec(noise_amplitude=0.02,
                                                noise_frequency_hz=8.0))
    sweep = disturbance_sweep(noisy, result)
    assert sweep.points[0].std_between_reps_mm > 0.0


def test_disturbance_sweep_reports_each_loads_pid_trial(short_run):
    cfg, result = short_run
    seen = []
    sweep = disturbance_sweep(replace(cfg, sweep_fractions=(0.0, 0.2)), result,
                              on_trial=lambda fi, rep, log: seen.append(
                                  (fi, rep, log)))
    # each load's replays, then its PID trial, which on_trial sees as rep None
    assert [(fi, rep) for fi, rep, _ in seen] == [(0, 0), (0, None),
                                                  (1, 0), (1, None)]
    for point, (_, _, log) in zip(sweep.points, seen[1::2]):
        pid = compute_metrics(log)
        assert not pid.diverged
        assert (point.pid_mean_abs_mm, point.pid_diverged) == (pid.mean_abs_mm,
                                                               pid.diverged)


def test_disturbance_sweep_pid_at_load_zero_is_the_baseline(short_run):
    # the unloaded re-park lands on the learning run's own park, so the
    # study's load-0 PID trial is pid_baseline's, bit for bit
    cfg, result = short_run
    sweep = disturbance_sweep(replace(cfg, sweep_fractions=(0.0,)), result)
    baseline = compute_metrics(pid_baseline(cfg, result))
    assert sweep.points[0].pid_mean_abs_mm == baseline.mean_abs_mm


# ---------------------------------------------------------------------------
# PID stand-in
# ---------------------------------------------------------------------------

def test_pid_gain_validation():
    with pytest.raises(ValueError):
        PidGains(kp=-1.0)
    with pytest.raises(ValueError):
        PidGains(kd=math.inf)
    with pytest.raises(ValueError):
        PidGains(torque_scale=0.0)


def test_pid_defaults_are_tuned_benchmark_gains():
    g = PidGains()
    assert (g.kp, g.ki, g.kd, g.torque_scale) == (800.0, 10.0, 20.0, 6.0)


def test_pid_zero_gains_hold_rest_drive(model):
    pts = _one_second_points()
    cfg = replace(ONE_SECOND, pid=PidGains(kp=0.0, ki=0.0, kd=0.0))
    log = pid_baseline(cfg, _learned(pts, joint_path(model, pts),
                                     start_state=rest_state(model)))
    assert np.all(log.drives == 0.5)


def test_pid_tracks_better_than_rest(model):
    pts = generate_trajectory(TrajectorySpec(duration=2.0, cycles=1), DT)
    q_d = joint_path(model, pts)
    start, _ = park_state(model, q_d[0], DT, total_time=6.0)
    passive = compute_metrics(run_trial(model, _rest(200), Task(pts, q_d, DT, 10),
                                        **UNDISTURBED, start_state=start))
    cfg = ExperimentConfig(trajectory=TrajectorySpec(duration=2.0, cycles=1))
    active = compute_metrics(pid_baseline(cfg, _learned(pts, q_d,
                                                        start_state=start)))
    assert active.mean_abs_mm < passive.mean_abs_mm


# ---------------------------------------------------------------------------
# activation-to-force low-pass measurement
# ---------------------------------------------------------------------------

def test_lowpass_attenuates_high_frequency():
    rig = planar2x4(muscle_overrides={"eps0_t": 0.02,
                                      "l_slack_tendon": 0.015})
    low, high = lowpass_attenuation_test(rig)
    assert low.frequency_hz == 1.0 and high.frequency_hz == 50.0
    gap_db = low.measured_db - high.measured_db
    assert gap_db >= 10.0
    assert abs(high.measured_db - high.activation_oracle_db) <= 3.0
    assert high.force_amplitude_n < low.force_amplitude_n
