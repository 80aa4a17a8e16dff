"""Harness tests: frozen trajectory samples, inverse-kinematics round trips,
trial determinism and divergence capture, metric arithmetic, parking and
probing, a short end-to-end learning run, the disturbance sweep, the PID
stand-in, and the muscle low-pass measurement.
"""

import math
import re
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from myoarm import harness, muscle
from myoarm.arm import (
    ArmModel,
    IntegrationDivergedError,
    forward_kinematics,
    muscle_lengths,
    rest_state,
    tip_path,
)
from myoarm.control import DdilcController
from myoarm.harness import (
    DisturbanceSpec,
    IlcConfig,
    PidGains,
    ReplayController,
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
from myoarm.presets import planar2x4

DT = 1e-3


@pytest.fixture(scope="module")
def model():
    return planar2x4()


@pytest.fixture(scope="module")
def short_run(model):
    """A short learning run shared by the convergence, sweep, and export tests."""
    cfg = IlcConfig(model=model,
                    trajectory=TrajectorySpec(duration=3.0, cycles=1),
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
    spec = TrajectorySpec(duration=2.0, cycles=1, direction=(3.0, 3.0))
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
        TrajectorySpec(direction=(0.0, 0.0))
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


def test_run_trial_decimation_must_divide(model):
    pts = _one_second_points()[:11]          # 10 ticks
    start = rest_state(model)
    with pytest.raises(ValueError):
        run_trial(model, _rest(100), pts, DT, start_state=start,
                  decimation=3)
    with pytest.raises(ValueError):
        run_trial(model, _rest(100), pts[:1], DT, start_state=start)


def test_run_trial_shapes_and_rest_drive(model):
    pts = _one_second_points()
    log = run_trial(model, _rest(100), pts, DT,
                    start_state=rest_state(model), decimation=10)
    assert log.tip.shape == (1001, 2)
    assert log.q.shape == (1001, model.n_joints)
    assert log.qdot.shape == (1001, model.n_joints)
    assert log.drives.shape == (100, model.n_joints)
    assert np.all(log.drives == 0.5)
    assert log.excitations.shape == (1000, model.n_muscles)
    assert log.tendon_forces.shape == (1000, model.n_muscles)
    assert log.time[-1] == pytest.approx(1.0)
    assert not log.diverged and log.diverged_at is None


def test_run_trial_deterministic_under_noise(model):
    pts = _one_second_points()
    dist = DisturbanceSpec(noise_amplitude=0.05, noise_frequency_hz=8.0)
    start = rest_state(model)
    kw = dict(disturbance=dist, seed=[1, 2], start_state=start, decimation=10)
    a = run_trial(model, _rest(100), pts, DT, **kw)
    b = run_trial(model, _rest(100), pts, DT, **kw)
    assert np.array_equal(a.tip, b.tip)
    assert np.array_equal(a.excitations, b.excitations)
    assert np.array_equal(a.tendon_forces, b.tendon_forces)


def test_run_trial_seed_and_noise_change_excitations(model):
    pts = _one_second_points()
    dist = DisturbanceSpec(noise_amplitude=0.05, noise_frequency_hz=8.0)
    start = rest_state(model)
    a = run_trial(model, _rest(100), pts, DT, disturbance=dist,
                  seed=[1, 2], start_state=start, decimation=10)
    c = run_trial(model, _rest(100), pts, DT, disturbance=dist,
                  seed=[9, 9], start_state=start, decimation=10)
    clean = run_trial(model, _rest(100), pts, DT, seed=[1, 2],
                      start_state=start, decimation=10)
    assert not np.array_equal(a.excitations, c.excitations)
    assert not np.array_equal(a.excitations, clean.excitations)
    # excitation noise is clipped to [0, 1] like any drive
    assert np.all(a.excitations >= 0.0) and np.all(a.excitations <= 1.0)


def test_run_trial_tip_load_changes_motion(model):
    pts = _one_second_points()
    start = rest_state(model, joint_path(model, pts[:1])[0])
    plain = run_trial(model, _rest(100), pts, DT, decimation=10,
                      start_state=start)
    loaded = run_trial(model, _rest(100), pts, DT, decimation=10,
                       start_state=start,
                       disturbance=DisturbanceSpec(load_fraction=0.2))
    assert not loaded.diverged
    assert not np.allclose(plain.tip[-1], loaded.tip[-1], atol=1e-6)
    # no load and no noise amplitude is no disturbance, bit for bit
    inert = run_trial(model, _rest(100), pts, DT, decimation=10,
                      start_state=start,
                      disturbance=DisturbanceSpec(noise_frequency_hz=8.0))
    for f in fields(TrialLog):
        np.testing.assert_array_equal(getattr(inert, f.name), getattr(plain, f.name))


def test_run_trial_records_divergence(model):
    pts = _one_second_points()
    poisoned = rest_state(model)
    poisoned.qdot = np.full(model.n_joints, np.nan)
    log = run_trial(model, _rest(100), pts, DT, start_state=poisoned,
                    decimation=10)
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
    monkeypatch.setattr(muscle, "inverse_force_velocity", lambda fv: math.inf)
    log = run_trial(model, _rest(100), _one_second_points(), DT,
                    start_state=rest_state(model), decimation=10)
    assert log.diverged and log.diverged_at == 0
    assert "l_fiber_norm of muscle 0" in log.diverged_reason


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
    with pytest.raises(ValueError, match=r"^control tick 7: drive 1 is nan$"):
        run_trial(model, ReplayController(table), _one_second_points(), DT,
                  start_state=rest_state(model), decimation=10)
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
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_trial(model, ReplayController(np.full((100, *shape), 0.5)),
                  _one_second_points(), DT, start_state=rest_state(model),
                  decimation=10)
    assert ticks == []


def test_run_trial_clips_finite_drives(model):
    table = np.full((100, model.n_joints), 0.5)
    table[3] = (-0.2, 1.7)
    log = run_trial(model, ReplayController(table), _one_second_points(), DT,
                    start_state=rest_state(model), decimation=10)
    assert log.drives[3].tolist() == [0.0, 1.0]
    assert log.drives[4].tolist() == [0.5, 0.5]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _stub_log(tip, desired, muscle=None, muscle_desired=None):
    n = tip.shape[0]
    return TrialLog(dt=DT, decimation=1, time=np.arange(n) * DT, tip=tip,
                    tip_desired=desired, q=np.zeros((n, 2)),
                    qdot=np.zeros((n, 2)),
                    drives=np.zeros((n - 1, 2)),
                    excitations=np.zeros((n - 1, 4)),
                    tendon_forces=np.zeros((n - 1, 4)),
                    muscle_lengths=np.zeros((n, 4)) if muscle is None else muscle,
                    muscle_lengths_desired=muscle_desired)


def test_compute_metrics_hand_values():
    # tip errors of exactly 3 mm then 4 mm
    tip = np.array([[0.003, 0.0], [0.0, 0.004]])
    m = compute_metrics(_stub_log(tip, np.zeros((2, 2))))
    assert m.mean_abs_mm == pytest.approx(3.5, abs=1e-12)
    assert m.mse_mm2 == pytest.approx(12.5, abs=1e-12)
    assert m.std_mm == pytest.approx(0.5, abs=1e-12)
    assert m.muscle_len_mean_abs_mm is None
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
    state, u_hold = park_state(model, q_target, DT)
    assert u_hold.shape == (model.n_joints,)
    assert np.all(u_hold >= 0.0) and np.all(u_hold <= 1.0)
    residual_mm = math.hypot(*(forward_kinematics(model, state.q) - pts[0])) * 1e3
    assert residual_mm < 10.0
    assert np.max(np.abs(state.qdot)) < 0.05


def test_park_divergence_names_the_tick(model, monkeypatch):
    # a 3 s park is two 1 s servo rounds and a 2 s hold; call 1501 is tick 1500
    real, calls = harness.integrate_step, []

    def diverge_on_1501st_call(*args):
        calls.append(args)
        if len(calls) == 1501:
            raise IntegrationDivergedError("injected", args[1])
        return real(*args)

    monkeypatch.setattr(harness, "integrate_step", diverge_on_1501st_call)
    with pytest.raises(IntegrationDivergedError,
                       match=r"^park diverged at tick 1500: injected$") as err:
        park_state(model, np.asarray(model.q_ref), DT, total_time=3.0)
    assert err.value.last_state is calls[-1][1]


def test_park_state_needs_time(model):
    with pytest.raises(ValueError):
        park_state(model, np.asarray(model.q_ref), DT, total_time=2.0)


def test_probe_validation(model):
    state = rest_state(model)
    with pytest.raises(ValueError):
        probe_sensitivity(model, state, DT, delta=0.0, hold_time=0.2)
    with pytest.raises(ValueError):
        probe_sensitivity(model, state, DT, delta=0.6, hold_time=0.2)
    with pytest.raises(ValueError):
        probe_sensitivity(model, state, DT, hold_time=0.2, rest=1.5)
    # a NaN rest drive used to pass and fail inside the muscle
    with pytest.raises(ValueError, match=r"^probe rest drives must lie in \[0, 1\]$"):
        probe_sensitivity(model, state, DT, hold_time=0.2, rest=[np.nan, 0.5])


def test_probe_steps_down_from_saturated_rest(model):
    state, _ = park_state(model, np.asarray(model.q_ref), DT, total_time=3.0)
    probe = probe_sensitivity(model, state, DT, hold_time=0.5,
                              rest=np.array([1.0, 0.1]))
    assert np.all(np.isfinite(probe.sensitivity))


def test_probe_deterministic_and_sane(model):
    state, _ = park_state(model, np.asarray(model.q_ref), DT, total_time=3.0)
    a = probe_sensitivity(model, state, DT, hold_time=2.0)
    b = probe_sensitivity(model, state, DT, hold_time=2.0)
    assert np.array_equal(a.sensitivity, b.sensitivity)
    assert np.array_equal(a.response_time_s, b.response_time_s)
    assert a.sensitivity.shape == (2, model.n_joints)
    # every drive channel moves the tip by at least millimeters per unit drive
    assert np.all(np.hypot(*a.sensitivity) > 1e-3)
    assert np.all(a.response_time_s >= 0.0)
    assert a.lag_s == pytest.approx(float(np.median(a.response_time_s)))


def test_probe_divergence_names_the_hold_and_tick(model, monkeypatch):
    state = rest_state(model)
    with monkeypatch.context() as patch:
        patch.setattr(muscle, "inverse_force_velocity", lambda fv: math.inf)
        with pytest.raises(IntegrationDivergedError, match=(
                r"^probe hold rest diverged at tick 0: "
                r"non-finite l_fiber_norm of muscle 0$")) as err:
            probe_sensitivity(model, state, DT, hold_time=0.2)
    assert np.array_equal(err.value.last_state.q, state.q)

    # 0.2 s holds: call 201 is channel 0's first tick, so call 203 is tick 2
    real, calls = harness.integrate_step, []

    def diverge_on_203rd_call(*args):
        calls.append(args)
        if len(calls) == 203:
            raise IntegrationDivergedError("injected", args[1])
        return real(*args)

    monkeypatch.setattr(harness, "integrate_step", diverge_on_203rd_call)
    with pytest.raises(IntegrationDivergedError,
                       match=r"^probe hold channel 0 diverged at tick 2: "
                             r"injected$") as err:
        probe_sensitivity(model, state, DT, hold_time=0.2)
    assert err.value.last_state is calls[-1][1]


# ---------------------------------------------------------------------------
# the learning loop
# ---------------------------------------------------------------------------

def test_ilc_config_validation(model):
    traj = TrajectorySpec(duration=1.0)
    with pytest.raises(ValueError):
        IlcConfig(model=model, trajectory=traj, iterations=0)
    with pytest.raises(ValueError):
        IlcConfig(model=model, trajectory=traj, dt=0.0)
    with pytest.raises(ValueError):
        IlcConfig(model=model, trajectory=traj, control_decimation=0)
    with pytest.raises(ValueError):
        IlcConfig(model=model, trajectory=traj, divergence_patience=0)


def test_run_ilc_rejects_decimation_before_parking(model, monkeypatch):
    def no_park(*args, **kwargs):
        raise AssertionError("park_state ran before the decimation check")

    monkeypatch.setattr(harness, "park_state", no_park)
    cfg = IlcConfig(model=model, trajectory=TrajectorySpec(duration=1.0),
                    control_decimation=3)
    with pytest.raises(ValueError, match="control_decimation"):
        run_ilc(cfg)


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
    assert np.all(result.feedforward_drives >= cfg.controller.u_min)
    assert np.all(result.feedforward_drives <= cfg.controller.u_max)
    assert isinstance(result.controller, DdilcController)
    assert result.final_log.tip.shape[0] == result.points.shape[0]


def test_run_ilc_deterministic(model, short_run):
    cfg, first = short_run
    again = run_ilc(cfg)
    assert again.summary.mean_abs_mm == first.summary.mean_abs_mm
    assert again.summary.mse_mm2 == first.summary.mse_mm2
    assert np.array_equal(again.feedforward_drives, first.feedforward_drives)
    assert np.array_equal(again.sensitivity, first.sensitivity)


def test_run_ilc_callback_sees_every_iteration(model):
    cfg = IlcConfig(model=model,
                    trajectory=TrajectorySpec(duration=1.0, cycles=1),
                    iterations=2, dt=DT, control_decimation=10, seed=0,
                    settle_time=3.0, probe_hold=1.0)
    seen = []
    run_ilc(cfg, on_iteration=lambda k, log, metrics, ctrl: seen.append(
        (k, metrics.mean_abs_mm)))
    assert [k for k, _ in seen] == [0, 1]
    assert all(np.isfinite(v) for _, v in seen)


@pytest.mark.parametrize("tick", [0, 37])
def test_run_ilc_summary_records_divergence(model, diverge_in_trial, tick):
    diverge_in_trial(1, tick)
    cfg = IlcConfig(model=model,
                    trajectory=TrajectorySpec(duration=1.0, cycles=1),
                    iterations=3, dt=DT, control_decimation=10, seed=0,
                    settle_time=3.0, probe_hold=1.0)
    s = run_ilc(cfg).summary
    assert s.diverged == [False, True, False]
    assert s.diverged_at == [None, tick, None]
    assert s.diverged_reason == [None, "injected", None]


def test_benchmark_config_defaults(model):
    cfg = benchmark_ilc_config()
    assert cfg.trajectory.duration == 8.0
    assert cfg.iterations == 50
    assert cfg.dt == DT
    assert cfg.control_decimation == 10
    assert cfg.model.n_joints == 2
    assert benchmark_ilc_config(model, iterations=3).iterations == 3


# ---------------------------------------------------------------------------
# disturbance sweep
# ---------------------------------------------------------------------------

def test_disturbance_sweep_points(model, short_run):
    cfg, result = short_run
    sweep = disturbance_sweep(model, result.feedforward_drives, result.points,
                              cfg.dt, [0.0, 0.1, 0.2], decimation=10,
                              settle_time=6.0,
                              desired_joint_path=result.desired_joint_path)
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
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        disturbance_sweep(model, np.full(shape, 0.5), _one_second_points(), DT,
                          [0.0], decimation=10)
    assert parks == []


def test_disturbance_sweep_rejects_a_decimation_before_parking(model, monkeypatch):
    # a 1 s chord has 1000 ticks, which 3 does not divide; the (333, 2) table
    # matched the shape check, so the sweep used to park before run_trial
    # raised
    def no_park(*args, **kwargs):
        raise AssertionError("park_state ran before the decimation check")

    monkeypatch.setattr(harness, "park_state", no_park)
    with pytest.raises(ValueError, match="^decimation 3 must divide the 1000 "
                                         "trajectory ticks$"):
        disturbance_sweep(model, np.full((333, 2), 0.5), _one_second_points(), DT,
                          [0.0], decimation=3)


def test_disturbance_sweep_repetition_scatter(model, short_run):
    cfg, result = short_run
    sweep = disturbance_sweep(model, result.feedforward_drives, result.points,
                              cfg.dt, [0.0], decimation=10, settle_time=3.0,
                              repetitions=2,
                              disturbance=DisturbanceSpec(
                                  noise_amplitude=0.02, noise_frequency_hz=8.0))
    assert sweep.points[0].std_between_reps_mm > 0.0


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
    log = pid_baseline(model, pts, DT, PidGains(kp=0.0, ki=0.0, kd=0.0),
                       start_state=rest_state(model), decimation=10)
    assert np.all(log.drives == 0.5)


def test_pid_tracks_better_than_rest(model):
    pts = generate_trajectory(TrajectorySpec(duration=2.0, cycles=1), DT)
    start, _ = park_state(model, joint_path(model, pts[:1])[0], DT,
                          total_time=6.0)
    passive = compute_metrics(run_trial(model, _rest(200), pts, DT,
                                        start_state=start, decimation=10))
    active = compute_metrics(pid_baseline(model, pts, DT, PidGains(),
                                          start_state=start, decimation=10))
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
