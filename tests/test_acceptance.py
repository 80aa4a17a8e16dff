"""Acceptance suite: ten pinned criteria, one test (one pass/fail line) each.

Run with ``pytest tests/test_acceptance.py -v`` to get exactly one
PASSED/FAILED line per criterion; add ``-s`` (or ``-rA``) to see each
criterion's measured numbers and runtime against its budget. The
50-iteration benchmark learning run is computed once in a module fixture
and shared by the three criteria that examine it (convergence, disturbance
robustness, baseline comparison).
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from myoarm.arm import (
    ArmModel,
    LinkParams,
    MuscleRoute,
    forward_dynamics,
    forward_kinematics,
    moment_arm_matrix,
    muscle_lengths,
    task_jacobian,
    total_energy,
)
from myoarm.cli import main
from myoarm.control import DdilcParams, PjmEstimate, estimate_pjm
from myoarm.harness import (
    benchmark_ilc_config,
    compute_metrics,
    disturbance_sweep,
    lowpass_attenuation_test,
    pid_baseline,
    run_ilc,
)
from myoarm.muscle import (
    MuscleParams,
    active_force_length,
    force_velocity,
    inverse_force_velocity,
    passive_force_length,
    tendon_force,
)
from myoarm.presets import planar2x4


@pytest.fixture(scope="module")
def benchmark_run():
    """The shipped benchmark: planar2x4, 8 s sine chord, 50 iterations."""
    t0 = time.perf_counter()
    result = run_ilc(benchmark_ilc_config())
    return result, time.perf_counter() - t0


def _rk4_passive(arm, q, qd, dt, n_steps):
    tau = np.zeros(arm.n_joints)
    qs = [q.copy()]
    for _ in range(n_steps):
        k1v = forward_dynamics(arm, q, qd, tau)
        k1x = qd
        k2v = forward_dynamics(arm, q + 0.5 * dt * k1x, qd + 0.5 * dt * k1v, tau)
        k2x = qd + 0.5 * dt * k1v
        k3v = forward_dynamics(arm, q + 0.5 * dt * k2x, qd + 0.5 * dt * k2v, tau)
        k3x = qd + 0.5 * dt * k2v
        k4v = forward_dynamics(arm, q + dt * k3x, qd + dt * k3v, tau)
        k4x = qd + dt * k3v
        q = q + (dt / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        qd = qd + (dt / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        qs.append(q.copy())
    return np.array(qs), qd


def test_criterion_01_muscle_curve_anchors():
    start = time.perf_counter()
    p = MuscleParams()
    assert active_force_length(1.0, p.gamma) == pytest.approx(1.0, abs=1e-9)
    assert passive_force_length(1.0, p.k_pe, p.eps0_m) == pytest.approx(
        0.0, abs=1e-9)
    assert passive_force_length(1.0 + p.eps0_m, p.k_pe, p.eps0_m) == \
        pytest.approx(1.0, abs=1e-9)
    assert tendon_force(0.0, p) == pytest.approx(0.0, abs=1e-9)
    assert tendon_force(p.eps_toe, p) == pytest.approx(0.33, abs=1e-9)
    h = 1e-9
    fwd = (tendon_force(p.eps_toe + h, p) - tendon_force(p.eps_toe, p)) / h
    bwd = (tendon_force(p.eps_toe, p) - tendon_force(p.eps_toe - h, p)) / h
    assert abs(fwd - bwd) / abs(bwd) < 1e-6
    elapsed = time.perf_counter() - start
    print(f"criterion 1: anchors exact, toe slopes {bwd:.6f}/{fwd:.6f} "
          f"(rel diff {abs(fwd - bwd) / abs(bwd):.2e} < 1e-6), "
          f"{elapsed:.2f} s < 1 s")
    assert elapsed < 1.0


def test_criterion_02_force_velocity_sanity():
    start = time.perf_counter()
    fv0 = force_velocity(0.0)
    assert 0.98 <= fv0 <= 1.05
    # mathematically strictly increasing on [-1, 0.99]; float64 saturates the
    # curve to exactly 1.6 above v ~ 0.54, so strictness is checked below
    # that and ties are tolerated only in the saturated tail
    full = [force_velocity(v) for v in np.linspace(-1.0, 0.99, 2000)]
    assert all(b >= a for a, b in zip(full, full[1:]))
    lower = [force_velocity(v) for v in np.linspace(-1.0, 0.5, 1500)]
    assert all(b > a for a, b in zip(lower, lower[1:]))
    worst = 0.0
    for v in np.linspace(-0.95, 0.5, 500):
        worst = max(worst, abs(inverse_force_velocity(force_velocity(v)) - v))
    assert worst < 1e-8
    elapsed = time.perf_counter() - start
    print(f"criterion 2: fv(0)={fv0:.4f} in [0.98, 1.05], monotone on "
          f"[-1, 0.99] (strict below saturation), inverse round-trip "
          f"{worst:.2e} < 1e-8, {elapsed:.2f} s < 1 s")
    assert elapsed < 1.0


def test_criterion_03_kinematics_match_finite_differences():
    start = time.perf_counter()
    model = planar2x4()
    rng = np.random.default_rng(7)
    eps = 1e-6
    worst_l, worst_j = 0.0, 0.0
    for _ in range(100):
        q = rng.uniform(-2.9, 2.9, size=model.n_joints)
        arm_matrix = moment_arm_matrix(model, q)
        jac = task_jacobian(model, q)
        for j in range(model.n_joints):
            dq = np.zeros(model.n_joints)
            dq[j] = eps
            fd_l = (muscle_lengths(model, q + dq)
                    - muscle_lengths(model, q - dq)) / (2 * eps)
            worst_l = max(worst_l, float(np.max(np.abs(arm_matrix[:, j] + fd_l))))
            fd_k = (forward_kinematics(model, q + dq)
                    - forward_kinematics(model, q - dq)) / (2 * eps)
            worst_j = max(worst_j, float(np.max(np.abs(jac[:, j] - fd_k))))
    assert worst_l < 1e-6
    assert worst_j < 1e-6
    elapsed = time.perf_counter() - start
    print(f"criterion 3: 100 postures, moment-arm dev {worst_l:.2e} < 1e-6, "
          f"Jacobian dev {worst_j:.2e} < 1e-6, {elapsed:.2f} s < 5 s")
    assert elapsed < 5.0


def test_criterion_04_dynamics_oracles():
    ellipj = pytest.importorskip("scipy.special").ellipj
    ellipk = pytest.importorskip("scipy.special").ellipk
    start = time.perf_counter()

    def pair_routes(n):
        return [MuscleRoute(joint=j, moment_arm=0.02, sign=s, l_ref=0.15)
                for j in range(n) for s in (+1, -1)]

    # (a) near-massless second link reduces to a large-angle pendulum, whose
    # exact trajectory is the Jacobi elliptic solution
    g = 9.81
    m1, length1 = 1.2, 0.35
    com1, inertia1 = 0.5 * length1, m1 * length1 ** 2 / 12.0
    pend = ArmModel(
        links=[LinkParams(length=length1, mass=m1, com=com1, inertia=inertia1),
               LinkParams(length=0.2, mass=1e-9, com=0.1, inertia=1e-11)],
        joint_limits=[(-30.0, 30.0)] * 2,
        routing=pair_routes(2),
        muscles=[MuscleParams() for _ in range(4)],
        gravity=(0.0, -g))
    theta0 = 1.0
    dt = 1e-3
    qs, _ = _rk4_passive(pend, np.array([theta0 - math.pi / 2.0, 0.0]),
                         np.zeros(2), dt, 5000)
    ts = np.arange(0, 5001, 100) * dt
    w0 = math.sqrt(m1 * g * com1 / (inertia1 + m1 * com1 ** 2))
    k = math.sin(theta0 / 2.0)
    sn = ellipj(ellipk(k * k) - w0 * ts, k * k)[0]
    theta_exact = 2.0 * np.arcsin(k * sn)
    pend_dev = float(np.max(np.abs(qs[::100, 0] + math.pi / 2.0 - theta_exact)))
    assert pend_dev < 1e-4

    # (b) unforced frictionless two-link chain conserves energy over 10 s
    chain = ArmModel(
        links=[LinkParams(length=0.38, mass=1.0, com=0.171, inertia=1.0 * 0.38 ** 2 / 12),
               LinkParams(length=0.34, mass=1.2, com=0.153, inertia=1.2 * 0.34 ** 2 / 12)],
        joint_limits=[(-30.0, 30.0)] * 2,
        routing=pair_routes(2),
        muscles=[MuscleParams() for _ in range(4)],
        gravity=(0.0, -9.81))
    q = np.array([0.6, 0.9])
    qd = np.array([1.5, -1.0])
    e0 = total_energy(chain, q, qd)
    qs, qd_end = _rk4_passive(chain, q, qd, dt, 10000)
    drift = abs(total_energy(chain, qs[-1], qd_end) - e0) / abs(e0)
    assert drift < 1e-5
    elapsed = time.perf_counter() - start
    print(f"criterion 4: pendulum dev {pend_dev:.2e} rad < 1e-4 over 5 s, "
          f"energy drift {drift:.2e} < 1e-5 over 10 s, {elapsed:.1f} s < 10 s")
    assert elapsed < 10.0


def test_criterion_05_estimator_converges_on_scalar_plant():
    start = time.perf_counter()
    params = DdilcParams(diag_floor=1.0, diag_span=2.0)
    gain_true = 1.5                      # inside the [1.0, 2.0] element box
    est = PjmEstimate(np.array([[1.0]]), np.array([[1.0]]))
    rng = np.random.default_rng(0)
    converged_at = None
    for step in range(1, 201):
        du = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
        est = estimate_pjm(est, np.array([gain_true * du]), np.array([du]),
                           params)
        if converged_at is None and \
                abs(est.phi_hat[0, 0] - gain_true) / gain_true <= 0.05:
            converged_at = step
    assert converged_at is not None
    assert abs(est.phi_hat[0, 0] - gain_true) / gain_true <= 0.05
    elapsed = time.perf_counter() - start
    print(f"criterion 5: phi_hat={est.phi_hat[0, 0]:.4f} vs {gain_true} "
          f"(within 5% after {converged_at} <= 200 excited steps), "
          f"{elapsed:.2f} s < 1 s")
    assert elapsed < 1.0


def test_criterion_06_ilc_convergence(benchmark_run):
    result, elapsed = benchmark_run
    curve = result.summary.mean_abs_mm
    assert len(curve) == 50
    assert all(math.isfinite(v) for v in curve)
    assert not any(result.summary.diverged)
    final, first = curve[-1], curve[0]
    amplitude_mm = 1e3 * benchmark_ilc_config().trajectory.amplitude
    assert final <= 0.20 * first
    assert final <= 0.01 * amplitude_mm
    violations = [k for k in range(10, 49) if curve[k + 1] > 1.05 * curve[k]]
    assert violations == []
    print(f"criterion 6: final {final:.3f} mm (<= {0.20 * first:.1f} mm = 20% "
          f"of iter-1 {first:.1f} mm; <= {0.01 * amplitude_mm:.1f} mm = 1% of "
          f"amplitude), no >5% rise after iteration 10, {elapsed:.0f} s < 120 s")
    assert elapsed < 120.0


def test_criterion_07_disturbance_robustness(benchmark_run):
    result, _ = benchmark_run
    cfg = benchmark_ilc_config()
    start = time.perf_counter()
    fractions = (0.0, 0.05, 0.10, 0.15, 0.20)
    sweep = disturbance_sweep(replace(cfg, sweep_fractions=fractions), result)
    errs = sweep.mean_errors()
    assert not any(p.diverged for p in sweep.points)
    assert float(errs.max()) <= 3.0 * float(errs[0])
    assert all(b >= a - 1e-9 for a, b in zip(errs, errs[1:]))
    elapsed = time.perf_counter() - start
    print(f"criterion 7: replay errors {np.round(errs, 3)} mm over loads "
          f"{fractions}, max {errs.max():.3f} <= 3x unloaded "
          f"{errs[0]:.3f} mm, monotone, no divergence, "
          f"{elapsed:.0f} s < 120 s")
    assert elapsed < 120.0


def test_criterion_08_beats_tuned_pid_baseline(benchmark_run):
    result, _ = benchmark_run
    cfg = benchmark_ilc_config()
    start = time.perf_counter()
    pid_log = pid_baseline(cfg, result)
    pid_mm = compute_metrics(pid_log).mean_abs_mm
    ddilc_mm = result.summary.mean_abs_mm[-1]
    assert ddilc_mm <= 0.50 * pid_mm
    elapsed = time.perf_counter() - start
    print(f"criterion 8: learning {ddilc_mm:.3f} mm vs tuned PID "
          f"{pid_mm:.3f} mm ({100 * ddilc_mm / pid_mm:.1f}% <= 50%), "
          f"{elapsed:.0f} s < 120 s")
    assert elapsed < 120.0


def test_criterion_09_lowpass_property():
    start = time.perf_counter()
    # short stiff tendon so the series tendon does not add attenuation of its
    # own beyond the first-order activation dynamics being measured
    rig = planar2x4(muscle_overrides={"eps0_t": 0.02,
                                      "l_slack_tendon": 0.015})
    low, high = lowpass_attenuation_test(rig)
    gap = low.measured_db - high.measured_db
    dev_low = abs(low.measured_db - low.activation_oracle_db)
    dev_high = abs(high.measured_db - high.activation_oracle_db)
    assert gap >= 10.0
    assert dev_low <= 3.0
    assert dev_high <= 3.0
    elapsed = time.perf_counter() - start
    print(f"criterion 9: 1 Hz {low.measured_db:.2f} dB vs 50 Hz "
          f"{high.measured_db:.2f} dB (gap {gap:.1f} >= 10 dB); first-order "
          f"oracle within {max(dev_low, dev_high):.2f} dB <= 3 dB, "
          f"{elapsed:.0f} s < 30 s")
    assert elapsed < 30.0


def test_criterion_10_byte_identical_artifacts(tmp_path):
    start = time.perf_counter()
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[experiment]\niterations = 2\nseed = 3\nsettle_time = 3\n"
                   "probe_hold = 1\n\n[trajectory]\nduration = 1.0\n"
                   "cycles = 1\n", encoding="utf-8")
    out = tmp_path / "runs"
    argv = ["ilc", "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 0
    files = sorted(p for p in (out / "ilc").rglob("*") if p.is_file())
    first = {p: p.read_bytes() for p in files}
    assert main(argv) == 0
    assert {p: p.read_bytes() for p in files} == first
    summary = json.loads((out / "ilc" / "run_summary.json").read_text())
    elapsed = time.perf_counter() - start
    print(f"criterion 10: two runs, {len(files)} artifacts byte-identical "
          f"(final {summary['final_mean_abs_mm']:.1f} mm), "
          f"{elapsed:.0f} s < 60 s")
    assert elapsed < 60.0
