"""Arm kinematics, routing, and rigid-body dynamics tests.

Oracles: hand-evaluated chain positions, central finite differences for the
Jacobian and moment-arm matrix, the textbook closed-form two-link equations
of motion, the elliptic-function solution of the large-angle pendulum,
long-horizon energy conservation, and, on random chains, the kinetic energy
and power balance computed from `total_energy` alone and a dense solve with
the composite-inertia mass matrix.
"""

import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from myoarm import arm as arm_module
from myoarm import muscle
from myoarm.arm import (
    ArmModel,
    ArmState,
    IntegrationDivergedError,
    LinkParams,
    MuscleRoute,
    _chain as _joint_chain,
    _pinv_solve,
    bias_forces,
    forward_dynamics,
    forward_kinematics,
    integrate_step,
    mass_matrix,
    moment_arm_matrix,
    muscle_lengths,
    rest_state,
    task_jacobian,
    total_energy,
)
from myoarm.harness import DisturbanceSpec, loaded_plant
from myoarm.muscle import MuscleParams, MuscleState, step_muscle
from myoarm.presets import make_arm, planar2x4, spatial_ltdm


def _pair_routing(n_joints, r=0.02, l_ref=0.15):
    routes = []
    for j in range(n_joints):
        routes.append(MuscleRoute(joint=j, moment_arm=r, sign=+1, l_ref=l_ref))
        routes.append(MuscleRoute(joint=j, moment_arm=r, sign=-1, l_ref=l_ref))
    return routes


def _chain(n_joints, lengths=None, gravity=(0.0, 0.0), friction=0.0, tip_mass=0.0,
           limits=None):
    """Generic n-joint test arm with one antagonist pair per joint."""
    if lengths is None:
        lengths = [0.3] * n_joints
    links = [LinkParams(length=L, mass=1.0 + 0.2 * i, com=0.45 * L,
                        inertia=(1.0 + 0.2 * i) * L * L / 12.0)
             for i, L in enumerate(lengths)]
    routes = _pair_routing(n_joints)
    return ArmModel(
        links=links,
        joint_limits=limits or [(-3.0, 3.0)] * n_joints,
        routing=routes,
        muscles=[MuscleParams() for _ in routes],
        gravity=gravity,
        viscous_friction=friction,
        tip_mass=tip_mass,
    )


# ---------------------------------------------------------------------------
# forward kinematics and Jacobian
# ---------------------------------------------------------------------------

def test_fk_straight_arm_sums_lengths():
    arm = _chain(2, lengths=[0.38, 0.34])
    tip = forward_kinematics(arm, np.array([0.0, 0.0]))
    assert tip == pytest.approx([0.72, 0.0], abs=1e-12)


def test_fk_rigid_rotation():
    arm = _chain(2, lengths=[0.38, 0.34])
    tip = forward_kinematics(arm, np.array([math.pi / 2, 0.0]))
    assert tip == pytest.approx([0.0, 0.72], abs=1e-12)


def test_fk_bent_elbow():
    # first link straight up, second folded back: (0 - 0.34, 0.38 + 0)
    arm = _chain(2, lengths=[0.38, 0.34])
    tip = forward_kinematics(arm, np.array([math.pi / 2, math.pi / 2]))
    assert tip == pytest.approx([-0.34, 0.38], abs=1e-12)


def test_joint_positions_chain():
    arm = _chain(2, lengths=[0.38, 0.34])
    q = np.array([math.pi / 2, math.pi / 2])
    pts = _joint_chain(arm, q)
    assert pts[0] == pytest.approx((0.0, 0.0))
    assert pts[1] == pytest.approx((0.0, 0.38), abs=1e-12)
    assert pts[2] == pytest.approx((-0.34, 0.38), abs=1e-12)
    assert forward_kinematics(arm, q).tolist() == list(pts[2])
    assert forward_kinematics(arm, q[:1]).tolist() == list(pts[1])


def test_jacobian_straight_arm():
    arm = _chain(2, lengths=[0.38, 0.34])
    J = task_jacobian(arm, np.array([0.0, 0.0]))
    assert J == pytest.approx(np.array([[0.0, 0.0], [0.72, 0.34]]), abs=1e-12)


def test_jacobian_matches_finite_differences():
    arm = _chain(3, lengths=[0.3, 0.25, 0.2])
    rng = np.random.default_rng(7)
    eps = 1e-6
    for _ in range(100):
        q = rng.uniform(-2.0, 2.0, size=3)
        J = task_jacobian(arm, q)
        for j in range(3):
            dq = np.zeros(3)
            dq[j] = eps
            fd = (forward_kinematics(arm, q + dq) - forward_kinematics(arm, q - dq)) / (2 * eps)
            assert np.max(np.abs(J[:, j] - fd)) < 1e-6


# ---------------------------------------------------------------------------
# muscle routing
# ---------------------------------------------------------------------------

def test_muscle_lengths_at_reference():
    arm = planar2x4()
    l = muscle_lengths(arm, np.array(arm.q_ref))
    assert l == pytest.approx([0.15, 0.15, 0.15, 0.15], abs=1e-15)


def test_flexor_shortens_antagonist_lengthens():
    arm = planar2x4()
    q = np.array(arm.q_ref)
    q[0] += 0.5
    l = muscle_lengths(arm, q)
    # positive-sign muscle on joint 0 shortens by its moment arm times dq
    r = arm.routing[0].moment_arm
    assert l[0] - 0.15 == pytest.approx(-r * 0.5, abs=1e-15)
    assert l[1] - 0.15 == pytest.approx(+r * 0.5, abs=1e-15)
    assert l[2] == pytest.approx(0.15)
    assert l[3] == pytest.approx(0.15)


def test_moment_arm_matrix_structure():
    arm = planar2x4()
    L = moment_arm_matrix(arm, np.array(arm.q_ref))
    assert L.shape == (4, 2)
    for row in L:
        assert np.count_nonzero(row) == 1
    r = arm.routing[0].moment_arm
    assert L[0, 0] == pytest.approx(r)
    assert L[1, 0] == pytest.approx(-r)


def test_moment_arm_matrix_is_minus_length_gradient():
    arm = planar2x4()
    rng = np.random.default_rng(11)
    eps = 1e-6
    for _ in range(100):
        q = np.array(arm.q_ref) + rng.uniform(-1.0, 1.0, size=2)
        L = moment_arm_matrix(arm, q)
        for j in range(2):
            dq = np.zeros(2)
            dq[j] = eps
            fd = -(muscle_lengths(arm, q + dq) - muscle_lengths(arm, q - dq)) / (2 * eps)
            assert np.max(np.abs(L[:, j] - fd)) < 1e-8


def test_moment_arms_constant_in_posture():
    arm = planar2x4()
    L0 = moment_arm_matrix(arm, np.array([0.0, 0.0]))
    L1 = moment_arm_matrix(arm, np.array([1.0, -1.0]))
    assert np.array_equal(L0, L1)


# ---------------------------------------------------------------------------
# torque mapping
# ---------------------------------------------------------------------------

def test_antagonist_pair_equal_forces_cancel():
    arm = planar2x4()
    tau = moment_arm_matrix(arm, np.array(arm.q_ref)).T @ np.array([80.0, 80.0, 0.0, 0.0])
    assert abs(tau[0]) < 1e-12
    assert abs(tau[1]) < 1e-12


def test_single_muscle_torque_sign():
    # A muscle that shortens as its joint angle grows (sign=+1) must pull the
    # joint positive; its tension times moment arm gives the magnitude.
    arm = planar2x4()
    r = arm.routing[0].moment_arm
    tau = moment_arm_matrix(arm, np.array(arm.q_ref)).T @ np.array([100.0, 0.0, 0.0, 0.0])
    assert tau[0] == pytest.approx(+100.0 * r, abs=1e-12)
    # The opposing muscle (lengthens as the angle grows) pulls negative.
    tau = moment_arm_matrix(arm, np.array(arm.q_ref)).T @ np.array([0.0, 100.0, 0.0, 0.0])
    assert tau[0] == pytest.approx(-100.0 * r, abs=1e-12)


def test_torque_work_matches_length_rate():
    # Virtual work: tau . qdot == sum_i F_i * (-ldot_i), with ldot = -L qdot.
    arm = planar2x4()
    rng = np.random.default_rng(3)
    q = np.array(arm.q_ref)
    for _ in range(20):
        f = rng.uniform(0.0, 200.0, size=4)
        qd = rng.uniform(-2.0, 2.0, size=2)
        tau = moment_arm_matrix(arm, q).T @ f
        ldot = -moment_arm_matrix(arm, q) @ qd
        assert tau @ qd == pytest.approx(-(f @ ldot), rel=1e-12)


def test_zero_forces_zero_torque():
    arm = planar2x4()
    tau = moment_arm_matrix(arm, np.array(arm.q_ref)).T @ np.zeros(4)
    assert np.all(tau == 0.0)


# ---------------------------------------------------------------------------
# inverse kinematics
# ---------------------------------------------------------------------------

def _ik(arm, p_dot, q):
    """J+ p_dot through the closed-form 2 x 2 solve, as an array."""
    jx, jy = task_jacobian(arm, q).tolist()
    qdot, singular = _pinv_solve(jx, jy, float(p_dot[0]), float(p_dot[1]))
    return np.array(qdot), singular


def test_ik_square_full_rank_is_exact_inverse():
    arm = _chain(2, lengths=[0.38, 0.34])
    q = np.array([0.4, 1.1])
    p_dot = np.array([0.05, -0.02])
    qdot, singular = _ik(arm, p_dot, q)
    assert not singular
    J = task_jacobian(arm, q)
    assert np.max(np.abs(J @ qdot - p_dot)) < 1e-10


def test_ik_zero_velocity_square():
    arm = _chain(2, lengths=[0.38, 0.34])
    qdot, _ = _ik(arm, np.zeros(2), np.array([0.4, 1.1]))
    assert np.max(np.abs(qdot)) < 1e-12


def test_ik_redundant_residual_and_null_space():
    arm = _chain(3, lengths=[0.3, 0.25, 0.2])
    q = np.array([0.3, 0.7, -0.5])
    p_dot = np.array([0.08, 0.03])
    qdot, singular = _ik(arm, p_dot, q)
    assert not singular
    J = task_jacobian(arm, q)
    assert np.linalg.norm(J @ qdot - p_dot) < 1e-10
    # the minimum-norm solution has no component inside null(J)
    null = np.linalg.svd(J)[2][-1]
    assert abs(null @ qdot) < 1e-10


def test_ik_singular_flags_and_stays_finite():
    arm = _chain(3, lengths=[0.3, 0.25, 0.2])
    q = np.zeros(3)  # fully stretched: x-row of J vanishes
    qdot, singular = _ik(arm, np.array([0.05, 0.0]), q)
    assert singular
    assert np.all(np.isfinite(qdot))


def _ik_reference(J, p_dot, threshold=1e-4, damping=1e-6):
    """J+ p_dot through numpy: eigvalsh for the flag, inv for the solve."""
    JJt = J @ J.T
    singular = math.sqrt(max(np.linalg.eigvalsh(JJt)[0], 0.0)) < threshold
    A = JJt + damping * np.eye(2) if singular else JJt
    J_pinv = J.T @ np.linalg.inv(A)
    return J_pinv @ p_dot, singular, A, J_pinv


@st.composite
def _ik_cases(draw):
    """A random 1-7 joint chain, posture and tip velocity.

    One-joint chains (rank-1 J J^T) and fully stretched chains (straight at
    any heading) take the damped branch.
    """
    n = draw(st.integers(1, 7))
    lengths = draw(st.lists(st.floats(0.05, 0.5), min_size=n, max_size=n))
    q = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    if draw(st.booleans()):
        q = q[:1] + [0.0] * (n - 1)
    p_dot = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2)))
    return _chain(n, lengths=lengths), np.array(q), p_dot


@given(_ik_cases())
@settings(max_examples=300, deadline=None)
def test_ik_closed_form_matches_numpy_reference(case):
    arm, q, p_dot = case
    J = task_jacobian(arm, q)
    want, want_singular, A, J_pinv = _ik_reference(J, p_dot)
    lam = np.linalg.eigvalsh(J @ J.T)
    # the flag may differ only where sigma_min sits within rounding of 1e-4
    assume(abs(lam[0] - 1e-8) > 1e-12 * lam[1])
    have, singular = _ik(arm, p_dot, q)
    assert singular == want_singular
    # solving with A loses eps * cond(A) relative to the scale of the result
    scale = np.linalg.norm(J_pinv, 2) * np.linalg.norm(p_dot)
    tol = 64.0 * np.finfo(float).eps * np.linalg.cond(A) * scale
    assert np.linalg.norm(have - want) <= tol


# ---------------------------------------------------------------------------
# rigid-body dynamics against the textbook two-link closed form
# ---------------------------------------------------------------------------

def _closed_form_two_link(arm, q, qd, qdd):
    """Independent inverse dynamics for a 2-link chain with tip payload."""
    l1 = arm.links[0]
    l2 = arm.links[1]
    mt = arm.tip_mass
    gx, gy = arm.gravity
    c2, s2 = math.cos(q[1]), math.sin(q[1])
    h11 = (l1.inertia + l2.inertia + l1.mass * l1.com ** 2
           + l2.mass * (l1.length ** 2 + l2.com ** 2 + 2 * l1.length * l2.com * c2)
           + mt * (l1.length ** 2 + l2.length ** 2 + 2 * l1.length * l2.length * c2))
    h12 = (l2.inertia + l2.mass * (l2.com ** 2 + l1.length * l2.com * c2)
           + mt * (l2.length ** 2 + l1.length * l2.length * c2))
    h22 = l2.inertia + l2.mass * l2.com ** 2 + mt * l2.length ** 2
    h = (l2.mass * l1.length * l2.com + mt * l1.length * l2.length) * s2
    cor1 = -h * (2 * qd[0] * qd[1] + qd[1] ** 2)
    cor2 = h * qd[0] ** 2
    c1a, s1a = math.cos(q[0]), math.sin(q[0])
    c12, s12 = math.cos(q[0] + q[1]), math.sin(q[0] + q[1])
    # G = dPE/dq with PE = -sum_i m_i g . r_com_i
    g1 = -((l1.mass * l1.com + (l2.mass + mt) * l1.length) * (-gx * s1a + gy * c1a)
           + (l2.mass * l2.com + mt * l2.length) * (-gx * s12 + gy * c12))
    g2 = -(l2.mass * l2.com + mt * l2.length) * (-gx * s12 + gy * c12)
    tau1 = h11 * qdd[0] + h12 * qdd[1] + cor1 + g1
    tau2 = h12 * qdd[0] + h22 * qdd[1] + cor2 + g2
    return np.array([tau1, tau2])


def test_inverse_dynamics_matches_closed_form():
    arm = replace(planar2x4(), gravity=(0.3, -9.81), tip_mass=0.4)
    rng = np.random.default_rng(19)
    for _ in range(50):
        q = rng.uniform(-2.0, 2.0, size=2)
        qd = rng.uniform(-3.0, 3.0, size=2)
        qdd = rng.uniform(-5.0, 5.0, size=2)
        want = _closed_form_two_link(arm, q, qd, qdd)
        have = mass_matrix(arm, q) @ qdd + bias_forces(arm, q, qd)
        assert have == pytest.approx(want, abs=1e-9)


def test_mass_matrix_symmetric_positive_definite():
    arm = _chain(3, lengths=[0.3, 0.25, 0.2], tip_mass=0.2)
    rng = np.random.default_rng(23)
    for _ in range(20):
        q = rng.uniform(-2.5, 2.5, size=3)
        H = mass_matrix(arm, q)
        assert np.max(np.abs(H - H.T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(H)) > 0.0


def test_kinetic_energy_matches_mass_matrix():
    arm = _chain(3, lengths=[0.3, 0.25, 0.2], gravity=(0.0, -9.81), tip_mass=0.3)
    rng = np.random.default_rng(29)
    for _ in range(20):
        q = rng.uniform(-2.0, 2.0, size=3)
        qd = rng.uniform(-2.0, 2.0, size=3)
        ke = total_energy(arm, q, qd) - total_energy(arm, q, np.zeros(3))
        assert ke == pytest.approx(0.5 * qd @ mass_matrix(arm, q) @ qd, rel=1e-10)


def test_gravity_torques_are_potential_gradient():
    arm = _chain(3, lengths=[0.3, 0.25, 0.2], gravity=(0.5, -9.81), tip_mass=0.3)
    rng = np.random.default_rng(31)
    eps = 1e-6
    zeros = np.zeros(3)
    for _ in range(20):
        q = rng.uniform(-2.0, 2.0, size=3)
        g = bias_forces(arm, q, zeros)
        for j in range(3):
            dq = np.zeros(3)
            dq[j] = eps
            fd = (total_energy(arm, q + dq, zeros) - total_energy(arm, q - dq, zeros)) / (2 * eps)
            assert g[j] == pytest.approx(fd, abs=1e-6)


@st.composite
def _random_chains(draw, n_min=1):
    """Random well-posed chain of up to 7 joints with payload, gravity and
    friction, plus q, qdot and tau."""
    n = draw(st.integers(n_min, 7))
    links = []
    for _ in range(n):
        length = draw(st.floats(0.05, 0.5))
        mass = draw(st.floats(0.05, 3.0))
        links.append(LinkParams(length=length, mass=mass,
                                com=draw(st.floats(0.0, 1.0)) * length,
                                inertia=mass * length * length * draw(st.floats(0.01, 0.2))))
    routes = _pair_routing(n)
    arm = ArmModel(links=links, joint_limits=[(-30.0, 30.0)] * n, routing=routes,
                   muscles=[MuscleParams() for _ in routes],
                   gravity=(draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))),
                   viscous_friction=draw(st.floats(0.0, 2.0)),
                   tip_mass=draw(st.floats(0.0, 1.0)))
    vec = st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n).map(np.array)
    return arm, draw(vec), draw(vec), draw(vec)


@given(_random_chains())
@settings(max_examples=100, deadline=None)
def test_kinetic_energy_matches_mass_matrix_random_chains(case):
    arm, q, qd, _ = case
    potential = total_energy(arm, q, np.zeros(arm.n_joints))
    ke = total_energy(arm, q, qd) - potential
    # the subtraction leaves float noise on the scale of the potential energy
    assert ke == pytest.approx(0.5 * qd @ mass_matrix(arm, q) @ qd,
                               rel=1e-10, abs=1e-13 * (1.0 + abs(potential)))


@given(_random_chains())
@settings(max_examples=100, deadline=None)
def test_power_balance_random_chains(case):
    # dE/dt along (qdot, qddot) equals the power of the non-conservative
    # forces: muscle torques and joint friction.
    arm, q, qd, tau = case
    qdd = forward_dynamics(arm, q, qd, tau)
    h = 1e-6 / max(1.0, float(np.max(np.abs(qd))), math.sqrt(float(np.max(np.abs(qdd)))))
    de_dt = (total_energy(arm, q + h * qd, qd + h * qdd)
             - total_energy(arm, q - h * qd, qd - h * qdd)) / (2.0 * h)
    power = qd @ (tau - arm.viscous_friction * qd)
    scale = abs(qd) @ (abs(tau) + arm.viscous_friction * abs(qd))
    noise = 1e-15 * (1.0 + abs(total_energy(arm, q, qd))) / h
    assert de_dt == pytest.approx(power, abs=1e-6 * scale + 100.0 * noise)


# One link whose COM sits on the joint, a unit payload at the tip and a weak
# gravity: the centripetal moments about the joint cancel down to a bias of
# 8.2e-4 N m, and the composite solve lands 98 ulps from the exact result.
_CANCELLING_BIAS = (
    ArmModel(links=[LinkParams(length=0.5, mass=1.0, com=0.0, inertia=0.03125)],
             joint_limits=[(-30.0, 30.0)], routing=_pair_routing(1),
             muscles=[MuscleParams(), MuscleParams()], gravity=(2.0 ** -9, 0.0),
             tip_mass=1.0),
    np.array([1.0]), np.array([1.0]), np.array([0.0]))


@given(_random_chains())
@example(_CANCELLING_BIAS)
@settings(max_examples=200, deadline=None)
def test_forward_dynamics_matches_composite_solve_random_chains(case):
    # The articulated-body pass against a dense solve with the composite-
    # inertia H and bias, which share no code with it. The power balance
    # above misses any error orthogonal to qdot; this does not.
    arm, q, qd, tau = case
    H = mass_matrix(arm, q)
    want = np.linalg.solve(H, tau - bias_forces(arm, q, qd) - arm.viscous_friction * qd)
    have = forward_dynamics(arm, q, qd, tau)
    # Solving loses eps * cond(H) relative to the result; summing the terms
    # loses eps relative to their magnitudes, which H^-1 carries into qddot.
    # The bias's magnitude is not |bias|: bias_forces sums, for joint j, the
    # moments (c_k - p_j) x m_k (a_k - g) over the bodies k >= j and the
    # payload, and these cancel (a centripetal pull points along c_k). Every
    # |c_k| and |p_j| is at most R, the summed link lengths, and the
    # velocity-product acceleration |a_k| <= sum_i w_i^2 l_i <= W2 R, W2 the
    # largest squared absolute link rate. Each summand is then at most
    # 2 R m_k (W2 R + |g|), so the sum carries eps times 2 R M (W2 R + |g|),
    # M the total mass, however small the sum comes out.
    reach = sum(link.length for link in arm.links)
    mass = sum(link.mass for link in arm.links) + arm.tip_mass
    w2 = float(np.max(np.cumsum(qd) ** 2))
    bias_mag = 2.0 * reach * mass * (w2 * reach + math.hypot(*arm.gravity))
    magnitudes = np.abs(tau) + bias_mag + arm.viscous_friction * np.abs(qd)
    scale = np.max(np.abs(want)) + np.max(np.abs(np.linalg.inv(H)) @ magnitudes)
    tol = 16.0 * np.finfo(float).eps * np.linalg.cond(H) * scale
    assert np.max(np.abs(have - want)) <= tol


@given(_random_chains(n_min=7))
@settings(max_examples=50, deadline=None)
def test_mass_matrix_spd_seven_joints(case):
    arm, q, _, _ = case
    H = mass_matrix(arm, q)
    assert np.max(np.abs(H - H.T)) <= 1e-14 * np.max(np.abs(H))
    assert np.min(np.linalg.eigvalsh(H)) > 0.0


def test_equilibrium_zero_acceleration():
    arm = _chain(2, lengths=[0.38, 0.34])  # gravity off
    qdd = forward_dynamics(arm, np.array([0.3, 0.9]), np.zeros(2), np.zeros(2))
    assert np.max(np.abs(qdd)) < 1e-14


def test_viscous_friction_decelerates():
    arm = _chain(1, lengths=[0.3], friction=0.2)
    qdd = forward_dynamics(arm, np.array([0.0]), np.array([2.0]), np.zeros(1))
    assert qdd[0] < 0.0


# ---------------------------------------------------------------------------
# pendulum oracle and energy conservation
# ---------------------------------------------------------------------------

def _rk4_passive(arm, q0, qd0, dt, n_steps, record_every=1):
    """Integrate tau=0 rigid-body motion; returns sampled (t, q) arrays."""
    q = np.asarray(q0, dtype=float).copy()
    qd = np.asarray(qd0, dtype=float).copy()
    tau = np.zeros(arm.n_joints)
    ts, qs = [0.0], [q.copy()]
    for i in range(n_steps):
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
        if (i + 1) % record_every == 0:
            ts.append((i + 1) * dt)
            qs.append(q.copy())
    return np.array(ts), np.array(qs)


def test_near_massless_second_link_reduces_to_pendulum():
    ellipj = pytest.importorskip("scipy.special").ellipj
    ellipk = pytest.importorskip("scipy.special").ellipk
    g = 9.81
    m1, L1 = 1.2, 0.35
    com1, I1 = 0.5 * L1, 1.2 * 0.35 ** 2 / 12.0
    links = [
        LinkParams(length=L1, mass=m1, com=com1, inertia=I1),
        LinkParams(length=0.2, mass=1e-9, com=0.1, inertia=1e-11),
    ]
    routes = _pair_routing(2)
    arm = ArmModel(links=links, joint_limits=[(-30.0, 30.0)] * 2, routing=routes,
                   muscles=[MuscleParams() for _ in routes], gravity=(0.0, -g))
    theta0 = 1.0
    # q measures from +x; the pendulum angle theta measures from the hanging
    # equilibrium at -y, so q = theta - pi/2.
    q0 = np.array([theta0 - math.pi / 2.0, 0.0])
    dt = 1e-3
    ts, qs = _rk4_passive(arm, q0, np.zeros(2), dt, 5000, record_every=100)
    w0 = math.sqrt(m1 * g * com1 / (I1 + m1 * com1 ** 2))
    k = math.sin(theta0 / 2.0)
    m = k * k
    K = ellipk(m)
    sn = ellipj(K - w0 * ts, m)[0]
    theta_exact = 2.0 * np.arcsin(k * sn)
    theta_sim = qs[:, 0] + math.pi / 2.0
    assert np.max(np.abs(theta_sim - theta_exact)) < 1e-4


def test_passive_energy_conservation_10s():
    arm = _chain(2, lengths=[0.38, 0.34], gravity=(0.0, -9.81), friction=0.0)
    q = np.array([0.6, 0.9])
    qd = np.array([1.5, -1.0])
    e0 = total_energy(arm, q, qd)
    dt = 1e-3
    tau = np.zeros(2)
    worst = 0.0
    for i in range(10000):
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
        if i % 200 == 199:
            worst = max(worst, abs(total_energy(arm, q, qd) - e0))
    assert worst / abs(e0) < 1e-5


# ---------------------------------------------------------------------------
# coupled integration
# ---------------------------------------------------------------------------

def test_rest_state_is_posture_fixed_point():
    arm = planar2x4()
    state = rest_state(arm)
    u = np.zeros(4)
    for _ in range(500):
        state, info = integrate_step(arm, state, u, 1e-3)
    # antagonist symmetry keeps the net torque exactly zero while the muscle
    # internals settle, so the posture never moves
    assert state.q == pytest.approx(np.array(arm.q_ref), abs=1e-12)
    assert np.max(np.abs(state.qdot)) < 1e-12
    assert np.all(info.tendon_forces >= 0.0)


def test_symmetric_coactivation_steady_joint_rising_tension():
    arm = planar2x4()
    state = rest_state(arm)
    u = np.full(4, 0.5)
    f_early = None
    for i in range(400):
        state, info = integrate_step(arm, state, u, 1e-3)
        if i == 10:
            f_early = info.tendon_forces.copy()
        tau = moment_arm_matrix(arm, state.q).T @ info.tendon_forces
        assert np.max(np.abs(tau)) < 1e-9
    assert state.q == pytest.approx(np.array(arm.q_ref), abs=1e-9)
    assert np.all(info.tendon_forces > f_early)
    assert np.all(info.tendon_forces > 1.0)


def test_single_muscle_pull_moves_joint_positive():
    arm = planar2x4()
    state = rest_state(arm)
    u = np.array([0.8, 0.0, 0.0, 0.0])
    for _ in range(300):
        state, _ = integrate_step(arm, state, u, 1e-3)
    assert state.q[0] > arm.q_ref[0] + 0.01


def test_dt_halving_consistency():
    arm = planar2x4()
    state = rest_state(arm)
    u = np.array([0.6, 0.2, 0.4, 0.5])
    warm = state
    for _ in range(50):
        warm, _ = integrate_step(arm, warm, u, 1e-3)
    one, _ = integrate_step(arm, warm, u, 1e-3)
    half, _ = integrate_step(arm, warm, u, 0.5e-3)
    half, _ = integrate_step(arm, half, u, 0.5e-3)
    # muscle-force freezing makes the scheme first order in dt overall, so a
    # halved step changes the outcome by O(dt^2)
    assert np.max(np.abs(one.q - half.q)) < 1e-6
    assert np.max(np.abs(one.qdot - half.qdot)) < 1e-3


def test_hard_stop_clamps_and_zeros_velocity():
    arm = _chain(1, lengths=[0.3], gravity=(0.0, -9.81),
                 limits=[(-0.2, 0.2)])
    state = rest_state(arm, q=np.array([0.0]))
    u = np.zeros(2)
    hit = False
    for _ in range(2000):
        state, info = integrate_step(arm, state, u, 1e-3)
        assert -0.2 - 1e-15 <= state.q[0] <= 0.2 + 1e-15
        if info.stop_events:
            hit = True
            assert state.q[0] in (-0.2, 0.2)
    assert hit
    assert state.q[0] == -0.2  # gravity holds it on the lower stop
    assert state.qdot[0] == 0.0


@given(_random_chains(), st.data())
@settings(max_examples=100, deadline=None)
def test_tendon_forces_match_step_muscle_at_muscle_lengths(case, data):
    # the per-tick route table against the batched lengths, bit for bit, also
    # after replace() rebuilds the tables for another q_ref and payload
    arm, q, qd, _ = case
    angles = st.lists(st.floats(-3.0, 3.0), min_size=arm.n_joints, max_size=arm.n_joints)
    arm = replace(arm, q_ref=tuple(data.draw(angles)), tip_mass=data.draw(st.floats(0.0, 1.0)))
    exc = data.draw(st.lists(st.floats(0.0, 1.0), min_size=arm.n_muscles,
                             max_size=arm.n_muscles))
    state = ArmState(q, qd, rest_state(arm).muscle_states)
    _, info = integrate_step(arm, state, np.array(exc), 1e-3)
    want = [step_muscle(ms, u, length, 1e-3, mp)[1] for ms, u, length, mp in
            zip(state.muscle_states, exc, muscle_lengths(arm, q).tolist(), arm.muscles)]
    assert info.tendon_forces.tobytes() == np.array(want).tobytes()


def test_divergence_raises_with_last_state():
    arm = planar2x4()
    state = rest_state(arm)
    state.qdot[:] = 1e308
    with pytest.raises(IntegrationDivergedError) as exc_info:
        s = state
        for _ in range(10):
            s, _ = integrate_step(arm, s, np.zeros(4), 1e-3)
    assert isinstance(exc_info.value.last_state, ArmState)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("inertia", [math.nan, -10.0])
def test_singular_mass_matrix_raises_with_last_state(n, inertia):
    arm = _chain(n)
    state = rest_state(arm)
    # the model is frozen and a NaN link fails the constructor's conditioning
    # check, so the bad inertia goes into the table the dynamics read
    length, mass, com, _ = arm._links[-1]
    object.__setattr__(arm, "_links", arm._links[:-1] + ((length, mass, com, inertia),))
    with pytest.raises(IntegrationDivergedError, match="mass matrix") as exc_info:
        integrate_step(arm, state, np.zeros(arm.n_muscles), 1e-3)
    assert exc_info.value.last_state is state


def test_non_finite_fiber_raises_naming_muscle(monkeypatch):
    arm = planar2x4()
    state = rest_state(arm)
    monkeypatch.setattr(muscle, "inverse_force_velocity", lambda fv: math.inf)
    with pytest.raises(IntegrationDivergedError, match=r"l_fiber_norm of muscle 0\b") as exc_info:
        integrate_step(arm, state, np.full(4, 0.3), 1e-3)
    assert exc_info.value.last_state is state


@pytest.mark.parametrize("l_fiber", [0.1, 0.05, -2.0])
def test_fiber_at_rest_state_floor_raises_naming_muscle(monkeypatch, l_fiber):
    # rest_state refuses a fiber at or below 0.1 optimal lengths; a finite one
    # reached by integration used to pass
    arm = planar2x4()
    state = rest_state(arm)
    monkeypatch.setattr(arm_module, "step_muscle",
                        lambda *args: (MuscleState(0.3, l_fiber), 10.0))
    with pytest.raises(IntegrationDivergedError,
                       match=rf"^l_fiber_norm of muscle 0 is {l_fiber}, at or below 0.1$"):
        integrate_step(arm, state, np.full(4, 0.3), 1e-3)


def test_fiber_just_above_floor_integrates(monkeypatch):
    arm = planar2x4()
    l_fiber = math.nextafter(0.1, 1.0)
    monkeypatch.setattr(arm_module, "step_muscle",
                        lambda *args: (MuscleState(0.3, l_fiber), 10.0))
    state, _ = integrate_step(arm, rest_state(arm), np.full(4, 0.3), 1e-3)
    assert [m.l_fiber_norm for m in state.muscle_states] == [l_fiber] * 4


def test_tendon_forces_never_negative_under_random_drive():
    arm = planar2x4()
    state = rest_state(arm)
    rng = np.random.default_rng(41)
    for _ in range(300):
        u = rng.uniform(0.0, 1.0, size=4)
        state, info = integrate_step(arm, state, u, 1e-3)
        assert np.all(info.tendon_forces >= 0.0)


# ---------------------------------------------------------------------------
# presets and model validation
# ---------------------------------------------------------------------------

def test_planar2x4_reference_reaches_target():
    arm = planar2x4()
    tip = forward_kinematics(arm, np.array(arm.q_ref))
    assert tip == pytest.approx([0.45, 0.0], abs=1e-12)
    assert arm.q_ref[0] == pytest.approx(-0.8280468134580842, abs=1e-12)
    assert arm.q_ref[1] == pytest.approx(1.7951981466949607, abs=1e-12)


def test_planar2x4_layout():
    arm = planar2x4()
    assert arm.n_joints == 2
    assert arm.n_muscles == 4
    # muscle i pulls joint r.joint in the direction r.sign
    assert [(r.joint, r.sign) for r in arm.routing] == [(0, 1), (0, -1), (1, 1), (1, -1)]


def test_spatial_ltdm_layout_and_ranges():
    arm = spatial_ltdm()
    assert arm.n_joints == 7
    assert arm.n_muscles == 15
    assert sorted(r.sign for r in arm.routing if r.joint == 0) == [-1, 1, 1]
    assert arm.joint_limits[0] == (0.0, 0.4)
    assert arm.joint_limits[3] == (0.0, 1.57)
    assert arm.joint_limits[6] == (-1.0, 1.0)
    # segment sums: base->elbow 0.38, elbow->wrist 0.34, wrist->tip 0.262
    L = [link.length for link in arm.links]
    assert sum(L[:3]) == pytest.approx(0.38)
    assert sum(L[3:5]) == pytest.approx(0.34)
    assert sum(L[5:]) == pytest.approx(0.262)
    straight = forward_kinematics(arm, np.zeros(7))
    assert straight == pytest.approx([0.982, 0.0], abs=1e-12)


def test_spatial_ltdm_simulates():
    arm = spatial_ltdm()
    state = rest_state(arm)
    u = np.full(15, 0.3)
    for _ in range(200):
        state, info = integrate_step(arm, state, u, 1e-3)
    assert np.all(np.isfinite(state.q))
    for j, (lo, hi) in enumerate(arm.joint_limits):
        assert lo - 1e-12 <= state.q[j] <= hi + 1e-12
    assert np.all(info.tendon_forces >= 0.0)


def test_make_arm_lookup():
    assert make_arm("planar2x4").n_muscles == 4
    assert make_arm("spatial-ltdm").n_muscles == 15
    with pytest.raises(ValueError, match="unknown arm preset"):
        make_arm("hexapod")


def test_make_arm_muscle_overrides_and_payload():
    # presets carry no payload; a load comes from loaded_plant alone
    arm = make_arm("planar2x4", muscle_overrides={"f0_max": 120.0})
    assert all(m.f0_max == 120.0 for m in arm.muscles)
    assert arm.tip_mass == 0.0
    loaded = loaded_plant(arm, DisturbanceSpec(load_fraction=0.2))
    assert loaded.tip_mass == 0.5 and loaded.muscles == arm.muscles


def test_model_requires_antagonist_pairs():
    links = [LinkParams(length=0.3, mass=1.0, com=0.15, inertia=0.01)]
    routes = [MuscleRoute(joint=0, moment_arm=0.02, sign=+1, l_ref=0.15),
              MuscleRoute(joint=0, moment_arm=0.02, sign=+1, l_ref=0.15)]
    with pytest.raises(ValueError, match="both signs"):
        ArmModel(links=links, joint_limits=[(-1.0, 1.0)], routing=routes,
                 muscles=[MuscleParams(), MuscleParams()])


def test_model_rejects_bad_limits_and_counts():
    links = [LinkParams(length=0.3, mass=1.0, com=0.15, inertia=0.01)]
    routes = _pair_routing(1)
    muscles = [MuscleParams(), MuscleParams()]
    with pytest.raises(ValueError):
        ArmModel(links=links, joint_limits=[(1.0, -1.0)], routing=routes, muscles=muscles)
    with pytest.raises(ValueError):
        ArmModel(links=links, joint_limits=[(-1.0, 1.0)], routing=routes,
                 muscles=[MuscleParams()])
    with pytest.raises(ValueError):
        ArmModel(links=links, joint_limits=[(-1.0, 1.0)], routing=routes,
                 muscles=muscles, tip_mass=-0.1)


def test_link_params_validation():
    with pytest.raises(ValueError):
        LinkParams(length=-0.3, mass=1.0, com=0.1, inertia=0.01)
    with pytest.raises(ValueError):
        LinkParams(length=0.3, mass=1.0, com=0.4, inertia=0.01)
    with pytest.raises(ValueError):
        MuscleRoute(joint=0, moment_arm=0.02, sign=2, l_ref=0.15)


@pytest.mark.parametrize("name", [f.name for f in fields(ArmModel)])
def test_arm_model_is_frozen(name):
    arm = planar2x4()
    with pytest.raises(FrozenInstanceError):
        setattr(arm, name, getattr(arm, name))


def test_muscle_route_is_frozen():
    route = MuscleRoute(joint=0, moment_arm=0.02, sign=1, l_ref=0.15)
    with pytest.raises(FrozenInstanceError):
        route.moment_arm = 0.05
