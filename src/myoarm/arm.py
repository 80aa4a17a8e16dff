"""Tendon-routed rigid-link arm.

A planar serial chain of revolute joints driven by Hill-type muscles through
constant-moment-arm tendon routing. Each muscle spans exactly one joint and
every joint carries at least one antagonist pair. Muscle-tendon length
responds to posture as l_i = l_ref_i - sign_i * r_i * (q_j - q_ref_j), so the
moment-arm matrix L (with L[i, j] = sign_i * r_i) satisfies dl = -L dq, and
tendon tensions map to joint torques through tau = L^T f (a taut muscle that
shortens when its joint angle grows pulls that angle up).

Forward dynamics use the articulated-body algorithm (Featherstone, Rigid Body
Dynamics Algorithms, ch. 7): O(n) in the chain length, it never forms the mass
matrix, and its pivots are those of the mass matrix's LDL^T factorization, so
a matrix that is not positive definite is still detected exactly. The mass
matrix and bias torques come from a separate composite-inertia sweep. An
optional point mass is rigidly attached to the end effector (payload); the
tendons are the only forces applied to the chain besides gravity and joint
friction. Integration is classic RK4 on (q, qdot) with muscle forces frozen
over the tick and hard joint stops applied afterwards. A fiber that shortens
to the floor ``rest_state`` enforces (0.1 optimal lengths) or goes non-finite
ends the integration with ``IntegrationDivergedError``.

`ArmModel` is one frozen plant description that every physics path shares. It
stores its sequences as tuples and builds each per-model table once: per-link
and per-route scalars for the per-tick code, the read-only moment-arm matrix
and l_ref, q_ref and link-length vectors for the batched code, and the
pair-drive map. Variants (a heavier payload, another q_ref) come from
`dataclasses.replace`, which validates the model and builds its tables anew.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .muscle import MuscleDiagnostics, MuscleParams, MuscleState, step_muscle

__all__ = [
    "LinkParams",
    "MuscleRoute",
    "ArmModel",
    "ArmState",
    "StepInfo",
    "IntegrationDivergedError",
    "muscle_lengths",
    "moment_arm_matrix",
    "forward_kinematics",
    "tip_path",
    "task_jacobian",
    "mass_matrix",
    "bias_forces",
    "forward_dynamics",
    "total_energy",
    "integrate_step",
    "rest_state",
]

# Fiber length, normalized by l0_fiber, at or below which a muscle has no room
# left: rest_state refuses such a posture, integrate_step stops there.
_MIN_FIBER_NORM = 0.1


class IntegrationDivergedError(RuntimeError):
    """Raised when the integrator produces non-finite state; carries the last good state."""

    def __init__(self, message: str, last_state: "ArmState"):
        super().__init__(message)
        self.last_state = last_state


@dataclass(frozen=True)
class LinkParams:
    length: float   # joint-to-joint distance, m
    mass: float     # kg
    com: float      # center-of-mass offset along the link axis, m
    inertia: float  # rotational inertia about the COM, kg m^2

    def __post_init__(self) -> None:
        for name in ("length", "mass", "inertia"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"LinkParams.{name} must be > 0")
        if not 0.0 <= self.com <= self.length:
            raise ValueError("LinkParams.com must lie on the link")


@dataclass(frozen=True)
class MuscleRoute:
    """Constant-moment-arm routing of one muscle over one joint."""

    joint: int         # joint index the muscle spans
    moment_arm: float  # m, > 0
    sign: int          # +1 pulls the joint positive, -1 negative
    l_ref: float       # muscle-tendon length at the reference posture, m

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError("MuscleRoute.sign must be +1 or -1")
        if not self.moment_arm > 0.0:
            raise ValueError("MuscleRoute.moment_arm must be > 0")
        if not self.l_ref > 0.0:
            raise ValueError("MuscleRoute.l_ref must be > 0")


def _read_only(values) -> np.ndarray:
    a = np.array(values, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ArmModel:
    """The plant: skeleton, routing, muscles and payload, frozen.

    The sequence fields are stored as tuples, and ``__post_init__`` builds
    every per-model table the physics reads, once. Variants come from
    ``dataclasses.replace``, which validates and builds them anew, so the
    tables cannot go stale.
    """

    links: tuple[LinkParams, ...]
    joint_limits: tuple[tuple[float, float], ...]
    routing: tuple[MuscleRoute, ...]
    muscles: tuple[MuscleParams, ...]
    gravity: tuple[float, float] = (0.0, 0.0)
    viscous_friction: float = 0.0          # N m s/rad, same for every joint
    q_ref: tuple[float, ...] = ()          # reference posture for the routing lengths
    tip_mass: float = 0.0                  # payload point mass at the end effector, kg

    def __post_init__(self) -> None:
        def put(name, value):
            object.__setattr__(self, name, value)

        for name in ("links", "routing", "muscles", "q_ref"):
            put(name, tuple(getattr(self, name)))
        put("joint_limits", tuple(map(tuple, self.joint_limits)))
        n = len(self.links)
        if n == 0:
            raise ValueError("ArmModel needs at least one link")
        if len(self.joint_limits) != n:
            raise ValueError("one joint-limit pair per joint required")
        for lo, hi in self.joint_limits:
            if not lo < hi:
                raise ValueError(f"joint limit ({lo}, {hi}) is empty")
        if len(self.routing) != len(self.muscles):
            raise ValueError("routing and muscles must pair up one-to-one")
        if not self.q_ref:
            put("q_ref", (0.0,) * n)
        if len(self.q_ref) != n:
            raise ValueError("q_ref must have one entry per joint")
        if self.tip_mass < 0.0:
            raise ValueError("tip_mass must be >= 0")
        if self.viscous_friction < 0.0:
            raise ValueError("viscous_friction must be >= 0")
        signs_by_joint: dict[int, set[int]] = {}
        for route in self.routing:
            if not 0 <= route.joint < n:
                raise ValueError(f"route references joint {route.joint} outside the chain")
            signs_by_joint.setdefault(route.joint, set()).add(route.sign)
        for j in range(n):
            if signs_by_joint.get(j, set()) != {-1, 1}:
                raise ValueError(f"joint {j} must be spanned by muscles of both signs")
        # per muscle (joint, sign * moment_arm, l_ref, q_ref[joint]) and per
        # link (length, mass, com, inertia): the Python-scalar tables the
        # per-tick paths read
        put("_routes", tuple((r.joint, r.sign * r.moment_arm, r.l_ref, self.q_ref[r.joint])
                             for r in self.routing))
        put("_links", tuple((k.length, k.mass, k.com, k.inertia) for k in self.links))
        # per muscle (joint, sign, a_min, 1 - a_min) for the pair-drive map
        put("_pair_drive", tuple((r.joint, r.sign, mp.a_min, 1.0 - mp.a_min)
                             for r, mp in zip(self.routing, self.muscles)))
        # the batched paths' arrays: moment arms, l_ref, q_ref, link lengths
        L = np.zeros((len(self.routing), n))
        for i, (j, arm_i, _, _) in enumerate(self._routes):
            L[i, j] = arm_i
        L.flags.writeable = False
        put("_moment_arms", L)
        put("_l_ref", _read_only([r.l_ref for r in self.routing]))
        put("_q_ref", _read_only(self.q_ref))
        put("_lengths", _read_only([k.length for k in self.links]))
        # A well-posed model must have an invertible mass matrix everywhere.
        h = mass_matrix(self, self._q_ref)
        if np.linalg.cond(h) > 1e12:
            raise ValueError("mass matrix ill-conditioned at q_ref; check link masses/inertias")

    @property
    def n_joints(self) -> int:
        return len(self.links)

    @property
    def n_muscles(self) -> int:
        return len(self.muscles)


@dataclass
class ArmState:
    q: np.ndarray
    qdot: np.ndarray
    muscle_states: list[MuscleState]

    def copy(self) -> "ArmState":
        return ArmState(self.q.copy(), self.qdot.copy(),
                        [MuscleState(m.activation, m.l_fiber_norm, m.v_fiber_norm)
                         for m in self.muscle_states])


@dataclass
class StepInfo:
    """Per-tick byproducts of integrate_step."""

    tendon_forces: np.ndarray
    stop_events: int = 0


def moment_arm_matrix(model: ArmModel, q: np.ndarray) -> np.ndarray:
    """L with L[i, j] = sign_i * r_i on the spanned joint; equals -d(l)/dq.

    Tendon tensions f map to joint torques tau = L^T f. The moment arms are
    constant, so this is the model's read-only table.
    """
    return model._moment_arms


def muscle_lengths(model: ArmModel, q: np.ndarray) -> np.ndarray:
    """Muscle-tendon lengths l_ref - L (q - q_ref) at posture q.

    A posture series (one posture per row) gives one row of lengths per
    posture.
    """
    dq = np.asarray(q, dtype=float) - model._q_ref
    return model._l_ref - dq @ model._moment_arms.T


def _chain(model: ArmModel, q) -> list[tuple[float, float]]:
    """Joint origins from the base to the tip; scalar math for per-tick callers."""
    cos, sin = math.cos, math.sin
    phi = x = y = 0.0
    pts = [(x, y)]
    for (ell, _, _, _), qi in zip(model._links, q):
        phi += float(qi)
        x += ell * cos(phi)
        y += ell * sin(phi)
        pts.append((x, y))
    return pts


def forward_kinematics(model: ArmModel, q: np.ndarray) -> np.ndarray:
    """End-effector position in the base frame."""
    return np.array(_chain(model, q)[-1])


def tip_path(model: ArmModel, q_series: np.ndarray) -> np.ndarray:
    """Batched forward kinematics: tip position for each row of q_series."""
    angles = np.cumsum(np.asarray(q_series, dtype=float), axis=1)
    lengths = model._lengths
    return np.stack([np.cos(angles) @ lengths, np.sin(angles) @ lengths], axis=1)


def _tip_jacobian(model: ArmModel, q) -> tuple[float, float, list[float], list[float]]:
    """Tip (x, y) and the Jacobian rows d(tip_x)/dq, d(tip_y)/dq from one chain
    walk, as Python floats."""
    pts = _chain(model, q)
    tx, ty = pts.pop()
    return tx, ty, [y - ty for _, y in pts], [tx - x for x, _ in pts]


def task_jacobian(model: ArmModel, q: np.ndarray) -> np.ndarray:
    """Analytic 2 x n Jacobian of the tip position."""
    return np.array(_tip_jacobian(model, q)[2:])


# Smallest singular value of the tip Jacobian below which _pinv_solve flags
# the posture singular, and the damping it then adds to J J^T's diagonal.
_SIGMA_MIN = 1e-4
_IK_DAMPING = 1e-6


def _pinv_solve(jx: list[float], jy: list[float], rx: float,
                ry: float) -> tuple[list[float], bool]:
    """J+ r = J^T (J J^T)^-1 r for the 2 x n tip Jacobian with rows jx, jy.

    J J^T = [[a, b], [b, c]] is solved in closed form: its smallest eigenvalue
    (a + c)/2 - hypot((a - c)/2, b) is sigma_min^2. Below ``_SIGMA_MIN`` the
    flag is True and ``_IK_DAMPING`` is added to the diagonal before the
    inverse [[c, -b], [-b, a]] / (a c - b^2) is applied.
    """
    a = sum(v * v for v in jx)
    b = sum(u * v for u, v in zip(jx, jy))
    c = sum(v * v for v in jy)
    lam_min = 0.5 * (a + c) - math.hypot(0.5 * (a - c), b)
    singular = math.sqrt(max(lam_min, 0.0)) < _SIGMA_MIN
    if singular:
        a += _IK_DAMPING
        c += _IK_DAMPING
    det = a * c - b * b
    wx = (c * rx - b * ry) / det
    wy = (a * ry - b * rx) / det
    return [u * wx + v * wy for u, v in zip(jx, jy)], singular


def _composite(model: ArmModel, q, qd):
    """Mass matrix rows and bias torques C qdot + G in one sweep.

    Forward: joint origins p_j (ending at the tip), link COMs and the
    velocity-product accelerations. Backward: suffix sums over the bodies
    distal to joint j, payload included, of mass M, first moment S, polar
    inertia P about the base, the force F = sum m (a - g) and its moment N, so
    H_ij = P - (p_i + p_j) . S + M p_i . p_j (i <= j) and bias_j = N - p_j x F.
    Row j of H holds H_j0..H_jj. Python scalars throughout: this sits inside RK4.
    """
    gx, gy = model.gravity
    cos, sin = math.cos, math.sin
    origins = [(0.0, 0.0)]
    bodies = []                  # (m, I, COM x, y, m (a - g) x, y) per link
    phi = w = x = y = ax = ay = 0.0
    for (ell, m, r, inertia), qi, qdi in zip(model._links, q, qd):
        phi += qi
        w += qdi
        c, s = cos(phi), sin(phi)
        w2 = w * w
        bodies.append((m, inertia, x + r * c, y + r * s,
                       m * (ax - w2 * r * c - gx), m * (ay - w2 * r * s - gy)))
        x += ell * c
        y += ell * s
        ax -= w2 * ell * c
        ay -= w2 * ell * s
        origins.append((x, y))
    n = len(bodies)
    M = mt = model.tip_mass
    sx, sy = mt * x, mt * y
    P = mt * (x * x + y * y)
    fx, fy = mt * (ax - gx), mt * (ay - gy)
    N = x * fy - y * fx
    rows = [None] * n
    bias = [0.0] * n
    for j in range(n - 1, -1, -1):
        m, inertia, cx, cy, bx, by = bodies[j]
        M += m
        sx += m * cx
        sy += m * cy
        P += inertia + m * (cx * cx + cy * cy)
        fx += bx
        fy += by
        N += cx * by - cy * bx
        pjx, pjy = origins[j]
        bias[j] = N - pjx * fy + pjy * fx
        # H_ij = (P - p_j . S) + p_i . (M p_j - S)
        hj, ux, uy = P - pjx * sx - pjy * sy, M * pjx - sx, M * pjy - sy
        rows[j] = [hj + pix * ux + piy * uy for pix, piy in origins[:j + 1]]
    return rows, bias


def mass_matrix(model: ArmModel, q: np.ndarray) -> np.ndarray:
    """Joint-space inertia matrix from the composite-inertia sweep."""
    n = model.n_joints
    rows = _composite(model, [float(v) for v in q], [0.0] * n)[0]
    H = np.empty((n, n))
    for j, row in enumerate(rows):
        H[j, :j + 1] = H[:j + 1, j] = row
    return H


def bias_forces(model: ArmModel, q: np.ndarray, qdot: np.ndarray) -> np.ndarray:
    """Coriolis/centrifugal plus gravity torques, C(q, qdot) qdot + G(q)."""
    return np.array(_composite(model, [float(v) for v in q], [float(v) for v in qdot])[1])


def _accel(model: ArmModel, q: list[float], qd: list[float], tau: list[float]) -> list[float]:
    """Joint accelerations by the articulated-body algorithm; the integrator's hot path.

    Planar spatial vectors in the base frame: a motion (w, vx, vy) gives the
    velocity of the body point at the base origin, a force (n, fx, fy) its
    moment about the origin. Joint j at p_j has axis S_j = (1, p_jy, -p_jx).
    Outward: joint points, velocities, velocity products c_j = v_j x S_j qd_j
    and each body's inertia [[i, -m cy, m cx], [-m cy, m, 0], [m cx, 0, m]]
    and bias force v x* I v (payload on the last body). Inward:
    articulated inertias (6 unique entries), U_j = I^A_j S_j and the pivot
    D_j = S_j^T U_j. Outward: accelerations from the base acceleration
    (0, -gx, -gy). Python scalars throughout: this sits inside RK4.

    The D_j are the pivots of H's reverse LDL^T factorization, so
    np.linalg.LinAlgError is raised exactly when H is not positive definite
    (a pivot <= 0 or not finite).
    """
    cos, sin = math.cos, math.sin
    b = model.viscous_friction
    bodies = []
    phi = w = x = y = vx = vy = 0.0
    for (ell, m, r, inertia), qi, qdi in zip(model._links, q, qd):
        phi += qi
        vx += qdi * y
        vy -= qdi * x
        w += qdi
        c, s = cos(phi), sin(phi)
        cx, cy = x + r * c, y + r * s
        mw = m * w
        # inertia entries i, -m cy, m cx, m; with the COM velocity
        # u = (vx - w cy, vy + w cx) the bias force is m w (v . c, -u_y, u_x)
        bodies.append((x, y, qdi * (w * x + vy), qdi * (w * y - vx),
                       inertia + m * (cx * cx + cy * cy), -m * cy, m * cx, m,
                       mw * (vx * cx + vy * cy), -mw * (vy + w * cx), mw * (vx - w * cy)))
        x += ell * c
        y += ell * s
    # the inward pass starts from the payload at the tip (x, y), a point mass
    # moving with the last body
    mt = model.tip_mass
    mw = mt * w
    a00, a01, a02, a11, a12, a22 = mt * (x * x + y * y), -mt * y, mt * x, mt, 0.0, mt
    p0, p1, p2 = mw * (vx * x + vy * y), -mw * (vy + w * x), mw * (vx - w * y)
    for j in range(len(bodies) - 1, -1, -1):
        px, py, c1, c2, i00, i01, i02, m, b0, b1, b2 = bodies[j]
        a00 += i00
        a01 += i01
        a02 += i02
        a11 += m
        a22 += m
        p0 += b0
        p1 += b1
        p2 += b2
        u0 = a00 + a01 * py - a02 * px
        u1 = a01 + a11 * py - a12 * px
        u2 = a02 + a12 * py - a22 * px
        d = u0 + u1 * py - u2 * px
        if not 0.0 < d < math.inf:
            raise np.linalg.LinAlgError(f"mass matrix not positive definite (pivot {j} = {d})")
        u = tau[j] - b * qd[j] - p0 - p1 * py + p2 * px
        bodies[j] = (px, py, c1, c2, u0, u1, u2, d, u)
        # pass I^A - U U^T / D and p^A + I^a c + U u / D on to the parent
        e0, e1, e2 = u0 / d, u1 / d, u2 / d
        a00 -= e0 * u0
        a01 -= e0 * u1
        a02 -= e0 * u2
        a11 -= e1 * u1
        a12 -= e1 * u2
        a22 -= e2 * u2
        p0 += a01 * c1 + a02 * c2 + e0 * u
        p1 += a11 * c1 + a12 * c2 + e1 * u
        p2 += a12 * c1 + a22 * c2 + e2 * u
    gx, gy = model.gravity
    acc = []
    a0, a1, a2 = 0.0, -gx, -gy
    for px, py, c1, c2, u0, u1, u2, d, u in bodies:
        a1 += c1
        a2 += c2
        qdd = (u - u0 * a0 - u1 * a1 - u2 * a2) / d
        acc.append(qdd)
        a0 += qdd
        a1 += qdd * py
        a2 -= qdd * px
    return acc


def forward_dynamics(model: ArmModel, q: np.ndarray, qdot: np.ndarray,
                     tau: np.ndarray) -> np.ndarray:
    """qddot = H^-1 (tau - C qdot - G - b qdot), by the articulated-body pass.

    Raises np.linalg.LinAlgError when H is not positive definite.
    """
    return np.array(_accel(model, [float(v) for v in q], [float(v) for v in qdot],
                           [float(v) for v in tau]))


def total_energy(model: ArmModel, q: np.ndarray, qdot: np.ndarray) -> float:
    """Kinetic plus gravitational potential energy of the chain and payload."""
    gx, gy = model.gravity
    phi = 0.0
    w = 0.0
    px = py = 0.0
    vx = vy = 0.0
    e = 0.0
    for i, link in enumerate(model.links):
        phi += float(q[i])
        w += float(qdot[i])
        c, s = math.cos(phi), math.sin(phi)
        cx, cy = px + link.com * c, py + link.com * s
        vcx, vcy = vx - w * link.com * s, vy + w * link.com * c
        e += 0.5 * link.mass * (vcx * vcx + vcy * vcy) + 0.5 * link.inertia * w * w
        e -= link.mass * (gx * cx + gy * cy)
        px, py = px + link.length * c, py + link.length * s
        vx, vy = vx - w * link.length * s, vy + w * link.length * c
    if model.tip_mass > 0.0:
        e += 0.5 * model.tip_mass * (vx * vx + vy * vy)
        e -= model.tip_mass * (gx * px + gy * py)
    return e


def rest_state(model: ArmModel, q: np.ndarray | None = None) -> ArmState:
    """State at posture q with zero velocity, floor activation, slack tendons.

    Fiber lengths are set so each tendon sits exactly at its slack length.
    """
    q = np.array(model.q_ref, dtype=float) if q is None else np.asarray(q, dtype=float)
    lengths = muscle_lengths(model, q)
    states = []
    for i, mp in enumerate(model.muscles):
        l_fiber = (lengths[i] - mp.l_slack_tendon) / (mp.l0_fiber * mp.pennation_factor)
        if l_fiber <= _MIN_FIBER_NORM:
            raise ValueError(f"muscle {i} has no room for its fiber at this posture")
        states.append(MuscleState(activation=mp.a_min, l_fiber_norm=float(l_fiber)))
    return ArmState(q=q, qdot=np.zeros(model.n_joints), muscle_states=states)


def integrate_step(model: ArmModel, state: ArmState, excitations: np.ndarray,
                   dt: float, diag: MuscleDiagnostics | None = None
                   ) -> tuple[ArmState, StepInfo]:
    """Advance the coupled muscle/skeleton system by one tick.

    Muscles are stepped first at the entry posture; the resulting tendon
    forces are held constant while (q, qdot) advances by one RK4 step; hard
    joint stops then clamp q and zero any outward velocity component.
    A fiber length that is not finite or not above the 0.1 floor rest_state
    enforces, a non-finite joint state, or a mass matrix that is not positive
    definite raises IntegrationDivergedError naming the quantity.
    """
    n = model.n_joints
    q0 = state.q.tolist()
    u = excitations.tolist()
    muscle_states = state.muscle_states
    new_muscles = []
    forces = []
    tau = [0.0] * n
    for i, (mp, (j, arm_i, l_ref, q_ref_j)) in enumerate(zip(model.muscles, model._routes)):
        # muscle_lengths inlined: one numpy call per tick costs more than this loop
        ms, f = step_muscle(muscle_states[i], u[i], l_ref - arm_i * (q0[j] - q_ref_j),
                            dt, mp, diag)
        if not _MIN_FIBER_NORM < ms.l_fiber_norm < math.inf:
            v = ms.l_fiber_norm
            reason = (f"l_fiber_norm of muscle {i} is {v!r}, at or below {_MIN_FIBER_NORM}"
                      if math.isfinite(v) else f"non-finite l_fiber_norm of muscle {i}")
            raise IntegrationDivergedError(reason, state)
        new_muscles.append(ms)
        forces.append(f)
        tau[j] += arm_i * f

    qd0 = state.qdot.tolist()
    half = 0.5 * dt
    try:
        k1v = _accel(model, q0, qd0, tau)
        k2x = [qd0[j] + half * k1v[j] for j in range(n)]
        k2v = _accel(model, [q0[j] + half * qd0[j] for j in range(n)], k2x, tau)
        k3x = [qd0[j] + half * k2v[j] for j in range(n)]
        k3v = _accel(model, [q0[j] + half * k2x[j] for j in range(n)], k3x, tau)
        k4x = [qd0[j] + dt * k3v[j] for j in range(n)]
        k4v = _accel(model, [q0[j] + dt * k3x[j] for j in range(n)], k4x, tau)
    except np.linalg.LinAlgError as exc:
        raise IntegrationDivergedError(str(exc), state) from exc
    sixth = dt / 6.0
    q_new = np.empty(n)
    qd_new = np.empty(n)
    stops = 0
    for j, (lo, hi) in enumerate(model.joint_limits):
        qj = q0[j] + sixth * (qd0[j] + 2.0 * (k2x[j] + k3x[j]) + k4x[j])
        vj = qd0[j] + sixth * (k1v[j] + 2.0 * (k2v[j] + k3v[j]) + k4v[j])
        if qj < lo:
            qj = lo
            if vj < 0.0:
                vj = 0.0
            stops += 1
        elif qj > hi:
            qj = hi
            if vj > 0.0:
                vj = 0.0
            stops += 1
        if not (math.isfinite(qj) and math.isfinite(vj)):
            name = "q" if not math.isfinite(qj) else "qdot"
            raise IntegrationDivergedError(f"non-finite joint state {name}[{j}]", state)
        q_new[j] = qj
        qd_new[j] = vj

    info = StepInfo(np.array(forces), stops)
    return ArmState(q_new, qd_new, new_muscles), info
