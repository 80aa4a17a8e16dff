"""The physics tick and rollout loops as they read before rollouts carried
Python floats between ticks: the reference the float kernels must match bit
for bit.

``step_muscle`` composes ``activation_time_constant`` and ``_equilibrium`` on
``MuscleState``s; ``integrate_step`` steps an ``ArmState`` through numpy
round trips and RK4 on ``arm._accel``; ``hold`` and ``run_trial`` are the
constant-drive hold and the trial loop around it, logging into numpy arrays.
"""

import math

import numpy as np

from myoarm import arm as arm_module
from myoarm.arm import ArmState, IntegrationDivergedError, _accel, _chain
from myoarm.control import pair_drive_to_excitations
from myoarm.harness import (
    TrialLog,
    _checked_drive,
    _noise_table,
    loaded_plant,
    muscle_lengths,
    tip_path,
)
from myoarm.muscle import (
    _FV_ARG_HI,
    _FV_ARG_LO,
    MuscleState,
    _passive,
    active_force_length,
    inverse_force_velocity,
    tendon_force,
)


def activation_time_constant(u, a, params):
    """Effective first-order time constant; faster when excitation leads activation."""
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"excitation u must be in [0, 1], got {u}")
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"activation a must be in [0, 1], got {a}")
    if u >= a:
        return params.t_act * (0.5 + 1.5 * a)
    return params.t_deact / (0.5 + 1.5 * a)


def _equilibrium(l_fiber_norm, a, l_mtu, params):
    """(fiber velocity, normalized tendon force) that balance tendon and fiber."""
    if l_mtu <= 0.0:
        raise ValueError(f"l_mtu must be positive, got {l_mtu}")
    cos_a = params.pennation_factor
    l_tendon = l_mtu - l_fiber_norm * params.l0_fiber * cos_a
    strain = l_tendon / params.l_slack_tendon - 1.0
    f_t = tendon_force(strain, params)

    a_eff = params.a_min if a < params.a_min else a
    fl = active_force_length(l_fiber_norm, params.gamma)
    fpe = _passive(l_fiber_norm, params.k_pe, params.eps0_m, params._exp_k_pe_m1)

    arg = (f_t / cos_a - fpe) / (a_eff * fl)
    if arg < _FV_ARG_LO:
        arg = _FV_ARG_LO
    elif arg > _FV_ARG_HI:
        arg = _FV_ARG_HI
    return inverse_force_velocity(arg), f_t


def step_muscle(state, u, l_mtu, dt, params):
    """(new MuscleState, tendon force in N) after one tick."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    tau = activation_time_constant(u, state.activation, params)
    a_new = u + (state.activation - u) * math.exp(-dt / tau)
    v, f_t = _equilibrium(state.l_fiber_norm, a_new, l_mtu, params)
    l_new = state.l_fiber_norm + v * dt
    return MuscleState(a_new, l_new, v), params.f0_max * f_t


def integrate_step(model, state, excitations, dt):
    """(next ArmState, tendon forces, stop events) after one tick."""
    n = model.n_joints
    q0 = state.q.tolist()
    u = np.asarray(excitations, dtype=float).tolist()
    new_muscles = []
    forces = []
    tau = [0.0] * n
    for i, (mp, (j, arm_i, l_ref, q_ref_j)) in enumerate(zip(model.muscles, model._routes)):
        ms, f = step_muscle(state.muscle_states[i], u[i],
                            l_ref - arm_i * (q0[j] - q_ref_j), dt, mp)
        if not arm_module._MIN_FIBER_NORM < ms.l_fiber_norm < math.inf:
            v = ms.l_fiber_norm
            reason = (f"l_fiber_norm of muscle {i} is {v!r}, at or below "
                      f"{arm_module._MIN_FIBER_NORM}" if math.isfinite(v)
                      else f"non-finite l_fiber_norm of muscle {i}")
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
    bound = arm_module._QDOT_MAX
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
        if not (math.isfinite(qj) and -bound < vj < bound):
            reason = (f"qdot[{j}] = {vj:.3g} rad/s, at or beyond the {bound:g} rad/s bound"
                      if math.isfinite(qj) else f"non-finite joint state q[{j}]")
            raise IntegrationDivergedError(reason, state)
        q_new[j] = qj
        qd_new[j] = vj
    return ArmState(q_new, qd_new, new_muscles), np.array(forces), stops


def hold(model, state, drive, dt, n_ticks):
    """(final state, (n_ticks, n_joints) postures, stop events) at one
    constant pair drive."""
    exc = np.array(pair_drive_to_excitations(model, drive))
    qs = np.empty((n_ticks, model.n_joints))
    stops = 0
    for tick in range(n_ticks):
        state, _, s = integrate_step(model, state, exc, dt)
        qs[tick] = state.q
        stops += s
    return state, qs, stops


def run_trial(model, controller, points, dt, *, disturbance, seed, start_state,
              decimation, desired_joint_path):
    """The trial loop of ``harness.run_trial`` on the reference tick."""
    points = np.asarray(points, dtype=float)
    n_control = (points.shape[0] - 1) // decimation
    n_ticks = n_control * decimation
    eff = loaded_plant(model, disturbance)
    state = start_state
    noise = _noise_table(eff, disturbance, seed)

    qs, qds, drives = [state.q], [state.qdot], []
    excitations = np.empty((n_ticks, eff.n_muscles))
    forces = np.empty((n_ticks, eff.n_muscles))
    diverged_at = diverged_reason = None
    filled = 0
    targets = points[::decimation].tolist()
    controller.begin_iteration()
    for tc in range(n_control):
        q = state.q.tolist()
        drive = _checked_drive(tc, controller.step(tc, _chain(eff, q)[-1], q, targets[tc],
                                                   targets[tc + 1]),
                               eff.n_joints)
        drives.append(drive)
        exc0 = np.array(pair_drive_to_excitations(eff, drive))
        for i in range(decimation):
            tick = tc * decimation + i
            exc = exc0
            if noise is not None:
                phases, omega, buf = noise
                np.sin(omega * (tick * dt) + phases, out=buf)
                exc = np.clip(exc0 + disturbance.noise_amplitude * buf, 0.0, 1.0)
            try:
                state, f, _ = integrate_step(eff, state, exc, dt)
            except IntegrationDivergedError as err:
                diverged_at, diverged_reason = tick, str(err)
                break
            excitations[tick] = exc
            forces[tick] = f
            qs.append(state.q)
            qds.append(state.qdot)
            filled = tick + 1
        if diverged_at is not None:
            break
    if diverged_at is None:
        controller.finish_iteration(_chain(eff, state.q)[-1], targets[n_control])

    q_arr = np.array(qs)
    return TrialLog(
        dt=dt, decimation=decimation, time=np.arange(filled + 1) * dt,
        tip=tip_path(eff, q_arr), tip_desired=points[:filled + 1].copy(),
        q=q_arr, qdot=np.array(qds), drives=np.array(drives),
        excitations=excitations[:filled], tendon_forces=forces[:filled],
        muscle_lengths=muscle_lengths(eff, q_arr),
        muscle_lengths_desired=muscle_lengths(eff, desired_joint_path[:filled + 1]),
        diverged=diverged_at is not None, diverged_at=diverged_at,
        diverged_reason=diverged_reason)
