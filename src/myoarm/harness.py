"""Experiment harness: trajectory generation, trial execution, the iterative
learning loop, disturbance sweeps, a PID baseline, and metrics.

A *trial* is one finite-horizon execution of a trajectory-tracking task on an
arm model. Controllers plug into ``run_trial`` through a small duck-typed
protocol:

* ``begin_iteration(y_d0)`` — called once before the first tick;
* ``step(tc, y, y_d_next) -> drive`` — called at every control tick with the
  measured tip position and the next desired point (each a sequence of
  Python floats), returning per-joint pair drives, clipped to [0, 1] (a
  drive that is not one finite value per joint raises ``ValueError`` naming
  the tick);
  controllers with ``wants_state = True`` additionally receive the full
  ``ArmState`` as a keyword argument;
* ``finish_iteration(y_final)`` — called once after the last tick.

Physics always advances at ``dt``; drives are held (zero-order) over
``decimation`` physics ticks per control tick. A trial starts from the state
it is given, in every experiment a park on the trajectory start. A
``DisturbanceSpec`` is always given too: its all-zero default is no
disturbance, and ``loaded_plant`` is the one place its tip load enters the
plant. All randomness is routed through explicit integer seeds, so identical
inputs give bit-identical logs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .arm import (
    ArmModel,
    ArmState,
    IntegrationDivergedError,
    _chain,
    _pinv_solve,
    _tip_jacobian,
    integrate_step,
    muscle_lengths,
    rest_state,
    task_jacobian,
    tip_path,
)
from .control import DdilcController, DdilcParams, pair_drive_to_excitations
from .muscle import activation_time_constant, step_muscle
from .presets import planar2x4

__all__ = [
    "RATED_LOAD_KG",
    "TrajectorySpec",
    "DisturbanceSpec",
    "UnreachableTrajectoryError",
    "TrialLog",
    "TrialMetrics",
    "RunSummary",
    "IlcConfig",
    "IlcResult",
    "SweepPoint",
    "SweepResult",
    "PidGains",
    "ReplayController",
    "PidController",
    "generate_trajectory",
    "joint_path",
    "loaded_plant",
    "park_state",
    "probe_sensitivity",
    "run_trial",
    "run_ilc",
    "disturbance_sweep",
    "pid_baseline",
    "compute_metrics",
    "lowpass_attenuation_test",
    "LowpassPoint",
    "benchmark_ilc_config",
]

RATED_LOAD_KG = 2.5


class UnreachableTrajectoryError(ValueError):
    """A desired sample cannot be realized by the arm."""

    def __init__(self, index: int, point, reason: str):
        where = tuple(float(v) for v in point)
        super().__init__(f"trajectory sample {index} at {where}: {reason}")
        self.index = index


# ---------------------------------------------------------------------------
# experiment descriptors
# ---------------------------------------------------------------------------

@dataclass
class TrajectorySpec:
    """A spatial sine laid along a straight workspace chord.

    The tip travels the chord at constant speed while oscillating
    transversely: p(s) = offset + d_hat*s + n_hat*amplitude*sin(2*pi*s/period),
    with the chord coordinate s sweeping cycles*spatial_period over duration.
    """

    amplitude: float = 0.150        # m, transverse excursion
    spatial_period: float = 0.200   # m, wavelength along the chord
    cycles: int = 2
    duration: float = 8.0           # s
    offset: tuple[float, float] = (0.45, -0.2)
    direction: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self) -> None:
        for name in ("amplitude", "spatial_period", "duration"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"TrajectorySpec.{name} must be > 0")
        if self.cycles < 1:
            raise ValueError("TrajectorySpec.cycles must be >= 1")
        if math.hypot(*self.direction) == 0.0:
            raise ValueError("TrajectorySpec.direction must be nonzero")


@dataclass(frozen=True)
class DisturbanceSpec:
    """End-effector load plus narrowband zero-mean activation noise.

    ``load_fraction`` is relative to the rated load (2.5 kg); the load enters
    the dynamics as a point mass rigidly attached at the tip. Activation
    noise is a seeded-random-phase sinusoid added to every muscle excitation.
    The default, all zeros, is no disturbance; frozen, so one default
    instance is shared.
    """

    load_fraction: float = 0.0
    noise_amplitude: float = 0.0
    noise_frequency_hz: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.load_fraction <= 0.5:
            raise ValueError("DisturbanceSpec.load_fraction must lie in [0, 0.5]")
        if self.noise_amplitude < 0.0:
            raise ValueError("DisturbanceSpec.noise_amplitude must be >= 0")
        if self.noise_frequency_hz < 0.0:
            raise ValueError("DisturbanceSpec.noise_frequency_hz must be >= 0")

    @property
    def tip_mass(self) -> float:
        return self.load_fraction * RATED_LOAD_KG


def loaded_plant(model: ArmModel, disturbance: DisturbanceSpec) -> ArmModel:
    """The model with the disturbance's tip load added to its payload (itself if unloaded)."""
    if disturbance.tip_mass == 0.0:
        return model
    return replace(model, tip_mass=model.tip_mass + disturbance.tip_mass)


# ---------------------------------------------------------------------------
# trajectory generation and inverse kinematics
# ---------------------------------------------------------------------------

def generate_trajectory(spec: TrajectorySpec, dt: float) -> np.ndarray:
    """Sample the desired tip path at the physics rate; (T+1, 2) array."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    steps = round(spec.duration / dt)
    if steps < 1:
        raise ValueError("duration shorter than one tick")
    frac = np.arange(steps + 1) / steps
    s = spec.cycles * spec.spatial_period * frac
    dx, dy = spec.direction
    norm = math.hypot(dx, dy)
    d_hat = np.array([dx / norm, dy / norm])
    n_hat = np.array([-d_hat[1], d_hat[0]])
    transverse = spec.amplitude * np.sin(2.0 * np.pi * s / spec.spatial_period)
    return (np.asarray(spec.offset, dtype=float)
            + np.outer(s, d_hat) + np.outer(transverse, n_hat))


_IK_TOL = 1e-9          # m, tip residual at which a sample has converged
_IK_MAX_ITER = 100      # Newton steps per sample


def joint_path(model: ArmModel, points: np.ndarray) -> np.ndarray:
    """Damped-Newton inverse kinematics along a continuous tip path.

    The first sample starts from ``model.q_ref``, each later one from the
    previous solution; failure to converge, or a solution outside the joint
    limits, raises UnreachableTrajectoryError naming the offending sample.
    """
    points = np.asarray(points, dtype=float)
    q = [float(v) for v in model.q_ref]
    out = np.empty((points.shape[0], model.n_joints))
    for idx, target in enumerate(points):
        px, py = target.tolist()
        for _ in range(_IK_MAX_ITER):
            tx, ty, jx, jy = _tip_jacobian(model, q)
            ex, ey = px - tx, py - ty
            if float(np.hypot(ex, ey)) < _IK_TOL:
                break
            dq, _ = _pinv_solve(jx, jy, ex, ey)
            q = [qi + d for qi, d in zip(q, dq)]
        else:
            raise UnreachableTrajectoryError(idx, target, "inverse kinematics "
                                             f"did not converge within {_IK_MAX_ITER} steps")
        for j, (lo, hi) in enumerate(model.joint_limits):
            if not lo - 1e-9 <= q[j] <= hi + 1e-9:
                raise UnreachableTrajectoryError(
                    idx, target, f"joint {j} at {q[j]:.4f} rad exceeds its "
                    f"limits [{lo}, {hi}]")
        out[idx] = q
    return out


# ---------------------------------------------------------------------------
# plug-in controllers
# ---------------------------------------------------------------------------

class ReplayController:
    """Plays back a stored control-tick drive table open-loop."""

    def __init__(self, drive_table: np.ndarray):
        self.table = np.asarray(drive_table, dtype=float)

    def begin_iteration(self, y_d0) -> None:
        pass

    def step(self, tc: int, y, y_d_next) -> np.ndarray:
        return self.table[tc]

    def finish_iteration(self, y_final) -> None:
        pass


@dataclass
class PidGains:
    """Task-space PID gains and the torque scale of the pair mapping.

    The tracking error (m) maps to a virtual tip force via kp/ki/kd, to joint
    torques via the task Jacobian transpose, and to per-joint pair drives as
    0.5 (rest) + torque/torque_scale, reusing the learning controller's
    antagonist-pair mapping downstream.

    The defaults are the best gains found by a three-stage grid search on the
    benchmark arm and trajectory (coarse sweep, then an octave extension in
    kp that got worse, then refinement around the winner), so the comparison
    baseline is an honestly tuned controller rather than a strawman.
    """

    kp: float = 800.0
    ki: float = 10.0
    kd: float = 20.0
    torque_scale: float = 6.0

    def __post_init__(self) -> None:
        for name in ("kp", "ki", "kd"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"PidGains.{name} must be finite and >= 0")
        if not self.torque_scale > 0.0:
            raise ValueError("PidGains.torque_scale must be > 0")


class PidController:
    """Task-space PID mapped through J^T to antagonist-pair drives."""

    wants_state = True

    def __init__(self, model: ArmModel, gains: PidGains, dt_control: float):
        self.model = model
        self.gains = gains
        self.dt = dt_control

    def begin_iteration(self, y_d0) -> None:
        self._y_d_t = np.asarray(y_d0, dtype=float)
        self._integral = np.zeros(2)
        self._e_prev = None

    def step(self, tc: int, y, y_d_next, state: ArmState | None = None) -> np.ndarray:
        e = self._y_d_t - np.asarray(y, dtype=float)
        self._integral += e * self.dt
        deriv = np.zeros(2) if self._e_prev is None else (e - self._e_prev) / self.dt
        force = self.gains.kp * e + self.gains.ki * self._integral + self.gains.kd * deriv
        tau = task_jacobian(self.model, state.q).T @ force
        drive = 0.5 + tau / self.gains.torque_scale
        self._e_prev = e
        self._y_d_t = np.asarray(y_d_next, dtype=float)
        return np.clip(drive, 0.0, 1.0)

    def finish_iteration(self, y_final) -> None:
        pass


# ---------------------------------------------------------------------------
# trial execution
# ---------------------------------------------------------------------------

@dataclass
class TrialLog:
    """Per-tick records of one trial; arrays are truncated on divergence."""

    dt: float
    decimation: int
    time: np.ndarray                 # (N+1,)
    tip: np.ndarray                  # (N+1, 2)
    tip_desired: np.ndarray          # (N+1, 2)
    q: np.ndarray                    # (N+1, n_joints)
    qdot: np.ndarray                 # (N+1, n_joints)
    drives: np.ndarray               # (N_control, n_joints)
    excitations: np.ndarray          # (N, n_muscles)
    tendon_forces: np.ndarray        # (N, n_muscles)
    muscle_lengths: np.ndarray       # (N+1, n_muscles)
    muscle_lengths_desired: np.ndarray | None = None
    diverged: bool = False
    diverged_at: int | None = None
    diverged_reason: str | None = None


@dataclass
class TrialMetrics:
    """Tracking metrics of one trial, in millimeters."""

    mean_abs_mm: float
    mse_mm2: float
    std_mm: float
    muscle_len_mean_abs_mm: float | None
    samples: int
    diverged: bool


def _noise_table(model: ArmModel, disturbance: DisturbanceSpec,
                 seed) -> tuple[np.ndarray, float, np.ndarray] | None:
    if disturbance.noise_amplitude == 0.0:
        return None
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, model.n_muscles)
    omega = 2.0 * np.pi * disturbance.noise_frequency_hz
    return phases, omega, np.empty(model.n_muscles)


def _checked_drive(tc: int, drive, n_joints: int) -> list[float]:
    """The controller's drive for control tick ``tc``, clipped to [0, 1].

    A drive that is not one value per joint raises ``ValueError`` naming the
    tick; a non-finite entry, naming the tick and channel.
    """
    drive = np.asarray(drive, dtype=float)
    if drive.shape != (n_joints,):
        raise ValueError(f"control tick {tc}: drive of shape {drive.shape} "
                         f"is not one value per joint ({n_joints})")
    out = []
    for j, v in enumerate(drive.tolist()):
        if not 0.0 <= v <= 1.0:
            if not math.isfinite(v):
                raise ValueError(f"control tick {tc}: drive {j} is {v}")
            v = 0.0 if v < 0.0 else 1.0
        out.append(v)
    return out


def _control_ticks(points: np.ndarray, decimation: int) -> int:
    """Control ticks of a sampled trajectory; ``ValueError`` unless it holds
    at least one physics tick and ``decimation`` divides them."""
    n_ticks = points.shape[0] - 1
    if n_ticks < 1:
        raise ValueError("trajectory must contain at least two samples")
    if decimation < 1 or n_ticks % decimation != 0:
        raise ValueError(f"decimation {decimation} must divide the "
                         f"{n_ticks} trajectory ticks")
    return n_ticks // decimation


def run_trial(model: ArmModel, controller, points: np.ndarray, dt: float, *,
              disturbance: DisturbanceSpec = DisturbanceSpec(), seed=0,
              start_state: ArmState, decimation: int = 1,
              desired_joint_path: np.ndarray | None = None) -> TrialLog:
    """Execute one finite-horizon tracking trial from ``start_state`` and log
    every tick.

    Integration divergence is recorded (``diverged``, ``diverged_at`` and
    ``diverged_reason`` with truncated arrays), not raised; a drive that is
    not one finite value per joint raises ``ValueError`` before its tick's
    physics. Deterministic given identical inputs.
    """
    points = np.asarray(points, dtype=float)
    n_control = _control_ticks(points, decimation)
    n_ticks = n_control * decimation

    eff = loaded_plant(model, disturbance)
    state = start_state.copy()
    noise = _noise_table(eff, disturbance, seed)
    wants_state = getattr(controller, "wants_state", False)

    qs = [state.q]
    qds = [state.qdot]
    drives = []
    excitations = np.empty((n_ticks, eff.n_muscles))
    forces = np.empty((n_ticks, eff.n_muscles))
    diverged = False
    diverged_at = diverged_reason = None
    filled = 0
    targets = points[::decimation].tolist()      # one per control tick

    controller.begin_iteration(targets[0])
    for tc in range(n_control):
        y = _chain(eff, state.q)[-1]
        y_d_next = targets[tc + 1]
        if wants_state:
            raw = controller.step(tc, y, y_d_next, state=state)
        else:
            raw = controller.step(tc, y, y_d_next)
        drive = _checked_drive(tc, raw, eff.n_joints)
        drives.append(drive)
        exc0 = pair_drive_to_excitations(eff, drive)
        for i in range(decimation):
            tick = tc * decimation + i
            if noise is None:
                exc = exc0
            else:
                phases, omega, buf = noise
                np.sin(omega * (tick * dt) + phases, out=buf)
                exc = np.clip(exc0 + disturbance.noise_amplitude * buf, 0.0, 1.0)
            try:
                state, info = integrate_step(eff, state, exc, dt)
            except IntegrationDivergedError as exc:
                diverged = True
                diverged_at = tick
                diverged_reason = str(exc)
                break
            excitations[tick] = exc
            forces[tick] = info.tendon_forces
            qs.append(state.q)
            qds.append(state.qdot)
            filled = tick + 1
        if diverged:
            break
    if not diverged:
        controller.finish_iteration(_chain(eff, state.q)[-1])

    q_arr = np.array(qs)
    n_kept = filled
    log = TrialLog(
        dt=dt,
        decimation=decimation,
        time=np.arange(n_kept + 1) * dt,
        tip=tip_path(eff, q_arr),
        tip_desired=points[:n_kept + 1].copy(),
        q=q_arr,
        qdot=np.array(qds),
        drives=np.array(drives),
        excitations=excitations[:n_kept].copy() if diverged else excitations,
        tendon_forces=forces[:n_kept].copy() if diverged else forces,
        muscle_lengths=muscle_lengths(eff, q_arr),
        diverged=diverged,
        diverged_at=diverged_at,
        diverged_reason=diverged_reason,
    )
    if desired_joint_path is not None:
        log.muscle_lengths_desired = muscle_lengths(
            eff, desired_joint_path[:n_kept + 1])
    return log


def compute_metrics(log: TrialLog) -> TrialMetrics:
    """Tip tracking metrics in mm/mm² plus the mean muscle-length error.

    A trial that diverged at its first tick keeps only its start sample,
    which the metrics then cover.
    """
    if log.tip.shape[0] < 1:
        raise ValueError("log holds no samples")
    err_mm = np.hypot(*(log.tip - log.tip_desired).T) * 1e3
    muscle = None
    if log.muscle_lengths_desired is not None:
        muscle = float(np.mean(np.abs(log.muscle_lengths
                                      - log.muscle_lengths_desired)) * 1e3)
    return TrialMetrics(
        mean_abs_mm=float(np.mean(err_mm)),
        mse_mm2=float(np.mean(err_mm ** 2)),
        std_mm=float(np.std(err_mm)),
        muscle_len_mean_abs_mm=muscle,
        samples=int(err_mm.shape[0]),
        diverged=log.diverged,
    )


# ---------------------------------------------------------------------------
# parking and sensitivity probing
# ---------------------------------------------------------------------------

def _hold(model: ArmModel, state: ArmState, drive: np.ndarray, dt: float,
          n_ticks: int, label: str, first_tick: int = 0) -> tuple[ArmState, np.ndarray]:
    """Integrate ``n_ticks`` at one constant pair drive; returns the final
    state and the (n_ticks, n_joints) postures after each tick.

    A divergence raises ``IntegrationDivergedError`` naming ``label`` and the
    tick (counted from ``first_tick``), with the last good state.
    """
    exc = pair_drive_to_excitations(model, drive)
    qs = np.empty((n_ticks, model.n_joints))
    try:
        for tick in range(n_ticks):
            state, _ = integrate_step(model, state, exc, dt)
            qs[tick] = state.q
    except IntegrationDivergedError as err:
        raise IntegrationDivergedError(
            f"{label} diverged at tick {first_tick + tick}: {err}",
            err.last_state) from err
    return state, qs


_PARK_GAIN = 0.6        # drive correction per rad of joint error, per round


def park_state(model: ArmModel, q_target: np.ndarray, dt: float, *,
               total_time: float = 12.0) -> tuple[ArmState, np.ndarray]:
    """Find constant drives that hold the arm at ``q_target`` and settle there.

    Repetitions of a finite-horizon task must all start from the same state
    ON the desired path, otherwise the unavoidable start transient puts a
    floor under the tracking error no amount of learning can remove. A slow
    integral servo (one drive correction per second of hold) converges
    because each joint's torque is monotone in its drive; the last two
    seconds hold the drives fixed so the returned state is an equilibrium of
    the final drive vector. Returns ``(state, hold_drives)``. A park that
    diverges raises ``IntegrationDivergedError`` naming ``park`` and the
    tick, with the last good state.
    """
    if total_time < 3.0:
        raise ValueError("park_state needs at least 3 seconds")
    q_target = np.asarray(q_target, dtype=float)
    state = rest_state(model, q_target)
    u = np.full(model.n_joints, 0.5)
    n_round = round(1.0 / dt)
    rounds = int(total_time) - 2
    for r in range(rounds):
        state, _ = _hold(model, state, u, dt, n_round, "park", r * n_round)
        u = np.clip(u + _PARK_GAIN * (q_target - state.q), 0.0, 1.0)
    state, _ = _hold(model, state, u, dt, 2 * n_round, "park", rounds * n_round)
    return state, u


@dataclass
class ProbeResult:
    """Static sensitivity plus the identified response lag per channel."""

    sensitivity: np.ndarray       # (2, n_joints), m per unit drive
    response_time_s: np.ndarray   # (n_joints,), residence time of the step

    @property
    def lag_s(self) -> float:
        return float(np.median(self.response_time_s))


def probe_sensitivity(model: ArmModel, state0: ArmState, dt: float, *,
                      delta: float = 0.2, hold_time: float = 8.0,
                      rest=0.5) -> ProbeResult:
    """Step each drive channel and identify gain and lag of the tip response.

    From the given state, each joint channel is stepped by ``delta`` away
    from ``rest`` (scalar or per-channel vector, stepping downward when the
    upward step would leave [0, 1]) and held; an identical rest hold is
    subtracted so slow drift cancels. The gain column is the mean
    displacement over the final fifth divided by the signed step; the
    response time is the residence integral of the step response,
    int (1 - y(t)/y_inf) dt, which equals the time constant for a
    first-order response and the sum of pole time constants in general.
    A hold that diverges raises ``IntegrationDivergedError`` naming the hold
    (``rest`` or ``channel j``) and the tick, with the last good state.
    """
    if not 0.0 < delta <= 0.5:
        raise ValueError("probe delta must lie in (0, 0.5]")
    rest_vec = np.broadcast_to(np.asarray(rest, dtype=float),
                               (model.n_joints,)).copy()
    if not all(0.0 <= v <= 1.0 for v in rest_vec.tolist()):
        raise ValueError("probe rest drives must lie in [0, 1]")
    n_hold = round(hold_time / dt)
    n_avg = max(1, n_hold // 5)

    def held_tips(hold: str, drive: np.ndarray) -> np.ndarray:
        qs = _hold(model, state0, drive, dt, n_hold, f"probe hold {hold}")[1]
        return tip_path(model, qs)

    base = held_tips("rest", rest_vec)
    sens = np.empty((2, model.n_joints))
    times = np.empty(model.n_joints)
    for j in range(model.n_joints):
        drive = rest_vec.copy()
        step = delta if rest_vec[j] + delta <= 1.0 else -delta
        drive[j] += step
        resp = held_tips(f"channel {j}", drive) - base
        final = resp[-n_avg:].mean(axis=0)
        sens[:, j] = final / step
        scale = float(final @ final)
        if scale > 0.0:
            proj = resp @ (final / scale)     # normalized step response
            times[j] = max(0.0, float(np.sum(1.0 - proj) * dt))
        else:
            times[j] = 0.0
    return ProbeResult(sens, times)


# ---------------------------------------------------------------------------
# the iterative learning loop
# ---------------------------------------------------------------------------

@dataclass
class RunSummary:
    """Per-iteration error curve and controller counts of one learning run.

    The four count lists are the fields of each iteration's ``DdilcCounts``.
    """

    iterations: int
    mean_abs_mm: list[float] = field(default_factory=list)
    mse_mm2: list[float] = field(default_factory=list)
    std_mm: list[float] = field(default_factory=list)
    muscle_len_mean_abs_mm: list[float | None] = field(default_factory=list)
    diverged: list[bool] = field(default_factory=list)
    # the tick at which each trial diverged, and the IntegrationDivergedError
    # message
    diverged_at: list[int | None] = field(default_factory=list)
    diverged_reason: list[str | None] = field(default_factory=list)
    ff_shrink_iterations: list[int] = field(default_factory=list)
    pjm_diag_resets: list[int] = field(default_factory=list)
    pjm_offdiag_resets: list[int] = field(default_factory=list)
    xi_clips: list[int] = field(default_factory=list)
    ff_clips: list[int] = field(default_factory=list)


@dataclass
class IlcConfig:
    """Everything one learning run needs."""

    model: ArmModel
    trajectory: TrajectorySpec
    controller: DdilcParams = field(default_factory=DdilcParams)
    iterations: int = 50
    dt: float = 1e-3
    control_decimation: int = 10
    seed: int = 0
    disturbance: DisturbanceSpec = DisturbanceSpec()
    settle_time: float = 12.0
    probe_delta: float = 0.2
    probe_hold: float = 8.0
    divergence_patience: int = 3

    def __post_init__(self) -> None:
        _check_run_fields(self)


def _check_run_fields(cfg) -> None:
    """Bounds on the run fields IlcConfig shares with the experiment config."""
    for name, ok, bound in (
            ("iterations", cfg.iterations >= 1, ">= 1"),
            ("dt", cfg.dt > 0.0, "> 0"),
            ("control_decimation", cfg.control_decimation >= 1, ">= 1"),
            ("divergence_patience", cfg.divergence_patience >= 1, ">= 1"),
            ("settle_time", cfg.settle_time >= 3.0, ">= 3"),
            ("probe_delta", 0.0 < cfg.probe_delta <= 0.5, "in (0, 0.5]"),
            ("probe_hold", cfg.probe_hold > 0.0, "> 0")):
        if not ok:
            raise ValueError(f"{type(cfg).__name__}.{name} must be {bound}")


@dataclass
class IlcResult:
    """Learning-run outputs needed by sweeps, baselines, and reports."""

    summary: RunSummary
    feedforward_drives: np.ndarray    # (N_control, n_joints), clip(rest + u_f)
    sensitivity: np.ndarray           # (2, n_joints) probe matrix
    start_state: ArmState
    points: np.ndarray
    desired_joint_path: np.ndarray
    final_log: TrialLog
    controller: DdilcController


def run_ilc(cfg: IlcConfig, on_iteration=None) -> IlcResult:
    """Repeat the task ``cfg.iterations`` times, learning between trials.

    Three consecutive iterations of growing (or diverged) error trigger the
    controller's feedforward shrink, recorded in the summary. The optional
    ``on_iteration(k, log, metrics, controller)`` callback observes every
    trial, e.g. for CSV dumps.
    """
    model = cfg.model
    points = generate_trajectory(cfg.trajectory, cfg.dt)
    n_ticks = points.shape[0] - 1
    if n_ticks % cfg.control_decimation != 0:
        raise ValueError("control_decimation must divide the trajectory ticks")
    horizon = n_ticks // cfg.control_decimation
    eff = loaded_plant(model, cfg.disturbance)
    desired_q = joint_path(model, points)
    start, u_hold = park_state(eff, desired_q[0], cfg.dt,
                               total_time=cfg.settle_time)
    probe = probe_sensitivity(eff, start, cfg.dt, delta=cfg.probe_delta,
                              hold_time=cfg.probe_hold, rest=u_hold)
    controller = DdilcController(
        probe.sensitivity, cfg.controller, horizon,
        rng=np.random.default_rng(cfg.seed),
        response_lag_ticks=probe.lag_s / (cfg.dt * cfg.control_decimation),
        rest_drive=u_hold)

    summary = RunSummary(cfg.iterations)
    growth_streak = 0
    final_log = None
    for k in range(cfg.iterations):
        log = run_trial(model, controller, points, cfg.dt,
                        disturbance=cfg.disturbance, seed=[cfg.seed, k],
                        start_state=start, decimation=cfg.control_decimation,
                        desired_joint_path=desired_q)
        metrics = compute_metrics(log)
        summary.mean_abs_mm.append(metrics.mean_abs_mm)
        summary.mse_mm2.append(metrics.mse_mm2)
        summary.std_mm.append(metrics.std_mm)
        summary.muscle_len_mean_abs_mm.append(metrics.muscle_len_mean_abs_mm)
        summary.diverged.append(metrics.diverged)
        summary.diverged_at.append(log.diverged_at)
        summary.diverged_reason.append(log.diverged_reason)
        for name, count in asdict(controller.counts).items():
            getattr(summary, name).append(count)
        if on_iteration is not None:
            on_iteration(k, log, metrics, controller)

        score = math.inf if metrics.diverged else metrics.mean_abs_mm
        prev = (summary.mean_abs_mm[-2] if len(summary.mean_abs_mm) > 1
                and not summary.diverged[-2] else None)
        grew = metrics.diverged or (prev is not None and score > prev)
        growth_streak = growth_streak + 1 if grew else 0
        if growth_streak >= cfg.divergence_patience:
            controller.shrink_feedforward()
            summary.ff_shrink_iterations.append(k)
            growth_streak = 0
        final_log = log

    ff = np.clip(u_hold + controller.u_ff,
                 cfg.controller.u_min, cfg.controller.u_max)
    return IlcResult(summary=summary, feedforward_drives=ff,
                     sensitivity=probe.sensitivity, start_state=start,
                     points=points, desired_joint_path=desired_q,
                     final_log=final_log, controller=controller)


# ---------------------------------------------------------------------------
# disturbance sweep and PID baseline
# ---------------------------------------------------------------------------

@dataclass
class SweepPoint:
    load_fraction: float
    mean_abs_mm: float
    mse_mm2: float
    std_between_reps_mm: float
    diverged: bool


@dataclass
class SweepResult:
    points: list[SweepPoint]

    def mean_errors(self) -> np.ndarray:
        return np.array([p.mean_abs_mm for p in self.points])


def disturbance_sweep(model: ArmModel, drive_table: np.ndarray,
                      points: np.ndarray, dt: float, fractions, *,
                      decimation: int = 1, settle_time: float = 12.0,
                      seed: int = 0, repetitions: int = 1,
                      disturbance: DisturbanceSpec = DisturbanceSpec(),
                      desired_joint_path: np.ndarray | None = None,
                      on_trial=None) -> SweepResult:
    """Replay a converged drive table open-loop under increasing tip load.

    Each fraction re-parks the loaded arm on the trajectory start, then
    replays the table; divergence is recorded per condition, never raised.
    ``disturbance`` supplies the activation noise; each swept fraction
    replaces its load fraction. With repetitions > 1 the per-repetition seeds
    vary only the stochastic activation noise. The optional
    ``on_trial(fraction_index, rep, log)`` callback observes every replay,
    e.g. for CSV dumps. A ``decimation`` that does not divide the trajectory
    ticks, or a table that is not one row of drives per control tick, raises
    ``ValueError`` before any park.
    """
    points = np.asarray(points, dtype=float)
    drive_table = np.asarray(drive_table, dtype=float)
    n_control = _control_ticks(points, decimation)
    if drive_table.shape != (n_control, model.n_joints):
        raise ValueError(f"drive table of shape {drive_table.shape} is not one "
                         f"row of {model.n_joints} drives per control tick "
                         f"({n_control})")
    start_q = joint_path(model, points[:1])[0]
    out = []
    for fi, fraction in enumerate(fractions):
        dist = replace(disturbance, load_fraction=fraction)
        start, _ = park_state(loaded_plant(model, dist), start_q, dt,
                              total_time=settle_time)
        means, mses, diverged = [], [], False
        for rep in range(repetitions):
            log = run_trial(model, ReplayController(drive_table), points, dt,
                            disturbance=dist, seed=[seed, fi, rep],
                            start_state=start, decimation=decimation,
                            desired_joint_path=desired_joint_path)
            if on_trial is not None:
                on_trial(fi, rep, log)
            m = compute_metrics(log)
            means.append(m.mean_abs_mm)
            mses.append(m.mse_mm2)
            diverged = diverged or m.diverged
        out.append(SweepPoint(
            load_fraction=float(fraction),
            mean_abs_mm=float(np.mean(means)),
            mse_mm2=float(np.mean(mses)),
            std_between_reps_mm=float(np.std(means)),
            diverged=diverged,
        ))
    return SweepResult(out)


def pid_baseline(model: ArmModel, points: np.ndarray, dt: float,
                 gains: PidGains, *, disturbance: DisturbanceSpec = DisturbanceSpec(),
                 seed=0, start_state: ArmState, decimation: int = 1,
                 desired_joint_path: np.ndarray | None = None) -> TrialLog:
    """One tracking trial under the task-space PID stand-in, from ``start_state``.

    ``disturbance`` and ``seed`` are passed to ``run_trial``, so the PID trial
    can run on the same loaded, noisy plant as a learning trial.
    """
    controller = PidController(model, gains, dt * decimation)
    return run_trial(model, controller, points, dt, disturbance=disturbance,
                     seed=seed, start_state=start_state, decimation=decimation,
                     desired_joint_path=desired_joint_path)


# ---------------------------------------------------------------------------
# low-pass property of the activation-to-force chain
# ---------------------------------------------------------------------------

@dataclass
class LowpassPoint:
    """Measured and first-order-predicted force response at one frequency."""

    frequency_hz: float
    force_amplitude_n: float
    activation_amplitude: float
    measured_db: float
    activation_oracle_db: float


def _lockin_amplitude(series: np.ndarray, freq: float, dt: float) -> float:
    n_cycles = math.floor(series.shape[0] * dt * freq)
    if n_cycles < 1:
        raise ValueError(f"measurement window shorter than one {freq} Hz cycle")
    n_window = round(n_cycles / (freq * dt))
    window = series[-n_window:]
    t = np.arange(window.shape[0]) * dt
    z = np.exp(-2j * np.pi * freq * t)
    return 2.0 * abs(np.mean(window * z))


def lowpass_attenuation_test(model: ArmModel) -> list[LowpassPoint]:
    """Tendon-force response to sinusoidal excitation ripple, isometrically.

    Muscle 0 is held at its reference length while driven by
    0.4 + 0.02*sin(2*pi*f*t) at f = 1 Hz and 50 Hz, stepped at 0.1 ms for 4 s
    of which the first second settles; the lock-in force amplitude at f is
    compared against a first-order prediction: the same drive through the
    activation dynamics alone, scaled by the statically measured force gain.
    """
    carrier_u, noise_amplitude = 0.4, 0.02
    dt = 1e-4
    params = model.muscles[0]
    l_mtu = model.routing[0].l_ref
    n_settle = round(1.0 / dt)
    n_total = round(4.0 / dt)

    def slack_state() -> "object":
        return rest_state(model, np.asarray(model.q_ref, float)).muscle_states[0]

    def steady_force(u: float) -> float:
        state = slack_state()
        f = 0.0
        for _ in range(n_settle * 2):
            state, f = step_muscle(state, u, l_mtu, dt, params)
        return f

    static_gain = (steady_force(carrier_u + noise_amplitude)
                   - steady_force(carrier_u)) / noise_amplitude

    out = []
    for freq in (1.0, 50.0):
        state = slack_state()
        act = params.a_min
        forces = np.empty(n_total - n_settle)
        acts = np.empty(n_total - n_settle)
        for tick in range(n_total):
            u = carrier_u + noise_amplitude * math.sin(2.0 * np.pi * freq * tick * dt)
            state, force = step_muscle(state, u, l_mtu, dt, params)
            tau = activation_time_constant(u, act, params)
            act = u + (act - u) * math.exp(-dt / tau)
            if tick >= n_settle:
                forces[tick - n_settle] = force
                acts[tick - n_settle] = act
        a_force = _lockin_amplitude(forces, freq, dt)
        a_act = _lockin_amplitude(acts, freq, dt)
        out.append(LowpassPoint(
            frequency_hz=freq,
            force_amplitude_n=a_force,
            activation_amplitude=a_act,
            measured_db=20.0 * math.log10(a_force / (abs(static_gain) * noise_amplitude)),
            activation_oracle_db=20.0 * math.log10(a_act / noise_amplitude),
        ))
    return out


# ---------------------------------------------------------------------------
# the shipped benchmark
# ---------------------------------------------------------------------------

def benchmark_ilc_config(model: ArmModel | None = None, **overrides) -> IlcConfig:
    """The acceptance benchmark: planar arm, 8 s sine chord, 100 Hz control."""
    overrides.setdefault("trajectory", TrajectorySpec())
    return IlcConfig(model=model if model is not None else planar2x4(), **overrides)
