"""Experiment harness: the run description, trajectory generation, trial
execution, the iterative learning loop, the robustness study under tip load
with its PID baseline, and metrics.

``ExperimentConfig`` is the one description of a run: its fields nest the
section dataclasses defined here (``TrajectorySpec``, ``DisturbanceSpec``,
``PidGains``) and the controller's ``DdilcParams``, its ``model`` is the arm,
and ``config`` converts it to and from INI text. Every experiment is a
function of it and builds its arm once: ``hold_trial(cfg)`` and
``run_ilc(cfg)`` build the run's ``Task`` (the sampled trajectory, its
inverse-kinematics path, ``dt`` and the control decimation) and park on its
start; ``disturbance_sweep(cfg, result)`` and ``pid_baseline(cfg, result)``
follow a learning run along its ``IlcResult.task``, at the task's rates. The
robustness study is ``disturbance_sweep``: per tip load it parks once,
replays the learned drive table open-loop and runs the PID baseline from
that park. Every experiment parks and runs its trials through the same two
steps, one ``park_state`` of the loaded plant on the task's start and one
``run_trial`` along the task; the config's ``dt`` and
``control_decimation`` are read once, into the task.

A *trial* is one finite-horizon execution of a ``Task`` on an arm model.
Controllers plug into ``run_trial`` through a small duck-typed protocol:

* ``begin_iteration(y_d0)`` — called once before the first tick;
* ``step(tc, y, y_d_next) -> drive`` — called at every control tick with the
  measured tip position and ``y_d_next``, the task's point one control tick
  ahead (each a sequence of two Python floats; ``y_d_next`` is a slice of
  the trial's flat ``array('d')`` of control-tick points), returning
  per-joint pair drives, clipped to [0, 1] (a drive that is not one finite
  value per joint raises ``ValueError`` naming the tick);
  controllers with ``wants_state = True`` additionally receive the full
  ``ArmState`` as a keyword argument;
* ``finish_iteration(y_final)`` — called once after the last tick.

Physics always advances at the task's ``dt``; drives are held (zero-order)
over its ``decimation`` physics ticks per control tick. A trial starts from
the state it is given, in every experiment a park on the trajectory start. A
``DisturbanceSpec`` is always given too: its all-zero default is no
disturbance, and ``loaded_plant`` is the one place its tip load enters the
plant. All randomness is routed through explicit integer seeds, so identical
inputs give bit-identical logs.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import asdict, dataclass, field, fields, replace

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
from .control import (
    DdilcController,
    DdilcParams,
    _flat,
    pair_drive_to_excitations,
)
from .muscle import MuscleParams, _check_number, _check_numbers, step_muscle
from .presets import make_arm, preset_key

__all__ = [
    "RATED_LOAD_KG",
    "TrajectorySpec",
    "DisturbanceSpec",
    "UnreachableTrajectoryError",
    "TrialLog",
    "TrialMetrics",
    "RunSummary",
    "ExperimentConfig",
    "sweep_condition",
    "Task",
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
    "hold_trial",
    "run_ilc",
    "disturbance_sweep",
    "pid_baseline",
    "compute_metrics",
    "lowpass_attenuation_test",
    "LowpassPoint",
    "benchmark_ilc_config",
]

RATED_LOAD_KG = 2.5

# in config text, a comment starts at '#' or ';' at the start of a line or
# after whitespace
_COMMENT = re.compile(r"(?:^|\s)[#;].*")


class UnreachableTrajectoryError(ValueError):
    """A desired sample cannot be realized by the arm."""

    def __init__(self, index: int, point, reason: str):
        where = tuple(float(v) for v in point)
        super().__init__(f"trajectory sample {index} at {where}: {reason}")
        self.index = index


# ---------------------------------------------------------------------------
# run rules: one function each, called by the run step it governs and by
# ExperimentConfig when it loads
# ---------------------------------------------------------------------------

def _ticks(span: float, dt: float, name: str) -> int:
    """The physics ticks of ``span`` seconds, ``round(span / dt)``: the one
    conversion of the trajectory, the park's 1 s round and the probe's hold.

    ``ValueError`` naming ``name`` unless ``dt > 0`` and the count is finite
    and at least one tick.
    """
    if not dt > 0.0:
        raise ValueError(f"dt = {dt!r} s must be > 0")
    n = span / dt
    if not math.isfinite(n):
        raise ValueError(f"{name} of {span!r} s is not a finite number "
                         f"of ticks of dt = {dt!r} s")
    n = round(n)
    if n < 1:
        raise ValueError(f"{name} of {span!r} s rounds to no tick of "
                         f"dt = {dt!r} s")
    return n


def _park_rounds(total_time: float, dt: float, name: str) -> tuple[int, int]:
    """The park's servo rounds and ticks per 1 s round for a park of
    ``total_time`` seconds, which must be whole and at least 3 (the last
    two hold)."""
    if not (total_time >= 3.0 and float(total_time).is_integer()):
        raise ValueError(f"{name} must be a whole number of seconds >= 3")
    return int(total_time) - 2, _ticks(1.0, dt, "park round")


def _check_probe_delta(delta: float, name: str) -> None:
    """A probe's drive step lies in (0, 0.5]."""
    if not 0.0 < delta <= 0.5:
        raise ValueError(f"{name} must lie in (0, 0.5]")


def _check_load(fraction: float, name: str) -> None:
    """A tip load, as a fraction of the rated load, lies in [0, 0.5]."""
    if not 0.0 <= fraction <= 0.5:
        raise ValueError(f"{name} must lie in [0, 0.5]")


def _check_decimation(n_ticks: int, decimation: int, name: str) -> None:
    """``decimation`` divides ``n_ticks`` trajectory ticks."""
    if decimation < 1 or n_ticks % decimation != 0:
        raise ValueError(f"{name} {decimation} must divide the "
                         f"{n_ticks} trajectory ticks")


# ---------------------------------------------------------------------------
# experiment descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrajectorySpec:
    """A spatial sine laid along a straight workspace chord.

    The tip travels the chord at constant speed while oscillating
    transversely: p(s) = o + d_hat*s + n_hat*amplitude*sin(2*pi*s/period),
    with o = (offset_x, offset_y), d_hat the unit vector along
    (direction_x, direction_y), n_hat d_hat turned by +90 degrees, and the
    chord coordinate s sweeping cycles*spatial_period over duration.
    """

    amplitude: float = 0.150        # m, transverse excursion
    spatial_period: float = 0.200   # m, wavelength along the chord
    cycles: int = 2
    duration: float = 8.0           # s
    offset_x: float = 0.45          # m, chord start
    offset_y: float = -0.2
    direction_x: float = 0.0        # chord direction, any nonzero length
    direction_y: float = 1.0

    def __post_init__(self) -> None:
        _check_numbers(self)
        for name in ("amplitude", "spatial_period", "duration"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"TrajectorySpec.{name} must be > 0")
        if self.cycles < 1:
            raise ValueError("TrajectorySpec.cycles must be >= 1")
        if math.hypot(self.direction_x, self.direction_y) == 0.0:
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
        _check_numbers(self)
        _check_load(self.load_fraction, "DisturbanceSpec.load_fraction")
        for name in ("noise_amplitude", "noise_frequency_hz"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"DisturbanceSpec.{name} must be >= 0")

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
    steps = _ticks(spec.duration, dt, "trajectory duration")
    frac = np.arange(steps + 1) / steps
    s = spec.cycles * spec.spatial_period * frac
    dx, dy = spec.direction_x, spec.direction_y
    norm = math.hypot(dx, dy)
    d_hat = np.array([dx / norm, dy / norm])
    n_hat = np.array([-d_hat[1], d_hat[0]])
    transverse = spec.amplitude * np.sin(2.0 * np.pi * s / spec.spatial_period)
    return (np.array([spec.offset_x, spec.offset_y])
            + np.outer(s, d_hat) + np.outer(transverse, n_hat))


_IK_TOL = 1e-9          # m, tip residual at which a sample has converged
_IK_MAX_ITER = 100      # Newton steps per sample


def joint_path(model: ArmModel, points: np.ndarray) -> np.ndarray:
    """Damped-Newton inverse kinematics along a continuous tip path.

    The first sample starts from ``model.q_ref``, each later one from the
    previous solution; failure to converge, or a solution outside the joint
    limits, raises UnreachableTrajectoryError naming the offending sample.
    """
    xs, ys = np.asarray(points, dtype=float).T.tolist()
    q = [float(v) for v in model.q_ref]
    qs = array("d")     # the solved postures, flat
    # the chain walked at q: a sample starts from the walk that ended the last
    walk = _tip_jacobian(model, q)
    for idx, (px, py) in enumerate(zip(xs, ys)):
        for _ in range(_IK_MAX_ITER):
            tx, ty, jx, jy = walk
            ex, ey = px - tx, py - ty
            if math.hypot(ex, ey) < _IK_TOL:
                break
            dq, _ = _pinv_solve(jx, jy, ex, ey)
            q = [qi + d for qi, d in zip(q, dq)]
            walk = _tip_jacobian(model, q)
        else:
            raise UnreachableTrajectoryError(idx, (px, py), "inverse kinematics "
                                             f"did not converge within {_IK_MAX_ITER} steps")
        for j, (lo, hi) in enumerate(model.joint_limits):
            if not lo - 1e-9 <= q[j] <= hi + 1e-9:
                raise UnreachableTrajectoryError(
                    idx, (px, py), f"joint {j} at {q[j]:.4f} rad exceeds its "
                    f"limits [{lo}, {hi}]")
        qs.extend(q)
    return _rows(qs, model.n_joints)


# ---------------------------------------------------------------------------
# plug-in controllers
# ---------------------------------------------------------------------------

class ReplayController:
    """Plays back a stored control-tick drive table open-loop."""

    def __init__(self, drive_table: np.ndarray):
        self.table = np.asarray(drive_table, dtype=float)

    def begin_iteration(self, y_d0) -> None:
        pass

    def step(self, tc: int, y, y_d_next) -> list[float]:
        return self.table[tc].tolist()

    def finish_iteration(self, y_final) -> None:
        pass


@dataclass(frozen=True)
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
        _check_numbers(self)
        for name in ("kp", "ki", "kd"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"PidGains.{name} must be >= 0")
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

    def step(self, tc: int, y, y_d_next, *, state: ArmState) -> np.ndarray:
        e = self._y_d_t - np.asarray(y, dtype=float)
        self._integral += e * self.dt
        deriv = np.zeros(2) if self._e_prev is None else (e - self._e_prev) / self.dt
        force = self.gains.kp * e + self.gains.ki * self._integral + self.gains.kd * deriv
        tau = task_jacobian(self.model, state.q).T @ force
        drive = 0.5 + tau / self.gains.torque_scale
        self._e_prev = e
        self._y_d_t = np.asarray(y_d_next, dtype=float)
        return drive      # run_trial clips it to [0, 1]

    def finish_iteration(self, y_final) -> None:
        pass


# ---------------------------------------------------------------------------
# trial execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Task:
    """What a trial follows: the desired tip path sampled at ``dt``, its
    inverse-kinematics path, and the physics ticks per control tick.

    Construction checks that the path is (T+1, 2) with at least two
    samples, that the joint path is 2-D with one posture per sample, that
    ``dt`` is a finite number > 0 and that ``decimation`` is an integer that
    divides the path's physics ticks; ``ValueError`` otherwise.
    """

    points: np.ndarray          # (T+1, 2), the desired tip path
    joint_path: np.ndarray      # (T+1, n_joints), its inverse kinematics
    dt: float                   # s, the sample and physics period
    decimation: int             # physics ticks per control tick

    def __post_init__(self) -> None:
        shape, joints = np.shape(self.points), np.shape(self.joint_path)
        if len(shape) != 2 or shape[1] != 2:
            raise ValueError(f"trajectory must be (T+1, 2) tip points, got shape {shape}")
        n = shape[0]
        if n < 2:
            raise ValueError("trajectory must contain at least two samples")
        if len(joints) != 2:
            raise ValueError(f"joint path must be 2-D, one posture per sample, got shape {joints}")
        if joints[0] != n:
            raise ValueError(f"joint path of {joints[0]} postures for {n} samples")
        _check_number("Task.dt", self.dt, float)
        if not self.dt > 0.0:
            raise ValueError(f"Task.dt must be > 0, got {self.dt!r}")
        _check_number("Task.decimation", self.decimation, int)
        _check_decimation(n - 1, self.decimation, "decimation")

    @property
    def n_control(self) -> int:
        """The control ticks, one drive each."""
        return (len(self.points) - 1) // self.decimation


@dataclass
class TrialLog:
    """Per-tick records of one trial; arrays are truncated on divergence."""

    dt: float
    decimation: int
    time: np.ndarray                 # (N+1,)
    tip: np.ndarray                  # (N+1, 2)
    tip_desired: np.ndarray          # (N+1, 2), read-only view of the points
    q: np.ndarray                    # (N+1, n_joints)
    qdot: np.ndarray                 # (N+1, n_joints)
    drives: np.ndarray               # (N_control, n_joints)
    excitations: np.ndarray          # (N, n_muscles)
    tendon_forces: np.ndarray        # (N, n_muscles)
    muscle_lengths: np.ndarray       # (N+1, n_muscles)
    muscle_lengths_desired: np.ndarray   # (N+1, n_muscles), along the IK path
    diverged: bool = False
    diverged_at: int | None = None
    diverged_reason: str | None = None


@dataclass
class TrialMetrics:
    """Tracking metrics of one trial, in millimeters."""

    mean_abs_mm: float
    mse_mm2: float
    std_mm: float
    muscle_len_mean_abs_mm: float
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
    tick; a non-finite entry, naming the tick and channel. A list of
    ``n_joints`` numbers is read as it is; anything else goes through one
    float array.
    """
    if type(drive) is list and len(drive) == n_joints:
        try:
            return _clipped_drive(tc, drive)
        except TypeError:       # entries that are not numbers
            pass
    drive = np.asarray(drive, dtype=float)
    if drive.shape != (n_joints,):
        raise ValueError(f"control tick {tc}: drive of shape {drive.shape} "
                         f"is not one value per joint ({n_joints})")
    return _clipped_drive(tc, drive.tolist())


def _clipped_drive(tc: int, values) -> list[float]:
    out = []
    for j, v in enumerate(values):
        v = float(v)
        if not 0.0 <= v <= 1.0:
            if not math.isfinite(v):
                raise ValueError(f"control tick {tc}: drive {j} is {v}")
            v = 0.0 if v < 0.0 else 1.0
        out.append(v)
    return out


def _rows(buffer: array, width: int) -> np.ndarray:
    """The flat per-tick rows of ``buffer`` as a (rows, width) array over its memory."""
    return np.frombuffer(buffer).reshape(-1, width)


def run_trial(model: ArmModel, controller, task: Task, *, disturbance: DisturbanceSpec,
              seed, start_state: ArmState) -> TrialLog:
    """Execute one finite-horizon tracking trial along ``task`` from
    ``start_state`` and log every tick.

    ``seed`` seeds the activation noise of ``disturbance``; the log's
    desired muscle lengths follow from ``task.joint_path``.

    Integration divergence is recorded (``diverged``, ``diverged_at`` and
    ``diverged_reason`` with truncated arrays), not raised; a drive that is
    not one finite value per joint raises ``ValueError`` before its tick's
    physics. Deterministic given identical inputs.
    """
    points, dt, decimation = task.points, task.dt, task.decimation

    eff = loaded_plant(model, disturbance)
    state = start_state.floats()
    noise = _noise_table(eff, disturbance, seed)
    wants_state = getattr(controller, "wants_state", False)

    # the per-tick rows, flat; they become the log's arrays at the end
    qs, qds = array("d", state[0]), array("d", state[1])
    excitations, forces, drives = array("d"), array("d"), array("d")
    diverged_at = diverged_reason = None
    targets = _flat(points[::decimation])      # one (x, y) per control tick

    controller.begin_iteration(targets[:2])
    try:
        for tc in range(task.n_control):
            y = _chain(eff, state[0])[-1]
            y_d_next = targets[2 * tc + 2:2 * tc + 4]
            if wants_state:
                raw = controller.step(tc, y, y_d_next, state=ArmState.from_floats(state))
            else:
                raw = controller.step(tc, y, y_d_next)
            drive = _checked_drive(tc, raw, eff.n_joints)
            drives.extend(drive)
            exc = pair_drive_to_excitations(eff, drive)
            if noise is not None:
                exc0 = np.array(exc)
            for tick in range(tc * decimation, (tc + 1) * decimation):
                if noise is not None:
                    phases, omega, buf = noise
                    np.sin(omega * (tick * dt) + phases, out=buf)
                    exc = np.clip(exc0 + disturbance.noise_amplitude * buf, 0.0, 1.0).tolist()
                state, info = integrate_step(eff, state, exc, dt)
                excitations.extend(exc)
                forces.extend(info.tendon_forces)
                qs.extend(state[0])
                qds.extend(state[1])
    except IntegrationDivergedError as err:
        diverged_at, diverged_reason = tick, str(err)
    else:
        controller.finish_iteration(_chain(eff, state[0])[-1])
    diverged = diverged_at is not None

    filled = diverged_at if diverged else len(points) - 1
    q_arr = _rows(qs, eff.n_joints)
    tip_desired = points[:filled + 1]
    tip_desired.flags.writeable = False     # a view of the task's points
    return TrialLog(
        dt=dt,
        decimation=decimation,
        time=np.arange(filled + 1) * dt,
        tip=tip_path(eff, q_arr),
        tip_desired=tip_desired,
        q=q_arr,
        qdot=_rows(qds, eff.n_joints),
        drives=_rows(drives, eff.n_joints),
        excitations=_rows(excitations, eff.n_muscles),
        tendon_forces=_rows(forces, eff.n_muscles),
        muscle_lengths=muscle_lengths(eff, q_arr),
        muscle_lengths_desired=muscle_lengths(eff, task.joint_path[:filled + 1]),
        diverged=diverged,
        diverged_at=diverged_at,
        diverged_reason=diverged_reason,
    )


def compute_metrics(log: TrialLog) -> TrialMetrics:
    """Tip tracking metrics in mm/mm² plus the mean muscle-length error.

    A trial that diverged at its first tick keeps only its start sample,
    which the metrics then cover.
    """
    if log.tip.shape[0] < 1:
        raise ValueError("log holds no samples")
    err_mm = np.hypot(*(log.tip - log.tip_desired).T) * 1e3
    muscle_err = log.muscle_lengths - log.muscle_lengths_desired
    return TrialMetrics(
        mean_abs_mm=float(np.mean(err_mm)),
        mse_mm2=float(np.mean(err_mm ** 2)),
        std_mm=float(np.std(err_mm)),
        muscle_len_mean_abs_mm=float(np.mean(np.abs(muscle_err)) * 1e3),
        samples=int(err_mm.shape[0]),
        diverged=log.diverged,
    )


# ---------------------------------------------------------------------------
# parking and sensitivity probing
# ---------------------------------------------------------------------------

def _hold(model: ArmModel, state: ArmState, drive: np.ndarray, dt: float,
          n_ticks: int, label: str, first_tick: int) -> tuple[ArmState, np.ndarray]:
    """Integrate ``n_ticks`` at one constant pair drive; returns the final
    state and the (n_ticks, n_joints) postures after each tick.

    A divergence raises ``IntegrationDivergedError`` naming ``label`` and the
    tick (counted from ``first_tick``), with the last good state.
    """
    exc = pair_drive_to_excitations(model, drive)
    flat = state.floats()
    qs = array("d")
    try:
        for tick in range(n_ticks):
            flat, _ = integrate_step(model, flat, exc, dt)
            qs.extend(flat[0])
    except IntegrationDivergedError as err:
        raise IntegrationDivergedError(
            f"{label} diverged at tick {first_tick + tick}: {err}",
            err.last_state) from err
    return ArmState.from_floats(flat), _rows(qs, model.n_joints)


_PARK_GAIN = 0.6        # drive correction per rad of joint error, per round


def park_state(model: ArmModel, q_target: np.ndarray, dt: float, *,
               total_time: float) -> tuple[ArmState, np.ndarray]:
    """Find constant drives that hold the arm at ``q_target`` and settle there.

    Repetitions of a finite-horizon task must all start from the same state
    ON the desired path, otherwise the unavoidable start transient puts a
    floor under the tracking error no amount of learning can remove. A slow
    integral servo (one drive correction per second of hold) converges
    because each joint's torque is monotone in its drive; the last two
    seconds hold the drives fixed so the returned state is an equilibrium of
    the final drive vector. ``total_time`` is a whole number of seconds,
    at least 3, and the 1 s round takes at least one tick of ``dt``; anything
    else raises ``ValueError`` before the first tick.
    Returns ``(state, hold_drives)``. A park that diverges raises
    ``IntegrationDivergedError`` naming ``park`` and the tick, with the last
    good state.
    """
    rounds, n_round = _park_rounds(total_time, dt, "park_state total_time")
    q_target = np.asarray(q_target, dtype=float)
    state = rest_state(model, q_target)
    u = np.full(model.n_joints, 0.5)
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
        """The median response time: the mean of the middle one or two
        sorted times, numpy's median arithmetic without its masked-array
        check, which imports ``numpy.ma``."""
        t = np.sort(self.response_time_s)
        return float(t[(len(t) - 1) // 2:len(t) // 2 + 1].mean())


def probe_sensitivity(model: ArmModel, state0: ArmState, dt: float, *,
                      delta: float, hold_time: float, rest) -> ProbeResult:
    """Step each drive channel and identify gain and lag of the tip response.

    From the given state, each joint channel is stepped by ``delta`` away
    from ``rest``, one drive per joint (stepping downward when the upward
    step would leave [0, 1]), and held; an identical rest hold is
    subtracted so slow drift cancels. The gain column is the mean
    displacement over the final fifth divided by the signed step; the
    response time is the residence integral of the step response,
    int (1 - y(t)/y_inf) dt, which equals the time constant for a
    first-order response and the sum of pole time constants in general.
    A hold that diverges raises ``IntegrationDivergedError`` naming the hold
    (``rest`` or ``channel j``) and the tick, with the last good state.
    """
    _check_probe_delta(delta, "probe delta")
    rest_vec = np.array(rest, dtype=float)
    if rest_vec.shape != (model.n_joints,):
        raise ValueError(f"probe rest must be one drive per joint ({model.n_joints})")
    if not all(0.0 <= v <= 1.0 for v in rest_vec.tolist()):
        raise ValueError("probe rest drives must lie in [0, 1]")
    n_hold = _ticks(hold_time, dt, "probe hold_time")
    n_avg = max(1, n_hold // 5)

    def held_tips(hold: str, drive: np.ndarray) -> np.ndarray:
        qs = _hold(model, state0, drive, dt, n_hold, f"probe hold {hold}", 0)[1]
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

    Each per-iteration list is named after the field it records: of the
    trial's ``TrialMetrics`` (``samples`` is not kept), of its ``TrialLog``
    (``diverged_at``, ``diverged_reason``) or of the iteration's
    ``DdilcCounts`` (the three count lists). ``ff_shrink_iterations`` holds
    the iterations after which the feedforward shrank.
    """

    iterations: int
    mean_abs_mm: list[float] = field(default_factory=list)
    mse_mm2: list[float] = field(default_factory=list)
    std_mm: list[float] = field(default_factory=list)
    muscle_len_mean_abs_mm: list[float] = field(default_factory=list)
    diverged: list[bool] = field(default_factory=list)
    # the tick at which each trial diverged, and the IntegrationDivergedError
    # message
    diverged_at: list[int | None] = field(default_factory=list)
    diverged_reason: list[str | None] = field(default_factory=list)
    ff_shrink_iterations: list[int] = field(default_factory=list)
    pjm_diag_resets: list[int] = field(default_factory=list)
    xi_clips: list[int] = field(default_factory=list)
    ff_clips: list[int] = field(default_factory=list)


def sweep_condition(fraction: float) -> str:
    """The output directory of one sweep fraction: ``load_<per mille>``."""
    return f"load_{round(1000 * fraction):03d}"


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, fully specified: plant, task, controller, outputs.

    The arm is not a field but follows from the fields: ``model`` builds the
    preset with the muscle overrides. Construction validates every field,
    and the config is frozen, so neither ``dataclasses.replace`` nor an
    assignment can make an invalid config; the preset name is normalized to
    its ``PRESETS`` key, and the config keeps its own copy of the muscle
    overrides. Each integer field holds an integer and each float field a
    finite number, so the ``config.ini`` echo reads back. The run's rules on
    ``dt``, ``settle_time``, ``probe_delta``, ``probe_hold``,
    ``control_decimation``, the trajectory and ``sweep_fractions`` are
    checked by the functions the run itself checks them with. The rules owned here: ``iterations``,
    ``repetitions`` and ``divergence_patience`` are at least 1 and ``seed``
    is non-negative; ``sweep_fractions`` is a non-empty sequence of finite
    numbers, stored as a tuple of floats, and no two of its loads share a
    ``sweep_condition`` directory; the preset is a name, each muscle
    override names a ``MuscleParams`` field, and together they build an
    arm.
    """

    preset: str = "planar2x4"
    iterations: int = 50
    repetitions: int = 1
    seed: int = 0
    out: str = "runs"
    dt: float = 1e-3
    control_decimation: int = 10
    settle_time: float = 12.0
    probe_delta: float = 0.2
    probe_hold: float = 8.0
    divergence_patience: int = 3
    sweep_fractions: tuple[float, ...] = (0.0, 0.05, 0.10, 0.15, 0.20)
    trajectory: TrajectorySpec = TrajectorySpec()
    controller: DdilcParams = DdilcParams()
    muscle_overrides: dict[str, float] = field(default_factory=dict)
    disturbance: DisturbanceSpec = DisturbanceSpec()
    pid: PidGains = PidGains()

    def __post_init__(self) -> None:
        _check_numbers(self)
        out = self.out
        if (not isinstance(out, str) or out.splitlines() != [out]
                or out != out.strip() or _COMMENT.search(out)):
            raise ValueError("ExperimentConfig.out must be one line of text with no surrounding "
                             f"whitespace and no '#' or ';' after whitespace, got {out!r}")
        for name, least in (("iterations", 1), ("seed", 0),
                            ("divergence_patience", 1), ("repetitions", 1)):
            if not getattr(self, name) >= least:
                raise ValueError(f"ExperimentConfig.{name} must be >= {least}")
        # the run's own rules, as the park, the probe, the trajectory and
        # the sweep's loads check them
        _park_rounds(self.settle_time, self.dt, "ExperimentConfig.settle_time")
        _check_probe_delta(self.probe_delta, "ExperimentConfig.probe_delta")
        _ticks(self.probe_hold, self.dt, "ExperimentConfig.probe_hold")
        n_traj = _ticks(self.trajectory.duration, self.dt,
                        "ExperimentConfig.trajectory.duration")
        _check_decimation(n_traj, self.control_decimation,
                          "ExperimentConfig.control_decimation")
        fractions = tuple(self.sweep_fractions)
        for f in fractions:
            _check_number("ExperimentConfig.sweep_fractions", f, float)
            _check_load(f, "ExperimentConfig.sweep_fractions")
        # frozen, so the normalized fields are set through object.__setattr__
        object.__setattr__(self, "sweep_fractions", tuple(map(float, fractions)))
        if not self.sweep_fractions:
            raise ValueError("ExperimentConfig.sweep_fractions must not be empty")
        # make_arm, through self.model below, rejects an unknown preset
        if not isinstance(self.preset, str):
            raise ValueError(f"ExperimentConfig.preset must be a preset name, got {self.preset!r}")
        object.__setattr__(self, "preset", preset_key(self.preset))
        object.__setattr__(self, "muscle_overrides", dict(self.muscle_overrides))
        muscle_fields = [f.name for f in fields(MuscleParams)]
        for key in self.muscle_overrides:
            if key not in muscle_fields:
                raise ValueError(f"ExperimentConfig.muscle_overrides: {key!r} is not a "
                                 f"MuscleParams field; choose from {muscle_fields}")
        for i, f in enumerate(self.sweep_fractions):
            for g in self.sweep_fractions[:i]:
                if sweep_condition(g) == sweep_condition(f):
                    raise ValueError(
                        f"ExperimentConfig.sweep_fractions {g!r} and {f!r} "
                        f"share the output directory {sweep_condition(f)}")
        # building the arm checks the muscle overrides: each muscle checks itself
        self.model

    @property
    def model(self) -> ArmModel:
        """The preset arm with the muscle overrides applied, built anew."""
        return make_arm(self.preset, self.muscle_overrides or None)


@dataclass
class IlcResult:
    """Learning-run outputs needed by sweeps, baselines, and reports: the
    run's ``task`` and the ``start_state`` of its park, what it learned and
    probed, and its last trial's log."""

    summary: RunSummary
    feedforward_drives: np.ndarray    # (N_control, n_joints), clip(rest + u_f)
    sensitivity: np.ndarray           # (2, n_joints) probe matrix
    start_state: ArmState
    task: Task
    final_log: TrialLog | None        # None where a caller has dropped it


def _task(cfg: ExperimentConfig, model: ArmModel) -> Task:
    """The task of ``cfg`` on ``model``: the one read of the config's ``dt``
    and ``control_decimation``."""
    points = generate_trajectory(cfg.trajectory, cfg.dt)
    return Task(points, joint_path(model, points), cfg.dt, cfg.control_decimation)


def _park(cfg: ExperimentConfig, model: ArmModel, task: Task,
          disturbance: DisturbanceSpec) -> tuple[ArmState, np.ndarray]:
    """``park_state`` of the plant loaded by ``disturbance`` on the task's start."""
    return park_state(loaded_plant(model, disturbance), task.joint_path[0],
                      task.dt, total_time=cfg.settle_time)


def hold_trial(cfg: ExperimentConfig) -> tuple[TrialLog, np.ndarray]:
    """Park on the task's start, then hold the park's drives open-loop for
    one trial along the task: the null baseline every learning run starts
    from. The trial's noise is seeded with ``cfg.seed``.

    Returns ``(log, hold_drives)``.
    """
    model = cfg.model
    task = _task(cfg, model)
    start, u_hold = _park(cfg, model, task, cfg.disturbance)
    hold = ReplayController(np.tile(u_hold, (task.n_control, 1)))
    return run_trial(model, hold, task, disturbance=cfg.disturbance,
                     seed=cfg.seed, start_state=start), u_hold


def run_ilc(cfg: ExperimentConfig, on_iteration=None) -> IlcResult:
    """Repeat the task ``cfg.iterations`` times on ``cfg.model``, learning
    between trials.

    Trial ``k`` seeds its noise with ``[cfg.seed, k]``.
    ``cfg.divergence_patience`` consecutive iterations of growing (or
    diverged) error trigger the controller's ``shrink_feedforward`` (halved
    learning gains, the table zeroed and then, before the next trial, given
    one half-gain update from the trial that triggered it), recorded in the
    summary. An equal error ends the streak. A diverged trial counts as
    growth; the trial after it has no error to compare with, so it does
    not. The optional ``on_iteration(k, log, metrics, controller)``
    callback observes every trial, e.g. for CSV dumps. One trial's log is held at a time: the last
    one becomes ``final_log``.
    """
    model = cfg.model
    task = _task(cfg, model)
    start, u_hold = _park(cfg, model, task, cfg.disturbance)
    probe = probe_sensitivity(loaded_plant(model, cfg.disturbance), start,
                              task.dt, delta=cfg.probe_delta,
                              hold_time=cfg.probe_hold, rest=u_hold)
    controller = DdilcController(
        probe.sensitivity, cfg.controller, task.n_control,
        response_lag_ticks=probe.lag_s / (task.dt * task.decimation),
        rest_drive=u_hold)

    summary = RunSummary(cfg.iterations)
    growth_streak = 0
    for k in range(cfg.iterations):
        log = None      # drop the previous trial's log before this one runs
        log = run_trial(model, controller, task, disturbance=cfg.disturbance,
                        seed=[cfg.seed, k], start_state=start)
        metrics = compute_metrics(log)
        row = {**asdict(metrics), **asdict(controller.counts),
               "diverged_at": log.diverged_at,
               "diverged_reason": log.diverged_reason}
        for name, series in vars(summary).items():
            if name in row:
                series.append(row[name])
        if on_iteration is not None:
            on_iteration(k, log, metrics, controller)

        prev = (summary.mean_abs_mm[-2] if len(summary.mean_abs_mm) > 1
                and not summary.diverged[-2] else None)
        grew = metrics.diverged or (prev is not None
                                    and metrics.mean_abs_mm > prev)
        growth_streak = growth_streak + 1 if grew else 0
        if growth_streak >= cfg.divergence_patience:
            controller.shrink_feedforward()
            summary.ff_shrink_iterations.append(k)
            growth_streak = 0

    ff = np.clip(u_hold + controller.u_ff, 0.0, 1.0)
    return IlcResult(summary=summary, feedforward_drives=ff,
                     sensitivity=probe.sensitivity, start_state=start,
                     task=task, final_log=log)


# ---------------------------------------------------------------------------
# disturbance sweep and PID baseline
# ---------------------------------------------------------------------------

@dataclass
class SweepPoint:
    """One load of the robustness study: the replays' error, averaged over
    the repetitions, and the PID trial's error."""

    load_fraction: float
    mean_abs_mm: float
    mse_mm2: float
    std_between_reps_mm: float
    diverged: bool
    pid_mean_abs_mm: float
    pid_diverged: bool


@dataclass
class SweepResult:
    points: list[SweepPoint]

    def mean_errors(self) -> np.ndarray:
        return np.array([p.mean_abs_mm for p in self.points])


def disturbance_sweep(cfg: ExperimentConfig, result: IlcResult,
                      on_trial=None) -> SweepResult:
    """The robustness study: track the learning run's task under increasing
    tip load, open-loop with its converged drive table and closed-loop with
    the PID baseline.

    Each of ``cfg.sweep_fractions`` re-parks the loaded arm once on
    ``result.task.joint_path[0]``. From that park it replays
    ``result.feedforward_drives`` along ``result.task`` ``cfg.repetitions``
    times, then runs the ``pid_baseline`` trial from the same park at the
    same load; divergence is recorded per condition, never raised. The arm
    is built once for all loads. Parks and trials run at the task's ``dt``
    and decimation, not at the ``dt`` and ``control_decimation`` of
    ``cfg``.
    ``cfg.disturbance`` supplies the activation noise, and each swept
    fraction replaces its load fraction. Replay ``rep`` of fraction ``fi``
    seeds its noise with ``[cfg.seed, fi, rep]``, so repetitions differ only
    in the noise; the PID trial keeps ``pid_baseline``'s seed. The optional
    ``on_trial(fraction_index, rep, log)`` callback observes every trial,
    e.g. for CSV dumps, with ``rep`` None for the PID trial; each log is
    dropped before the next trial runs. A result whose table is not one row
    of drives per control tick of its task raises ``ValueError`` before any
    park.
    """
    model, task, table = cfg.model, result.task, result.feedforward_drives
    if table.shape != (task.n_control, model.n_joints):
        raise ValueError(f"drive table of shape {table.shape} is not one "
                         f"row of {model.n_joints} drives per control tick "
                         f"({task.n_control})")

    def observed(fi, rep, log) -> TrialMetrics:
        if on_trial is not None:
            on_trial(fi, rep, log)
        return compute_metrics(log)

    out = []
    for fi, fraction in enumerate(cfg.sweep_fractions):
        dist = replace(cfg.disturbance, load_fraction=fraction)
        start, _ = _park(cfg, model, task, dist)
        means, mses, diverged = [], [], False
        for rep in range(cfg.repetitions):
            m = observed(fi, rep, run_trial(
                model, ReplayController(table), task, disturbance=dist,
                seed=[cfg.seed, fi, rep], start_state=start))
            means.append(m.mean_abs_mm)
            mses.append(m.mse_mm2)
            diverged = diverged or m.diverged
        pid = observed(fi, None, _pid_trial(cfg, model, task, start, dist))
        out.append(SweepPoint(
            load_fraction=float(fraction),
            mean_abs_mm=float(np.mean(means)),
            mse_mm2=float(np.mean(mses)),
            std_between_reps_mm=float(np.std(means)),
            diverged=diverged,
            pid_mean_abs_mm=pid.mean_abs_mm,
            pid_diverged=pid.diverged,
        ))
    return SweepResult(out)


def pid_baseline(cfg: ExperimentConfig, result: IlcResult) -> TrialLog:
    """One tracking trial under the task-space PID stand-in with ``cfg.pid``.

    The trial starts from ``result.start_state``, follows ``result.task``
    at the task's ``dt`` and decimation, with the PID's control period
    ``task.dt * task.decimation``, and runs under ``cfg.disturbance`` with
    the noise seed
    ``[cfg.seed, cfg.iterations - 1]`` that ``run_ilc`` gives its final
    trial. Given the learning run's own ``cfg`` and ``result``, both
    controllers thus meet the same plant and the same noise;
    ``disturbance_sweep`` runs the same trial from each load's park under
    that load instead.
    """
    return _pid_trial(cfg, cfg.model, result.task, result.start_state,
                      cfg.disturbance)


def _pid_trial(cfg: ExperimentConfig, model: ArmModel, task: Task,
               start: ArmState, disturbance: DisturbanceSpec) -> TrialLog:
    """The ``pid_baseline`` trial from ``start`` under ``disturbance``."""
    controller = PidController(model, cfg.pid, task.dt * task.decimation)
    return run_trial(model, controller, task, disturbance=disturbance,
                     seed=[cfg.seed, cfg.iterations - 1], start_state=start)


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
    n_samples = round(n_cycles / (freq * dt))
    window = series[-n_samples:]
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

    rest = rest_state(model).muscle_states[0]

    def steady_force(u: float) -> float:
        a, l, f = rest.activation, rest.l_fiber_norm, 0.0
        for _ in range(n_settle * 2):
            a, l, _, f = step_muscle(a, l, u, l_mtu, dt, params)
        return f

    static_gain = (steady_force(carrier_u + noise_amplitude)
                   - steady_force(carrier_u)) / noise_amplitude

    out = []
    for freq in (1.0, 50.0):
        a, l = rest.activation, rest.l_fiber_norm
        forces = np.empty(n_total - n_settle)
        acts = np.empty(n_total - n_settle)
        for tick in range(n_total):
            u = carrier_u + noise_amplitude * math.sin(2.0 * np.pi * freq * tick * dt)
            a, l, _, force = step_muscle(a, l, u, l_mtu, dt, params)
            if tick >= n_settle:
                forces[tick - n_settle] = force
                acts[tick - n_settle] = a
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

def benchmark_ilc_config() -> ExperimentConfig:
    """The acceptance benchmark: planar arm, 8 s sine chord, 100 Hz control."""
    return ExperimentConfig()
