"""Model-free iterative learning controller with online sensitivity estimation.

The controller treats the plant as an unknown discrete-time map from
per-joint antagonist-pair commands u in [0,1] to task-space output y. Three
mechanisms cooperate:

* a compact-form dynamic linearization: output increments are modeled as
  dy(t+1) = Phi(t) du_b(t), with the partitioned Jacobian matrix (PJM)
  Phi, a diagonal matrix, estimated online by a normalized projection step
  with a box/sign reset (``_project_pjm``);
* a time-axis feedback gain matrix updated by gradient descent on a
  tracking-plus-input-energy cost (``_descend_gain``), producing the
  feedback component u_b = Xi . (predicted error increment);
* an iteration-axis feedforward table u_f(t), updated between repetitions of
  the same finite-horizon task from the previous run's error
  (``DdilcController.begin_iteration``).

Internally the controller rescales outputs by ``gamma * pinv(S)`` where S is
a measured command-to-output sensitivity matrix (one step-perturbation probe
per channel) and gamma = diag_floor * sqrt(diag_span). In these coordinates
the true sensitivity is approximately gamma * identity, which places the PJM
diagonal inside the prescribed [diag_floor, diag_span*diag_floor] box and
leaves cross terms small. The feedforward gain acts in physical units as
feedforward_scale * pinv(S).

The PJM estimate is diagonal: it starts every trial at gamma * identity, and
the controller holds and updates only its m diagonal elements, leaving the
coupling between channels to the sensitivity transform above. (Under the
sign rule an off-diagonal element starting at 0 would be reset to 0 by
every update, as sign(0) = 0.)

The per-tick law runs on the controller state held as short Python lists
of floats (row-major matrices, the PJM as its diagonal). The two update
laws are the list kernels below, ``_project_pjm`` and ``_descend_gain``;
``DdilcController.step`` writes the prediction, the feedback and the
composition of the drive inline, and ``estimate_pjm`` wraps the PJM kernel
for numpy callers. For vectors of a few elements this is several times
cheaper than numpy calls, and the result does not depend on the BLAS
build. The per-tick records of a trial hold one 8-byte float per value
and no Python object per tick: the error series is one float array that
each tick writes its row of in place, and the ticks read the feedforward
table from one flat ``array('d')`` copy, row-major.

Commands are per-joint scalars in [0,1]: 0.5 is rest, values above drive the
positive-torque (agonist) muscles of that joint, values below drive the
antagonists, both floored at the muscle's minimum activation
(``pair_drive_to_excitations``). The controller composes each command on a
per-channel rest bias, the drives that hold the parked start posture
(``rest_drive``), and saturates it to the plant's domain [0, 1], so the
harness's own clip leaves it unchanged and the PJM learns from the
increments the plant received.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from operator import mul

import numpy as np

from .muscle import _check_bound, _check_number, _check_numbers

__all__ = [
    "DdilcParams",
    "DdilcCounts",
    "PjmEstimate",
    "estimate_pjm",
    "pair_drive_to_excitations",
    "DdilcController",
]


@dataclass(frozen=True)
class DdilcParams:
    """Hyperparameters of the learning controller.

    gain_step / energy_weight drive the feedback-gain gradient step;
    estimator_step in (0,1] and estimator_weight > 0 normalize the PJM
    projection update; feedforward_scale scales the iteration-axis learning
    gain (as a fraction of the inverse sensitivity); diag_floor and
    diag_span define the box of each (diagonal) PJM element, whose magnitude
    stays within [diag_floor, diag_span*diag_floor]. Every field is a
    finite number within its ``_BOUNDS`` entry.
    """

    gain_step: float = 0.5          # eta
    energy_weight: float = 1.0      # input-energy weight in the gain cost
    estimator_step: float = 1.0     # projection step
    estimator_weight: float = 1.0   # projection regularizer
    feedforward_scale: float = 0.3  # fraction of inverse sensitivity
    diag_floor: float = 10.0        # c2
    diag_span: float = 2.0          # a, diagonal box is [c2, a*c2]

    _BOUNDS = {**dict.fromkeys(("gain_step", "energy_weight", "estimator_weight",
                                "feedforward_scale", "diag_floor"), "> 0"),
               "estimator_step": "in (0, 1]", "diag_span": ">= 1"}

    def __post_init__(self) -> None:
        _check_numbers(self)

    def xi_cap(self, m: int) -> float:
        """Saturation bound for feedback-gain entries.

        The (m, m) gain matrix maps output-unit increments back to inputs,
        so its natural scale is the reciprocal of the PJM magnitude cap.
        Because the feedback acts on a predicted error increment, it closes a
        two-step recursion in the input increments whose characteristic
        polynomial is z^2 + g z - g with loop gain g = ||Xi Phi||; that
        recursion is stable only for g < 1/2. Capping every entry at
        0.4 / (max |Phi element| * m) bounds g by 0.4 even with all entries
        pinned.
        """
        return 0.4 / (self.diag_span * self.diag_floor * m)


@dataclass
class DdilcCounts:
    """How often one iteration's learning law hit its bounds."""

    pjm_diag_resets: int = 0    # PJM diagonal elements reset by the box/sign rule
    xi_clips: int = 0           # feedback-gain entries clipped at +/-xi_cap
    ff_clips: int = 0           # feedforward entries clipped by the anti-windup bound


@dataclass
class PjmEstimate:
    """Current PJM estimate plus the trial-start reference it resets to, as
    (m, m) arrays whose off-diagonal elements are 0."""

    phi_hat: np.ndarray
    phi_init: np.ndarray


# ---------------------------------------------------------------------------
# list kernels: the two per-tick update laws; ``step`` writes the rest inline
# ---------------------------------------------------------------------------

def _project_pjm(phi: list, phi0: list, dy, du, params: DdilcParams) -> int:
    """Projection update of the diagonal ``phi`` in place, then the reset pass.

    Returns the number of elements reset to ``phi0``. Signs compare as
    ``np.sign`` does, sign(0) = 0 included; a NaN fails its box test and is
    reset.
    """
    step = params.estimator_step
    denom = params.estimator_weight + sum(map(mul, du, du))
    lo, hi = params.diag_floor, params.diag_span * params.diag_floor
    resets = 0
    for i, (p, p0, y, d) in enumerate(zip(phi, phi0, dy, du)):
        v = p + step * ((y - p * d) * d) / denom
        if (not lo <= abs(v) <= hi
                or (v > 0.0) != (p0 > 0.0) or (v < 0.0) != (p0 < 0.0)):
            v = p0
            resets += 1
        phi[i] = v
    return resets


def _descend_gain(xi: list, phi: list, e_t, s_t, s_next, params: DdilcParams,
                  cap: float) -> int:
    """Gradient step on the rows ``xi`` in place, then saturation at +/-cap.

    xi <- xi - xi * eta * lambda * (dE_t dE_t^T) + eta * phi^T e_t dE_{t+1}^T,
    with the output sensitivity replaced by the diagonal PJM estimate
    ``phi``. The decay term xi (c s_t s_t^T) is applied as
    (xi s_t)(c s_t^T), which costs one pass per row. Returns the number of
    entries clipped.
    """
    eta = params.gain_step
    decay = [eta * params.energy_weight * s for s in s_t]
    clipped = 0
    for row, p, e in zip(xi, phi, e_t):
        r = sum(map(mul, row, s_t))
        a = eta * (p * e)                       # eta (phi^T e_t)_i
        for k, (dk, sk) in enumerate(zip(decay, s_next)):
            v = row[k] - r * dk + a * sk
            if v > cap:
                v = cap
                clipped += 1
            elif v < -cap:
                v = -cap
                clipped += 1
            row[k] = v
    return clipped


def _floats(a) -> list:
    return np.asarray(a, dtype=float).tolist()


def _flat(a) -> array:
    """``a`` as one flat ``array('d')``, row-major."""
    return array("d", np.ascontiguousarray(a, dtype=float).tobytes())


def estimate_pjm(est: PjmEstimate, dy: np.ndarray, du_b: np.ndarray,
                 params: DdilcParams) -> PjmEstimate:
    """Normalized projection update of the PJM followed by the reset pass.

    phi += step * (dy - phi du_b) du_b^T / (weight + ||du_b||^2) on the
    diagonal; elements leaving their box or flipping sign (sign(0) = 0 counts
    as a sign) are restored to the trial-start value. A numpy wrapper of the
    controller's kernel, for estimating a PJM outside a trial; an estimate
    with a nonzero off-diagonal element raises ``ValueError``.
    """
    phi, phi0 = (np.asarray(a, dtype=float) for a in (est.phi_hat, est.phi_init))
    for a in (phi, phi0):
        if np.count_nonzero(a[~np.eye(*a.shape, dtype=bool)]):
            raise ValueError("estimate_pjm: the PJM is diagonal, but an "
                             "off-diagonal element is nonzero")
    diag = np.diagonal(phi).tolist()
    _project_pjm(diag, np.diagonal(phi0).tolist(), _floats(dy), _floats(du_b),
                 params)
    return PjmEstimate(np.diag(diag), est.phi_init)


def pair_drive_to_excitations(model, drive) -> list[float]:
    """Map per-joint drives in [0,1] to per-muscle excitations, a list of
    Python floats.

    drive 0.5 is rest; above rest the joint's positive-torque muscles are
    excited proportionally, below rest the negative-torque muscles; the
    opposing group stays at its activation floor. Reads the model's
    (joint, sign, a_min, 1 - a_min) table.
    """
    s = [2.0 * float(v) - 1.0 for v in drive]
    return [a_min + max(sign * s[j], 0.0) * span
            for j, sign, a_min, span in model._pair_drive]


class DdilcController:
    """Ties the learning pieces into a per-tick control law for one task.

    Construction requires a measured sensitivity matrix S (y_dim x channels):
    the tip displacement per unit command step for each channel, from a probe
    run. The controller then works in transformed coordinates gamma*pinv(S)*y
    so its internal estimation problem is well-scaled regardless of plant
    units.

    It plugs into ``harness.run_trial`` through the trial protocol:
    ``begin_iteration()``, then ``step(t, y, q, y_d, y_d_next)`` at every
    control tick, which reads the targets and ignores the posture ``q``,
    and ``finish_iteration(y_final, y_d_final)``. A trial must step exactly
    the ``horizon`` control ticks 0 .. horizon - 1; a step past the horizon,
    or a trial that finishes short of it, raises ``ValueError`` naming the
    horizon and the tick or the trial's tick count.

    The per-tick state lives in Python lists; ``est`` and ``xi_hat`` read it
    out as arrays at any time, mid-trial included. The trial's error series
    is one preallocated (horizon + 1, y_dim) float array that ``step`` and
    ``finish_iteration`` write a row of in place, and ``begin_iteration``
    learns from. ``u_ff`` is the (horizon, m) feedforward table itself;
    ``begin_iteration`` copies it into the flat buffer the ticks read, so
    changes to it take effect at the next ``begin_iteration``.
    ``rest_drive`` is the per-channel bias the drive is composed on, within
    [0, 1]; the harness passes the measured drives that hold the start
    posture, so the first iteration continues the pre-trial equilibrium.
    ``response_lag_ticks``, a finite number >= 0, is the probe's identified
    response lag in control ticks, which scales the feedforward's
    error-increment term. ``counts`` holds the current iteration's
    ``DdilcCounts``. The feedback gains ``xi_hat`` start at zero and carry
    over from trial to trial; the controller draws no random numbers.
    """

    def __init__(self, sensitivity: np.ndarray, params: DdilcParams,
                 horizon: int, *, response_lag_ticks: float,
                 rest_drive: np.ndarray):
        sensitivity = np.asarray(sensitivity, dtype=float)
        self.y_dim, self.m = sensitivity.shape
        _check_number("DdilcController.response_lag_ticks", response_lag_ticks, float)
        _check_bound("DdilcController.response_lag_ticks", response_lag_ticks, ">= 0")
        self.params = params
        self.horizon = horizon
        self.rest_drive = np.asarray(rest_drive, dtype=float).copy()
        if self.rest_drive.shape != (self.m,):
            raise ValueError("rest_drive must have one entry per channel")
        self._rest = self.rest_drive.tolist()
        if not all(0.0 <= v <= 1.0 for v in self._rest):
            raise ValueError(f"rest_drive must lie within [0, 1]: {self._rest}")
        self.gamma = params.diag_floor * math.sqrt(params.diag_span)
        s_pinv = np.linalg.pinv(sensitivity, rcond=1e-8)
        self.transform = self.gamma * s_pinv            # (m, y_dim)
        self.beta = params.feedforward_scale * s_pinv   # physical-units gain
        # feed the error increment scaled by the plant's identified response
        # lag (in control ticks) so the learning inverts gain and phase
        self.beta_deriv = response_lag_ticks * self.beta
        self._phi0 = [self.gamma] * self.m
        self._xi_cap = params.xi_cap(self.m)
        self._xi = [[0.0] * self.m for _ in range(self.m)]
        self.u_ff = np.zeros((horizon, self.m))
        self._errors = np.zeros((horizon + 1, self.y_dim))
        self._transform_rows = self.transform.tolist()
        self._start_trial()
        self.ff_shrink_count = 0
        self.counts = DdilcCounts()
        self._errors_recorded = False

    @property
    def est(self) -> PjmEstimate:
        """The live PJM estimate, as arrays."""
        return PjmEstimate(np.diag(self._phi), np.diag(self._phi0))

    @property
    def xi_hat(self) -> np.ndarray:
        """The live feedback gains, (m, m)."""
        return np.array(self._xi)

    # -- iteration lifecycle -------------------------------------------------

    def _start_trial(self) -> None:
        self._phi = self._phi0[:]
        self._t = -1            # the last control tick stepped
        self._y_prev = None
        self._drive_prev = None
        # replaced, never mutated, so they may start shared
        self._du_prev = self._de_prev = [0.0] * self.m

    def begin_iteration(self) -> None:
        """Start a repetition: learn feedforward from the last run, reset PJM.

        Iteration-axis learning from the last run's error series e:
        u_f(t) += beta e(t+1) + beta_deriv (e(t+1) - e(t)). The increment
        term, scaled to the plant's identified response lag, cancels the
        phase the plant dynamics add over the trajectory band, which plain
        proportional learning cannot tolerate beyond 90 degrees.
        """
        self.counts = DdilcCounts()
        if self._errors_recorded:
            u_ff = self.u_ff + self._errors[1:] @ self.beta.T
            u_ff = u_ff + (self._errors[1:] - self._errors[:-1]) @ self.beta_deriv.T
            # Anti-windup: errors inside the plant's response lag of the trial
            # start cannot be driven to zero by any table entry, so without a
            # bound they would integrate forever past the saturation limits.
            lo = 0.0 - self.rest_drive     # not -rest_drive: 0.0 - 0.0 is 0.0, not -0.0
            hi = 1.0 - self.rest_drive
            self.counts.ff_clips = int(np.count_nonzero((u_ff < lo) | (u_ff > hi)))
            self.u_ff = np.clip(u_ff, lo, hi, out=u_ff)
        self._start_trial()
        self._ff = _flat(self.u_ff)
        self._errors_recorded = False

    def step(self, t: int, y, q, y_d, y_d_next) -> list[float]:
        """Emit the per-joint drive for tick t given the measured output y(t).

        ``y``, the target ``y_d`` at tick t and ``y_d_next`` at tick t + 1
        are sequences of y_dim floats; the posture ``q`` is not read. The
        drive is a new list of floats. A tick at or past the horizon raises
        ``ValueError``.
        """
        if t >= self.horizon:
            raise ValueError(f"control tick {t} is past the DDILC horizon of "
                             f"{self.horizon} control ticks")
        params = self.params
        phi = self._phi
        du_prev = self._du_prev
        e_phys = [a - b for a, b in zip(y_d, y)]
        self._errors[t] = e_phys
        self._t = t
        y_t, e_t, r_next = [], [], []       # transformed output, error, next target
        for row in self._transform_rows:
            y_t.append(sum(map(mul, row, y)))
            e_t.append(sum(map(mul, row, e_phys)))
            r_next.append(sum(map(mul, row, y_d_next)))
        # The data model pairs output increments with the drive increments the
        # plant actually received (post-saturation), keeping every internal
        # signal bounded even when the raw feedback saturates.
        if self._y_prev is not None:
            self.counts.pjm_diag_resets += _project_pjm(
                phi, self._phi0,
                [a - b for a, b in zip(y_t, self._y_prev)], du_prev, params)
        # predicted error increment: the one-step-ahead error of the data
        # model, (r - y_t) - phi du, less the current error
        de = [r - a - p * d - e for r, a, p, d, e in zip(r_next, y_t, phi, du_prev, e_t)]
        self.counts.xi_clips += _descend_gain(self._xi, phi, e_t,
                                              self._de_prev, de,
                                              params, self._xi_cap)
        # rest drive + feedback + this tick's feedforward row, saturated to [0, 1]
        drive = []
        for i, (b, row) in enumerate(zip(self._rest, self._xi), t * self.m):
            v = b + sum(map(mul, row, de)) + self._ff[i]
            drive.append(0.0 if v < 0.0 else 1.0 if v > 1.0 else v)   # NaN stays, as in np.clip
        if self._drive_prev is not None:
            self._du_prev = [a - b for a, b in zip(drive, self._drive_prev)]
        self._drive_prev = drive
        self._y_prev = y_t
        self._de_prev = de
        return list(drive)

    def finish_iteration(self, y_final, y_d_final) -> None:
        """Record the final-sample error, target ``y_d_final`` less output
        ``y_final``, so the next repetition can learn. A trial whose last
        control tick was not the horizon's last raises ``ValueError``.
        """
        if self._t != self.horizon - 1:
            raise ValueError(f"the trial ran {self._t + 1} control ticks on "
                             f"a DDILC horizon of {self.horizon}")
        self._errors[self.horizon] = [a - b for a, b in zip(y_d_final, y_final)]
        self._errors_recorded = True

    def shrink_feedforward(self) -> None:
        """Divergence response: halve the learning gains and zero the table.

        The next ``begin_iteration`` still learns from the trial that
        triggered the shrink, so the table the next trial runs is one
        half-gain update from zero, not a zero table."""
        self.beta = 0.5 * self.beta
        self.beta_deriv = 0.5 * self.beta_deriv
        self.u_ff[:] = 0.0
        self.ff_shrink_count += 1
