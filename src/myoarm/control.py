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
  feedback component u_b = Xi . (predicted error increment) (``_feedback``);
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

The per-tick law runs on the controller state held as Python lists of
floats (row-major matrices, the PJM as its diagonal), through the list
kernels below, the one implementation of each equation; ``estimate_pjm``
wraps the PJM kernel for numpy callers. For vectors of a few elements this
is several times cheaper than numpy calls, and the result does not depend
on the BLAS build.

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
import numbers
from dataclasses import dataclass, fields
from operator import mul

import numpy as np

__all__ = [
    "DdilcParams",
    "DdilcCounts",
    "PjmEstimate",
    "estimate_pjm",
    "pair_drive_to_excitations",
    "DdilcController",
]


def _check_numbers(obj) -> None:
    """``ValueError`` naming ``Class.field`` unless every field of the
    dataclass ``obj`` whose default is an int holds an integer, and every
    field whose default is a float a finite number; a bool is neither. So
    the value echoes as text that reads back as itself."""
    for f in fields(obj):
        v, kind = getattr(obj, f.name), type(f.default)
        if kind in (int, float) and (isinstance(v, bool) or not isinstance(
                v, numbers.Integral if kind is int else numbers.Real)
                or kind is float and not math.isfinite(v)):
            what = "an integer" if kind is int else "a finite number"
            raise ValueError(f"{type(obj).__name__}.{f.name} must be {what}, got {v!r}")


@dataclass(frozen=True)
class DdilcParams:
    """Hyperparameters of the learning controller.

    gain_step / energy_weight drive the feedback-gain gradient step;
    estimator_step in (0,1] and estimator_weight > 0 normalize the PJM
    projection update; feedforward_scale scales the iteration-axis learning
    gain (as a fraction of the inverse sensitivity); diag_floor and
    diag_span define the box of each (diagonal) PJM element, whose magnitude
    stays within [diag_floor, diag_span*diag_floor]. Every field is a
    finite number.
    """

    gain_step: float = 0.5          # eta
    energy_weight: float = 1.0      # input-energy weight in the gain cost
    estimator_step: float = 1.0     # projection step, in (0, 1]
    estimator_weight: float = 1.0   # projection regularizer, > 0
    feedforward_scale: float = 0.3  # fraction of inverse sensitivity
    diag_floor: float = 10.0        # c2
    diag_span: float = 2.0          # a, diagonal box is [c2, a*c2]

    def __post_init__(self) -> None:
        _check_numbers(self)
        if not 0.0 < self.estimator_step <= 1.0:
            raise ValueError("estimator_step must lie in (0, 1]")
        for name in ("gain_step", "energy_weight", "estimator_weight",
                     "feedforward_scale", "diag_floor"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"DdilcParams.{name} must be > 0")
        if self.diag_span < 1.0:
            raise ValueError("diag_span must be >= 1")

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
# list kernels: one implementation of each per-tick equation
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


def _predict(y_d_next, y_t, phi: list, du) -> list[float]:
    """One-step-ahead error prediction from the linearized data model, with
    the diagonal PJM ``phi``."""
    return [a - b - p * d for a, b, p, d in zip(y_d_next, y_t, phi, du)]


def _feedback(xi: list, de) -> list[float]:
    """Feedback component: gains applied to the error increment."""
    return [sum(map(mul, row, de)) for row in xi]


def _compose(base, u_b, u_f) -> list[float]:
    """Rest drive plus feedback plus feedforward, saturated to [0, 1]
    elementwise."""
    out = []
    for b, ub, uf in zip(base, u_b, u_f):
        v = b + ub + uf
        out.append(0.0 if v < 0.0 else 1.0 if v > 1.0 else v)   # NaN stays, as in np.clip
    return out


def _floats(a) -> list:
    return np.asarray(a, dtype=float).tolist()


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

    The per-tick state lives in Python lists; ``est`` and ``xi_hat`` read it
    out as arrays at any time, mid-trial included. ``u_ff`` is the (horizon,
    m) feedforward table itself: changes to it take effect at the next
    ``begin_iteration``. ``rest_drive`` is the per-channel bias the drive is
    composed on, within [0, 1]; the harness passes the measured
    drives that hold the start posture, so the first iteration continues the
    pre-trial equilibrium. ``response_lag_ticks`` (>= 0) is the probe's
    identified response lag in control ticks, which scales the feedforward's
    error-increment term. ``counts`` holds the current iteration's
    ``DdilcCounts``. The feedback gains ``xi_hat`` start at zero and carry
    over from trial to trial; the controller draws no random numbers.
    """

    def __init__(self, sensitivity: np.ndarray, params: DdilcParams,
                 horizon: int, *, response_lag_ticks: float,
                 rest_drive: np.ndarray):
        sensitivity = np.asarray(sensitivity, dtype=float)
        self.y_dim, self.m = sensitivity.shape
        if response_lag_ticks < 0.0:
            raise ValueError("response_lag_ticks must be >= 0")
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
        # rows are replaced, never mutated, so they may start shared
        self._errors = [[0.0] * self.y_dim] * (horizon + 1)
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
        self._y_prev = None
        self._drive_prev = None
        # replaced, never mutated, so they may start shared
        self._du_prev = self._de_prev = [0.0] * self.m

    def begin_iteration(self, y_d0: np.ndarray) -> None:
        """Start a repetition: learn feedforward from the last run, reset PJM.

        Iteration-axis learning from the last run's error series e:
        u_f(t) += beta e(t+1) + beta_deriv (e(t+1) - e(t)). The increment
        term, scaled to the plant's identified response lag, cancels the
        phase the plant dynamics add over the trajectory band, which plain
        proportional learning cannot tolerate beyond 90 degrees.
        """
        self.counts = DdilcCounts()
        if self._errors_recorded:
            errors = np.array(self._errors)
            u_ff = self.u_ff + errors[1:] @ self.beta.T
            u_ff = u_ff + (errors[1:] - errors[:-1]) @ self.beta_deriv.T
            # Anti-windup: errors inside the plant's response lag of the trial
            # start cannot be driven to zero by any table entry, so without a
            # bound they would integrate forever past the saturation limits.
            lo = 0.0 - self.rest_drive     # not -rest_drive: 0.0 - 0.0 is 0.0, not -0.0
            hi = 1.0 - self.rest_drive
            self.counts.ff_clips = int(np.count_nonzero((u_ff < lo) | (u_ff > hi)))
            self.u_ff = np.clip(u_ff, lo, hi, out=u_ff)
        self._start_trial()
        self._ff_rows = self.u_ff.tolist()
        self._y_d_t = _floats(y_d0)
        self._errors_recorded = False

    def step(self, t: int, y, y_d_next) -> list[float]:
        """Emit the per-joint drive for tick t given the measured output y(t).

        ``y`` and ``y_d_next`` are sequences of y_dim floats; the drive is a
        new list of floats.
        """
        params = self.params
        rows = self._transform_rows
        phi = self._phi
        du_prev = self._du_prev
        y_t = [sum(map(mul, row, y)) for row in rows]
        e_phys = [a - b for a, b in zip(self._y_d_t, y)]
        self._errors[t] = e_phys
        e_t = [sum(map(mul, row, e_phys)) for row in rows]
        # The data model pairs output increments with the drive increments the
        # plant actually received (post-saturation), keeping every internal
        # signal bounded even when the raw feedback saturates.
        if self._y_prev is not None:
            self.counts.pjm_diag_resets += _project_pjm(
                phi, self._phi0,
                [a - b for a, b in zip(y_t, self._y_prev)], du_prev, params)
        e_next_hat = _predict([sum(map(mul, row, y_d_next)) for row in rows],
                              y_t, phi, du_prev)
        de = [a - b for a, b in zip(e_next_hat, e_t)]
        self.counts.xi_clips += _descend_gain(self._xi, phi, e_t,
                                              self._de_prev, de,
                                              params, self._xi_cap)
        drive = _compose(self._rest, _feedback(self._xi, de), self._ff_rows[t])
        if self._drive_prev is not None:
            self._du_prev = [a - b for a, b in zip(drive, self._drive_prev)]
        self._drive_prev = drive
        self._y_prev = y_t
        self._de_prev = de
        self._y_d_t = y_d_next
        return list(drive)

    def finish_iteration(self, y_final) -> None:
        """Record the final-sample error so the next repetition can learn."""
        self._errors[self.horizon] = [a - b for a, b in zip(self._y_d_t, y_final)]
        self._errors_recorded = True

    def shrink_feedforward(self) -> None:
        """Divergence response: halve the learning gains and restart the table."""
        self.beta = 0.5 * self.beta
        self.beta_deriv = 0.5 * self.beta_deriv
        self.u_ff[:] = 0.0
        self.ff_shrink_count += 1
