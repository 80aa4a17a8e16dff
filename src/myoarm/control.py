"""Model-free iterative learning controller with online sensitivity estimation.

The controller treats the plant as an unknown discrete-time map from
per-joint antagonist-pair commands u in [0,1] to task-space output y. Three
mechanisms cooperate:

* a compact-form dynamic linearization: output increments are modeled as
  dy(t+1) = Phi(t) du_b(t), with the partitioned Jacobian matrix (PJM)
  Phi estimated online by a normalized projection step with a box/sign
  reset (``estimate_pjm``);
* a time-axis feedback gain matrix updated by gradient descent on a
  tracking-plus-input-energy cost (``update_feedback_gain``), producing the
  feedback component u_b = Xi . stacked error increments;
* an iteration-axis feedforward table u_f(t), updated between repetitions of
  the same finite-horizon task from the previous run's error
  (``feedforward_update``).

Internally the controller rescales outputs by ``gamma * pinv(S)`` where S is
a measured command-to-output sensitivity matrix (one step-perturbation probe
per channel) and gamma = diag_floor * sqrt(diag_span). In these coordinates
the true sensitivity is approximately gamma * identity, which places the PJM
diagonal inside the prescribed [diag_floor, diag_span*diag_floor] box and
keeps cross terms small — exactly the regime the estimator's reset mechanism
assumes. The feedforward gain acts in physical units as
feedforward_scale * pinv(S).

Commands are per-joint scalars in [0,1]: 0.5 is rest, values above drive the
positive-torque (agonist) muscles of that joint, values below drive the
antagonists, both floored at the muscle's minimum activation
(``pair_drive_to_excitations``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DdilcParams",
    "PjmEstimate",
    "IlcMemory",
    "estimate_pjm",
    "update_feedback_gain",
    "predict_error",
    "feedback_control",
    "feedforward_update",
    "compose_control",
    "pair_drive_to_excitations",
    "DdilcController",
]


@dataclass
class DdilcParams:
    """Hyperparameters of the learning controller.

    gain_step / energy_weight drive the feedback-gain gradient step;
    estimator_step in (0,1] and estimator_weight > 0 normalize the PJM
    projection update; feedforward_scale scales the iteration-axis learning
    gain (as a fraction of the inverse sensitivity); error_window is the
    number of stacked error increments the feedback acts on; offdiag_cap,
    diag_floor, diag_span define the PJM element boxes (off-diagonals within
    +/-offdiag_cap, diagonals within [diag_floor, diag_span*diag_floor]).
    """

    gain_step: float = 0.5          # eta
    energy_weight: float = 1.0      # input-energy weight in the gain cost
    estimator_step: float = 1.0     # projection step, in (0, 1]
    estimator_weight: float = 1.0   # projection regularizer, > 0
    feedforward_scale: float = 0.3  # fraction of inverse sensitivity
    error_window: int = 1           # n_e, >= 1
    offdiag_cap: float = 0.1        # c1
    diag_floor: float = 10.0        # c2
    diag_span: float = 2.0          # a, diagonal box is [c2, a*c2]
    u_min: float = 0.0
    u_max: float = 1.0
    rest_command: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.estimator_step <= 1.0:
            raise ValueError("estimator_step must lie in (0, 1]")
        for name in ("gain_step", "energy_weight", "estimator_weight",
                     "feedforward_scale", "offdiag_cap", "diag_floor"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"DdilcParams.{name} must be > 0")
        if self.diag_span < 1.0:
            raise ValueError("diag_span must be >= 1")
        if self.error_window < 1:
            raise ValueError("error_window must be >= 1")
        if not self.u_min < self.u_max:
            raise ValueError("u_min must be < u_max")
        if not self.u_min <= self.rest_command <= self.u_max:
            raise ValueError("rest_command must lie within [u_min, u_max]")

    def check_dimension(self, m: int) -> None:
        """Well-posedness of the element boxes for an m-channel controller."""
        need = self.offdiag_cap * (2.0 * self.diag_span + 1.0) * (m - 1)
        if not self.diag_floor > need:
            raise ValueError(
                f"diag_floor={self.diag_floor} must exceed "
                f"offdiag_cap*(2*diag_span+1)*(m-1)={need} for m={m}")

    def xi_cap(self, m: int, window: int) -> float:
        """Saturation bound for feedback-gain entries.

        The gain matrix maps output-unit increments back to inputs, so its
        natural scale is the reciprocal of the PJM magnitude cap. Because the
        newest stacked entry is a predicted increment, the feedback closes a
        two-step recursion in the input increments whose characteristic
        polynomial is z^2 + g z - g with loop gain g = ||Xi Phi||; that
        recursion is stable only for g < 1/2. Capping every entry at
        0.4 / (max |Phi element| * stack size) bounds g by 0.4 even with all
        entries pinned, leaving margin for the measured older window entries.
        """
        return 0.4 / (self.diag_span * self.diag_floor * m * math.sqrt(window))


@dataclass
class PjmEstimate:
    """Current PJM estimate plus the trial-start reference it resets to."""

    phi_hat: np.ndarray
    phi_init: np.ndarray


@dataclass
class IlcMemory:
    """State the controller carries across ticks and iterations."""

    u_ff: np.ndarray            # (horizon, m) feedforward table
    e_prev: np.ndarray          # (horizon + 1, y_dim) last iteration's error
    xi_hat: np.ndarray          # (m, m * error_window) feedback gains
    delta_e_window: np.ndarray  # (error_window, m) newest-first increments


def _reset_pass(phi: np.ndarray, phi_init: np.ndarray, params: DdilcParams) -> np.ndarray:
    """Restore every element violating its box or sign to the trial-start value."""
    m = phi.shape[0]
    lo, hi = params.diag_floor, params.diag_span * params.diag_floor
    out = phi.copy()
    for i in range(m):
        for j in range(m):
            v = out[i, j]
            v0 = phi_init[i, j]
            if i == j:
                bad = not (lo <= abs(v) <= hi)
            else:
                bad = abs(v) > params.offdiag_cap
            if bad or (np.sign(v) != np.sign(v0)):
                out[i, j] = v0
    return out


def estimate_pjm(est: PjmEstimate, dy: np.ndarray, du_b: np.ndarray,
                 params: DdilcParams) -> PjmEstimate:
    """Normalized projection update of the PJM followed by the reset pass.

    phi += step * (dy - phi du_b) du_b^T / (weight + ||du_b||^2); elements
    leaving their box or flipping sign are restored to the trial-start value.
    """
    dy = np.asarray(dy, dtype=float)
    du_b = np.asarray(du_b, dtype=float)
    denom = params.estimator_weight + float(du_b @ du_b)
    innovation = dy - est.phi_hat @ du_b
    phi = est.phi_hat + params.estimator_step * np.outer(innovation, du_b) / denom
    return PjmEstimate(_reset_pass(phi, est.phi_init, params), est.phi_init)


def update_feedback_gain(mem: IlcMemory, est: PjmEstimate, e_t: np.ndarray,
                         delta_e_t: np.ndarray, delta_e_t1: np.ndarray,
                         params: DdilcParams) -> IlcMemory:
    """Gradient step on the feedback gains, then elementwise saturation.

    xi <- xi - xi * eta * lambda * (dE_t dE_t^T) + eta * phi^T e_t dE_{t+1}^T,
    with the output sensitivity replaced by the PJM estimate.
    """
    eta = params.gain_step
    decay = eta * params.energy_weight * np.outer(delta_e_t, delta_e_t)
    drive = eta * np.outer(est.phi_hat.T @ np.asarray(e_t, dtype=float), delta_e_t1)
    xi = mem.xi_hat - mem.xi_hat @ decay + drive
    m = mem.xi_hat.shape[0]
    cap = params.xi_cap(m, mem.xi_hat.shape[1] // m)
    np.clip(xi, -cap, cap, out=xi)
    return replace(mem, xi_hat=xi)


def predict_error(y_d_next: np.ndarray, y_t: np.ndarray, phi_hat: np.ndarray,
                  du_b: np.ndarray) -> np.ndarray:
    """One-step-ahead error prediction from the linearized data model."""
    return np.asarray(y_d_next, dtype=float) - np.asarray(y_t, dtype=float) \
        - phi_hat @ np.asarray(du_b, dtype=float)


def feedback_control(mem: IlcMemory, delta_e_stack: np.ndarray) -> np.ndarray:
    """Feedback component: gains applied to the stacked error increments."""
    return mem.xi_hat @ np.asarray(delta_e_stack, dtype=float)


def feedforward_update(mem: IlcMemory, e_prev_series: np.ndarray,
                       beta: np.ndarray,
                       beta_deriv: np.ndarray | None = None) -> IlcMemory:
    """Iteration-axis learning: u_f(t) += beta e(t+1) from the last run.

    ``beta_deriv``, when given, additionally feeds the error increment:
    u_f(t) += beta_deriv (e(t+1) - e(t)). Scaled to the plant's identified
    response lag it cancels the phase the plant dynamics add over the
    trajectory band, which plain proportional learning cannot tolerate beyond
    90 degrees.
    """
    e_prev_series = np.asarray(e_prev_series, dtype=float)
    horizon = mem.u_ff.shape[0]
    if e_prev_series.shape[0] != horizon + 1:
        raise ValueError("error series must cover horizon + 1 samples")
    u_ff = mem.u_ff + e_prev_series[1:] @ np.asarray(beta, dtype=float).T
    if beta_deriv is not None:
        de = e_prev_series[1:] - e_prev_series[:-1]
        u_ff = u_ff + de @ np.asarray(beta_deriv, dtype=float).T
    return replace(mem, u_ff=u_ff)


def compose_control(u_b: np.ndarray, u_f: np.ndarray, params: DdilcParams,
                    rest: np.ndarray | None = None) -> np.ndarray:
    """Rest command plus feedback plus feedforward, saturated elementwise.

    ``rest`` overrides the scalar rest command with a per-channel bias, e.g.
    the measured drives that hold the start posture, so the first iteration
    continues the pre-trial equilibrium instead of stepping away from it.
    """
    base = params.rest_command if rest is None else np.asarray(rest, dtype=float)
    raw = base + np.asarray(u_b, dtype=float) + np.asarray(u_f, dtype=float)
    return np.clip(raw, params.u_min, params.u_max)


def pair_drive_to_excitations(model, drive: np.ndarray) -> np.ndarray:
    """Map per-joint drives in [0,1] to per-muscle excitations.

    drive 0.5 is rest; above rest the joint's positive-torque muscles are
    excited proportionally, below rest the negative-torque muscles; the
    opposing group stays at its activation floor. Reads the model's
    (joint, sign, a_min, 1 - a_min) table.
    """
    s = [2.0 * v - 1.0 for v in np.asarray(drive, dtype=float).tolist()]
    return np.array([a_min + max(sign * s[j], 0.0) * span
                     for j, sign, a_min, span in model._pair_drive])


class DdilcController:
    """Ties the learning pieces into a per-tick control law for one task.

    Construction requires a measured sensitivity matrix S (y_dim x channels):
    the tip displacement per unit command step for each channel, from a probe
    run. The controller then works in transformed coordinates gamma*pinv(S)*y
    so its internal estimation problem is well-scaled regardless of plant
    units.
    """

    def __init__(self, sensitivity: np.ndarray, params: DdilcParams,
                 horizon: int, rng: np.random.Generator,
                 response_lag_ticks: float = 0.0,
                 rest_drive: np.ndarray | None = None):
        sensitivity = np.asarray(sensitivity, dtype=float)
        self.y_dim, self.m = sensitivity.shape
        params.check_dimension(self.m)
        if response_lag_ticks < 0.0:
            raise ValueError("response_lag_ticks must be >= 0")
        self.params = params
        self.horizon = horizon
        if rest_drive is None:
            self.rest_drive = np.full(self.m, params.rest_command)
        else:
            self.rest_drive = np.asarray(rest_drive, dtype=float).copy()
            if self.rest_drive.shape != (self.m,):
                raise ValueError("rest_drive must have one entry per channel")
            if np.any(self.rest_drive < params.u_min) or \
                    np.any(self.rest_drive > params.u_max):
                raise ValueError("rest_drive must lie within [u_min, u_max]")
        self.gamma = params.diag_floor * math.sqrt(params.diag_span)
        s_pinv = np.linalg.pinv(sensitivity, rcond=1e-8)
        self.transform = self.gamma * s_pinv            # (m, y_dim)
        self.beta = params.feedforward_scale * s_pinv   # physical-units gain
        # feed the error increment scaled by the plant's identified response
        # lag (in control ticks) so the learning inverts gain and phase
        self.beta_deriv = response_lag_ticks * self.beta
        n_e = params.error_window
        phi_init = self.gamma * np.eye(self.m)
        self.est = PjmEstimate(phi_init.copy(), phi_init)
        xi_cap = params.xi_cap(self.m, n_e)
        self.mem = IlcMemory(
            u_ff=np.zeros((horizon, self.m)),
            e_prev=np.zeros((horizon + 1, self.y_dim)),
            xi_hat=rng.uniform(-0.5 * xi_cap, 0.5 * xi_cap,
                               size=(self.m, self.m * n_e)),
            delta_e_window=np.zeros((n_e, self.m)),
        )
        self.iteration = 0
        self.ff_shrink_count = 0
        self._errors_recorded = False

    # -- iteration lifecycle -------------------------------------------------

    def begin_iteration(self, y_d0: np.ndarray) -> None:
        """Start a repetition: learn feedforward from the last run, reset PJM."""
        if self._errors_recorded:
            self.mem = feedforward_update(self.mem, self.mem.e_prev, self.beta,
                                          self.beta_deriv)
            # Anti-windup: errors inside the plant's response lag of the trial
            # start cannot be driven to zero by any table entry, so without a
            # bound they would integrate forever past the saturation limits.
            np.clip(self.mem.u_ff,
                    self.params.u_min - self.rest_drive,
                    self.params.u_max - self.rest_drive,
                    out=self.mem.u_ff)
        self.iteration += 1
        self.est = PjmEstimate(self.est.phi_init.copy(), self.est.phi_init)
        self.mem.delta_e_window[:] = 0.0
        self._y_d_t = np.asarray(y_d0, dtype=float)
        self._y_prev = None
        self._e_prev = np.zeros(self.m)
        self._drive_prev = None
        self._du_prev = np.zeros(self.m)
        self._stack_prev = np.zeros(self.m * self.params.error_window)
        self._errors_recorded = False

    def step(self, t: int, y: np.ndarray, y_d_next: np.ndarray) -> np.ndarray:
        """Emit the per-joint drive for tick t given the measured output y(t)."""
        y = np.asarray(y, dtype=float)
        y_t = self.transform @ y
        e_phys = self._y_d_t - y
        self.mem.e_prev[t] = e_phys
        e_t = self.transform @ e_phys
        window = self.mem.delta_e_window
        # The data model pairs output increments with the drive increments the
        # plant actually received (post-saturation), keeping every internal
        # signal bounded even when the raw feedback saturates.
        if self._y_prev is not None:
            self.est = estimate_pjm(self.est, y_t - self._y_prev,
                                    self._du_prev, self.params)
            window[1:] = window[:-1]
            window[0] = e_t - self._e_prev
        e_next_hat = predict_error(self.transform @ np.asarray(y_d_next, dtype=float),
                                   y_t, self.est.phi_hat, self._du_prev)
        stack_next = np.concatenate([[e_next_hat - e_t], window[:-1]], axis=0).ravel() \
            if self.params.error_window > 1 else (e_next_hat - e_t)
        self.mem = update_feedback_gain(self.mem, self.est, e_t,
                                        self._stack_prev, stack_next, self.params)
        u_b = feedback_control(self.mem, stack_next)
        drive = compose_control(u_b, self.mem.u_ff[t], self.params,
                                rest=self.rest_drive)
        if self._drive_prev is not None:
            self._du_prev = drive - self._drive_prev
        self._drive_prev = drive
        self._y_prev = y_t
        self._e_prev = e_t
        self._stack_prev = stack_next
        self._y_d_t = np.asarray(y_d_next, dtype=float)
        return drive

    def finish_iteration(self, y_final: np.ndarray) -> None:
        """Record the final-sample error so the next repetition can learn."""
        self.mem.e_prev[self.horizon] = self._y_d_t - np.asarray(y_final, dtype=float)
        self._errors_recorded = True

    def shrink_feedforward(self) -> None:
        """Divergence response: halve the learning gains and restart the table."""
        self.beta = 0.5 * self.beta
        self.beta_deriv = 0.5 * self.beta_deriv
        self.mem.u_ff[:] = 0.0
        self.ff_shrink_count += 1
