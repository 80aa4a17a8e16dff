"""Learning-controller unit tests: frozen scalar arithmetic, estimator
convergence on a known linear plant, box/sign reset invariants, and a small
closed-loop learning exercise on a synthetic lag plant.
"""

import math
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from myoarm.control import (
    DdilcController,
    DdilcCounts,
    DdilcParams,
    PjmEstimate,
    _descend_gain,
    _flat,
    _project_pjm,
    estimate_pjm,
    pair_drive_to_excitations,
)
from myoarm.harness import ExperimentConfig, TrajectorySpec, run_ilc
from myoarm.presets import planar2x4, spatial_ltdm


def scalar_params(**kw):
    defaults = dict(diag_floor=1.0, diag_span=2.0)
    defaults.update(kw)
    return DdilcParams(**defaults)


def scalar_estimate(phi=1.0, init=1.0):
    return PjmEstimate(np.array([[float(phi)]]), np.array([[float(init)]]))


def descend_scalar_gain(xi, phi, e_t, s_t, s_next, params):
    """The gain kernel on 1 x 1 lists; returns (new gain, entries clipped)."""
    rows = [[float(xi)]]
    clipped = _descend_gain(rows, [float(phi)], [e_t], [s_t], [s_next], params,
                            params.xi_cap(1))
    return rows[0][0], clipped


# ---------------------------------------------------------------------------
# PJM estimation
# ---------------------------------------------------------------------------

def test_estimate_pjm_scalar_hand_value():
    # phi' = 1 + 1*(2 - 1*1)*1 / (1 + 1) = 1.5
    est = estimate_pjm(scalar_estimate(), np.array([2.0]), np.array([1.0]),
                       scalar_params())
    assert est.phi_hat[0, 0] == pytest.approx(1.5, abs=1e-15)


def test_estimate_pjm_zero_regressor_unchanged():
    est0 = scalar_estimate(1.3)
    est1 = estimate_pjm(est0, np.array([0.7]), np.array([0.0]), scalar_params())
    assert est1.phi_hat[0, 0] == est0.phi_hat[0, 0]


def test_estimate_pjm_zero_innovation_unchanged():
    est0 = scalar_estimate(1.3)
    est1 = estimate_pjm(est0, np.array([1.3 * 0.4]), np.array([0.4]), scalar_params())
    assert est1.phi_hat[0, 0] == pytest.approx(1.3, abs=1e-15)


def test_estimate_pjm_reset_restores_out_of_box_diagonal():
    # an update dragging the diagonal below diag_floor snaps back to the
    # trial-start value
    est = estimate_pjm(scalar_estimate(phi=1.05, init=1.5), np.array([-10.0]),
                       np.array([1.0]), scalar_params())
    assert est.phi_hat[0, 0] == 1.5


def test_project_pjm_counts_resets_by_kind():
    # innovations -3.05, 12 and -0.4 over a denominator of 4: element 0 leaves
    # its box; element 1 lands on -1.5, inside its box, but flips sign; both
    # are restored to their trial-start values; element 2 moves to 1.4 and
    # stays
    phi0 = [1.5, 1.5, 1.5]
    phi = [1.05, 1.5, 1.5]
    assert _project_pjm(phi, phi0, [-2.0, 10.5, 1.1], [1.0, -1.0, 1.0],
                        scalar_params()) == 2
    assert phi[:2] == phi0[:2]
    assert phi[2] == pytest.approx(1.4, abs=1e-15)


def test_estimate_pjm_reset_preserves_signs_and_boxes():
    init = np.diag([1.4, -1.4])
    est = PjmEstimate(init.copy(), init.copy())
    rng = np.random.default_rng(5)
    for _ in range(200):
        est = estimate_pjm(est, rng.normal(scale=3.0, size=2),
                           rng.normal(scale=1.0, size=2), scalar_params())
        phi = est.phi_hat
        for i in range(2):
            assert 1.0 <= abs(phi[i, i]) <= 2.0
            assert np.sign(phi[i, i]) == np.sign(init[i, i])
            assert phi[i, 1 - i] == 0.0


@pytest.mark.parametrize("which", ["phi_hat", "phi_init"])
def test_estimate_pjm_rejects_an_off_diagonal_element(which):
    arrays = {"phi_hat": np.diag([1.4, 1.4]), "phi_init": np.diag([1.4, 1.4])}
    arrays[which][1, 0] = 0.05
    with pytest.raises(ValueError, match="off-diagonal element is nonzero"):
        estimate_pjm(PjmEstimate(**arrays), np.zeros(2), np.ones(2),
                     scalar_params())


def test_estimator_converges_on_scalar_lti_plant():
    # plant y(t+1) = y(t) + phi_true * u(t); the estimator pairs
    # dy(t) = y(t) - y(t-1) with du(t-1)
    phi_true = 1.5
    params = scalar_params()
    est = scalar_estimate(phi=1.0, init=1.0)
    u_prev, u_prev2 = 0.0, 0.0
    rng = np.random.default_rng(17)
    steps_needed = None
    for step in range(1, 201):
        u = 0.5 * rng.choice([-1.0, 1.0])
        du_prev = u_prev - u_prev2
        dy = phi_true * du_prev
        est = estimate_pjm(est, np.array([dy]), np.array([du_prev]), params)
        u_prev2, u_prev = u_prev, u
        if steps_needed is None and abs(est.phi_hat[0, 0] - phi_true) <= 0.05 * phi_true:
            steps_needed = step
    assert steps_needed is not None and steps_needed <= 200
    assert est.phi_hat[0, 0] == pytest.approx(phi_true, rel=0.05)


# ---------------------------------------------------------------------------
# feedback gain update
# ---------------------------------------------------------------------------

def test_update_feedback_gain_scalar_hand_value():
    # xi' = 0.1 - 0.1*0.5*1*1 + 0.5*2*0.3*1 = 0.35; box params chosen so the
    # saturation cap (0.4 here) does not clip the hand value
    params = scalar_params(gain_step=0.5, energy_weight=1.0,
                           diag_floor=1.0, diag_span=1.0)
    xi, clipped = descend_scalar_gain(0.1, 2.0, 0.3, 1.0, 1.0, params)
    assert xi == pytest.approx(0.35, abs=1e-15)
    assert clipped == 0


def test_update_feedback_gain_zero_step_unchanged():
    # limit case outside DdilcParams (gain_step > 0): the kernel reads only
    # these two fields, so a stand-in carries them
    params = SimpleNamespace(gain_step=0.0, energy_weight=1.0)
    rows = [[0.2]]
    _descend_gain(rows, [2.0], [0.5], [1.0], [1.0], params, scalar_params().xi_cap(1))
    assert rows == [[0.2]]


def test_update_feedback_gain_no_excitation_unchanged():
    assert descend_scalar_gain(0.2, 2.0, 0.0, 0.0, 0.0, scalar_params())[0] == 0.2


def test_update_feedback_gain_saturates():
    # scalar cap = 0.4/(diag_span*diag_floor*m) = 0.2 here
    xi, clipped = descend_scalar_gain(0.0, 2.0, 10.0, 0.0, 1.0,
                                      scalar_params(gain_step=5.0))
    assert xi == pytest.approx(0.2)
    assert clipped == 1


# ---------------------------------------------------------------------------
# prediction, feedback, feedforward, composition
# ---------------------------------------------------------------------------

def tick_1x1(*, y, y_d_next, phi=1.0, du=0.0, xi=0.0, ff=0.0):
    """One ``step``, at tick 1, of a 1 x 1 controller whose transform is the
    identity and whose rest drive is 0.5, from the PJM ``phi``, the last
    drive increment ``du``, the gain ``xi`` and the feedforward entry ``ff``.
    The target at the tick is ``y``: with no current error and no previous
    increment the gain step leaves ``xi`` as it is. Returns (the drive, the
    predicted error increment)."""
    ctl = DdilcController(np.array([[1.0]]), scalar_params(diag_span=1.0), horizon=2,
                          response_lag_ticks=0.0, rest_drive=[0.5])
    ctl.begin_iteration([y])
    assert ctl._transform_rows == [[1.0]]
    ctl._phi, ctl._du_prev, ctl._xi = [phi], [du], [[xi]]
    ctl._ff = _flat([9.0, ff])       # the flat table: tick 1's row starts at 1
    drive = ctl.step(1, [y], [y_d_next])
    assert ctl.xi_hat[0, 0] == xi
    return drive[0], ctl._de_prev[0]


def test_predict_error_scalar_hand_value():
    # (1.0 - 0.8) - 2.0 * 0.05, less a current error of 0
    _, de = tick_1x1(y=0.8, y_d_next=1.0, phi=2.0, du=0.05)
    assert de == pytest.approx(0.1, abs=1e-15)


def test_predict_error_zero_feedback_increment():
    _, de = tick_1x1(y=0.8, y_d_next=1.0, phi=2.0, du=0.0)
    assert de == pytest.approx(0.2)
    _, de = tick_1x1(y=0.8, y_d_next=0.8, phi=2.0, du=0.0)
    assert de == 0.0


def test_feedback_control_scalar():
    # rest 0.5 plus the gain times the predicted increment (0.1 here)
    drive, de = tick_1x1(y=0.8, y_d_next=0.9, xi=0.35)
    assert de == pytest.approx(0.1)
    assert drive == pytest.approx(0.535)
    assert tick_1x1(y=0.8, y_d_next=0.9, xi=0.0)[0] == 0.5
    assert tick_1x1(y=0.8, y_d_next=0.8, xi=0.35)[0] == 0.5


def _feedforward_after(ctl, y, y_d):
    """Run one iteration holding the output at ``y`` under the constant target
    ``y_d``, then begin the next; returns the table it starts with."""
    ctl.begin_iteration([y_d])
    for t in range(ctl.horizon):
        ctl.step(t, [y], [y_d])
    ctl.finish_iteration([y])
    ctl.begin_iteration([y_d])
    return ctl.u_ff.copy()


def test_feedforward_update_scalar():
    # beta = feedforward_scale * pinv(S) = 0.5 and no lag term: every entry
    # learns 0.5 * 0.2 from an error of 0.2 at each of the 5 samples
    ctl = DdilcController(np.array([[1.0]]), scalar_params(feedforward_scale=0.5),
                          horizon=4, response_lag_ticks=0.0, rest_drive=[0.5])
    u_ff = _feedforward_after(ctl, 0.0, 0.2)
    assert u_ff == pytest.approx(np.full((4, 1), 0.1))
    # converged fixed point: zero previous error leaves the table untouched
    assert np.array_equal(_feedforward_after(ctl, 0.2, 0.2), u_ff)


def test_feedforward_initialized_to_zero():
    ctl = DdilcController(np.eye(2) * 0.1, DdilcParams(), horizon=8,
                          response_lag_ticks=0.0, rest_drive=[0.5, 0.5])
    assert np.all(ctl.u_ff == 0.0)


def test_feedback_gains_start_at_zero():
    ctl = DdilcController(np.eye(2) * 0.1, DdilcParams(), horizon=8,
                          response_lag_ticks=0.0, rest_drive=[0.5, 0.5])
    assert np.array_equal(ctl.xi_hat, np.zeros((2, 2)))


def test_compose_control_clamps():
    def compose(u_b, u_f):
        # a predicted increment of 2.0 makes the feedback u_b from the gain u_b / 2
        return tick_1x1(y=0.0, y_d_next=2.0, xi=u_b / 2.0, ff=u_f)[0]

    assert compose(0.5, 0.3) == 1.0
    assert compose(-0.5, -0.2) == 0.0
    assert compose(-0.06, 0.03) == pytest.approx(0.47, abs=1e-12)
    assert math.isnan(compose(0.0, math.nan))       # NaN stays, as in np.clip


@pytest.mark.parametrize("rest", [[np.nan, 0.5], [1.2, 0.5], [0.5, -0.1]])
def test_rest_drive_outside_unit_interval_rejected(rest):
    # a NaN used to pass and surface as "control tick 0: drive 0 is nan"
    with pytest.raises(ValueError, match="rest_drive must lie within"):
        DdilcController(np.eye(2), DdilcParams(), horizon=4,
                        response_lag_ticks=0.0, rest_drive=rest)


@pytest.mark.parametrize("lag", [math.nan, math.inf])
def test_response_lag_must_be_a_finite_number(lag):
    # each used to pass, and the next trial failed with "control tick 0:
    # drive 0 is nan", naming neither the lag nor the constructor
    with pytest.raises(ValueError, match="^DdilcController.response_lag_ticks "
                                         f"must be a finite number, got {lag!r}$"):
        DdilcController(np.eye(2), DdilcParams(), horizon=4,
                        response_lag_ticks=lag, rest_drive=[0.5, 0.5])


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        DdilcParams(estimator_step=0.0)
    with pytest.raises(ValueError):
        DdilcParams(estimator_step=1.5)
    with pytest.raises(ValueError):
        DdilcParams(estimator_weight=-1.0)
    with pytest.raises(ValueError):
        DdilcParams(diag_span=0.5)


# ---------------------------------------------------------------------------
# muscle-pair command mapping
# ---------------------------------------------------------------------------

def test_pair_drive_rest_gives_floor_everywhere():
    arm = planar2x4(muscle_overrides={"a_min": 0.01})
    exc = pair_drive_to_excitations(arm, np.array([0.5, 0.5]))
    assert exc == pytest.approx([0.01] * 4)


def test_pair_drive_positive_excites_agonist_only():
    arm = planar2x4(muscle_overrides={"a_min": 0.01})
    exc = pair_drive_to_excitations(arm, np.array([1.0, 0.5]))
    assert exc[0] == pytest.approx(1.0)
    assert exc[1] == pytest.approx(0.01)
    assert exc[2] == pytest.approx(0.01)
    assert exc[3] == pytest.approx(0.01)


def test_pair_drive_negative_excites_antagonist():
    arm = planar2x4(muscle_overrides={"a_min": 0.01})
    exc = pair_drive_to_excitations(arm, np.array([0.25, 0.75]))
    assert exc[0] == pytest.approx(0.01)
    assert exc[1] == pytest.approx(0.01 + 0.5 * 0.99)
    assert exc[2] == pytest.approx(0.01 + 0.5 * 0.99)
    assert exc[3] == pytest.approx(0.01)


def test_pair_drive_stays_in_unit_interval():
    arm = planar2x4()
    rng = np.random.default_rng(3)
    for _ in range(50):
        exc = pair_drive_to_excitations(arm, rng.uniform(0, 1, size=2))
        assert all(0.01 - 1e-15 <= v <= 1.0 + 1e-15 for v in exc)


def _pair_drive_reference(model, drive):
    """pair_drive_to_excitations route by route, from the model's fields."""
    exc = np.empty(model.n_muscles)
    for i, route in enumerate(model.routing):
        s = 2.0 * drive[route.joint] - 1.0
        mag = max(route.sign * s, 0.0)
        a_min = model.muscles[i].a_min
        exc[i] = a_min + mag * (1.0 - a_min)
    return exc


@pytest.mark.parametrize("arm", [planar2x4(), spatial_ltdm(muscle_overrides={"a_min": 0.03})],
                         ids=["planar2x4", "spatial-ltdm"])
def test_pair_drive_matches_per_route_formula_bitwise(arm):
    rng = np.random.default_rng(5)
    drives = [np.full(arm.n_joints, v) for v in (0.0, 0.5, 1.0)]
    drives += [rng.uniform(0.0, 1.0, size=arm.n_joints) for _ in range(200)]
    for drive in drives:
        have = pair_drive_to_excitations(arm, drive)
        assert all(type(v) is float for v in have)
        assert np.array(have).tobytes() == _pair_drive_reference(arm, drive).tobytes()


# ---------------------------------------------------------------------------
# closed-loop learning on a synthetic plant
# ---------------------------------------------------------------------------

def _run_lag_plant_iterations(iterations, horizon=100, alpha=0.5):
    """Iterated tracking of a first-order lag toward the static map S (u - rest).

    This mirrors the arm's closed-muscle behaviour: a steady command offset
    produces a proportional steady output displacement after a short settling
    transient. Returns per-iteration mean errors and all emitted drives.
    """
    s_gain = np.array([[0.1, 0.0], [0.0, 0.08]])
    params = DdilcParams()
    ctl = DdilcController(s_gain, params, horizon=horizon,
                          response_lag_ticks=0.0, rest_drive=[0.5, 0.5])
    ramp = np.linspace(0.0, 1.0, horizon + 1)[:, None]
    y_d = ramp * np.array([0.01, -0.008])
    errs = []
    drives = []
    for _ in range(iterations):
        ctl.begin_iteration(y_d[0])
        y = np.zeros(2)
        total = 0.0
        for t in range(horizon):
            u = np.asarray(ctl.step(t, y, y_d[t + 1]))
            drives.append(u.copy())
            assert np.all(u >= 0.0) and np.all(u <= 1.0)
            y = y + alpha * (s_gain @ (u - 0.5) - y)
            total += np.linalg.norm(y_d[t + 1] - y)
        ctl.finish_iteration(y)
        errs.append(total / horizon)
    return np.array(errs), np.array(drives)


def test_closed_loop_learning_reduces_error():
    errs, _ = _run_lag_plant_iterations(iterations=12)
    assert errs[-1] < 0.25 * errs[0]
    assert errs[-1] < 1e-3


def test_closed_loop_determinism():
    errs_a, drives_a = _run_lag_plant_iterations(iterations=4)
    errs_b, drives_b = _run_lag_plant_iterations(iterations=4)
    assert np.array_equal(drives_a, drives_b)
    assert np.array_equal(errs_a, errs_b)


def test_shrink_feedforward_halves_gain_and_clears_table():
    ctl = DdilcController(np.eye(2), DdilcParams(), horizon=5,
                          response_lag_ticks=0.0, rest_drive=[0.5, 0.5])
    ctl.u_ff[:] = 0.3
    beta0 = ctl.beta.copy()
    ctl.shrink_feedforward()
    assert np.array_equal(ctl.beta, 0.5 * beta0)
    assert np.all(ctl.u_ff == 0.0)
    assert ctl.ff_shrink_count == 1


# ---------------------------------------------------------------------------
# the per-tick law against a numpy reference
# ---------------------------------------------------------------------------

class _NumpyDdilc:
    """The controller's law as it was written with numpy calls, kept as the
    reference for the list kernels, with the reset and clip counts added.
    Its PJM ``phi`` is the vector of the diagonal.

    It copies the constants and the current gains and table of ``ctl``.
    """

    def __init__(self, ctl):
        self.params = ctl.params
        self.horizon = ctl.horizon
        self.transform = ctl.transform
        self.rest = ctl.rest_drive
        self.beta, self.beta_deriv = ctl.beta, ctl.beta_deriv
        self.phi_init = np.diagonal(ctl.est.phi_init).copy()
        self.xi = ctl.xi_hat
        self.u_ff = ctl.u_ff.copy()
        self.e_prev = np.zeros((ctl.horizon + 1, ctl.y_dim))
        self.recorded = False
        self.start_trial(np.zeros(ctl.y_dim))

    def start_trial(self, y_d0):
        m, n_e = self.transform.shape[0], 1
        self.phi = self.phi_init.copy()
        self.window = np.zeros((n_e, m))
        self.y_d_t = np.asarray(y_d0, dtype=float)
        self.y_prev = None
        self.e_last = np.zeros(m)
        self.drive_prev = None
        self.du_prev = np.zeros(m)
        self.stack_prev = np.zeros(m * n_e)
        self.counts = DdilcCounts()
        # pre-reset PJM and pre-clip gains of the last step, for edge checks
        self.phi_raw = self.xi_raw = None

    def begin_iteration(self, y_d0):
        ff_clips = 0
        if self.recorded:
            p = self.params
            u_ff = self.u_ff + self.e_prev[1:] @ self.beta.T
            u_ff = u_ff + (self.e_prev[1:] - self.e_prev[:-1]) @ self.beta_deriv.T
            lo, hi = 0.0 - self.rest, 1.0 - self.rest
            ff_clips = int(np.sum((u_ff < lo) | (u_ff > hi)))
            self.u_ff = np.clip(u_ff, lo, hi)
        self.start_trial(y_d0)
        self.counts.ff_clips = ff_clips
        self.recorded = False

    def step(self, t, y, y_d_next):
        p = self.params
        y = np.asarray(y, dtype=float)
        y_t = self.transform @ y
        e_phys = self.y_d_t - y
        self.e_prev[t] = e_phys
        e_t = self.transform @ e_phys
        if self.y_prev is not None:
            dy, du = y_t - self.y_prev, self.du_prev
            denom = p.estimator_weight + float(du @ du)
            innovation = dy - self.phi * du
            self.phi_raw = self.phi + p.estimator_step * innovation * du / denom
            lo, hi = p.diag_floor, p.diag_span * p.diag_floor
            v = self.phi_raw
            reset = (~((lo <= np.abs(v)) & (np.abs(v) <= hi))
                     | (np.sign(v) != np.sign(self.phi_init)))
            self.counts.pjm_diag_resets += int(np.count_nonzero(reset))
            self.phi = np.where(reset, self.phi_init, self.phi_raw)
            self.window[1:] = self.window[:-1]
            self.window[0] = e_t - self.e_last
        e_next_hat = (self.transform @ np.asarray(y_d_next, dtype=float) - y_t
                      - self.phi * self.du_prev)
        stack = np.concatenate([[e_next_hat - e_t], self.window[:-1]], axis=0).ravel()
        eta = p.gain_step
        decay = eta * p.energy_weight * np.outer(self.stack_prev, self.stack_prev)
        gain_drive = eta * np.outer(self.phi * e_t, stack)
        self.xi_raw = self.xi - self.xi @ decay + gain_drive
        m = self.xi.shape[0]
        cap = p.xi_cap(m)
        self.counts.xi_clips += int(np.sum(np.abs(self.xi_raw) > cap))
        self.xi = np.clip(self.xi_raw, -cap, cap)
        drive = np.clip(self.rest + self.xi @ stack + self.u_ff[t], 0.0, 1.0)
        if self.drive_prev is not None:
            self.du_prev = drive - self.drive_prev
        self.drive_prev = drive
        self.y_prev, self.e_last, self.stack_prev = y_t, e_t, stack
        self.y_d_t = np.asarray(y_d_next, dtype=float)
        return drive

    def finish_iteration(self, y_final):
        self.e_prev[self.horizon] = self.y_d_t - np.asarray(y_final, dtype=float)
        self.recorded = True


EPS = np.finfo(float).eps


def _step_error_scales(ref, y, y_d_next, t):
    """Elementwise bounds on the magnitudes one reference step sums, for its
    PJM, gains and drive: rounding moves each by a few eps times its bound."""
    p, a = ref.params, np.abs
    m, n_e = ref.xi.shape[0], 1
    ty = a(ref.transform) @ (a(y) + a(ref.y_d_t) + a(np.asarray(y_d_next)))
    du = a(ref.du_prev)
    phi = a(ref.phi)
    if ref.y_prev is not None:
        dy = ty + a(ref.y_prev)
        phi = phi + p.estimator_step * (dy + phi * du) * du / (
            p.estimator_weight + float(du @ du))
    older = max(float(np.max(ty + a(ref.e_last))), float(np.max(a(ref.window))))
    stack = np.concatenate([ty + phi * du + ty, np.full(m * (n_e - 1), older)])
    s_prev = a(ref.stack_prev)
    decay = p.gain_step * p.energy_weight * np.outer(s_prev, s_prev)
    xi = a(ref.xi) + a(ref.xi) @ decay + p.gain_step * np.outer(phi * ty, stack)
    drive = a(ref.rest) + xi @ stack + a(ref.u_ff[t])
    return phi, xi, drive


# the controller's list state, by the reference's attribute holding it
_STATE = {"phi": "_phi", "xi": "_xi", "y_prev": "_y_prev",
          "drive_prev": "_drive_prev", "du_prev": "_du_prev",
          "stack_prev": "_de_prev", "y_d_t": "_y_d_t"}


def _load_state(ctl, ref, rng, first):
    """Give the controller and the reference one random mid-trial state: the
    PJM inside and outside its boxes, the gains near and inside +/-xi_cap.
    ``first`` is the trial's first tick, which updates no PJM."""
    p, m, y_dim = ctl.params, ctl.m, ctl.y_dim
    n_e = 1
    lo, hi, cap = p.diag_floor, p.diag_span * p.diag_floor, p.xi_cap(m)
    diag = rng.uniform(lo, hi, m) if rng.random() < 0.5 else rng.uniform(-2 * hi, 2 * hi, m)
    shape = (m, m * n_e)
    near = cap * rng.choice([-1.0, 1.0], shape) * rng.uniform(0.98, 1.02, shape)
    size = 10.0 ** rng.uniform(-4, 0)          # of the increments
    ref.phi = diag
    ref.xi = np.where(rng.random(shape) < 0.5, near, rng.uniform(-cap, cap, shape))
    ref.window = size * rng.normal(size=(n_e, m))
    ref.y_d_t = rng.uniform(-0.5, 0.5, y_dim)
    y_prev = ref.y_d_t + size * rng.normal(size=y_dim)
    ref.y_prev = None if first else ctl.transform @ y_prev
    ref.e_last = size * rng.normal(size=m)
    ref.drive_prev = None if first else rng.uniform(0, 1, m)
    ref.du_prev = size * rng.normal(size=m) * (rng.random(m) < 0.8)
    ref.stack_prev = size * rng.normal(size=m * n_e)
    ref.u_ff = rng.uniform(-0.3, 0.3, (ctl.horizon, m))
    for name, private in _STATE.items():
        value = getattr(ref, name)
        setattr(ctl, private, None if value is None else value.tolist())
    ctl.u_ff = ref.u_ff.copy()
    ctl._ff = _flat(ref.u_ff)


@given(m=st.integers(1, 7), y_dim=st.integers(1, 3),
       first=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=400, deadline=None)
def test_step_matches_numpy_reference(m, y_dim, first, seed):
    rng = np.random.default_rng(seed)
    p = DdilcParams()
    ctl = DdilcController(rng.normal(scale=0.05, size=(y_dim, m)), p,
                          horizon=3, response_lag_ticks=0.0,
                          rest_drive=rng.uniform(0, 1, m))
    ctl.begin_iteration(np.zeros(y_dim))
    ref = _NumpyDdilc(ctl)
    _load_state(ctl, ref, rng, first)
    y = ref.y_d_t + 10.0 ** rng.uniform(-4, -1) * rng.normal(size=y_dim)
    y_d_next = ref.y_d_t + 10.0 ** rng.uniform(-4, -1) * rng.normal(size=y_dim)
    t = int(rng.integers(0, 3))
    tol = 128.0 * EPS
    s_phi, s_xi, s_drive = (tol * s for s in _step_error_scales(ref, y, y_d_next, t))
    want = ref.step(t, y, y_d_next)
    # a reset or clip decision may differ only within rounding of its edge
    if ref.phi_raw is not None:
        v = np.abs(ref.phi_raw)
        lo, hi = p.diag_floor, p.diag_span * p.diag_floor
        assume(np.all(np.minimum(abs(v - lo), abs(v - hi)) > s_phi))
    assume(np.all(abs(np.abs(ref.xi_raw) - p.xi_cap(m)) > s_xi))
    have = np.asarray(ctl.step(t, y.tolist(), y_d_next.tolist()))
    assert asdict(ctl.counts) == asdict(ref.counts)
    assert np.all(np.abs(ctl.est.phi_hat - np.diag(ref.phi)) <= s_phi)
    assert np.all(np.abs(ctl.xi_hat - ref.xi) <= s_xi)
    assert np.all(np.abs(have - want) <= s_drive)


def _lag_plant_inputs(iterations, params, gain=1.0, reach=1.0, horizon=100,
                      alpha=0.5):
    """Closed-loop runs of ``_run_lag_plant_iterations``'s plant, recording
    every input the controller received. The plant's gain is ``gain`` times
    the sensitivity the controller is given, and the target ramp ``reach``
    times as long."""
    s_gain = np.array([[0.1, 0.0], [0.0, 0.08]])
    ctl = DdilcController(s_gain, params, horizon=horizon,
                          response_lag_ticks=0.0, rest_drive=[0.5, 0.5])
    ref = _NumpyDdilc(ctl)
    y_d = np.linspace(0.0, reach, horizon + 1)[:, None] * np.array([0.01, -0.008])
    trials = []
    for _ in range(iterations):
        ctl.begin_iteration(y_d[0])
        y = np.zeros(2)
        ticks = []
        for t in range(horizon):
            drive = np.asarray(ctl.step(t, y.tolist(), y_d[t + 1].tolist()))
            ticks.append((y.tolist(), y_d[t + 1].tolist(), drive))
            y = y + alpha * (gain * s_gain @ (drive - 0.5) - y)
        ctl.finish_iteration(y.tolist())
        trials.append((ticks, y.tolist(), asdict(ctl.counts), ctl.est.phi_hat,
                       ctl.xi_hat))
    return ref, y_d, trials


ALL_COUNTS = set(asdict(DdilcCounts()))


@pytest.mark.parametrize("weight, gain, reach, exercised", [
    (1.0, 1.0, 1.0, {"xi_clips"}),
    # a fast estimator on a weak plant leaves the PJM box, and a far target
    # winds the feedforward up against its anti-windup bound
    (1e-3, 0.3, 8.0, ALL_COUNTS),
], ids=["matched", "weak-plant-far-target"])
def test_lag_plant_counts_match_numpy_reference(weight, gain, reach, exercised):
    # the reference replays the inputs the controller received; its drives
    # follow the controller's at float-noise level, and its counts exactly
    params = DdilcParams(estimator_weight=weight)
    ref, y_d, trials = _lag_plant_inputs(12, params, gain, reach)
    totals = dict.fromkeys(asdict(DdilcCounts()), 0)
    for ticks, y_final, counts, phi, xi in trials:
        ref.begin_iteration(y_d[0])
        for t, (y, y_d_next, drive) in enumerate(ticks):
            np.testing.assert_allclose(ref.step(t, y, y_d_next), drive, rtol=0, atol=1e-12)
        ref.finish_iteration(y_final)
        assert counts == asdict(ref.counts)
        np.testing.assert_allclose(phi, np.diag(ref.phi), rtol=1e-12)
        np.testing.assert_allclose(xi, ref.xi, rtol=0, atol=1e-14)
        for name, n in counts.items():
            totals[name] += n
    assert {name for name, n in totals.items() if n} == exercised


def test_diverged_trial_shows_live_estimates(diverge_in_trial, monkeypatch):
    # on_iteration of a trial that diverges at physics tick 37 (after the
    # controller's step for control tick 37) sees the PJM and gains the
    # reference reaches by replaying that trial's steps; no finish_iteration
    # runs for it
    diverge_in_trial(1, 37)
    steps = []
    real_step = DdilcController.step

    def recording_step(self, t, y, y_d_next):
        steps.append((t, list(y), list(y_d_next)))
        return real_step(self, t, y, y_d_next)

    monkeypatch.setattr(DdilcController, "step", recording_step)
    seen = {}

    def on_iteration(k, log, metrics, controller):
        if k == 0:
            seen["ref"] = _NumpyDdilc(controller)
            steps.clear()
        else:
            seen.update(phi=controller.est.phi_hat, xi=controller.xi_hat,
                        u_ff=controller.u_ff.copy(), points=log.tip_desired)

    cfg = ExperimentConfig(trajectory=TrajectorySpec(duration=1.0, cycles=1),
                           iterations=2, dt=1e-3, control_decimation=1, seed=0,
                           settle_time=3.0, probe_hold=1.0)
    assert run_ilc(cfg, on_iteration=on_iteration).summary.diverged == [False, True]
    ref = seen["ref"]
    ref.u_ff = seen["u_ff"]
    ref.start_trial(seen["points"][0])
    assert [t for t, _, _ in steps] == list(range(38))
    for t, y, y_d_next in steps:
        ref.step(t, y, y_d_next)
    assert not np.array_equal(ref.phi, ref.phi_init)
    np.testing.assert_allclose(seen["phi"], np.diag(ref.phi), rtol=1e-12)
    np.testing.assert_allclose(seen["xi"], ref.xi, rtol=0, atol=1e-14)
