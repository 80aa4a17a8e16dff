"""Learning-controller unit tests: frozen scalar arithmetic, estimator
convergence on a known linear plant, box/sign reset invariants, and a small
closed-loop learning exercise on a synthetic lag plant.
"""

import numpy as np
import pytest

from myoarm.control import (
    DdilcController,
    DdilcParams,
    IlcMemory,
    PjmEstimate,
    compose_control,
    estimate_pjm,
    feedback_control,
    feedforward_update,
    pair_drive_to_excitations,
    predict_error,
    update_feedback_gain,
)
from myoarm.presets import planar2x4, spatial_ltdm


def scalar_params(**kw):
    defaults = dict(diag_floor=1.0, diag_span=2.0, offdiag_cap=0.1)
    defaults.update(kw)
    return DdilcParams(**defaults)


def scalar_estimate(phi=1.0, init=1.0):
    return PjmEstimate(np.array([[float(phi)]]), np.array([[float(init)]]))


def scalar_memory(xi=0.0, horizon=4):
    return IlcMemory(u_ff=np.zeros((horizon, 1)), e_prev=np.zeros((horizon + 1, 1)),
                     xi_hat=np.array([[float(xi)]]), delta_e_window=np.zeros((1, 1)))


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


def test_estimate_pjm_reset_preserves_signs_and_boxes():
    params = DdilcParams(diag_floor=1.0, diag_span=2.0, offdiag_cap=0.1)
    init = np.array([[1.4, 0.05], [-0.05, -1.4]])
    est = PjmEstimate(init.copy(), init.copy())
    rng = np.random.default_rng(5)
    for _ in range(200):
        est = estimate_pjm(est, rng.normal(scale=3.0, size=2),
                           rng.normal(scale=1.0, size=2), params)
        phi = est.phi_hat
        for i in range(2):
            assert 1.0 <= abs(phi[i, i]) <= 2.0
            assert np.sign(phi[i, i]) == np.sign(init[i, i])
            j = 1 - i
            assert abs(phi[i, j]) <= 0.1
            assert np.sign(phi[i, j]) == np.sign(init[i, j])


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
    mem = update_feedback_gain(scalar_memory(xi=0.1), scalar_estimate(phi=2.0),
                               np.array([0.3]), np.array([1.0]), np.array([1.0]),
                               params)
    assert mem.xi_hat[0, 0] == pytest.approx(0.35, abs=1e-15)


def test_update_feedback_gain_zero_step_unchanged():
    params = scalar_params()
    params.gain_step = 0.0  # limit case; constructor enforces > 0 for configs
    mem = update_feedback_gain(scalar_memory(xi=0.2), scalar_estimate(phi=2.0),
                               np.array([0.5]), np.array([1.0]), np.array([1.0]),
                               params)
    assert mem.xi_hat[0, 0] == 0.2


def test_update_feedback_gain_no_excitation_unchanged():
    mem = update_feedback_gain(scalar_memory(xi=0.2), scalar_estimate(phi=2.0),
                               np.array([0.0]), np.array([0.0]), np.array([0.0]),
                               scalar_params())
    assert mem.xi_hat[0, 0] == 0.2


def test_update_feedback_gain_saturates():
    # scalar cap = 0.4/(diag_span*diag_floor*m*sqrt(window)) = 0.2 here
    params = scalar_params(gain_step=5.0)
    mem = update_feedback_gain(scalar_memory(xi=0.0), scalar_estimate(phi=2.0),
                               np.array([10.0]), np.array([0.0]), np.array([1.0]),
                               params)
    assert mem.xi_hat[0, 0] == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# prediction, feedback, feedforward, composition
# ---------------------------------------------------------------------------

def test_predict_error_scalar_hand_value():
    e = predict_error(np.array([1.0]), np.array([0.8]), np.array([[2.0]]),
                      np.array([0.05]))
    assert e[0] == pytest.approx(0.1, abs=1e-15)


def test_predict_error_zero_feedback_increment():
    e = predict_error(np.array([1.0]), np.array([0.8]), np.array([[2.0]]),
                      np.array([0.0]))
    assert e[0] == pytest.approx(0.2)
    e = predict_error(np.array([0.8]), np.array([0.8]), np.array([[2.0]]),
                      np.array([0.0]))
    assert e[0] == 0.0


def test_feedback_control_scalar():
    mem = scalar_memory(xi=0.35)
    assert feedback_control(mem, np.array([0.1]))[0] == pytest.approx(0.035)
    assert feedback_control(scalar_memory(xi=0.0), np.array([0.7]))[0] == 0.0
    assert feedback_control(mem, np.array([0.0]))[0] == 0.0


def test_feedforward_update_scalar():
    mem = scalar_memory(horizon=4)
    e_prev = np.full((5, 1), 0.2)
    mem2 = feedforward_update(mem, e_prev, np.array([[0.5]]))
    assert mem2.u_ff == pytest.approx(np.full((4, 1), 0.1))
    # converged fixed point: zero previous error leaves the table untouched
    mem3 = feedforward_update(mem2, np.zeros((5, 1)), np.array([[0.5]]))
    assert np.array_equal(mem3.u_ff, mem2.u_ff)


def test_feedforward_initialized_to_zero():
    rng = np.random.default_rng(0)
    ctl = DdilcController(np.eye(2) * 0.1, DdilcParams(), horizon=8, rng=rng)
    assert np.all(ctl.mem.u_ff == 0.0)


def test_compose_control_clamps():
    params = DdilcParams()  # rest_command 0.5
    assert compose_control(np.array([0.5]), np.array([0.3]), params)[0] == 1.0
    assert compose_control(np.array([-0.5]), np.array([-0.2]), params)[0] == 0.0
    out = compose_control(np.array([-0.06]), np.array([0.03]), params)[0]
    assert out == pytest.approx(0.47, abs=1e-12)


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
    with pytest.raises(ValueError):
        DdilcParams(error_window=0)
    with pytest.raises(ValueError):
        DdilcParams(rest_command=1.5)


def test_params_dimension_check():
    # diag_floor must exceed offdiag_cap*(2*diag_span+1)*(m-1)
    p = DdilcParams(offdiag_cap=1.0, diag_floor=1.0, diag_span=2.0)
    p.check_dimension(1)  # m=1 always fine
    with pytest.raises(ValueError, match="diag_floor"):
        p.check_dimension(2)
    DdilcParams().check_dimension(19)  # defaults sized for m <= 19


# ---------------------------------------------------------------------------
# muscle-pair command mapping
# ---------------------------------------------------------------------------

def test_pair_drive_rest_gives_floor_everywhere():
    arm = planar2x4(muscle_overrides={"a_min": 0.01})
    exc = pair_drive_to_excitations(arm, np.array([0.5, 0.5]))
    assert exc == pytest.approx(np.full(4, 0.01))


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
        assert np.all(exc >= 0.01 - 1e-15)
        assert np.all(exc <= 1.0 + 1e-15)


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
        assert have.tobytes() == _pair_drive_reference(arm, drive).tobytes()


# ---------------------------------------------------------------------------
# closed-loop learning on a synthetic plant
# ---------------------------------------------------------------------------

def _run_lag_plant_iterations(seed, iterations, horizon=100, alpha=0.5):
    """Iterated tracking of a first-order lag toward the static map S (u - rest).

    This mirrors the arm's closed-muscle behaviour: a steady command offset
    produces a proportional steady output displacement after a short settling
    transient. Returns per-iteration mean errors and all emitted drives.
    """
    s_gain = np.array([[0.1, 0.0], [0.0, 0.08]])
    params = DdilcParams()
    ctl = DdilcController(s_gain, params, horizon=horizon,
                          rng=np.random.default_rng(seed))
    ramp = np.linspace(0.0, 1.0, horizon + 1)[:, None]
    y_d = ramp * np.array([0.01, -0.008])
    errs = []
    drives = []
    for _ in range(iterations):
        ctl.begin_iteration(y_d[0])
        y = np.zeros(2)
        total = 0.0
        for t in range(horizon):
            u = ctl.step(t, y, y_d[t + 1])
            drives.append(u.copy())
            assert np.all(u >= 0.0) and np.all(u <= 1.0)
            y = y + alpha * (s_gain @ (u - params.rest_command) - y)
            total += np.linalg.norm(y_d[t + 1] - y)
        ctl.finish_iteration(y)
        errs.append(total / horizon)
    return np.array(errs), np.array(drives)


def test_closed_loop_learning_reduces_error():
    errs, _ = _run_lag_plant_iterations(seed=1, iterations=12)
    assert errs[-1] < 0.25 * errs[0]
    assert errs[-1] < 1e-3


def test_closed_loop_determinism():
    errs_a, drives_a = _run_lag_plant_iterations(seed=7, iterations=4)
    errs_b, drives_b = _run_lag_plant_iterations(seed=7, iterations=4)
    assert np.array_equal(drives_a, drives_b)
    assert np.array_equal(errs_a, errs_b)


def test_shrink_feedforward_halves_gain_and_clears_table():
    ctl = DdilcController(np.eye(2), DdilcParams(), horizon=5,
                          rng=np.random.default_rng(0))
    ctl.mem.u_ff[:] = 0.3
    beta0 = ctl.beta.copy()
    ctl.shrink_feedforward()
    assert np.array_equal(ctl.beta, 0.5 * beta0)
    assert np.all(ctl.mem.u_ff == 0.0)
    assert ctl.ff_shrink_count == 1
