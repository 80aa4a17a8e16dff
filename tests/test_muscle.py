"""Muscle-tendon unit: frozen curve anchors, equilibrium solve, stepping.

The activation time constant has no function of its own in the package:
``step_muscle`` folds it in. Its tests read the reference composition in
``reference_tick``, which ``test_step_muscle_equals_the_reference_composition``
ties to ``step_muscle`` bit for bit; the equilibrium's tests read the fiber
velocity ``step_muscle`` returns with the excitation equal to the activation,
which then stays exactly where it is.
"""

import math
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from myoarm.config import _SECTIONS
from myoarm.muscle import (
    _FV_ARG_HI,
    _FV_ARG_LO,
    FV_AT_MINUS_ONE,
    MuscleParams,
    active_force_length,
    force_velocity,
    inverse_force_velocity,
    passive_force_length,
    step_muscle,
    tendon_force,
)
from reference_tick import activation_time_constant

P = MuscleParams()


def _velocity(l_fiber, a, l_mtu, p=P):
    """The equilibrium fiber velocity at activation ``a``: one step with u = a."""
    return step_muscle(a, l_fiber, a, l_mtu, 1e-3, p)[2]


class TestActivationDynamics:
    def test_time_constant_fast_on(self):
        assert activation_time_constant(1.0, 0.0, P) == pytest.approx(0.005, abs=1e-12)

    def test_time_constant_slow_off(self):
        assert activation_time_constant(0.0, 1.0, P) == pytest.approx(0.020, abs=1e-12)

    def test_time_constant_boundary_uses_on_branch(self):
        # u == a sits on the activation branch
        assert activation_time_constant(0.5, 0.5, P) == pytest.approx(0.0125, abs=1e-12)

    def test_rates(self):
        # da/dt = (u - a) / tau(u, a) of the first-order activation dynamics
        def rate(u, a):
            return (u - a) / activation_time_constant(u, a, P)

        assert rate(0.3, 0.3) == 0.0
        assert rate(1.0, 0.0) == pytest.approx(200.0, rel=1e-12)
        assert rate(0.0, 1.0) == pytest.approx(-50.0, rel=1e-12)

    def test_domain_errors(self):
        l_mtu = P.l0_fiber + P.l_slack_tendon
        with pytest.raises(ValueError, match=r"^excitation u must be in \[0, 1\], got 1.2$"):
            step_muscle(0.0, 1.0, 1.2, l_mtu, 1e-3, P)
        with pytest.raises(ValueError, match=r"^activation a must be in \[0, 1\], got -0.1$"):
            step_muscle(-0.1, 1.0, 0.5, l_mtu, 1e-3, P)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50),
           st.floats(1e-5, 1e-3))
    @settings(max_examples=50, deadline=None)
    def test_activation_stays_in_unit_interval(self, us, dt):
        a = 0.0
        for u in us:
            tau = activation_time_constant(u, a, P)
            a = u + (a - u) * math.exp(-dt / tau)
            assert 0.0 <= a <= 1.0

    def test_monotone_convergence_to_target(self):
        a, l_fiber = 0.05, 1.0
        l_mtu = P.l0_fiber + P.l_slack_tendon
        prev = a
        for _ in range(500):
            a, l_fiber, _, _ = step_muscle(a, l_fiber, 0.8, l_mtu, 0.001, P)
            assert a >= prev - 1e-15
            assert a <= 0.8 + 1e-15
            prev = a
        assert a == pytest.approx(0.8, abs=1e-6)


class TestForceLength:
    def test_active_peak_at_optimal(self):
        assert active_force_length(1.0, P.gamma) == pytest.approx(1.0, abs=1e-9)

    def test_active_value_at_1p5(self):
        # exp(-0.5/0.45)
        assert active_force_length(1.5, P.gamma) == pytest.approx(0.32919298780790557, rel=1e-12)

    def test_active_symmetric(self):
        for d in (0.1, 0.25, 0.4):
            assert active_force_length(1 + d, P.gamma) == pytest.approx(
                active_force_length(1 - d, P.gamma), rel=1e-12)

    def test_passive_zero_at_optimal(self):
        assert passive_force_length(1.0, P.k_pe, P.eps0_m) == pytest.approx(0.0, abs=1e-9)

    def test_passive_one_at_max_strain(self):
        assert passive_force_length(1.0 + P.eps0_m, P.k_pe, P.eps0_m) == pytest.approx(1.0, abs=1e-9)

    def test_passive_half_strain_value(self):
        # (e^2 - 1)/(e^4 - 1) at half strain with k_pe = 4
        expected = (math.e**2 - 1) / (math.e**4 - 1)
        assert passive_force_length(1.3, 4.0, 0.6) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.1192, abs=5e-5)

    def test_passive_monotone(self):
        xs = [0.6 + 0.01 * i for i in range(100)]
        ys = [passive_force_length(x, P.k_pe, P.eps0_m) for x in xs]
        assert all(b > a for a, b in zip(ys, ys[1:]))


class TestForceVelocity:
    def test_isometric_value(self):
        assert force_velocity(0.0) == pytest.approx(1.0113928941256924, rel=1e-12)

    def test_max_shortening_value(self):
        assert force_velocity(-1.0) == pytest.approx(0.06849083860845062, rel=1e-12)

    def test_eccentric_limit(self):
        assert force_velocity(0.999) == pytest.approx(1.6, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            force_velocity(1.0)

    def test_strictly_increasing_where_conditioned(self):
        # Mathematically strictly increasing on [-1, 1); in float64 the curve
        # saturates at 1.6 above v ~ 0.54, so strictness is checked below that.
        xs = [-1.0 + i * 1.5 / 3000 for i in range(3001)]
        ys = [force_velocity(x) for x in xs]
        assert all(b > a for a, b in zip(ys, ys[1:]))

    def test_non_decreasing_full_range(self):
        xs = [-1.0 + i * 1.99 / 4000 for i in range(4001)]
        ys = [force_velocity(x) for x in xs]
        assert all(b >= a for a, b in zip(ys, ys[1:]))

    def test_inverse_of_isometric(self):
        assert inverse_force_velocity(1.0113928941256924) == pytest.approx(0.0, abs=1e-9)

    def test_inverse_of_max_shortening(self):
        assert inverse_force_velocity(0.06849083860845062) == pytest.approx(-1.0, abs=1e-9)

    def test_inverse_out_of_range(self):
        for bad in (0.0, -0.3, 1.6, 2.0):
            with pytest.raises(ValueError):
                inverse_force_velocity(bad)

    def test_round_trip(self):
        for i in range(146):
            v = -0.95 + i * 0.01  # up to +0.50; above ~0.54 fv saturates in float64
            assert inverse_force_velocity(force_velocity(v)) == pytest.approx(v, abs=1e-8)

    @given(st.floats(0.01, 1.59))
    @settings(max_examples=200, deadline=None)
    def test_inverse_hits_target_in_value_space(self, y):
        v = inverse_force_velocity(y)
        assert abs(force_velocity(v) - y) <= 1e-10

    # the equilibrium solve's clamp window, and the super-maximal targets
    # below fv(-1) that the closed form also inverts
    _TARGETS = st.one_of(st.floats(_FV_ARG_LO, _FV_ARG_HI),
                         st.floats(0.0, FV_AT_MINUS_ONE, exclude_min=True,
                                   exclude_max=True))

    @given(_TARGETS, _TARGETS)
    @settings(max_examples=500, deadline=None)
    def test_inverse_exact_and_monotone_over_clamp_window(self, y1, y2):
        v1, v2 = inverse_force_velocity(y1), inverse_force_velocity(y2)
        for y, v in ((y1, v1), (y2, v2)):
            # 4e-15 was the stopping tolerance of the earlier Newton solve
            assert abs(force_velocity(v) - y) <= 4e-15
            # v -> 1 - sqrt(11) as y -> 0 (and equals it in floating point for
            # y below ~1e-17): always on the monotone branch, which turns over
            # at 1 - sqrt(22)
            assert v >= 1.0 - math.sqrt(11.0)
        if y1 <= y2:
            assert v1 <= v2
        else:
            assert v1 >= v2

    def test_inverse_of_tiny_target_is_above_branch_floor(self):
        assert inverse_force_velocity(1e-6) > 1.0 - math.sqrt(11.0)


class TestTendon:
    def test_zero_at_slack(self):
        assert tendon_force(0.0, P) == 0.0
        assert tendon_force(-0.01, P) == 0.0

    def test_toe_break_value(self):
        assert tendon_force(P.eps_toe, P) == pytest.approx(0.33, abs=1e-9)

    def test_nominal_strain_value(self):
        # linear branch at strain eps0_t; ~0.999 with the slope-continuous gain
        assert tendon_force(P.eps0_t, P) == pytest.approx(0.998919294178654, rel=1e-9)
        assert tendon_force(P.eps0_t, P) == pytest.approx(0.999, abs=2e-3)

    def test_k_lin_close_to_printed_value(self):
        assert P.k_lin == pytest.approx(1.712 / P.eps0_t, rel=1e-3)

    def test_slope_continuity(self):
        h = 1e-9
        left = (tendon_force(P.eps_toe, P) - tendon_force(P.eps_toe - h, P)) / h
        right = (tendon_force(P.eps_toe + h, P) - tendon_force(P.eps_toe, P)) / h
        assert right == pytest.approx(left, rel=1e-6)

    @given(st.floats(0.01, 0.10))
    @settings(max_examples=50, deadline=None)
    def test_slope_continuity_any_eps0t(self, eps0_t):
        p = MuscleParams(eps0_t=eps0_t)
        h = 1e-9
        left = (tendon_force(p.eps_toe, p) - tendon_force(p.eps_toe - h, p)) / h
        right = (tendon_force(p.eps_toe + h, p) - tendon_force(p.eps_toe, p)) / h
        assert right == pytest.approx(left, rel=1e-5)


class TestEquilibrium:
    def test_isometric_velocity_zero(self):
        # Choose fiber length, then set l_mtu so the tendon carries exactly
        # the isometric fiber force: the solve must return v ~ 0.
        a, l_fiber = 0.6, 1.05
        f_m = (a * active_force_length(l_fiber, P.gamma) * force_velocity(0.0)
               + passive_force_length(l_fiber, P.k_pe, P.eps0_m))
        # invert tendon curve on the linear branch
        assert f_m > P.f_toe
        strain = (f_m - P.f_toe) / P.k_lin + P.eps_toe
        l_mtu = l_fiber * P.l0_fiber + (1 + strain) * P.l_slack_tendon
        v = _velocity(l_fiber, a, l_mtu)
        assert force_velocity(v) == pytest.approx(force_velocity(0.0), rel=1e-9)

    def test_slack_tendon_max_shortening(self):
        # slack tendon, no passive load: fv argument clamps at its floor
        l_fiber = 1.0
        l_mtu = l_fiber * P.l0_fiber + 0.5 * P.l_slack_tendon
        v = _velocity(l_fiber, 0.5, l_mtu)
        assert v == pytest.approx(-1.0, abs=1e-3)

    def test_numeric_case_matches_hand_composition(self):
        # f_t = 0.6 at optimal fiber length and a = 0.5 -> v = fv^-1(1.2)
        a, l_fiber = 0.5, 1.0
        strain = (0.6 - P.f_toe) / P.k_lin + P.eps_toe
        l_mtu = l_fiber * P.l0_fiber + (1 + strain) * P.l_slack_tendon
        v = _velocity(l_fiber, a, l_mtu)
        fpe = passive_force_length(l_fiber, P.k_pe, P.eps0_m)
        expected = inverse_force_velocity((0.6 - fpe) / (a * 1.0))
        assert v == pytest.approx(expected, rel=1e-9)
        assert v == pytest.approx(inverse_force_velocity(1.2), rel=1e-6)

    def test_activation_below_floor_solves_at_floor(self):
        l_mtu = P.l0_fiber + P.l_slack_tendon * 1.02
        # fiber length, velocity and force; the activation itself stays 0
        assert (step_muscle(0.0, 1.0, 0.0, l_mtu, 1e-3, P)[1:]
                == step_muscle(P.a_min, 1.0, P.a_min, l_mtu, 1e-3, P)[1:])


class TestStepMuscle:
    def test_exact_exponential_activation_step(self):
        l_mtu = P.l0_fiber + P.l_slack_tendon
        a = step_muscle(0.0, 1.0, 1.0, l_mtu, 0.005, P)[0]
        assert a == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
        assert a == pytest.approx(0.632, abs=5e-4)

    def test_settled_state_is_fixed_point(self):
        u = 0.4
        a, l_fiber = u, 1.0
        l_mtu = 1.0 * P.l0_fiber + 1.02 * P.l_slack_tendon
        for _ in range(20000):
            a, l_fiber, _, _ = step_muscle(a, l_fiber, u, l_mtu, 0.001, P)
        a1, l1, _, f1 = step_muscle(a, l_fiber, u, l_mtu, 0.001, P)
        assert a1 == pytest.approx(a, abs=1e-12)
        assert l1 == pytest.approx(l_fiber, abs=1e-12)
        f2 = step_muscle(a1, l1, u, l_mtu, 0.001, P)[3]
        assert f2 == pytest.approx(f1, abs=1e-9)

    def test_step_halving_consistency(self):
        # O(dt^2) one-step consistency: the dt vs 2x(dt/2) discrepancy must
        # shrink ~4x when dt halves.
        a, l_fiber = 0.2, 0.98
        l_mtu = 1.0 * P.l0_fiber + 1.01 * P.l_slack_tendon

        def discrepancy(dt):
            full = step_muscle(a, l_fiber, 0.9, l_mtu, dt, P)
            half = step_muscle(a, l_fiber, 0.9, l_mtu, dt / 2, P)
            half2 = step_muscle(half[0], half[1], 0.9, l_mtu, dt / 2, P)
            return abs(full[0] - half2[0]) + abs(full[1] - half2[1])

        d1, d2 = discrepancy(0.002), discrepancy(0.001)
        assert d2 < d1
        assert d1 / d2 == pytest.approx(4.0, rel=0.5)

    def test_force_is_entry_force(self):
        strain = 0.03
        l_mtu = 1.0 * P.l0_fiber + (1 + strain) * P.l_slack_tendon
        force = step_muscle(0.3, 1.0, 0.3, l_mtu, 0.001, P)[3]
        assert force == pytest.approx(P.f0_max * tendon_force(strain, P), rel=1e-12)

    def test_dt_validation(self):
        with pytest.raises(ValueError, match=r"^dt must be positive, got 0.0$"):
            step_muscle(0.01, 1.0, 0.5, 0.15, 0.0, P)
        with pytest.raises(ValueError, match=r"^l_mtu must be positive, got 0.0$"):
            step_muscle(0.01, 1.0, 0.5, 0.0, 1e-3, P)


def _tendon_formula(strain, p):
    """The tendon curve as it read when its constants were recomputed per call."""
    if strain <= 0.0:
        return 0.0
    eps_toe = 0.609 * p.eps0_t
    if strain <= eps_toe:
        return (p.f_toe / (math.exp(p.k_toe) - 1.0)
                * (math.exp(p.k_toe * strain / eps_toe) - 1.0))
    k_lin = (p.f_toe * p.k_toe * math.exp(p.k_toe)
             / ((math.exp(p.k_toe) - 1.0) * eps_toe))
    return k_lin * (strain - eps_toe) + p.f_toe


def _passive_formula(l_norm, p):
    return (math.exp(p.k_pe * (l_norm - 1.0) / p.eps0_m) - 1.0) / (math.exp(p.k_pe) - 1.0)


# a reassociated constant differs in the last bit for about a quarter of
# random parameter sets, so the bit-for-bit checks draw many
_PARAMS = st.builds(MuscleParams, eps0_t=st.floats(0.01, 0.1), k_toe=st.floats(0.5, 6.0),
                    f_toe=st.floats(0.05, 0.95), k_pe=st.floats(1.0, 8.0),
                    eps0_m=st.floats(0.3, 0.9), pennation_factor=st.floats(0.7, 1.0))


class TestParams:
    def test_derived_quantities_recomputed(self):
        p = MuscleParams(eps0_t=0.08)
        assert p.eps_toe == pytest.approx(0.609 * 0.08, rel=1e-12)
        assert p.k_lin == pytest.approx(1.712 / 0.08, rel=1e-3)

    @given(_PARAMS)
    @settings(max_examples=100, deadline=None)
    def test_frozen_constants_match_per_call_formulas_bit_for_bit(self, p):
        eps_toe = 0.609 * p.eps0_t
        assert p.eps_toe == eps_toe
        assert p.k_lin == (p.f_toe * p.k_toe * math.exp(p.k_toe)
                           / ((math.exp(p.k_toe) - 1.0) * eps_toe))
        # slack, toe and linear tendon branches, both breaks included
        strains = [-0.01, 0.0, eps_toe] + [i * 3.0 * p.eps0_t / 200 for i in range(1, 201)]
        for strain in strains:
            assert tendon_force(strain, p) == _tendon_formula(strain, p)
        lengths = [0.4 + i * 1.4 / 200 for i in range(201)]
        for l_norm in lengths:
            assert passive_force_length(l_norm, p.k_pe, p.eps0_m) == _passive_formula(l_norm, p)

    @given(_PARAMS)
    @settings(max_examples=100, deadline=None)
    def test_equilibrium_composes_the_per_call_formulas(self, p):
        # the solve reads the frozen constants; it must equal the hand
        # composition of the per-call formulas exactly
        a = 0.4
        for l_fiber in (0.8, 1.0, 1.15):
            for strain in (0.005, 0.02, 0.05):
                l_mtu = l_fiber * p.l0_fiber * p.pennation_factor + (1 + strain) * p.l_slack_tendon
                l_tendon = l_mtu - l_fiber * p.l0_fiber * p.pennation_factor
                f_t = _tendon_formula(l_tendon / p.l_slack_tendon - 1.0, p)
                arg = ((f_t / p.pennation_factor - _passive_formula(l_fiber, p))
                       / (a * active_force_length(l_fiber, p.gamma)))
                arg = min(max(arg, _FV_ARG_LO), _FV_ARG_HI)
                assert _velocity(l_fiber, a, l_mtu, p) == inverse_force_velocity(arg)

    def test_params_are_frozen(self):
        p = MuscleParams()
        with pytest.raises(FrozenInstanceError):
            p.f0_max = 100.0
        with pytest.raises(AttributeError):
            p.eps_toe = 0.1
        with pytest.raises(AttributeError):
            p.k_lin = 10.0

    def test_constants_are_not_fields(self):
        names = ["f0_max", "l0_fiber", "l_slack_tendon", "pennation_factor", "t_act",
                 "t_deact", "gamma", "k_pe", "eps0_m", "eps0_t", "k_toe", "f_toe",
                 "a_min"]
        assert [f.name for f in fields(MuscleParams)] == names
        assert list(_SECTIONS["muscle"]) == names

    def test_validation(self):
        with pytest.raises(ValueError):
            MuscleParams(t_act=-0.01)
        with pytest.raises(ValueError):
            MuscleParams(f_toe=1.5)
        with pytest.raises(ValueError):
            MuscleParams(pennation_factor=0.0)
