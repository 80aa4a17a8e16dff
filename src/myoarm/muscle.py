"""Hill-type muscle-tendon unit.

A lumped muscle model: first-order excitation-to-activation dynamics, an
active force-length curve, a passive elastic element, a force-velocity
relation, and a series-elastic tendon with an exponential toe region.
Fiber velocity is obtained each tick by enforcing force balance between
fiber and tendon and inverting the force-velocity curve, so the only
continuous states per muscle are activation and normalized fiber length.

Conventions: fiber length is normalized by ``l0_fiber``, fiber velocity by
``l0_fiber`` per second (positive = lengthening), tendon strain is
``l_t / l_slack_tendon - 1``, and all force curves are normalized by
``f0_max``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

__all__ = [
    "MuscleParams",
    "MuscleState",
    "active_force_length",
    "passive_force_length",
    "force_velocity",
    "inverse_force_velocity",
    "tendon_force",
    "step_muscle",
    "FV_SUP",
    "FV_AT_MINUS_ONE",
]

# Supremum of the force-velocity curve (approached as v -> 1-).
FV_SUP = 1.6


def _fv_exponent(v: float) -> float:
    w = 1.0 - v
    return -1.1 / w**4 + 0.1 / w**2


def force_velocity(v_norm: float) -> float:
    """Normalized force-velocity multiplier.

    Monotone increasing on the shortening/lengthening range, ~1 at
    isometric, approaching 1.6 at the eccentric asymptote. Defined for
    v_norm < 1 only.
    """
    if v_norm >= 1.0:
        raise ValueError(f"force_velocity undefined for v_norm >= 1 (got {v_norm})")
    return FV_SUP - FV_SUP * math.exp(_fv_exponent(v_norm))


FV_AT_MINUS_ONE = force_velocity(-1.0)  # ~0.0685


def inverse_force_velocity(fv_target: float) -> float:
    """Invert the force-velocity curve in closed form.

    fv_target must lie strictly inside (0, 1.6). With g = ln((1.6 - y)/1.6)
    the curve reads 1.1 z^2 - 0.1 z + g = 0 in z = 1/(1 - v)^2; its positive
    root z >= 1/11 gives v = 1 - 1/sqrt(z) > 1 - sqrt(11), on the monotone
    branch of the curve (it turns over at v = 1 - sqrt(22)). Targets below
    fv(-1) therefore resolve to super-maximal shortening velocities (< -1)
    rather than failing.
    """
    if not (0.0 < fv_target < FV_SUP):
        raise ValueError(f"fv_target must be in (0, 1.6), got {fv_target}")
    g = math.log((FV_SUP - fv_target) / FV_SUP)
    z = (0.1 + math.sqrt(0.01 - 4.4 * g)) / 2.2
    return 1.0 - 1.0 / math.sqrt(z)


def active_force_length(l_norm: float, gamma: float) -> float:
    """Gaussian active force-length curve, peak 1 at optimal fiber length."""
    d = l_norm - 1.0
    return math.exp(-2.0 * d * d / gamma)


def passive_force_length(l_norm: float, k_pe: float, eps0_m: float) -> float:
    """Exponential passive fiber elasticity, normalized to 1 at strain eps0_m."""
    return _passive(l_norm, k_pe, eps0_m, math.exp(k_pe) - 1.0)


def _passive(l_norm: float, k_pe: float, eps0_m: float, exp_k_pe_m1: float) -> float:
    return (math.exp(k_pe * (l_norm - 1.0) / eps0_m) - 1.0) / exp_k_pe_m1


def _check_number(where: str, v, kind: type) -> None:
    """``ValueError`` naming ``where`` unless ``v`` is an integer (``kind``
    int) or a finite number (``kind`` float); a bool is neither. So the
    value echoes as text that reads back as itself. The one number rule of
    the package: every value that holds a run's numbers applies it."""
    if (isinstance(v, bool)
            or not isinstance(v, numbers.Integral if kind is int else numbers.Real)
            or kind is float and not math.isfinite(v)):
        what = "an integer" if kind is int else "a finite number"
        raise ValueError(f"{where} must be {what}, got {v!r}")


def _check_numbers(obj) -> None:
    """``_check_number`` on every field of the dataclass ``obj`` whose
    default is an int or a float, naming it ``Class.field``."""
    for f in fields(obj):
        if type(f.default) in (int, float):
            _check_number(f"{type(obj).__name__}.{f.name}", getattr(obj, f.name),
                          type(f.default))


@dataclass(frozen=True)
class MuscleParams:
    """Parameters of one muscle-tendon unit.

    Frozen: the parameter-only constants of the tendon and passive curves
    (``eps_toe``, ``k_lin``, the toe-branch gain and exp(k_pe) - 1) are
    computed once at construction and read on every tick. They are stored
    outside the dataclass fields, so ``fields(MuscleParams)`` lists only the
    settable parameters. ``k_lin`` follows from slope continuity at the toe
    break, so the tendon curve is C1 to machine precision. Every field is a
    finite number (a bool is not one); ``ValueError`` otherwise, or when a
    value is out of its range.
    """

    f0_max: float = 300.0          # peak isometric force, N
    l0_fiber: float = 0.10         # optimal fiber length, m
    l_slack_tendon: float = 0.05   # tendon slack length, m
    pennation_factor: float = 1.0  # cos of pennation angle
    t_act: float = 0.010           # activation time constant, s
    t_deact: float = 0.040         # deactivation time constant, s
    gamma: float = 0.45            # active force-length shape
    k_pe: float = 4.0              # passive exponential shape
    eps0_m: float = 0.6            # passive strain at normalized force 1
    eps0_t: float = 0.04           # tendon strain at normalized force 1
    k_toe: float = 3.0             # toe-region exponential shape
    f_toe: float = 0.33            # normalized force at the toe/linear break
    a_min: float = 0.01            # activation floor in the equilibrium solve

    def __post_init__(self) -> None:
        _check_numbers(self)
        for name in ("f0_max", "l0_fiber", "l_slack_tendon", "pennation_factor",
                     "t_act", "t_deact", "gamma", "k_pe", "eps0_m", "eps0_t",
                     "k_toe"):
            v = getattr(self, name)
            if not v > 0.0:
                raise ValueError(f"MuscleParams.{name} must be > 0, got {v}")
        if not 0.0 < self.f_toe < 1.0:
            raise ValueError(f"MuscleParams.f_toe must be in (0, 1), got {self.f_toe}")
        if not 0.0 < self.a_min < 1.0:
            raise ValueError(f"MuscleParams.a_min must be in (0, 1), got {self.a_min}")
        if not 0.0 < self.pennation_factor <= 1.0:
            raise ValueError("MuscleParams.pennation_factor must be in (0, 1]")
        eps_toe = 0.609 * self.eps0_t
        exp_k_toe_m1 = math.exp(self.k_toe) - 1.0
        const = object.__setattr__
        const(self, "_eps_toe", eps_toe)
        const(self, "_k_lin", self.f_toe * self.k_toe * math.exp(self.k_toe)
              / (exp_k_toe_m1 * eps_toe))
        const(self, "_toe_gain", self.f_toe / exp_k_toe_m1)
        const(self, "_exp_k_pe_m1", math.exp(self.k_pe) - 1.0)

    @property
    def eps_toe(self) -> float:
        """Tendon strain at the toe/linear transition."""
        return self._eps_toe

    @property
    def k_lin(self) -> float:
        """Linear-branch stiffness from slope continuity at eps_toe (~1.711/eps0_t)."""
        return self._k_lin


@dataclass
class MuscleState:
    """Continuous state of one muscle: activation and normalized fiber length.

    ``v_fiber_norm`` caches the most recent equilibrium fiber velocity. The
    edge type: a rollout carries these three values as Python floats, and
    ``step_muscle`` takes and returns floats.
    """

    activation: float = 0.01
    l_fiber_norm: float = 1.0
    v_fiber_norm: float = 0.0


def tendon_force(strain: float, params: MuscleParams) -> float:
    """Normalized tendon force: exponential toe then linear, C1 at the break.

    Slack tendon (strain <= 0) carries no force.
    """
    if strain <= 0.0:
        return 0.0
    eps_toe = params._eps_toe
    if strain <= eps_toe:
        return params._toe_gain * (math.exp(params.k_toe * strain / eps_toe) - 1.0)
    return params._k_lin * (strain - eps_toe) + params.f_toe


# Clamp window for the fv-curve argument in the equilibrium solve: the top
# keeps the argument a hair off the asymptote at 1.6, where the inverse's
# logarithm diverges; the bottom caps shortening just short of v = -1.
_FV_ARG_LO = FV_AT_MINUS_ONE + 1e-6
_FV_ARG_HI = FV_SUP - 1e-6


def step_muscle(a: float, l_fiber_norm: float, u: float, l_mtu: float, dt: float,
                params: MuscleParams) -> tuple[float, float, float, float]:
    """Advance one muscle by dt from activation ``a`` and normalized fiber
    length ``l_fiber_norm`` under excitation ``u`` at muscle-tendon length
    ``l_mtu``; returns (activation, fiber length, fiber velocity, tendon force
    in N), all Python floats.

    Activation uses the exact exponential step of the first-order dynamics,
    with a time constant frozen over the tick: ``t_act (0.5 + 1.5 a)`` while
    the excitation leads the activation, ``t_deact / (0.5 + 1.5 a)`` while it
    lags. The fiber velocity balances tendon and fiber: the tendon force
    implied by the current geometry is attributed to the fiber and the
    force-velocity curve inverted, v = fv^-1((f_t/cos(alpha) - f_pe) /
    (a * f_l)), with the new activation floored at ``a_min`` and the fv
    argument clamped to 1e-6 inside [fv(-1), 1.6]. The fiber length then
    advances by explicit Euler on that velocity. The returned force is the
    tendon force at the entry geometry, i.e. the force acting over
    [t, t+dt). A non-positive dt or l_mtu, or a u or a outside [0, 1],
    raises ``ValueError``.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"excitation u must be in [0, 1], got {u}")
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"activation a must be in [0, 1], got {a}")
    if l_mtu <= 0.0:
        raise ValueError(f"l_mtu must be positive, got {l_mtu}")
    if u >= a:
        tau = params.t_act * (0.5 + 1.5 * a)
    else:
        tau = params.t_deact / (0.5 + 1.5 * a)
    a = u + (a - u) * math.exp(-dt / tau)

    cos_a = params.pennation_factor
    l_tendon = l_mtu - l_fiber_norm * params.l0_fiber * cos_a
    f_t = tendon_force(l_tendon / params.l_slack_tendon - 1.0, params)
    a_eff = params.a_min if a < params.a_min else a
    fl = active_force_length(l_fiber_norm, params.gamma)
    fpe = _passive(l_fiber_norm, params.k_pe, params.eps0_m, params._exp_k_pe_m1)
    arg = (f_t / cos_a - fpe) / (a_eff * fl)
    if arg < _FV_ARG_LO:
        arg = _FV_ARG_LO
    elif arg > _FV_ARG_HI:
        arg = _FV_ARG_HI
    v = inverse_force_velocity(arg)
    return a, l_fiber_norm + v * dt, v, params.f0_max * f_t


_CURVE_SAMPLES = 201


def curve_samples(params: MuscleParams) -> list[tuple[float, float, float, float, float]]:
    """Sample the four normalized curves over a shared sweep parameter.

    Each row is (x, fl, fpe, fv, ft) with x at 201 even steps over [0, 1]: fl and fpe are
    evaluated at fiber length 0.5 + x, fv at velocity 2x - 1 (capped below
    the eccentric asymptote), ft at tendon strain 2x * eps0_t.
    """
    rows = []
    for i in range(_CURVE_SAMPLES):
        x = i / (_CURVE_SAMPLES - 1)
        l = 0.5 + x
        v = min(2.0 * x - 1.0, 0.999)
        strain = 2.0 * x * params.eps0_t
        rows.append((
            x,
            active_force_length(l, params.gamma),
            passive_force_length(l, params.k_pe, params.eps0_m),
            force_velocity(v),
            tendon_force(strain, params),
        ))
    return rows
