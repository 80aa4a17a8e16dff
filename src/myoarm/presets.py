"""Ready-made arm configurations.

`planar2x4` is the desk-scale benchmark: a planar two-joint arm with four
muscles in two antagonist pairs, constant 0.05 m moment arms, no gravity.
Every quantitative check in the test suite runs against it. Its resting tone
(8% activation floor) and joint damping place the free resonance above the
benchmark trajectory band with near-critical damping, like a relaxed human
arm; without that tone the rest posture is a floppy sub-0.2 Hz pendulum that
no iteration-to-iteration learning law can track at desk-scale durations.

`spatial-ltdm` is a stretch configuration approximating a seven-joint
anthropomorphic arm flattened into the plane: upper-arm/forearm/hand segment
lengths 0.38/0.34/0.262 m, fifteen muscles (three on the first shoulder
joint, antagonist pairs elsewhere), and asymmetric joint ranges. It exercises
the redundant-chain code paths, and the `probe-spatial` benchmark workload
times its park and probe; no learning run uses it yet.
"""

from __future__ import annotations

import math

from .muscle import MuscleParams
from .arm import ArmModel, LinkParams, MuscleRoute

__all__ = ["planar2x4", "spatial_ltdm", "PRESETS", "preset_key", "make_arm"]

# Shared actuator scale for both presets: 300 N peak force, 0.10 m optimal
# fiber, 0.05 m tendon slack length, so l_ref = 0.15 m puts the fiber exactly
# at optimal length with the tendon just taut at the reference posture.
_L_REF = 0.15


def planar2x4(muscle_overrides: dict | None = None, tip_mass: float = 0.0) -> ArmModel:
    """Two-joint planar arm, four muscles: [shoulder+, shoulder-, elbow+, elbow-].

    The reference posture places the tip at (0.45, 0) with the elbow flexed
    (q_ref approximately (-0.828, +1.795) rad), leaving generous travel to the
    +/-2.9 rad hard stops on both joints.
    """
    l1, l2 = 0.38, 0.34
    x, y = 0.45, 0.0
    c2 = (x * x + y * y - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
    q2 = math.acos(c2)
    q1 = math.atan2(y, x) - math.atan2(l2 * math.sin(q2), l1 + l2 * math.cos(q2))
    # Resting muscle tone: with the activation floor at 8% the antagonist
    # pairs stiffen the free arm to ~1 Hz, so the rest posture is an actual
    # equilibrium rather than a drifting pendulum.
    overrides = {"a_min": 0.08, **(muscle_overrides or {})}
    muscles = [MuscleParams(**overrides) for _ in range(4)]
    routing = [
        MuscleRoute(joint=0, moment_arm=0.05, sign=+1, l_ref=_L_REF),
        MuscleRoute(joint=0, moment_arm=0.05, sign=-1, l_ref=_L_REF),
        MuscleRoute(joint=1, moment_arm=0.05, sign=+1, l_ref=_L_REF),
        MuscleRoute(joint=1, moment_arm=0.05, sign=-1, l_ref=_L_REF),
    ]
    return ArmModel(
        links=[
            LinkParams(length=l1, mass=2.0, com=l1 / 2.0, inertia=2.0 * l1 * l1 / 12.0),
            LinkParams(length=l2, mass=1.5, com=l2 / 2.0, inertia=1.5 * l2 * l2 / 12.0),
        ],
        joint_limits=[(-2.9, 2.9), (-2.9, 2.9)],
        routing=routing,
        muscles=muscles,
        gravity=(0.0, 0.0),
        viscous_friction=1.2,
        q_ref=(q1, q2),
        tip_mass=tip_mass,
    )


def spatial_ltdm(muscle_overrides: dict | None = None, tip_mass: float = 0.0) -> ArmModel:
    """Seven-joint planar reduction of an anthropomorphic arm, fifteen muscles.

    Joints 0-2 sit near-coincident at the shoulder (short connector links),
    joint 3 is the elbow, joint 4 the forearm, joints 5-6 the wrist. Segment
    sums: base->elbow 0.38 m, elbow->wrist 0.34 m, wrist->tip 0.262 m.
    """
    lengths = [0.02, 0.02, 0.34, 0.02, 0.32, 0.02, 0.242]
    masses = [0.30, 0.30, 1.80, 0.30, 1.20, 0.30, 0.45]
    # Short connector links model joint housings: their rotational inertia
    # comes from the housing (3 cm gyration radius), not the rod formula,
    # which keeps the co-located joint modes slow enough for the 1 kHz
    # staggered muscle coupling.
    inertias = [max(m * L * L / 12.0, m * 0.03 * 0.03) for L, m in zip(lengths, masses)]
    links = [LinkParams(length=L, mass=m, com=L / 2.0, inertia=i)
             for L, m, i in zip(lengths, masses, inertias)]
    joint_limits = [(0.0, 0.4), (0.0, 1.1), (0.0, 1.1), (0.0, 1.57),
                    (0.0, 1.57), (-1.0, 1.0), (-1.0, 1.0)]
    q_ref = (0.2, 0.55, 0.55, 0.785, 0.785, 0.0, 0.0)
    overrides = muscle_overrides or {}
    # Muscle count per joint: 3 on the first shoulder joint, pairs elsewhere.
    routing = [
        MuscleRoute(joint=0, moment_arm=0.02, sign=+1, l_ref=_L_REF),
        MuscleRoute(joint=0, moment_arm=0.02, sign=-1, l_ref=_L_REF),
        MuscleRoute(joint=0, moment_arm=0.02, sign=+1, l_ref=_L_REF),
    ]
    for j in range(1, 7):
        routing.append(MuscleRoute(joint=j, moment_arm=0.02, sign=+1, l_ref=_L_REF))
        routing.append(MuscleRoute(joint=j, moment_arm=0.02, sign=-1, l_ref=_L_REF))
    muscles = [MuscleParams(**overrides) for _ in routing]
    return ArmModel(
        links=links,
        joint_limits=joint_limits,
        routing=routing,
        muscles=muscles,
        gravity=(0.0, 0.0),
        viscous_friction=0.3,
        q_ref=q_ref,
        tip_mass=tip_mass,
    )


PRESETS = {
    "planar2x4": planar2x4,
    "spatial-ltdm": spatial_ltdm,
}


def preset_key(name: str) -> str:
    """The PRESETS key a name spells: case and '_' versus '-' are ignored."""
    return name.lower().replace("_", "-")


def make_arm(name: str, muscle_overrides: dict | None = None,
             tip_mass: float = 0.0) -> ArmModel:
    """Build a preset arm by name; unknown names raise with the valid choices."""
    try:
        factory = PRESETS[preset_key(name)]
    except KeyError:
        raise ValueError(f"unknown arm preset {name!r}; choose from {sorted(PRESETS)}") from None
    return factory(muscle_overrides=muscle_overrides, tip_mass=tip_mass)
