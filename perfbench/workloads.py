"""The benchmark's workloads: inputs made from the seed, and one operation each.

A workload's inputs are an INI text for ``myoarm.config`` (plus, for the
probe, a park posture), generated from ``variant = seed mod VARIANTS``.
On the ILC workloads the variant is only the experiment seed, which draws
the controller's initial time-axis feedback gains (``xi_hat``); that leaves
the ilc-planar outputs bit-identical and moves ilc-planar-fastctl's by at
most about 3e-5 relative, so in practice only probe-spatial varies with the
seed. Its *operation* is one closed-loop call into the package: a whole
``myoarm ilc`` invocation, a whole ``harness.run_ilc`` call, or a park
followed by a sensitivity probe. An operation returns what the output check
compares, and the physics it did is counted from its inputs, never from the
program.

Import this module only after ``bootstrap.prepare()``.
"""

from __future__ import annotations

import hashlib
import io
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from myoarm import cli, config, harness

from bootstrap import SPEC, WORK
from tracing import Tracer, clock, layer_hooks, patched

VARIANTS = 8
TARGET_MM = SPEC["target_error_mm"]
# Tolerances of the output check against the stored reference. They admit
# changes that only reorder floating-point operations: replacing the 2x2
# closed-form solve by numpy's, or numpy's 7x7 solve by Gaussian elimination,
# moves accelerations by ~1e-12 but the ilc-planar-fastctl error curve by up
# to 1.2e-5 relative, and the probe-spatial sensitivity (its holds hit joint
# limits, which makes the probe discontinuous) by up to 3 % of its largest
# entry on one input variant.
CURVE_RTOL = 1e-3          # each error-curve point, relative
SENSITIVITY_TOL = 0.1      # each sensitivity entry, over the largest |entry|

# Each workload's config differs from the shipped defaults only by these keys.
# "full" is what the benchmark measures; "smoke" is a seconds-long size for
# the self-tests. The shipped `myoarm ilc` (12 s park, three 8 s probe holds,
# 50 iterations) takes over a minute, so the full size shortens park and
# probe and stops after 4 iterations: an operation takes a few seconds and a
# run repeats it several times.
SIZES = {
    "full": {
        "ilc-planar": {"experiment": {"iterations": 4, "settle_time": 4.0,
                                      "probe_hold": 2.0}},
        "ilc-planar-fastctl": {"experiment": {"iterations": 4,
                                              "control_decimation": 1,
                                              "settle_time": 4.0,
                                              "probe_hold": 2.0},
                               "trajectory": {"duration": 4.0}},
        "probe-spatial": {"experiment": {"preset": "spatial-ltdm",
                                         "settle_time": 4.0,
                                         "probe_hold": 0.5}},
    },
    "smoke": {
        "ilc-planar": {"experiment": {"iterations": 2, "settle_time": 3.0,
                                      "probe_hold": 0.2},
                       "trajectory": {"duration": 1.0}},
        "ilc-planar-fastctl": {"experiment": {"iterations": 2,
                                              "control_decimation": 1,
                                              "settle_time": 3.0,
                                              "probe_hold": 0.2},
                               "trajectory": {"duration": 0.5}},
        "probe-spatial": {"experiment": {"preset": "spatial-ltdm",
                                         "settle_time": 3.0,
                                         "probe_hold": 0.1}},
    },
}
WORKLOADS = tuple(SIZES["full"])

# Half-width of the box around q_ref the probe's park posture is drawn from,
# and the distance kept from the joint limits.
PARK_BOX_RAD = 0.05
PARK_MARGIN_RAD = 0.05

# Relative to the checkout root, so the config echo in the artifacts is the
# same string in every checkout.
CLI_OUT = Path(".perfbench_work") / "out"


@dataclass(frozen=True)
class Inputs:
    workload: str
    size: str
    variant: int
    ini: str
    park_q: tuple[float, ...] | None = None


@dataclass
class Prepared:
    """Inputs parsed and the arm built: what set-up hands to the operation."""

    inputs: Inputs
    cfg: config.ExperimentConfig
    model: object
    ticks: int          # physics ticks one operation simulates
    operations: int     # trials plus probe holds in one operation


@dataclass
class Outcome:
    elapsed_s: float
    digest: str
    sensitivity: list
    curve_mm: list = field(default_factory=list)
    diverged: int = 0
    ff_shrinks: int = 0
    iterations_to_target: int | None = None
    time_to_target_s: float | None = None
    artifact_bytes: int = 0


def make_inputs(workload: str, seed: int, size: str = "full") -> Inputs:
    """The inputs for ``seed``; equal seeds modulo VARIANTS give equal inputs."""
    if workload not in SIZES[size]:
        raise ValueError(f"unknown workload {workload!r}; choose from "
                         f"{', '.join(WORKLOADS)}")
    variant = seed % VARIANTS
    sections = {name: dict(keys) for name, keys in SIZES[size][workload].items()}
    sections.setdefault("experiment", {})["seed"] = variant
    ini = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                  for name, keys in sections.items())
    park_q = None
    if workload == "probe-spatial":
        model = config.arm_from_config(config.parse_config(ini, env={}))
        rng = np.random.default_rng(variant)
        q = np.asarray(model.q_ref) + rng.uniform(-PARK_BOX_RAD, PARK_BOX_RAD,
                                                  model.n_joints)
        lo, hi = np.array(model.joint_limits).T
        park_q = tuple(float(v) for v in np.clip(q, lo + PARK_MARGIN_RAD,
                                                 hi - PARK_MARGIN_RAD))
    return Inputs(workload, size, variant, ini, park_q)


def prepare(inputs: Inputs) -> Prepared:
    cfg = config.parse_config(inputs.ini, env={})
    model = config.arm_from_config(cfg)
    ticks_per_s = round(1.0 / cfg.dt)
    holds = model.n_joints + 1
    ticks = (int(cfg.settle_time) * ticks_per_s
             + holds * round(cfg.probe_hold / cfg.dt))
    operations = holds
    if inputs.workload != "probe-spatial":
        ticks += cfg.iterations * round(cfg.trajectory.duration / cfg.dt)
        operations += cfg.iterations
    return Prepared(inputs, cfg, model, ticks, operations)


def run(prep: Prepared, tracer: Tracer | None = None) -> Outcome:
    """One operation of the prepared workload, traced when a tracer is given."""
    op = _OPERATIONS[prep.inputs.workload]
    if tracer is None:
        return op(prep, None)
    return tracer.wrap("bench.operation", op)(prep, tracer)


class _Observer:
    """The chained ``on_iteration`` hook: one clock read per trial."""

    def __init__(self, target_mm: float, writer=None):
        self.target_mm = target_mm
        self.writer = writer
        self.t0 = clock()
        self.curve: list[float] = []
        self.diverged = 0
        self.hit: tuple[int, float] | None = None
        self.controller = None

    def __call__(self, k, log, metrics, controller):
        now = clock()
        if (self.hit is None and not metrics.diverged
                and metrics.mean_abs_mm <= self.target_mm):
            self.hit = (k + 1, now - self.t0)
        self.curve.append(metrics.mean_abs_mm)
        self.diverged += bool(metrics.diverged)
        self.controller = controller
        if self.writer is not None:
            self.writer(k, log, metrics, controller)

    def outcome(self, elapsed, digest, sensitivity, artifact_bytes=0):
        return Outcome(
            elapsed_s=elapsed, digest=digest,
            sensitivity=np.asarray(sensitivity).tolist(),
            curve_mm=self.curve, diverged=self.diverged,
            ff_shrinks=self.controller.ff_shrink_count if self.controller else 0,
            iterations_to_target=self.hit[0] if self.hit else None,
            time_to_target_s=self.hit[1] if self.hit else None,
            artifact_bytes=artifact_bytes)


def _digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _digest_tree(root: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), size


def _op_cli_ilc(prep: Prepared, tracer: Tracer | None) -> Outcome:
    """``myoarm ilc`` with every artifact, as a user runs it."""
    WORK.mkdir(exist_ok=True)
    ini_path = WORK / f"{prep.inputs.workload}.ini"
    ini_path.write_text(prep.inputs.ini, encoding="utf-8")
    shutil.rmtree(CLI_OUT, ignore_errors=True)
    observer = _Observer(TARGET_MM[prep.inputs.workload])
    results = []

    def chained_run_ilc(cfg, on_iteration=None):
        observer.writer = (on_iteration if tracer is None
                           else tracer.wrap("cli.on_iteration", on_iteration))
        results.append(harness.run_ilc(cfg, on_iteration=observer))
        return results[-1]

    hooks = [(cli, "run_ilc", chained_run_ilc)]
    if tracer is not None:
        hooks += layer_hooks(tracer)
    argv = ["ilc", "--config", str(ini_path), "--seed", str(prep.cfg.seed),
            "--out", str(CLI_OUT)]
    with patched(hooks), redirect_stdout(io.StringIO()):
        observer.t0 = t0 = clock()
        code = cli.main(argv)
        elapsed = clock() - t0
    if code != 0:
        raise RuntimeError(f"myoarm ilc exited with code {code}")
    digest, nbytes = _digest_tree(CLI_OUT)
    return observer.outcome(elapsed, digest, results[-1].sensitivity, nbytes)


def _op_api_ilc(prep: Prepared, tracer: Tracer | None) -> Outcome:
    """``harness.run_ilc`` through the API, no artifacts."""
    ilc_cfg = config.ilc_config_from(prep.cfg, prep.model)
    observer = _Observer(TARGET_MM[prep.inputs.workload])
    with patched(layer_hooks(tracer) if tracer is not None else []):
        observer.t0 = t0 = clock()
        result = harness.run_ilc(ilc_cfg, on_iteration=observer)
        elapsed = clock() - t0
    digest = _digest_arrays(result.summary.mean_abs_mm, result.sensitivity,
                            result.feedforward_drives, result.final_log.q,
                            result.final_log.tendon_forces,
                            result.start_state.q)
    return observer.outcome(elapsed, digest, result.sensitivity)


def _op_probe(prep: Prepared, tracer: Tracer | None) -> Outcome:
    """Park on the seeded posture, then probe every drive channel."""
    cfg, model = prep.cfg, prep.model
    q_park = np.array(prep.inputs.park_q)
    with patched(layer_hooks(tracer) if tracer is not None else []):
        t0 = clock()
        state, u_hold = harness.park_state(model, q_park, cfg.dt,
                                           total_time=cfg.settle_time)
        probe = harness.probe_sensitivity(model, state, cfg.dt,
                                          delta=cfg.probe_delta,
                                          hold_time=cfg.probe_hold,
                                          rest=u_hold)
        elapsed = clock() - t0
    fibers = [(m.activation, m.l_fiber_norm, m.v_fiber_norm)
              for m in state.muscle_states]
    digest = _digest_arrays(state.q, state.qdot, fibers, u_hold,
                            probe.sensitivity, probe.response_time_s)
    return Outcome(elapsed_s=elapsed, digest=digest,
                   sensitivity=probe.sensitivity.tolist())


_OPERATIONS = {
    "ilc-planar": _op_cli_ilc,
    "ilc-planar-fastctl": _op_api_ilc,
    "probe-spatial": _op_probe,
}


def check(outcome: Outcome, reference: dict | None) -> list[str]:
    """Compare an operation's outputs with the stored reference."""
    if reference is None:
        return ["no stored reference for these inputs"]
    problems = []
    for key, actual in (("curve_mm", outcome.curve_mm),
                        ("sensitivity", outcome.sensitivity)):
        expected = np.asarray(reference[key], dtype=float)
        actual = np.asarray(actual, dtype=float)
        if actual.shape != expected.shape or not np.all(np.isfinite(actual)):
            problems.append(f"{key} differs from the stored reference")
            continue
        if key == "curve_mm":
            close = np.allclose(actual, expected, rtol=CURVE_RTOL, atol=0.0)
        else:
            scale = np.max(np.abs(expected), initial=0.0)
            close = np.all(np.abs(actual - expected) <= SENSITIVITY_TOL * scale)
        if not close:
            problems.append(f"{key} differs from the stored reference")
    return problems


def reference_entry(outcome: Outcome) -> dict:
    return {"curve_mm": outcome.curve_mm, "sensitivity": outcome.sensitivity}
