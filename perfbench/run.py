"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ilc-planar --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. The process pins BLAS to one thread, times
set-up in fresh child processes, then repeats the workload's operation (one
caller, the next call after the previous returns) until the next one would
overrun ``--seconds``. Every operation's outputs are checked against the
stored reference and against the artifacts of every earlier operation with
the same inputs and the same package sources in this checkout; a mismatch
fails the operation.

End-to-end times are scaled to the reference core speed that
``calibrate.py`` measures during each operation and around set-up; the raw
wall times and the measured slowdowns are printed beside them.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced and traced operations and reports the per-layer metrics
from the traced ones, plus the tracing overhead against the untraced ones.
The last line of standard output is one JSON object; the lines above it
repeat each metric with its unit and record the machine.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass

import bootstrap
import calibrate
from tracing import COARSE, Tracer, clock

SETUP_TIMEOUT_S = 60
SETUP_REPEATS = 7


def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: a seconds-long size for the self-tests")
    return parser.parse_args(argv)


def measure_setup(ini: str, repeats: int) -> dict:
    """Median over fresh processes of spawn-to-ready and its three phases.

    ``setup_s`` is scaled by the core slowdown measured right before and
    after each process; the phases are raw.
    """
    child = [sys.executable, str(bootstrap.BENCH_DIR / "setup_child.py"),
             str(bootstrap.SRC)]
    samples = []
    after = calibrate.slowdown_now()
    for _ in range(repeats):
        before = after
        t0 = clock()
        with subprocess.Popen(child, stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True) as proc:
            proc.stdin.write(ini)
            proc.stdin.close()
            line = proc.stdout.readline()
            ready = clock() - t0
            proc.stdout.read()
            proc.wait(timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0 or not line:
            raise RuntimeError("set-up process failed")
        after = calibrate.slowdown_now()
        sample = json.loads(line)
        sample["raw_s"] = ready
        sample["slowdown"] = 0.5 * (before + after)
        sample["setup_s"] = ready / sample["slowdown"]
        samples.append(sample)
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


@dataclass
class Op:
    """One operation of a run, as measured."""

    traced: bool
    outcome: object          # workloads.Outcome, or None if it raised
    failed: int              # trials and probe holds that failed
    wall_s: float
    slowdown: float          # calibration kernel time over its nominal time
    sampling_share: float    # share of wall_s spent in the calibration kernel

    def scaled(self, seconds: float) -> float:
        """A time inside this operation, at the reference core speed."""
        return seconds * (1.0 - self.sampling_share) / self.slowdown

    @property
    def scaled_s(self) -> float:
        return self.scaled(self.wall_s)


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """The highest of p99.9/p99/p90/p50 with ten samples beyond it, else max."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99.9, 99.0, 90.0, 50.0):
        rank = math.ceil(round(pct * n / 100.0, 9))    # nearest-rank, 1-based
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 100.0, ordered[-1]


def digest_key(inputs, code: str) -> str:
    """The artifacts of runs with equal keys must be byte-identical: same
    inputs and same package sources (``bootstrap.source_digest``). Runs of
    changed code start a fresh entry and are held to the stored reference."""
    return f"{code}/{inputs.workload}/{inputs.size}/{inputs.variant}"


class DigestLog:
    """Artifact digests per ``digest_key``, kept across the runs of one checkout."""

    def __init__(self, path):
        self.path = path
        self.known = (json.loads(path.read_text(encoding="utf-8"))
                      if path.exists() else {})

    def check(self, key: str, digest: str) -> list[str]:
        if self.known.setdefault(key, digest) != digest:
            return ["outputs are not byte-identical to an earlier run of the "
                    "same workload and seed"]
        return []

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, sort_keys=True, indent=1),
                       encoding="utf-8")
        os.replace(tmp, self.path)


def run_operations(workloads, prep, reference, digests, seconds, trace):
    """Closed loop: repeat the operation until the next one would overrun."""
    tracer = Tracer(COARSE) if trace else None
    key = digest_key(prep.inputs, bootstrap.source_digest())
    ops: list[Op] = []
    start = clock()
    while True:
        traced = trace and len(ops) % 2 == 1
        t0 = clock()
        try:
            with calibrate.Sampler() as sampler:
                outcome = workloads.run(prep, tracer if traced else None)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            wall = clock() - t0
            ops.append(Op(traced, None, prep.operations, wall,
                          sampler.slowdown(), sampler.spent_s / wall))
            break
        problems = (workloads.check(outcome, reference)
                    + digests.check(key, outcome.digest))
        for problem in problems:
            print(f"perfbench: {key}: {problem}", file=sys.stderr)
        failed = prep.operations if problems else outcome.diverged
        ops.append(Op(traced, outcome, failed, outcome.elapsed_s,
                      sampler.slowdown(),
                      sampler.spent_s / outcome.elapsed_s))
        longest = max(op.wall_s for op in ops)
        if len(ops) >= (2 if trace else 1) and clock() - start + longest > seconds:
            break
    return ops, tracer


def time_to_target(ops) -> list[float]:
    """Scaled time to the target error of each untraced operation reaching it."""
    return [op.scaled(op.outcome.time_to_target_s) for op in ops
            if not op.traced and op.outcome is not None
            and op.outcome.time_to_target_s is not None]


def end_to_end(prep, ops, setup) -> dict:
    run_s = statistics.median(op.scaled_s for op in ops if not op.traced)
    return {
        "run_s": run_s,
        "ticks_per_s": prep.ticks / run_s,
        "setup_s": setup["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(prep, ops, setup, tracer, attempted, failed) -> dict:
    traced = [op.outcome for op in ops if op.traced and op.outcome is not None]
    plain = [op.outcome for op in ops if not op.traced and op.outcome is not None]
    scaled = {flag: [op.scaled_s for op in ops if op.traced is flag and op.outcome]
              for flag in (True, False)}
    n = max(1, len(traced))
    root = tracer.total("bench.operation") or math.nan

    def mean_us(name, self_only=False):
        calls = tracer.calls(name)
        t = tracer.self_time(name) if self_only else tracer.total(name)
        return 1e6 * t / calls if calls else 0.0

    def per_call(name):
        calls = tracer.calls(name)
        return tracer.total(name) / calls if calls else 0.0

    trials = tracer.durations("harness.run_trial")
    tail_pct, tail_s = tail_percentile(trials) if trials else (0.0, 0.0)
    hits = time_to_target(ops)
    first = (traced + plain)[0] if traced or plain else None
    return {
        "config.import_s": setup["import_s"],
        "config.parse_s": setup["parse_s"],
        "config.arm_build_s": setup["arm_build_s"],
        "muscle.step_muscle_us": mean_us("muscle.step_muscle"),
        "muscle.fv_inverse_us": mean_us("muscle.inverse_force_velocity"),
        "muscle.step_muscle_calls": tracer.calls("muscle.step_muscle") / n,
        "muscle.share": tracer.total("muscle.step_muscle") / root,
        "arm.integrate_step_us": mean_us("arm.integrate_step"),
        "arm.integrate_step_self_us": mean_us("arm.integrate_step", True),
        "arm.integrate_step_calls": tracer.calls("arm.integrate_step") / n,
        "arm.stop_events": tracer.counters.get("arm.stop_events", 0) / n,
        "arm.self_share": tracer.self_time("arm.integrate_step") / root,
        "control.ddilc_step_us": mean_us("control.DdilcController.step"),
        "control.ddilc_step_calls": tracer.calls("control.DdilcController.step") / n,
        "control.share": tracer.total("control.DdilcController.step") / root,
        "control.iterations_to_target": (first.iterations_to_target or 0) if first else 0,
        "control.ff_shrinks": first.ff_shrinks if first else 0,
        "control.time_to_target_s": statistics.median(hits) if hits else 0.0,
        "control.final_error_mm": first.curve_mm[-1] if first and first.curve_mm else 0.0,
        "harness.joint_path_s": per_call("harness.joint_path"),
        "harness.park_s": per_call("harness.park_state"),
        "harness.probe_s": per_call("harness.probe_sensitivity"),
        "harness.run_trial_p50_s": statistics.median(trials) if trials else 0.0,
        "harness.run_trial_tail_s": tail_s,
        "harness.run_trial_tail_pct": tail_pct,
        "harness.run_trial_samples": len(trials),
        "harness.run_trial_self_s": (tracer.self_time("harness.run_trial") / len(trials)
                                     if trials else 0.0),
        "harness.trials": len(trials) / n,
        "harness.diverged_trials": sum(o.diverged for o in traced + plain)
                                   / max(1, len(traced + plain)),
        "harness.failed_fraction": failed / attempted,
        "cli.artifact_write_s": tracer.total("cli.on_iteration") / n,
        "cli.artifact_bytes": sum(o.artifact_bytes for o in traced) / n,
        "cli.write_share": tracer.total("cli.on_iteration") / root,
        "trace_overhead": (statistics.median(scaled[True])
                           / statistics.median(scaled[False]) - 1.0
                           if scaled[True] and scaled[False] else math.nan),
        "bench.slowdown": statistics.median(op.slowdown for op in ops),
        "bench.raw_run_s": statistics.median(op.wall_s for op in ops
                                             if not op.traced),
        "bench.raw_setup_s": setup["raw_s"],
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        bootstrap.prepare()
    except bootstrap.MissingPackageError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.chdir(bootstrap.ROOT)
    declared = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    bootstrap.WORK.mkdir(exist_ok=True)
    # Runs of one checkout wait for each other here. Runs from different
    # checkouts pin the same core and must be serialized by the caller.
    with open(bootstrap.WORK / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        machine = bootstrap.machine()
        setup = measure_setup(inputs.ini, SETUP_REPEATS)
        prep = workloads.prepare(inputs)
        reference = (json.loads((bootstrap.BENCH_DIR / "reference.json")
                                .read_text(encoding="utf-8"))
                     .get(inputs.size, {}).get(inputs.workload, {})
                     .get(str(inputs.variant)))
        digests = DigestLog(bootstrap.WORK / "digests.json")
        ops, tracer = run_operations(workloads, prep, reference, digests,
                                     args.seconds, bool(args.trace))
        digests.save()

    attempted = prep.operations * len(ops)
    failed = sum(op.failed for op in ops)
    if args.trace:
        metrics = per_layer(prep, ops, setup, tracer, attempted, failed)
    else:
        metrics = end_to_end(prep, ops, setup)
    # A run whose operations all raised has nothing to divide by.
    metrics = {k: v if math.isfinite(v) else 0.0 for k, v in metrics.items()}
    if set(metrics) != set(units):
        raise RuntimeError("computed metrics do not match BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")

    plain = [op.outcome for op in ops if not op.traced and op.outcome is not None]
    print(f"# machine {json.dumps(machine, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} variant {inputs.variant} "
          f"size {args.size} trace {args.trace}: {len(ops)} operations, "
          f"{attempted} trials and probe holds attempted, {failed} failed")
    print("# raw wall s per operation "
          + " ".join(f"{op.wall_s:.3f}{'t' if op.traced else ''}" for op in ops)
          + "; slowdown " + " ".join(f"{op.slowdown:.3f}" for op in ops)
          + f"; set-up raw {setup['raw_s']:.4f} s, slowdown {setup['slowdown']:.3f}")
    if plain and plain[0].curve_mm:
        target = bootstrap.SPEC["target_error_mm"][args.workload]
        hits = time_to_target(ops)
        ttt = f"{statistics.median(hits):.4f} s" if hits else "not reached"
        print(f"# time_to_target_s {ttt} (target {target} mm), "
              f"final_error_mm {plain[0].curve_mm[-1]:.4f} mm")
    print(f"# failed_fraction {failed / attempted:.4f} ratio")
    for name, value in metrics.items():
        note = ""
        if name == "harness.run_trial_tail_s":
            note = (f"  (p{metrics['harness.run_trial_tail_pct']:g} of "
                    f"{metrics['harness.run_trial_samples']} traced trials)")
        print(f"# {name} {value:.6g} {units[name]}{note}")
    if args.trace:
        dump = {"machine": machine, "metrics": metrics, "trace": tracer.dump()}
        trace_path = bootstrap.WORK / f"trace_{args.workload}_{args.seed}.json"
        trace_path.write_text(json.dumps(dump, indent=1), encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
