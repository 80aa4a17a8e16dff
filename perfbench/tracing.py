"""Boundary tracing from outside the package.

The tracer replaces public functions of the myoarm layers with wrappers for
the duration of one traced operation and restores them afterwards; nothing
under ``src/`` changes. Every wrapped name keeps a call count, total time and
self time (total minus the time of wrapped calls it made). Per-tick names are
kept only as those aggregates, so a million spans cost no memory; coarse
names (phases, trials, callbacks) also keep each span whole, with its parent.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

clock = time.perf_counter


class Tracer:
    """Aggregated spans plus the coarse span list of one or more operations."""

    def __init__(self, coarse=()):
        self.coarse = frozenset(coarse)
        self.agg: dict[str, list] = {}     # name -> [calls, total_s, self_s]
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []       # open frames: [child_s, span index]

    def wrap(self, name: str, fn, on_result=None):
        """Return ``fn`` timed under ``name``; ``on_result`` sees each result."""
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans if name in self.coarse else None

        def traced(*args, **kwargs):
            index = None
            if spans is not None:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None),
                              None)
                index = len(spans)
                spans.append([name, clock(), None, parent])
            frame = [0.0, index]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                if stack:
                    stack[-1][0] += elapsed
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[0]
                if index is not None:
                    spans[index][2] = t1
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, n: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def calls(self, name: str) -> int:
        return self.agg.get(name, (0,))[0]

    def total(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[2]

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def dump(self) -> dict:
        return {
            "aggregates": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                           for k, v in sorted(self.agg.items())},
            "counters": dict(sorted(self.counters.items())),
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p in self.spans],
        }


@contextmanager
def patched(targets):
    """Set ``(owner, attribute, value)`` triples; restore them on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def layer_hooks(tracer: Tracer):
    """The wrappers for each layer boundary a workload crosses.

    Each target is the name the caller looks up at call time: ``arm`` calls
    ``step_muscle`` from its own namespace, ``muscle`` calls the fv inverse
    from its own, and ``harness`` calls the arm and its own phases by module
    global, so patching those names captures every call.
    """
    from myoarm import arm, control, harness, muscle

    def stops(result):
        tracer.count("arm.stop_events", result[1].stop_events)

    def w(owner, attr, name, on_result=None):
        return owner, attr, tracer.wrap(name, getattr(owner, attr), on_result)

    return [
        w(arm, "step_muscle", "muscle.step_muscle"),
        w(muscle, "inverse_force_velocity", "muscle.inverse_force_velocity"),
        w(harness, "integrate_step", "arm.integrate_step", stops),
        w(control.DdilcController, "step", "control.DdilcController.step"),
        w(harness, "joint_path", "harness.joint_path"),
        w(harness, "park_state", "harness.park_state"),
        w(harness, "probe_sensitivity", "harness.probe_sensitivity"),
        w(harness, "run_trial", "harness.run_trial"),
        w(harness, "run_ilc", "harness.run_ilc"),
    ]


COARSE = ("bench.operation", "harness.run_ilc", "harness.joint_path",
          "harness.park_state", "harness.probe_sensitivity",
          "harness.run_trial", "cli.on_iteration")
