"""Regenerate the stored outputs the benchmark's correctness check compares.

    python3 perfbench/make_reference.py [--size full|smoke] [--workload NAME]

Runs one untraced operation per workload, size and input variant, one at a
time, and writes each error curve and probe sensitivity matrix into
``perfbench/reference.json``, keeping the entries it did not regenerate.
Only a change that deliberately alters what the program computes should
regenerate them, and it must say so.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import bootstrap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/make_reference.py")
    parser.add_argument("--size", choices=("full", "smoke"), action="append")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    bootstrap.prepare()
    os.chdir(bootstrap.ROOT)

    import workloads

    path = bootstrap.BENCH_DIR / "reference.json"
    stored = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for size in args.size or ("full", "smoke"):
        for name in args.workload or workloads.WORKLOADS:
            for variant in range(workloads.VARIANTS):
                prep = workloads.prepare(workloads.make_inputs(name, variant, size))
                outcome = workloads.run(prep)
                if outcome.diverged:
                    raise RuntimeError(f"{name}/{size}/{variant} diverged")
                entry = workloads.reference_entry(outcome)
                stored.setdefault(size, {}).setdefault(name, {})[str(variant)] = entry
                print(f"{size} {name} variant {variant}: {outcome.elapsed_s:.2f} s, "
                      f"curve {[round(v, 3) for v in outcome.curve_mm]}",
                      flush=True)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
