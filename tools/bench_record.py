"""Record a benchmark comparison of a parent revision and the working tree.

    python tools/bench_record.py --parent REV [--out BENCH.json]

The parent's files are exported with ``git archive REV`` into a temporary
directory, which is removed afterwards; the change is the working tree this
script sits in. For each workload of ``BENCHMARK.json``, ``PAIRS`` pairs of
untraced ``perfbench/run.py`` runs follow each other one at a time, each as
long as the benchmark's ``run_seconds``, pair ``k`` on seed ``SEED0 + k``
with the side that runs first alternating from pair to pair, so a drift of
the host's speed falls on both sides alike. Ten pairs from seed 301 cover
all eight input variants, the held-out variant 7 (seed 303) included. Then
each side makes one traced run per workload on ``SEED0``.

The output file holds every run's JSON line with its seed, side and ``#``
lines (the machine record among them); per workload and end-to-end metric,
each side's median and quartiles, the change/parent median ratio, the
pairs the change won and the ``verdict`` (see ``verdict``); the same, with
no verdict, for the raw (unscaled) operation times; and
the ``tools/src_lines.py``, ``tools/settings_count.py`` and
``tools/artifact_digest.py`` output of each side, each run in its own tree
with ``PYTHONPATH`` set to that tree's ``src``, with ``same_artifacts`` true when the two digest
outputs are equal; and the sha256 of each side's package sources that
perfbench keys its outputs by.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
SEED0 = 301


def schedule(workloads, pairs: int, seed0: int) -> list[dict]:
    """The untraced runs in the order they are made."""
    runs = []
    for workload in workloads:
        for k in range(pairs):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            runs += [{"workload": workload, "pair": k, "seed": seed0 + k,
                      "side": side} for side in order]
    return runs


def parse_run(stdout: str) -> dict:
    """The ``#`` lines and the final JSON object of one perfbench run, plus the
    median raw wall time of its untraced operations."""
    lines = stdout.strip().splitlines()
    notes = [line for line in lines[:-1] if line.startswith("#")]
    raw = []
    for line in notes:
        if line.startswith("# raw wall s per operation "):
            walls = line[len("# raw wall s per operation "):].split(";")[0].split()
            raw = [float(w) for w in walls if not w.endswith("t")]
    return {"lines": notes, "result": json.loads(lines[-1]),
            "raw_run_s": statistics.median(raw) if raw else None}


def _spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def verdict(entry: dict, better: str, bound: float) -> str:
    """How one metric's comparison reads, in the order checked:

    * ``gain`` -- the change won at least 9 in 10 pairs, and the medians
      differ by more than the parent's interquartile range;
    * ``regression`` -- the change median is worse than the parent's by more
      than ``bound`` times the parent median;
    * ``unresolved`` -- the parent's interquartile range is wider than
      ``bound`` times its median, and not every change run beats every
      parent run;
    * ``no regression`` otherwise.
    """
    parent, change = entry["parent"], entry["change"]
    sign = 1.0 if better == "lower" else -1.0
    scale = bound * abs(parent["median"])
    iqr = parent["q3"] - parent["q1"]
    ahead = sign * (parent["median"] - change["median"])    # > 0: the change is better
    if 10 * entry["change_better_pairs"] >= 9 * entry["pairs"] and ahead > iqr:
        return "gain"
    if -ahead > scale:
        return "regression"
    separated = (max(sign * v for v in change["values"])
                 < min(sign * v for v in parent["values"]))
    if iqr > scale and not separated:
        return "unresolved"
    return "no regression"


def compare(runs: list[dict], value, better: str) -> dict:
    """Both sides' spread of ``value(run)`` and how the pairs came out."""
    by_pair: dict[int, dict] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = value(run)
    pairs = [by_pair[k] for k in sorted(by_pair)
             if all(by_pair[k].get(s) is not None for s in SIDES)]
    out = {side: _spread([p[side] for p in pairs]) for side in SIDES}
    sign = 1.0 if better == "lower" else -1.0
    out["median_ratio"] = out["change"]["median"] / out["parent"]["median"]
    out["change_better_pairs"] = sum(sign * (p["change"] - p["parent"]) < 0
                                     for p in pairs)
    out["pairs"] = len(pairs)
    return out


def assemble(runs: list[dict], traced: list[dict], declared: dict, meta: dict) -> dict:
    """The record: metadata, every run, and the per-workload comparisons."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        entry = {}
        for m in declared["end_to_end"]:
            entry[m["name"]] = compare(
                mine, lambda run, name=m["name"]: run["result"]["metrics"][name]["value"],
                m["better"])
            entry[m["name"]]["verdict"] = verdict(entry[m["name"]], m["better"], m["bound"])
        entry["raw_run_s"] = compare(mine, lambda run: run["raw_run_s"], "lower")
        entry["correct"] = all(run["result"]["correct"] for run in mine)
        summary[workload] = entry
    return {**meta, "summary": summary, "runs": runs, "traced": traced}


def _perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True)
    return parse_run(proc.stdout)


def _tool(root: Path, name: str) -> str:
    """The output of ``root``'s ``tools/<name>``, run in ``root`` with
    ``PYTHONPATH`` set to ``root/src`` alone. Its entries come before
    site-packages and an editable install's ``.pth`` entry, so a tool that
    imports the package reads ``root``'s own, installed package or not."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    return subprocess.run([sys.executable, str(root / "tools" / name)], cwd=root,
                          env=env, capture_output=True, text=True, check=True).stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/bench_record.py")
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", default="BENCH.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    from bootstrap import source_digest

    def git(*cmd) -> str:
        return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    meta = {"parent": git("rev-parse", args.parent),
            "change": {"head": git("rev-parse", "HEAD"),
                       "dirty": bool(git("status", "--porcelain"))},
            "command": declared["command"], "seconds": seconds,
            "pairs": PAIRS, "seed0": SEED0}
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "parent.tar"
        subprocess.run(["git", "archive", "--output", str(archive), meta["parent"]],
                       cwd=ROOT, check=True)
        parent = Path(tmp) / "parent"
        with tarfile.open(archive) as tar:
            tar.extractall(parent)
        roots = {"parent": parent, "change": ROOT}
        runs = []
        for run in schedule(workloads, PAIRS, SEED0):
            run.update(_perfbench(roots[run["side"]], run["workload"], run["seed"],
                                  seconds, 0))
            runs.append(run)
            print(f"{run['workload']} pair {run['pair']} {run['side']}: run_s "
                  f"{run['result']['metrics']['run_s']['value']:.4f}", file=sys.stderr)
        traced = [{"workload": w, "seed": SEED0, "side": side,
                   **_perfbench(roots[side], w, SEED0, seconds, 1)}
                  for w in workloads for side in SIDES]
        for side, root in roots.items():
            meta.setdefault("src_digest", {})[side] = source_digest(root / "src" / "myoarm")
            meta.setdefault("src_lines", {})[side] = _tool(root, "src_lines.py")
            meta.setdefault("settings_count", {})[side] = _tool(root, "settings_count.py")
            meta.setdefault("artifact_digest", {})[side] = _tool(root, "artifact_digest.py")
        digests = meta["artifact_digest"]
        meta["same_artifacts"] = digests["parent"] == digests["change"]
    record = assemble(runs, traced, declared, meta)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
