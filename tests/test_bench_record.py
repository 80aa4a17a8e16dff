"""The benchmark recorder's run order and its record, from canned run output;
no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record",
                                               _ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

DECLARED = json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _stdout(run_s, raw, ticks=1000.0, correct=True):
    metrics = {"run_s": run_s, "ticks_per_s": ticks / run_s, "setup_s": 0.14,
               "peak_rss_mb": 40.0}
    return "\n".join([
        '# machine {"nproc": 2}',
        "# workload probe-spatial seed 301 variant 5 size full trace 0: 3 operations",
        "# raw wall s per operation " + " ".join(raw) + "; slowdown 1.2 1.3 1.2; "
        "set-up raw 0.1800 s, slowdown 1.250",
        f"# run_s {run_s:.6g} s",
        json.dumps({"correct": correct, "attempted": 24, "failed": 0,
                    "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}),
    ]) + "\n"


def test_pairs_alternate_which_side_runs_first():
    runs = bench_record.schedule(["a", "b"], 3, 301)
    assert [(r["workload"], r["pair"], r["seed"], r["side"]) for r in runs] == [
        ("a", 0, 301, "parent"), ("a", 0, 301, "change"),
        ("a", 1, 302, "change"), ("a", 1, 302, "parent"),
        ("a", 2, 303, "parent"), ("a", 2, 303, "change"),
        ("b", 0, 301, "parent"), ("b", 0, 301, "change"),
        ("b", 1, 302, "change"), ("b", 1, 302, "parent"),
        ("b", 2, 303, "parent"), ("b", 2, 303, "change"),
    ]


def test_parse_run_keeps_the_notes_and_the_untraced_raw_median():
    run = bench_record.parse_run(_stdout(0.6, ["0.700", "0.650t", "0.710", "0.690"]))
    assert run["lines"][0] == '# machine {"nproc": 2}'
    assert len(run["lines"]) == 4
    assert run["result"]["metrics"]["run_s"]["value"] == 0.6
    # the traced operation ("t") is not an untraced time
    assert run["raw_run_s"] == 0.7


def test_assemble_reports_medians_quartiles_and_pair_wins():
    parent_s = [0.66, 0.68, 0.70, 0.64]
    change_s = [0.58, 0.59, 0.71, 0.57]     # the change loses pair 2
    runs = []
    for run in bench_record.schedule(["probe-spatial"], 4, 301):
        s = (parent_s if run["side"] == "parent" else change_s)[run["pair"]]
        run.update(bench_record.parse_run(_stdout(s, [f"{1.2 * s:.3f}"])))
        runs.append(run)
    record = bench_record.assemble(runs, [{"side": "parent"}], DECLARED, {"parent": "abc"})
    assert record["parent"] == "abc" and record["traced"] == [{"side": "parent"}]
    assert record["runs"] is runs
    entry = record["summary"]["probe-spatial"]
    run_s = entry["run_s"]
    assert run_s["parent"]["values"] == parent_s
    assert run_s["parent"]["median"] == pytest.approx(0.67)
    assert run_s["parent"]["q1"] == pytest.approx(0.655)
    assert run_s["parent"]["q3"] == pytest.approx(0.685)
    assert run_s["change"]["median"] == pytest.approx(0.585)
    assert run_s["median_ratio"] == pytest.approx(0.585 / 0.67)
    assert (run_s["change_better_pairs"], run_s["pairs"]) == (3, 4)
    # higher is better for ticks_per_s: the same three pairs win
    assert entry["ticks_per_s"]["change_better_pairs"] == 3
    assert entry["raw_run_s"]["parent"]["values"] == pytest.approx(
        [1.2 * s for s in parent_s], abs=1e-3)
    assert entry["correct"] is True
    assert set(entry) == {m["name"] for m in DECLARED["end_to_end"]} | {"raw_run_s",
                                                                       "correct"}
