"""Self-tests of the benchmark: declared names, deterministic inputs, the
output check, and a seconds-long smoke run of every workload.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time

import pytest

import bootstrap

bootstrap.prepare()

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
DECLARED = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in DECLARED["end_to_end"]]
PER_LAYER = [m["name"] for m in DECLARED["per_layer"]]


def _run(workload: str, trace: int, seed: int = 1, cwd=bootstrap.ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def test_names_and_units_are_well_formed():
    names = [w["name"] for w in DECLARED["workloads"]] + END_TO_END + PER_LAYER
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(set(names)) == len(names)
    metrics = DECLARED["end_to_end"] + DECLARED["per_layer"]
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    for w in DECLARED["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_setup_s_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in DECLARED["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.SIZES["smoke"]) == set(workloads.WORKLOADS)


def test_layer_map_covers_every_per_layer_metric_once():
    mapped = [m for entry in bootstrap.SPEC["layer_map"] for m in entry["metrics"]]
    assert sorted(mapped) == sorted(PER_LAYER)
    for entry in bootstrap.SPEC["layer_map"]:
        assert set(entry["workloads"]) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_deterministic_per_seed(workload):
    for size in workloads.SIZES:
        first = workloads.make_inputs(workload, 5, size)
        assert first == workloads.make_inputs(workload, 5, size)
        assert first == workloads.make_inputs(workload, 5 + workloads.VARIANTS, size)


def test_probe_park_posture_follows_the_seed():
    postures = {workloads.make_inputs("probe-spatial", v).park_q
                for v in range(workloads.VARIANTS)}
    assert len(postures) == workloads.VARIANTS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_outputs_are_deterministic_per_seed(workload, monkeypatch):
    monkeypatch.chdir(bootstrap.ROOT)
    prep = workloads.prepare(workloads.make_inputs(workload, 5, "smoke"))
    first, second = workloads.run(prep), workloads.run(prep)
    assert first.digest == second.digest
    assert first.curve_mm == second.curve_mm
    assert first.sensitivity == second.sensitivity


def test_probe_postures_stay_in_the_box_and_the_limits():
    for variant in range(workloads.VARIANTS):
        inputs = workloads.make_inputs("probe-spatial", variant)
        model = workloads.prepare(inputs).model
        q = np.array(inputs.park_q)
        lo, hi = np.array(model.joint_limits).T
        assert np.all(q > lo) and np.all(q < hi)
        assert np.all(np.abs(q - model.q_ref) <= workloads.PARK_BOX_RAD)


def test_every_input_variant_has_a_stored_reference():
    stored = json.loads((bootstrap.BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    for size in workloads.SIZES:
        for workload in workloads.WORKLOADS:
            for variant in range(workloads.VARIANTS):
                assert str(variant) in stored[size][workload]


def test_output_check_fails_a_mismatch_and_a_missing_reference():
    ref = {"curve_mm": [237.0, 122.4], "sensitivity": [[0.1, 0.2], [0.3, 0.4]]}
    good = workloads.Outcome(1.0, "d", ref["sensitivity"], list(ref["curve_mm"]))
    assert workloads.check(good, ref) == []
    rounding = workloads.Outcome(1.0, "d", ref["sensitivity"], [237.0, 122.4001])
    assert workloads.check(rounding, ref) == []
    off = workloads.Outcome(1.0, "d", ref["sensitivity"], [237.0, 122.7])
    assert workloads.check(off, ref)
    bad_probe = workloads.Outcome(1.0, "d", [[0.1, 0.2], [0.3, 0.45]], list(ref["curve_mm"]))
    assert workloads.check(bad_probe, ref)
    nan_probe = workloads.Outcome(1.0, "d", [[0.1, 0.2], [0.3, float("nan")]],
                                  list(ref["curve_mm"]))
    assert workloads.check(nan_probe, ref)
    short = workloads.Outcome(1.0, "d", ref["sensitivity"], [237.0])
    assert workloads.check(short, ref)
    assert workloads.check(good, None)


def test_digest_log_flags_a_changed_artifact(tmp_path):
    log = run.DigestLog(tmp_path / "digests.json")
    assert log.check("w/full/0", "aaa") == []
    log.save()
    again = run.DigestLog(tmp_path / "digests.json")
    assert again.check("w/full/0", "aaa") == []
    assert again.check("w/full/0", "bbb")


def test_changed_sources_start_a_fresh_digest_entry(tmp_path):
    package = tmp_path / "myoarm"
    package.mkdir()
    (package / "arm.py").write_text("X = 1\n")
    before = bootstrap.source_digest(package)
    assert bootstrap.source_digest(package) == before
    (package / "arm.py").write_text("X = 2\n")
    after = bootstrap.source_digest(package)
    assert after != before

    inputs = workloads.make_inputs("ilc-planar", 0)
    log = run.DigestLog(tmp_path / "digests.json")
    assert log.check(run.digest_key(inputs, before), "aaa") == []
    assert log.check(run.digest_key(inputs, after), "bbb") == []
    assert log.check(run.digest_key(inputs, before), "bbb")


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)
    assert run.tail_percentile([float(i) for i in range(20)])[0] == 50.0
    assert run.tail_percentile([float(i) for i in range(100)]) == (90.0, 89.0)
    assert run.tail_percentile([float(i) for i in range(1000)])[0] == 99.0


def test_tracer_self_time_excludes_wrapped_children():
    tracer = Tracer(coarse=("outer",))
    inner = tracer.wrap("inner", lambda: time.sleep(0.01))

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    assert tracer.calls("inner") == 2
    assert tracer.self_time("outer") < tracer.total("inner")
    assert tracer.total("outer") >= tracer.total("inner")
    assert [s[0] for s in tracer.spans] == ["outer"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_its_output_check(workload):
    proc = _run(workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_reports_every_per_layer_metric():
    proc = _run("ilc-planar", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert list(result["metrics"]) == PER_LAYER
    assert result["metrics"]["cli.write_share"]["value"] > 0


def test_without_the_package_it_exits_nonzero_and_prints_no_result():
    bare = bootstrap.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", bare)
    for path in bootstrap.BENCH_DIR.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    try:
        proc = _run("ilc-planar", trace=0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
