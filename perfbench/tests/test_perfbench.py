"""Tests of the benchmark itself: seeded inputs, metric names, short runs.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# every metric the benchmark's definition names, with its unit
NAMED_END_TO_END = {"wall_s", "job_p50_s", "job_tail_s", "setup_s", "peak_rss_mb"}
NAMED_PER_LAYER = {
    "framecore.reconstruct.calls", "framecore.reconstruct.self_s",
    "framecore.reconstruct.cg_iters", "framecore.exponential_system.calls",
    "framecore.exponential_system.self_s", "framecore.exponential_system.entries",
    "framecore.measure_bounds.calls", "framecore.measure_bounds.self_s",
    "framecore.measure_bounds.eig_n3", "framecore.measure_bounds.cross_checks",
    "multiplication.refine_check.self_s", "multiplication.profile_refinement.self_s",
    "multiplication.refine_check.levels", "multiplication.checks.self_s",
    "translates.oversampled_expansion.self_s", "translates.classify_translates.self_s",
    "translates.obstruction_trend.self_s", "translates.union_check.self_s",
    "translates.build_bump_generator.self_s", "pointset.load_pointset.self_s",
    "pointset.densify.self_s", "pointset.beurling_density.self_s",
    "domain.make_grid.calls", "domain.make_grid.self_s", "expr.parse_multiplier.calls",
    "expr.parse_multiplier.self_s", "cli.parse_config.self_s", "cli.run.self_s",
    "cli.report_bytes", "trace.overhead_s",
}


def _files(directory):
    return sorted(os.listdir(directory))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    a, b, c = (str(tmp_path / d) for d in "abc")
    workloads.build(workload, 3, a)
    workloads.build(workload, 3, b)
    workloads.build(workload, 4, c)
    names = _files(a)
    assert names == _files(b) == _files(c)
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == [] and match == names
    _, changed, _ = filecmp.cmpfiles(a, c, names, shallow=False)
    assert changed, "a different seed must change the inputs"


def test_spec_names_every_metric_with_its_unit():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layer == run.PER_LAYER_UNITS
    assert NAMED_END_TO_END <= set(e2e)
    assert NAMED_PER_LAYER <= set(layer)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_tracer_rebinds_aliases_and_dispatch_tables():
    import framelab.cli as cli
    import framelab.framecore as framecore
    import framelab.multiplication as multiplication
    import framelab.translates as translates

    original = framecore.measure_bounds
    check = multiplication.check_frame_multiplication
    tracer = Tracer()
    tracer.install()
    try:
        for module in (framecore, multiplication, translates, cli):
            assert module.measure_bounds is not original
            assert module.measure_bounds.__wrapped__ is original
        assert cli._SINGLE_CHECKS["frame"].__wrapped__ is check
        assert multiplication._CHECKS["frame"].__wrapped__ is check
    finally:
        tracer.uninstall()
    for module in (framecore, multiplication, translates, cli):
        assert module.measure_bounds is original
    assert cli._SINGLE_CHECKS["frame"] is check and multiplication._CHECKS["frame"] is check


def test_tail_keeps_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(1, 101)])
    assert (value, pct, beyond) == (90.0, 90, 10)
    assert run.tail([1.0, 2.0])[1:] == (100, 0)


def _bench(cwd, workload, trace, seconds="0.1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_run_prints_every_metric(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    if workload == "sweep_dense":
        # the fixed-point-set defect: every sweep but the vanishing-multiplier
        # frame check is reported inconsistent
        assert result["failed"] * 6 == result["attempted"] * 5
    else:
        assert result["failed"] == 0


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(str(tmp_path), "checks_mix", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
