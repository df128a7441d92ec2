#!/usr/bin/env python3
"""framelab benchmark: fixed CLI workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload recon_batch --seed 1 --seconds 30 --trace 0

Jobs run in-process through ``framelab.cli.main`` from ``src/``, one closed
loop: the next job starts when the previous one returns, as a CLI user waits
for each report.  A run times whole passes over the workload's fixed job
list until ``--seconds`` have elapsed, after one untimed warm-up job, and
checks every job's report (see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes under ``tracer.Tracer``, and prints the
per-layer metrics and the tracing overhead.  The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the run
record (machine, versions, thread pinning, per-job sample counts) and, for
traced runs, every span are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")

_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# import-time samples taken before and again after the workload: a single
# one spreads by +-20%, and throughput on a shared machine drifts over tens
# of seconds, so the median draws on two windows
SETUP_SAMPLES = 6
# the highest percentile reported as job_tail_s keeps this many samples beyond it
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_LAYER_COUNTS = (
    "framecore.reconstruct.calls",
    "framecore.reconstruct.cg_iters",
    "framecore.exponential_system.calls",
    "framecore.exponential_system.entries",
    "framecore.measure_bounds.calls",
    "framecore.measure_bounds.cross_checks",
    "multiplication.refine_check.levels",
    "domain.make_grid.calls",
    "expr.parse_multiplier.calls",
    "cli.report_bytes",
)
_LAYER_SELF = (
    "framecore.reconstruct",
    "framecore.exponential_system",
    "framecore.measure_bounds",
    "multiplication.refine_check",
    "multiplication.profile_refinement",
    "translates.oversampled_expansion",
    "translates.classify_translates",
    "translates.obstruction_trend",
    "translates.union_check",
    "translates.build_bump_generator",
    "pointset.load_pointset",
    "pointset.densify",
    "pointset.beurling_density",
    "domain.make_grid",
    "expr.parse_multiplier",
    "cli.parse_config",
    "cli.run",
)
_CHECK_SPANS = tuple(
    f"multiplication.check_{kind}"
    for kind in ("frame_multiplication", "tight_multiplication", "riesz_multiplication",
                 "bessel_multiplication", "frame_sequence_multiplication", "converse")
)

PER_LAYER_UNITS = {name: "count" for name in _LAYER_COUNTS}
PER_LAYER_UNITS["framecore.measure_bounds.eig_n3"] = "n3_computed"
PER_LAYER_UNITS["cli.report_bytes"] = "bytes"
PER_LAYER_UNITS.update({f"{name}.self_s": "s" for name in _LAYER_SELF})
PER_LAYER_UNITS["multiplication.checks.self_s"] = "s"
PER_LAYER_UNITS["trace.overhead_s"] = "s"
PER_LAYER_UNITS["trace.overhead_frac"] = "frac"


def pin_blas_threads() -> int:
    """Pin BLAS to the cores this process may use; must run before numpy loads."""
    n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in _BLAS_ENV:
        os.environ[var] = str(n)
    return n


def measure_setup(samples: int) -> list:
    """Seconds to ``import framelab.cli`` in fresh interpreters (after one warm-up)."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import framelab.cli; print(repr(time.perf_counter() - t))"
    )
    out = []
    for i in range(samples + 1):
        proc = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                              text=True, timeout=120, cwd=ROOT, check=True)
        if i:
            out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_job(cli_main, job) -> tuple:
    """Run one job and judge it: (seconds, outcome, message)."""
    from workloads import CheckError

    if os.path.exists(job.report):
        os.remove(job.report)
    t0 = time.perf_counter()
    try:
        code = cli_main(job.argv)
    except Exception as exc:  # a traceback escaping the CLI is a wrong answer
        return time.perf_counter() - t0, "wrong", f"{job.name}: raised {exc!r}"
    dt = time.perf_counter() - t0
    try:
        with open(job.report, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        return dt, job.check(code, report, job), ""
    except (CheckError, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return dt, "wrong", f"{job.name}: {exc}"


def run_passes(cli_main, jobs, seconds: float, tracer=None) -> list:
    """Whole passes over ``jobs`` until ``seconds`` have elapsed (at least one).

    Each pass is a dict with its samples ``[(job, seconds, outcome, msg)]``
    and, when traced, its span range and counts.
    """
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        record = {"samples": []}
        if tracer is not None:
            tracer.reset_counts()
            record["first_span"] = len(tracer.spans)
        for job in jobs:
            if tracer is not None:
                tracer.job += 1
            dt, outcome, msg = run_job(cli_main, job)
            record["samples"].append((job.name, dt, outcome, msg))
        if tracer is not None:
            record["last_span"] = len(tracer.spans)
            record["counts"] = dict(tracer.counts)
        passes.append(record)
    return passes


def alternate_passes(cli_main, jobs, seconds: float, tracer) -> tuple:
    """Untraced and traced passes in turn, each side leading every other
    round, until ``seconds`` have elapsed: drift in machine speed then falls
    on both sides of the tracing overhead.  Returns (untraced, traced)."""
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for on in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if not on:
                plain += run_passes(cli_main, jobs, 0)
                continue
            tracer.install()
            try:
                traced += run_passes(cli_main, jobs, 0, tracer)
            finally:
                tracer.uninstall()
    return plain, traced


def tail(times: list) -> tuple:
    """(value, percentile, samples beyond) for the highest whole percentile
    that leaves at least TAIL_BEYOND samples above its nearest-rank value."""
    xs = sorted(times)
    n = len(xs)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= TAIL_BEYOND:
            return xs[rank - 1], pct, n - rank
    return xs[-1], 100, 0


def pass_wall(p: dict) -> float:
    return sum(s[1] for s in p["samples"])


def blas_info() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "framelab", "cli.py")):
        print(f"error: no framelab sources under {SRC}", file=sys.stderr)
        return 2
    threads = pin_blas_threads()
    os.environ.pop("FRAMELAB_THREADS", None)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy as np

    import framelab
    import framelab.cli
    import workloads
    from tracer import Tracer

    if os.path.dirname(os.path.abspath(framelab.__file__)) != os.path.join(SRC, "framelab"):
        print(f"error: framelab imported from {framelab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    setup = measure_setup(SETUP_SAMPLES)
    os.makedirs(TMP_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR)
    cwd = os.getcwd()
    tracer = None
    try:
        jobs = workloads.build(args.workload, args.seed, workdir)
        os.chdir(workdir)
        warm = run_job(framelab.cli.main, jobs[0])
        if args.trace:
            tracer = Tracer()
            passes, traced = alternate_passes(framelab.cli.main, jobs, args.seconds, tracer)
        else:
            passes = run_passes(framelab.cli.main, jobs, args.seconds)
            traced = []
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    setup += measure_setup(SETUP_SAMPLES)

    samples = [s for p in passes + traced for s in p["samples"]]
    wrong = [s[3] for s in samples if s[2] == "wrong"] + ([warm[2]] if warm[1] == "wrong" else [])
    failed = sum(1 for s in samples if s[2] != "ok")
    times = [s[1] for p in passes for s in p["samples"]]
    tail_value, tail_pct, tail_n = tail(times)
    wall = statistics.median(pass_wall(p) for p in passes)

    if args.trace:
        metrics = layer_metrics(tracer, traced, wall)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_s": wall,
            "job_p50_s": statistics.median(times),
            "job_tail_s": tail_value,
            "ok_frac": (len(samples) - failed) / len(samples),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": threads,
        "FRAMELAB_THREADS": os.environ.get("FRAMELAB_THREADS", "unset"),
        "passes": len(passes),
        "traced_passes": len(traced),
        "job_samples": {j.name: sum(1 for s in samples if s[0] == j.name) for j in jobs},
        "job_tail": {"percentile": tail_pct, "samples": len(times), "beyond": tail_n},
        "pass_walls_s": [pass_wall(p) for p in passes],
        "traced_pass_walls_s": [pass_wall(p) for p in traced],
        "counts_repeat": all(p["counts"] == traced[0]["counts"] for p in traced),
        "failed_frac": failed / len(samples),
        "setup_samples_s": setup,
        "wrong": wrong,
    }
    result = {
        "correct": not wrong,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "result": result}, fh, indent=2)
    if tracer is not None:
        write_spans(stem + "-spans.jsonl", tracer, traced)

    for msg in wrong[:20]:
        print(f"WRONG {msg}", file=sys.stderr)
    print(f"record {json.dumps(record)}")
    print(f"{args.workload}: failed_frac {record['failed_frac']:.4f} "
          f"({failed}/{len(samples)}), job_tail_s at p{tail_pct} of {len(times)} "
          f"({tail_n} beyond)")
    if tracer is not None:
        print(f"spans: {len(tracer.spans)} written to {stem}-spans.jsonl")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def layer_metrics(tracer, traced: list, untraced_wall: float) -> dict:
    """Median per-pass counts and self times; the record says whether the
    counts repeated exactly across passes, as they must for fixed inputs."""
    selfs = [tracer.self_times(p["first_span"], p["last_span"]) for p in traced]
    out = {name: statistics.median_low(p["counts"][name] for p in traced)
           for name in (*_LAYER_COUNTS, "framecore.measure_bounds.eig_n3")}
    for name in _LAYER_SELF:
        out[f"{name}.self_s"] = statistics.median(s[name] for s in selfs)
    out["multiplication.checks.self_s"] = statistics.median(
        sum(s[name] for name in _CHECK_SPANS) for s in selfs)
    traced_wall = statistics.median(pass_wall(p) for p in traced)
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    return out


def write_spans(path: str, tracer, traced: list) -> None:
    """One JSON line per span: name, start, end, parent index, job id."""
    with open(path, "w", encoding="utf-8") as fh:
        jobs = [s[0] for p in traced for s in p["samples"]]
        fh.write(json.dumps({"jobs": jobs}) + "\n")
        for name, start, end, parent, job in tracer.spans:
            fh.write(json.dumps([name, start, end, parent, job]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
