#!/usr/bin/env python3
"""Digest of every report a fixed set of framelab CLI jobs writes.

Run from the root of a source checkout::

    python3 tools/report_digest.py --seed 101 > digest.txt

The jobs are every job of ``perfbench.workloads.build(name, seed, dir)`` for
the benchmark's three workloads, and every config of
``tests/test_report_shape.py``; both modules are only read.  Jobs run
in-process through ``framelab.cli.main`` from this checkout's ``src/``, from
the directory holding their inputs, with ``--format csv``.  For each report
the tool prints one line::

    <name> <exit code> <sha256 of the report without its generated_at line>

and one more line, named ``<name>.csv``, for the report's CSV sidecar.  A
job that writes no report prints ``-`` as its digest.  Run the tool on two
checkouts and ``diff`` the outputs: no difference means the same exit codes
and the same report and CSV bytes apart from the timestamp.  Positional
arguments pick the job sets (a workload name or ``report_shape``).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("recon_batch", "sweep_dense", "checks_mix")
SETS = (*WORKLOADS, "report_shape")
# the one line of a report that changes between runs of the same config
_TIMESTAMP = b'  "generated_at": '


def _load(relpath: str):
    """Import a module of this checkout from its file, without a package."""
    name = "_digest_" + Path(relpath).stem
    spec = importlib.util.spec_from_file_location(name, ROOT / relpath)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def digest(path: Path) -> str:
    """sha256 of a file without its generated_at line; ``-`` if it is missing."""
    if not path.exists():
        return "-"
    lines = path.read_bytes().splitlines(keepends=True)
    return hashlib.sha256(b"".join(l for l in lines if not l.startswith(_TIMESTAMP))).hexdigest()


def _run(main, name: str, workdir: Path, argv: list, report: str) -> None:
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        code = main([*argv, "--format", "csv"])
    finally:
        os.chdir(cwd)
    out = workdir / report
    print(f"{name} {code} {digest(out)}")
    sidecar = out.with_suffix(".csv")
    if sidecar.exists():
        print(f"{name}.csv {code} {digest(sidecar)}")


def _jobs(job_set: str, seed: int, base: Path):
    """(name, workdir, argv, report) of every job in one set; inputs are written."""
    if job_set in WORKLOADS:
        workdir = base / job_set
        for job in _load("perfbench/workloads.py").build(job_set, seed, str(workdir)):
            yield f"{job_set}/{job.name}", workdir, job.argv, job.report
        return
    shape = _load("tests/test_report_shape.py")
    for name in sorted(shape.CONFIGS):
        workdir = base / job_set / name
        workdir.mkdir(parents=True)
        shape.write_inputs(workdir)
        (workdir / "cfg.json").write_text(json.dumps(shape.CONFIGS[name]))
        argv = ["--config", "cfg.json", "--out", "report.json"]
        yield f"{job_set}/{name}", workdir, argv, "report.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=101, help="workload seed")
    parser.add_argument("sets", nargs="*", metavar="SET",
                        help=f"job sets to run, from {', '.join(SETS)} (default: all)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.sets) - set(SETS))
    if unknown:
        parser.error(f"unknown job sets: {', '.join(unknown)}")
    sys.path.insert(0, str(ROOT / "src"))
    import framelab.cli

    # a framelab imported from elsewhere would digest the wrong checkout
    if Path(framelab.cli.__file__).resolve().parent != ROOT / "src" / "framelab":
        print(f"error: framelab imported from {framelab.cli.__file__}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="report-digest-") as tmp:
        for job_set in args.sets or SETS:
            for name, workdir, job_argv, report in _jobs(job_set, args.seed, Path(tmp)):
                _run(framelab.cli.main, name, workdir, job_argv, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
