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

Changes that move only the last bits of the numbers are compared by value
instead.  ``--keep DIR`` also copies every report to ``DIR/<name>.json``,
its sidecar to ``DIR/<name>.csv`` and the exit codes to
``DIR/exit_codes.json``; then::

    python3 tools/report_digest.py --compare DIR_A DIR_B

passes (exit 0) only if both trees hold the same files, the same exit codes
and the same non-float values, and every float, CSV cells included, is
within max(1e-9 * max(|a|, |b|), 1e-12) of its counterpart: its relative
deviation |a - b| / max(|a|, |b|, 1e-3) is at most 1e-9.  A pass prints the
largest relative deviation and the path where it occurs; a failure exits 1
and names the first offending path.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("recon_batch", "sweep_dense", "checks_mix")
SETS = (*WORKLOADS, "report_shape")
# the one line of a report that changes between runs of the same config
_TIMESTAMP = b'  "generated_at": '
EXIT_CODES = "exit_codes.json"
# floats agree when within max(REL_TOL * max(|a|, |b|), ABS_TOL)
REL_TOL = 1e-9
ABS_TOL = 1e-12


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


def _run(main, name: str, workdir: Path, argv: list, report: str, keep: Path | None) -> int:
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
    if keep is not None:
        for src, suffix in ((out, ".json"), (sidecar, ".csv")):
            if src.exists():
                dest = keep / f"{name}{suffix}"
                dest.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(src, dest)
    return code


class _Worst:
    """The largest relative float deviation seen so far, and where."""

    deviation = 0.0
    where = None

    def see(self, a: float, b: float, where: str) -> float:
        dev = abs(a - b) / max(abs(a), abs(b), ABS_TOL / REL_TOL)
        if dev > self.deviation:
            self.deviation, self.where = dev, where
        return dev


def _differ(a, b, where: str, worst: _Worst) -> str | None:
    """Location of the first disagreement of two parsed values, or None."""
    if isinstance(a, float) and isinstance(b, float):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return None
        if worst.see(a, b, where) <= REL_TOL:
            return None
        return f"{where}: {a!r} != {b!r}"
    if isinstance(a, dict) and isinstance(b, dict):
        if sorted(a) != sorted(b):
            return f"{where}: keys {sorted(a)} != {sorted(b)}"
        return next((d for k in sorted(a) if (d := _differ(a[k], b[k], f"{where}/{k}", worst))),
                    None)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{where}: length {len(a)} != {len(b)}"
        return next((d for i, (x, y) in enumerate(zip(a, b))
                     if (d := _differ(x, y, f"{where}/{i}", worst))), None)
    if type(a) is not type(b) or a != b:
        return f"{where}: {a!r} != {b!r}"
    return None


def _cell(text: str):
    """A CSV cell as an int literal (kept as text), a float, or text."""
    try:
        int(text)
        return text
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parsed(path: Path):
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            return [[_cell(c) for c in row] for row in csv.reader(fh)]
    data = json.loads(path.read_text(encoding="utf-8"))
    if path.name != EXIT_CODES:
        data.pop("generated_at", None)
    return data


def compare(tree_a: Path, tree_b: Path, worst: _Worst) -> str | None:
    """The first path (and location) where two kept trees disagree, or None;
    ``worst`` records the largest float deviation on the way."""
    files_a = {p.relative_to(tree_a) for p in tree_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(tree_b) for p in tree_b.rglob("*") if p.is_file()}
    only = sorted(files_a ^ files_b)
    if only:
        return f"{only[0]}: only in {tree_a if only[0] in files_a else tree_b}"
    if Path(EXIT_CODES) not in files_a:
        return f"{EXIT_CODES}: missing"
    for rel in [Path(EXIT_CODES), *sorted(files_a - {Path(EXIT_CODES)})]:
        found = _differ(_parsed(tree_a / rel), _parsed(tree_b / rel), str(rel), worst)
        if found is not None:
            return found
    return None


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
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="also copy every report, CSV sidecar and exit code into DIR")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="compare two kept trees instead of running jobs")
    parser.add_argument("sets", nargs="*", metavar="SET",
                        help=f"job sets to run, from {', '.join(SETS)} (default: all)")
    args = parser.parse_args(argv)
    if args.compare:
        worst = _Worst()
        found = compare(*args.compare, worst)
        if found is not None:
            print(f"differs: {found}")
            return 1
        print("same within tolerance")
        if worst.where is None:
            print("largest relative deviation: 0 (every float is identical)")
        else:
            print(f"largest relative deviation: {worst.deviation:.3e} at {worst.where}")
        return 0
    unknown = sorted(set(args.sets) - set(SETS))
    if unknown:
        parser.error(f"unknown job sets: {', '.join(unknown)}")
    sys.path.insert(0, str(ROOT / "src"))
    import framelab.cli

    # a framelab imported from elsewhere would digest the wrong checkout
    if Path(framelab.cli.__file__).resolve().parent != ROOT / "src" / "framelab":
        print(f"error: framelab imported from {framelab.cli.__file__}", file=sys.stderr)
        return 2

    codes = {}
    with tempfile.TemporaryDirectory(prefix="report-digest-") as tmp:
        for job_set in args.sets or SETS:
            for name, workdir, job_argv, report in _jobs(job_set, args.seed, Path(tmp)):
                codes[name] = _run(framelab.cli.main, name, workdir, job_argv, report, args.keep)
    if args.keep is not None:
        args.keep.mkdir(parents=True, exist_ok=True)
        (args.keep / EXIT_CODES).write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
