"""Seeded inputs, fixed CLI job lists and per-job correctness checks.

A workload is a fixed list of CLI jobs.  ``build(name, seed, workdir)``
writes every input file the jobs read (point sets, domains, configs) from
the seed alone, and returns the jobs.  Each job carries its own check,
which judges the report against analytic truth: the expected verdict comes
from the inputs (multiplier bounded below or vanishing, lattice a basis),
and numbers are compared with references computed here (DFT-lattice bounds
equal to one, SVD of the member matrix, exact gap formula).

A check returns ``"ok"``, ``"known_defect"`` or raises ``CheckError``.
``known_defect`` marks a job whose verdict is wrong in the one documented
way: a ``mult-check`` sweep holds the point set fixed across refinement
levels, so the base system's own bounds sink like K/n and every trend the
sweep certifies sinks with them.  Such a job counts as failed; any other
wrong answer makes the run incorrect.
"""

from __future__ import annotations

import csv
import json
import math
import os
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("recon_batch", "sweep_dense", "checks_mix")

# stability threshold of the package's sweep trend rule
_STABILITY = 0.05


class CheckError(AssertionError):
    """A job's exit code, verdict or numbers disagree with the reference."""


@dataclass
class Job:
    """One CLI invocation: ``framelab --config <config> --out <report>``."""

    name: str
    config: str
    report: str
    check: Callable[[int, dict, "Job"], str]

    @property
    def argv(self) -> list:
        return ["--config", self.config, "--out", self.report]


def _expect(cond: bool, job_name: str, what: str) -> None:
    if not cond:
        raise CheckError(f"{job_name}: {what}")


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# input writers: each takes the work directory and a bare file name and
# returns the name.  Configs refer to inputs relative to the work directory,
# which is the working directory while jobs run, so for one seed the files
# are byte-identical wherever they are written.


def _write_json(workdir: str, name: str, obj) -> str:
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)
    return name


def _write_points_json(workdir: str, name: str, xs: np.ndarray, box) -> str:
    return _write_json(
        workdir, name,
        {"dim": 1, "box": [[float(box[0]), float(box[1])]], "points": [[float(x)] for x in xs]},
    )


def _write_points_csv(workdir: str, name: str, xs: np.ndarray) -> str:
    with open(os.path.join(workdir, name), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        for x in xs:
            writer.writerow([repr(float(x))])
    return name


def _jittered(n: int, amp: float, rng) -> tuple:
    """Integer lattice centred on zero, each point moved by U(-amp, amp)."""
    k = np.arange(n, dtype=float) - n // 2
    return k + rng.uniform(-amp, amp, n), (k[0] - 0.5, k[-1] + 0.5)


def _midpoints(a: float, b: float, n_per_unit: int) -> np.ndarray:
    cells = max(1, math.ceil((b - a) * n_per_unit - 1e-9))
    return a + (np.arange(cells) + 0.5) * ((b - a) / cells)


def _seed_for(seed: int, tag: str) -> np.random.Generator:
    """Independent stream per input file, fixed by the workload seed."""
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


# ---------------------------------------------------------------------------
# recon_batch: the A8 pipeline shape through the CLI reconstruct command

RECON_JOBS = 4
RECON_TARGETS = 8
RECON_TOL = 1e-8


def _recon_jobs(seed: int, workdir: str) -> list:
    band = _write_json(workdir, "band.json", {"intervals": [[-0.4, 0.4]]})
    jobs = []
    for j in range(RECON_JOBS):
        rng = _seed_for(seed, f"recon{j}")
        xs, box = _jittered(360, 0.3, rng)
        pts = _write_points_json(workdir, f"recon{j}_pts.json", xs, box)
        cfg = _write_json(
            workdir, f"recon{j}.json",
            {
                "command": "reconstruct",
                "inputs": {
                    "band": band,
                    "delta": 0.05,
                    "pointset": pts,
                    "densify": {"target_gap": 0.2, "sep_min": 0.1},
                    "n_targets": RECON_TARGETS,
                    "residual_tol": RECON_TOL,
                },
                "grid": {"n_per_unit": 320},
                "seed": int(rng.integers(0, 2**31)),
                "output": {"format": "csv"},
            },
        )
        jobs.append(Job(f"recon{j}", cfg, f"recon{j}_out.json",
                        _check_recon))
    return jobs


def _check_recon(code: int, rep: dict, job: Job) -> str:
    res = rep["results"]
    _expect(code == 0 and rep["passed"] is True, job.name, f"exit {code}, expected 0")
    _expect(res["grid_nodes"] == 288, job.name, "dilated band should carry 288 nodes")
    _expect(res["n_points"] >= 1800, job.name, "densified set should hold >= 1800 points")
    _expect(len(res["targets"]) == RECON_TARGETS, job.name, "one run per target")
    for r in res["targets"]:
        _expect(r["product_residual"] <= RECON_TOL and r["vanish_outside"] <= RECON_TOL,
                job.name, "residual above residual_tol")
        _expect(r["coeff_bound_ok"] is True, job.name, "coefficients exceed frame budget")
    _expect(res["exp_lower"] > 0.0, job.name, "exponential system not a frame")
    # independent reconstruction of the first target: the plateau is one on
    # the inner band, so there sum_k alpha_k e^{-2 pi i lambda_k w} = fhat(w)
    lam = np.array([e["lambda"] for e in res["expansion"]])
    alpha = np.array([complex(e["re"], e["im"]) for e in res["expansion"]])
    _expect(lam.size == res["n_points"], job.name, "one coefficient per point")
    base = os.path.splitext(job.report)[0] + ".csv"
    rows = np.loadtxt(base, delimiter=",", skiprows=1)
    w, target = rows[:, 0], rows[:, 1] + 1j * rows[:, 2]
    _expect(np.allclose(w, _midpoints(-0.45, 0.45, 320), rtol=0, atol=1e-12),
            job.name, "plot nodes are not the dilated-band midpoints")
    inside = np.abs(w) <= 0.4
    recon = np.exp(-2j * np.pi * np.outer(w[inside], lam)) @ alpha
    err = np.linalg.norm(recon - target[inside]) / np.linalg.norm(target[inside])
    _expect(err <= 10 * RECON_TOL, job.name, f"independent reconstruction error {err:.2e}")
    return "ok"


# ---------------------------------------------------------------------------
# sweep_dense: mult-check refinement sweeps up to the dense budget

SWEEP_LEVELS = [128, 256, 512, 1024]
# (expression, bounded below on [0, 1])
SWEEP_MULTIPLIERS = (
    ("t - 0.5", False),
    ("2 + sin(2 * pi * t)", True),
    ("exp(2 * pi * i * 3 * t)", True),
)
SWEEP_CHECKS = ("frame", "bessel")


def _sweep_jobs(seed: int, workdir: str) -> list:
    dom = _write_json(workdir, "unit.json", {"intervals": [[0.0, 1.0]]})
    jobs = []
    for m, (expr, bounded_below) in enumerate(SWEEP_MULTIPLIERS):
        rng = _seed_for(seed, f"sweep{m}")
        # 1.25 x the top level, so the top level still has K > n
        xs, box = _jittered(1280, 0.2, rng)
        pts = _write_points_json(workdir, f"sweep{m}_pts.json", xs, box)
        for check in SWEEP_CHECKS:
            name = f"sweep{m}_{check}"
            cfg = _write_json(
                workdir, f"{name}.json",
                {
                    "command": "mult-check",
                    "inputs": {
                        "domain": dom,
                        "pointset": pts,
                        "multiplier": {"expr": expr},
                        "check": check,
                        "sweep": True,
                    },
                    "grid": {"refine": SWEEP_LEVELS},
                },
            )
            jobs.append(Job(name, cfg, f"{name}_out.json",
                            _sweep_checker(expr, bounded_below, check, xs)))
    return jobs


def _sweep_checker(expr: str, bounded_below: bool, check: str, xs: np.ndarray):
    mult = _eval_multiplier(expr)

    def check_sweep(code: int, rep: dict, job: Job) -> str:
        sweep = rep["results"]["sweep"]
        _expect(sweep["levels"] == SWEEP_LEVELS, job.name, "sweep levels")
        # analytic truth: a bounded multiplier keeps the Bessel bound; a
        # frame survives exactly when the multiplier is bounded below
        expected_pred = True if check == "bessel" else bounded_below
        _expect(sweep["predicted_flag"] is expected_pred, job.name, "predicted verdict")
        # multiplier trace against its analytic extrema on each midpoint grid
        for lv, inf_, sup_ in zip(sweep["levels"], sweep["trace"]["ess_inf"],
                                  sweep["trace"]["ess_sup"]):
            mag = np.abs(mult(_midpoints(0.0, 1.0, lv)))
            _expect(_close(inf_, mag.min(), 1e-9) and _close(sup_, mag.max(), 1e-9),
                    job.name, f"multiplier extrema at level {lv}")
        # coarsest level base bounds against an SVD of the member matrix
        lo, hi = _svd_bounds(_midpoints(0.0, 1.0, SWEEP_LEVELS[0]), xs)
        base0 = sweep["reports"][0]["base"]
        _expect(_close(base0["lower"], lo, 1e-8) and _close(base0["upper"], hi, 1e-8),
                job.name, "base bounds disagree with SVD")
        if code == 0 and sweep["consistent"] is True:
            return "ok"
        base_lowers = [r["base"]["lower"] for r in sweep["reports"]]
        base_sinks = base_lowers[-1] < (1.0 - _STABILITY) * max(base_lowers)
        _expect(code == 1 and sweep["measured_flag"] is False and base_sinks,
                job.name, f"exit {code} is not the fixed-point-set defect")
        return "known_defect"

    return check_sweep


# ---------------------------------------------------------------------------
# checks_mix: small jobs across every other subcommand

MIX_LATTICE = 128
MIX_MULT_CHECKS = (
    ("frame", "2 + sin(2 * pi * t)"),
    ("tight", "exp(2 * pi * i * 3 * t)"),
    ("riesz", "2 + sin(2 * pi * t)"),
    ("bessel", "t - 0.5"),
    ("frame_sequence", "piecewise([0, 0.5]: 1 + t)"),
    ("converse", "2 + sin(2 * pi * t)"),
)


def _mix_jobs(seed: int, workdir: str) -> list:
    rng = _seed_for(seed, "mix")
    unit = _write_json(workdir, "unit.json", {"intervals": [[0.0, 1.0]]})
    dft = np.arange(MIX_LATTICE, dtype=float) - MIX_LATTICE // 2
    dft_pts = _write_points_csv(workdir, "dft.csv", dft)
    line, _ = _jittered(64, 0.2, rng)
    line_pts = _write_points_csv(workdir, "line.csv", line)
    fb_xs, fb_box = _jittered(320, 0.2, rng)
    fb_pts = _write_points_json(workdir, "fb_pts.json", fb_xs, fb_box)
    dft256 = np.arange(256, dtype=float) - 128
    dft256_pts = _write_points_csv(workdir, "dft256.csv", dft256)
    half, _ = _jittered(64, 0.05, rng)
    half_pts = _write_points_csv(workdir, "half.csv", 0.5 * half)
    bump = _write_json(workdir, "bump.json", {"intervals": [[-0.4, 0.4]], "delta": 0.05})
    centred = _write_json(workdir, "centred.json", {"intervals": [[-0.5, 0.5]]})

    specs = [
        ("density", {"command": "density",
                     "inputs": {"pointset": line_pts, "a": 0.8, "r": 8.0, "r_ball": 0.2}},
         _check_density(line)),
        ("gap", {"command": "gap", "inputs": {"pointset": line_pts}}, _check_gap(line)),
        ("bounds_jitter", {"command": "frame-bounds",
                           "inputs": {"domain": unit, "pointset": fb_pts},
                           "grid": {"n_per_unit": 256}},
         _check_frame_bounds(fb_xs, dft=False)),
        ("bounds_dft", {"command": "frame-bounds",
                        "inputs": {"domain": unit, "pointset": dft256_pts},
                        "grid": {"n_per_unit": 256}},
         _check_frame_bounds(dft256, dft=True)),
    ]
    for kind, expr in MIX_MULT_CHECKS:
        specs.append((f"mult_{kind}", {
            "command": "mult-check",
            "inputs": {"domain": unit, "pointset": dft_pts, "multiplier": {"expr": expr},
                       "check": kind, "sweep": False},
            "grid": {"n_per_unit": MIX_LATTICE},
        }, _check_single_mult(kind, expr)))
    specs += [
        ("translate", {"command": "translate-check",
                       "inputs": {"domain": unit, "pointset": dft_pts,
                                  "generator": {"expr": "2 + cos(2 * pi * t)"}},
                       "grid": {"n_per_unit": MIX_LATTICE}},
         _check_translate("2 + cos(2 * pi * t)")),
        ("build_generator", {"command": "build-generator",
                             "inputs": {"bump": bump, "csv_out": "gen.csv"},
                             "grid": {"n_per_unit": 320}},
         _check_build_generator("gen.csv")),
        ("union", {"command": "union-check",
                   "inputs": {"pointset": half_pts, "parts": [
                       {"intervals": [[-1.0, 0.0]], "expr": "1.5 + 0.5 * cos(2 * pi * t)",
                        "label": "lo"},
                       {"intervals": [[0.0, 1.0]], "expr": "2 + sin(2 * pi * t)",
                        "label": "hi"}]},
                   "grid": {"n_per_unit": 32}},
         _check_union),
        ("corollary", {"command": "corollary-demo", "inputs": {"domain": centred}},
         _check_corollary),
    ]
    return [
        Job(name, _write_json(workdir, f"{name}.json", cfg), f"{name}_out.json", check)
        for name, cfg, check in specs
    ]


def _check_density(xs: np.ndarray):
    def check(code, rep, job):
        _expect(code == 0, job.name, f"exit {code}")
        res = rep["results"]
        # a jitter below 1/2 keeps every closed window of length 2r on an
        # integer lattice within one point of 2r
        for r, lo, hi in zip(res["density"]["r_values"], res["density"]["nu_minus"],
                             res["density"]["nu_plus"]):
            _expect(math.floor(2 * r) - 1 <= lo <= hi <= math.ceil(2 * r) + 1,
                    job.name, f"window counts at r={r}")
        _expect(res["interval_predicate"]["predicted_frame"] is True, job.name,
                "a = 0.8 is below the lower density of a jittered integer lattice")
        _expect(_close(res["ball_predicate"]["gap"], _gap_1d(xs), 1e-12), job.name, "gap")
        _expect(res["ball_predicate"]["predicted_frame"] is True, job.name, "ball predicate")
        _expect(_close(res["separation"], float(np.diff(np.sort(xs)).min()), 1e-12),
                job.name, "separation")
        return "ok"

    return check


def _check_gap(xs: np.ndarray):
    def check(code, rep, job):
        _expect(code == 0, job.name, f"exit {code}")
        g = rep["results"]["gap"]
        _expect(g["exact"] is True and _close(g["value"], _gap_1d(xs), 1e-12), job.name, "gap")
        return "ok"

    return check


def _gap_1d(xs: np.ndarray) -> float:
    """Covering radius of a CSV point set, whose box is its own hull."""
    return float(np.diff(np.sort(xs)).max()) / 2.0


def _svd_bounds(nodes: np.ndarray, lam: np.ndarray, rank_tol: float = 1e-8) -> tuple:
    """Retained frame bounds from the singular values of sqrt(w) e^{-2 pi i t lam}."""
    w = 1.0 / nodes.size
    s = np.linalg.svd(math.sqrt(w) * np.exp(-2j * np.pi * np.outer(nodes, lam)),
                      compute_uv=False) ** 2
    kept = s[s > rank_tol * s[0]]
    return float(kept[-1]), float(kept[0])


def _check_frame_bounds(lam: np.ndarray, dft: bool):
    def check(code, rep, job):
        _expect(code == 0, job.name, f"exit {code}")
        r = rep["results"]["report"]
        _expect(r["spectra_cross_checked"] is True, job.name, "256 x 320 solves S and G")
        if dft:
            ref = (1.0, 1.0)
        else:
            ref = _svd_bounds(_midpoints(0.0, 1.0, 256), lam)
        _expect(_close(r["lower"], ref[0], 1e-9) and _close(r["upper"], ref[1], 1e-9),
                job.name, f"bounds {r['lower']}, {r['upper']} vs reference {ref}")
        _expect(r["flags"]["frame_for_whole_space"] is True, job.name, "frame flag")
        return "ok"

    return check


def _eval_multiplier(expr: str):
    """The benchmark's own numpy reading of the multiplier expressions it uses."""
    table = {
        "2 + sin(2 * pi * t)": lambda t: 2 + np.sin(2 * np.pi * t),
        "2 + cos(2 * pi * t)": lambda t: 2 + np.cos(2 * np.pi * t),
        "exp(2 * pi * i * 3 * t)": lambda t: np.exp(6j * np.pi * t),
        "t - 0.5": lambda t: t - 0.5,
        "piecewise([0, 0.5]: 1 + t)": lambda t: np.where(t <= 0.5, 1 + t, 0.0),
    }
    return table[expr]


def _check_single_mult(kind: str, expr: str):
    nodes = _midpoints(0.0, 1.0, MIX_LATTICE)
    mag2 = np.abs(_eval_multiplier(expr)(nodes)) ** 2

    def check(code, rep, job):
        # on the DFT lattice the base is an orthonormal basis, so every check
        # holds and the multiplied spectrum is |phi(t_j)|^2 itself
        _expect(code == 0, job.name, f"exit {code}")
        c = rep["results"]["check"]
        _expect(c["consistent"] is True, job.name, "verdict")
        if kind == "converse":
            _expect(_close(c["base"]["lower"], 1.0, 1e-9) and _close(c["base"]["upper"], 1.0, 1e-9),
                    job.name, "recovered base bounds")
            return "ok"
        _expect(_close(c["base"]["lower"], 1.0, 1e-9) and _close(c["base"]["upper"], 1.0, 1e-9),
                job.name, "DFT base bounds")
        kept = mag2[mag2 > 0]
        _expect(_close(c["multiplied"]["lower"], kept.min(), 1e-9)
                and _close(c["multiplied"]["upper"], kept.max(), 1e-9),
                job.name, "multiplied bounds")
        if kind == "frame_sequence":
            _expect(c["details"]["support_nodes"] == kept.size, job.name, "support nodes")
        return "ok"

    return check


def _check_translate(expr: str):
    mag2 = np.abs(_eval_multiplier(expr)(_midpoints(0.0, 1.0, MIX_LATTICE))) ** 2

    def check(code, rep, job):
        _expect(code == 0, job.name, f"exit {code}")
        c = rep["results"]["classification"]
        _expect(c["consistent"] is True, job.name, "verdict")
        _expect(c["measured"] == {"bessel": True, "frame": True, "frame_sequence": True},
                job.name, "a bounded-below spectrum gives a frame")
        _expect(_close(c["multiplied"]["lower"], mag2.min(), 1e-9)
                and _close(c["multiplied"]["upper"], mag2.max(), 1e-9), job.name, "bounds")
        return "ok"

    return check


def _check_build_generator(csv_out: str):
    def check(code, rep, job):
        _expect(code == 0, job.name, f"exit {code}")
        res = rep["results"]
        _expect(res["nodes"] == 288 and res["max_dev_on_base"] == 0.0, job.name, "plateau")
        nodes = _midpoints(-0.45, 0.45, 320)
        _expect(res["base_nodes"] == int(np.count_nonzero(np.abs(nodes) <= 0.4)),
                job.name, "base nodes")
        rows = np.loadtxt(csv_out, delimiter=",", skiprows=1)
        _expect(rows.shape == (288, 3) and np.allclose(rows[:, 0], nodes, rtol=0, atol=1e-12),
                job.name, "generator CSV")
        return "ok"

    return check


def _check_union(code, rep, job):
    _expect(code == 0, job.name, f"exit {code}")
    u = rep["results"]["union"]
    _expect(u["consistent"] is True and u["part_ranks"] == [32, 32], job.name, "union")
    nodes = _midpoints(-1.0, 1.0, 32)
    sum_sq = np.where(nodes <= 0, (1.5 + 0.5 * np.cos(2 * np.pi * nodes)) ** 2, 0.0) + np.where(
        nodes >= 0, (2 + np.sin(2 * np.pi * nodes)) ** 2, 0.0)
    _expect(_close(u["p_hat"], sum_sq.min(), 1e-12) and _close(u["P_hat"], sum_sq.max(), 1e-12),
            job.name, "p_hat / P_hat")
    return "ok"


def _check_corollary(code, rep, job):
    _expect(code == 0 and rep["passed"] is True, job.name, f"exit {code}")
    res = rep["results"]
    # the hat vanishes at the band edges, so the matched-lattice lower bound
    # is min |hat|^2 = (1 / n)^2, which quarters with each doubling
    _expect(res["hat"]["measured_obstruction"] is True, job.name, "hat obstruction")
    _expect(all(_close(r, 0.25, 1e-9) for r in res["hat"]["ratios"]), job.name, "hat ratios")
    _expect(res["control"]["measured_obstruction"] is False, job.name, "control")
    _expect(all(_close(v, 1.0, 1e-9) for v in res["control"]["lower_bounds"]),
            job.name, "control bounds")
    return "ok"


_JOB_LISTS = {"recon_batch": _recon_jobs, "sweep_dense": _sweep_jobs, "checks_mix": _mix_jobs}


def build(workload: str, seed: int, workdir: str) -> list:
    """Write the workload's inputs for ``seed`` under ``workdir``; return its jobs."""
    os.makedirs(workdir, exist_ok=True)
    return _JOB_LISTS[workload](seed, workdir)
