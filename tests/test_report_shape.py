"""Report shape: the JSON key paths and verdict of every command's report.

Each case runs ``main`` on a small config and compares the sorted key paths
of the report (list elements collapse to ``[]``, an empty dict ends in
``{}``) and its ``passed`` verdict with the lists below.  No float value is
compared, so the test does not depend on the machine; it catches a report
key that is dropped, renamed or added.
"""

import json

import pytest

from framelab.cli import main

LEVELS = [16, 32, 64]


def key_paths(obj, prefix=""):
    if isinstance(obj, dict):
        if not obj:
            return {prefix + "{}"}
        return set().union(*(key_paths(v, f"{prefix}.{k}" if prefix else k)
                             for k, v in obj.items()))
    if isinstance(obj, list):
        return set().union({prefix + "[]"}, *(key_paths(v, prefix + "[]") for v in obj))
    return {prefix}


def under(prefix, paths):
    return [f"{prefix}.{p}" for p in paths]


def write_inputs(d):
    """Shared inputs: the unit band with the 64-point integer lattice, which
    is an orthonormal basis at 64 nodes and a tight frame at 16 and 32."""
    def put(name, obj):
        (d / name).write_text(json.dumps(obj))

    put("unit.json", {"intervals": [[0.0, 1.0]]})
    put("centred.json", {"intervals": [[-0.5, 0.5]]})
    put("band.json", {"intervals": [[-0.4, 0.4]]})
    put("bump.json", {"intervals": [[-0.4, 0.4]], "delta": 0.05})
    (d / "pts.csv").write_text("".join(f"{k}\n" for k in range(-32, 32)))
    (d / "half.csv").write_text("".join(f"{(k - 288) / 1.8!r}\n" for k in range(576)))


def mult(check, expr, sweep):
    return {
        "command": "mult-check",
        "inputs": {"domain": "unit.json", "pointset": "pts.csv",
                   "multiplier": {"expr": expr}, "check": check, "sweep": sweep},
        "grid": {"n_per_unit": 64, "refine": LEVELS},
    }


def translate(sweep):
    return {
        "command": "translate-check",
        "inputs": {"domain": "unit.json", "pointset": "pts.csv",
                   "generator": {"expr": "2 + cos(2 * pi * t)"}, "sweep": sweep},
        "grid": {"n_per_unit": 64, "refine": LEVELS},
    }


def union(sweep, expr):
    return {
        "command": "union-check",
        "inputs": {"pointset": "pts.csv", "sweep": sweep,
                   "parts": [{"intervals": [[0.0, 0.5]], "expr": expr, "label": "lo"},
                             {"intervals": [[0.5, 1.0]], "expr": "1 + t", "label": "hi"}]},
        "grid": {"n_per_unit": 64, "refine": LEVELS},
    }


SINGLE_EXPR = {
    "frame": "2 + sin(2 * pi * t)",
    "tight": "exp(2 * pi * i * 3 * t)",
    "riesz": "2 + sin(2 * pi * t)",
    "bessel": "t - 0.5",
    "frame_sequence": "piecewise([0, 0.5]: 1 + t)",
    "converse": "2 + sin(2 * pi * t)",
}

CONFIGS = {
    "density": {"command": "density",
                "inputs": {"pointset": "pts.csv", "a": 0.8, "r": 8.0, "r_ball": 0.2}},
    "gap": {"command": "gap", "inputs": {"pointset": "pts.csv"}},
    "frame-bounds": {"command": "frame-bounds",
                     "inputs": {"domain": "unit.json", "pointset": "pts.csv"},
                     "grid": {"n_per_unit": 64}},
    **{f"mult-{k}": mult(k, e, False) for k, e in SINGLE_EXPR.items()},
    **{f"mult-{k}-sweep": mult(k, e, True) for k, e in SINGLE_EXPR.items()},
    "mult-frame-sweep-vanishing": mult("frame", "t", True),
    "translate": translate(False),
    "translate-sweep": translate(True),
    "build-generator": {"command": "build-generator",
                        "inputs": {"bump": "bump.json", "csv_out": "gen.csv"},
                        "grid": {"n_per_unit": 320}},
    "reconstruct": {"command": "reconstruct",
                    "inputs": {"band": "band.json", "delta": 0.05, "pointset": "half.csv",
                               "n_targets": 2},
                    "grid": {"n_per_unit": 320}, "seed": 5},
    "union": union(False, "2 + sin(2 * pi * t)"),
    "union-sweep": union(True, "t - 0.25"),
    "corollary-demo": {"command": "corollary-demo", "inputs": {"domain": "centred.json"},
                       "grid": {"refine": LEVELS}},
}

# --- expected shapes, built from the shared report pieces -------------------------

ENVELOPE = ["command", "generated_at", "grid.n_per_unit", "grid.refine[]", "passed", "seed",
            "tolerances.max_iter", "tolerances.rank_tol", "tolerances.recon_tol"]
FRAME_REPORT = [
    "dim_space", "flags.bessel", "flags.frame_for_whole_space", "flags.frame_sequence",
    "flags.riesz_sequence", "flags.tight", "lower", "n_members", "rank", "rank_tol",
    "resolution.intervals[]", "resolution.intervals[][]", "resolution.measure",
    "resolution.n_per_unit", "resolution.nodes", "spectra_cross_checked", "upper",
]
# a FrameReport that solved the Gram matrix too (no more members than nodes)
GRAM_REPORT = FRAME_REPORT + ["gram_extremes[]"]
TRACE = ["bounded_below", "bounded_below_on_support", "ess_inf[]", "ess_inf_support[]",
         "ess_sup[]", "levels[]", "stability", "sup_stable"]
MULT_INPUTS = ["inputs.check", "inputs.domain", "inputs.multiplier.expr", "inputs.pointset",
               "inputs.sweep"]
# check kind -> (verdict keys, details keys besides the trace)
KINDS = {
    "frame": (["complete", "frame"], []),
    "tight": (["tight"], ["spread"]),
    "riesz": (["riesz"], ["gram_extremes[]"]),
    "bessel": (["bessel"], ["unbounded_trend", "upper_bound"]),
    "frame_sequence": (["frame_sequence"], ["ambient_bounds[]", "ambient_invariant",
                                            "ess_inf_support", "rank_matches_support",
                                            "support_nodes"]),
    "converse": (["frame"], []),
    "translates": (["bessel", "frame", "frame_sequence"],
                   ["generator", "rank_matches_support", "support_nodes"]),
}


def check_report(kind, traced=False):
    """A MultCheckReport; the converse check carries no trace, a sweep level
    carries the sweep's trace and a single-grid check a null one."""
    verdicts, details = KINDS[kind]
    if kind == "converse":
        trace = ["details{}"]
    else:
        trace = under("details.trace", TRACE) if traced else ["details.trace"]
    return (
        ["check", "consistent", "envelope[]", "envelope_holds", "multiplier.ess_inf",
         "multiplier.ess_sup", "multiplier.support.intervals[]",
         "multiplier.support.intervals[][]", "multiplier.zero_measure_fraction",
         "multiplier.zero_tol"]
        + under("base", GRAM_REPORT) + under("multiplied", GRAM_REPORT)
        + [f"{side}.{v}" for side in ("predicted", "measured") for v in verdicts]
        + under("details", details) + trace
    )


def sweep_report(kind):
    return (["check", "consistent", "levels[]", "measured_flag", "metric_trend[]",
             "predicted_flag", "reports[]"]
            + under("trace", TRACE) + under("reports[]", check_report(kind, traced=True)))


OBSTRUCTION = ["consistent", "levels[]", "lower_bounds[]", "measured_obstruction",
               "predicted_obstruction", "ratios[]"] + under("hat_trace", TRACE)
UNION = ["M", "P_hat", "consistent", "envelope[]", "m", "p_hat", "part_bounds[]",
         "part_bounds[][]", "part_ranks[]", "within"] + under("total", FRAME_REPORT)
UNION_INPUTS = ["inputs.parts[]", "inputs.parts[].expr", "inputs.parts[].intervals[]",
                "inputs.parts[].intervals[][]", "inputs.parts[].label", "inputs.pointset",
                "inputs.sweep"]
TRANSLATE_INPUTS = ["inputs.domain", "inputs.generator.expr", "inputs.pointset", "inputs.sweep"]

# case -> (exit code, key paths); exit 0 means passed, 1 failed, 2 and 3 no report
EXPECTED = {
    "density": (0, ENVELOPE + [
        "inputs.a", "inputs.pointset", "inputs.r", "inputs.r_ball",
        "results.ball_predicate.gap", "results.ball_predicate.predicted_frame",
        "results.ball_predicate.product", "results.ball_predicate.r_ball",
        "results.density.d_minus[]", "results.density.d_plus[]", "results.density.dim",
        "results.density.extrapolated.d_minus", "results.density.extrapolated.d_plus",
        "results.density.extrapolated.r", "results.density.nu_minus[]",
        "results.density.nu_plus[]", "results.density.r_values[]",
        "results.interval_predicate.a", "results.interval_predicate.density_lower",
        "results.interval_predicate.margin", "results.interval_predicate.predicted_frame",
        "results.interval_predicate.r", "results.separation"]),
    "gap": (0, ENVELOPE + ["inputs.pointset", "results.gap.exact", "results.gap.scan_spacing",
                           "results.gap.value", "results.separation"]),
    "frame-bounds": (0, ENVELOPE + ["inputs.domain", "inputs.pointset"]
                     + under("results.report", GRAM_REPORT)),
    **{f"mult-{k}": (0, ENVELOPE + MULT_INPUTS + under("results.check", check_report(k)))
       for k in SINGLE_EXPR},
    "mult-frame-sweep": (1, ENVELOPE + MULT_INPUTS + under("results.sweep", sweep_report("frame"))),
    "mult-tight-sweep": (0, ENVELOPE + MULT_INPUTS + under("results.sweep", sweep_report("tight"))),
    # a fixed point set is a Riesz basis at one level at most
    "mult-riesz-sweep": (3, []),
    "mult-bessel-sweep": (1, ENVELOPE + MULT_INPUTS
                          + under("results.sweep", sweep_report("bessel"))),
    "mult-frame_sequence-sweep": (1, ENVELOPE + MULT_INPUTS
                                  + under("results.sweep", sweep_report("frame_sequence"))),
    # the converse check has no sweep: asking for one is a config error
    "mult-converse-sweep": (2, []),
    "mult-frame-sweep-vanishing": (0, ENVELOPE + MULT_INPUTS
                                   + under("results.sweep", sweep_report("frame"))),
    "translate": (0, ENVELOPE + TRANSLATE_INPUTS
                  + under("results.classification", check_report("translates"))),
    "translate-sweep": (1, ENVELOPE + TRANSLATE_INPUTS
                        + under("results.classification", check_report("translates"))
                        + under("results.sweep", sweep_report("frame"))),
    "build-generator": (0, ENVELOPE + [
        "inputs.bump", "inputs.csv_out", "results.base_nodes", "results.bump.delta",
        "results.bump.intervals[]", "results.bump.intervals[][]", "results.csv_out",
        "results.max_dev_on_base", "results.nodes"]),
    "reconstruct": (0, ENVELOPE + [
        "inputs.band", "inputs.delta", "inputs.n_targets", "inputs.pointset",
        "results.exp_lower", "results.exp_upper", "results.expansion[]",
        "results.expansion[].im", "results.expansion[].lambda", "results.expansion[].re",
        "results.grid_nodes", "results.n_points", "results.residual_tol", "results.targets[]",
        "results.targets[].cg_residual", "results.targets[].coeff_bound",
        "results.targets[].coeff_bound_ok", "results.targets[].coeff_norm_sq",
        "results.targets[].product_residual", "results.targets[].vanish_outside"]),
    "union": (0, ENVELOPE + UNION_INPUTS + under("results.union", UNION)),
    "union-sweep": (0, ENVELOPE + UNION_INPUTS + under("results.sweep", [
        "consistent", "levels[]", "lowers[]", "measured_frame", "p_hats[]", "predicted_frame",
        "reports[]"] + under("reports[]", UNION))),
    "corollary-demo": (0, ENVELOPE + ["inputs.domain", "results.hat_expr"]
                       + under("results.hat", OBSTRUCTION) + under("results.control", OBSTRUCTION)),
}


def test_every_case_has_an_expected_shape():
    assert sorted(EXPECTED) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_shape(name, tmp_path, monkeypatch):
    """Each config's report has its expected key paths, and a rerun of the
    same config and seed writes the same report bytes, apart from the
    generated_at line, and the same CSV sidecar."""
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(CONFIGS[name]))
    code, paths = EXPECTED[name]
    for run in ("a", "b"):
        assert main(["--config", "cfg.json", "--out", f"{run}.json", "--format", "csv"]) == code
    if code in (2, 3):
        assert not list(tmp_path.glob("[ab].*"))
        return
    report = json.loads((tmp_path / "a.json").read_text())
    assert report["passed"] is (code == 0)
    assert sorted(key_paths(report)) == sorted(set(paths))

    stamp = b'  "generated_at": '
    lines_a, lines_b = ((tmp_path / f"{run}.json").read_bytes().splitlines(keepends=True)
                        for run in ("a", "b"))
    assert sum(line.startswith(stamp) for line in lines_a) == 1
    assert ([line for line in lines_a if not line.startswith(stamp)]
            == [line for line in lines_b if not line.startswith(stamp)])
    csv_a, csv_b = (tmp_path / f"{run}.csv" for run in ("a", "b"))
    assert csv_a.exists() is csv_b.exists()
    if csv_a.exists():
        assert csv_a.read_bytes() == csv_b.read_bytes()
