import json
import os
import tracemalloc

import numpy as np
import pytest

from framelab.cli import RunConfig, main, parse_config, run
from framelab.errors import ConfigError
from framelab.pointset import PointSet
from support import write_points_csv, write_table

E_INTERVALS = [[-0.5, 0.5]]


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def write_points(path, xs, pad=0.5):
    xs = np.asarray(xs, dtype=float)
    spacing = float(np.diff(np.sort(xs)).min()) if xs.size > 1 else 1.0
    ps = PointSet.from_1d(xs, box=(xs.min() - pad * spacing, xs.max() + pad * spacing))
    write_points_csv(path, ps)
    return str(path)


def read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


# --- config parsing ---------------------------------------------------------------


def test_parse_config_defaults(workdir):
    pts = write_points(workdir / "pts.csv", [0.0, 1.0])
    cfg_path = write_json(workdir / "cfg.json", {"command": "gap", "inputs": {"pointset": pts}})
    cfg = parse_config(cfg_path)
    assert cfg.command == "gap"
    assert cfg.n_per_unit == 128
    assert cfg.refine == (64, 128, 256)
    assert cfg.rank_tol == 1e-8
    assert cfg.recon_tol == 1e-10
    assert cfg.max_iter == 2000
    assert cfg.seed == 0
    assert cfg.report_path is None and cfg.format == "json"


def test_parse_config_rejects_unknown_keys(workdir):
    cfg_path = write_json(workdir / "cfg.json", {"command": "gap", "bogus": 1})
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(cfg_path)
    cfg_path = write_json(
        workdir / "cfg2.json",
        {"command": "gap", "inputs": {"pointset": "p.csv", "bogus": 1}},
    )
    with pytest.raises(ConfigError, match=r"inputs.*bogus"):
        parse_config(cfg_path)


def test_parse_config_names_the_offending_field(workdir):
    cfg_path = write_json(
        workdir / "cfg.json",
        {"command": "gap", "inputs": {"pointset": "p.csv"}, "tolerances": {"rank_tol": -1.0}},
    )
    with pytest.raises(ConfigError, match="tolerances/rank_tol"):
        parse_config(cfg_path)
    # at rank_tol >= 1 no eigenvalue is retained, so every frame check would fail
    for rank_tol in (1.0, 2.0):
        cfg_path = write_json(
            workdir / "cfg.json",
            {"command": "gap", "inputs": {"pointset": "p.csv"},
             "tolerances": {"rank_tol": rank_tol}},
        )
        with pytest.raises(ConfigError, match="tolerances/rank_tol"):
            parse_config(cfg_path)


def test_parse_config_rejects_unsorted_refine(workdir):
    cfg_path = write_json(
        workdir / "cfg.json",
        {"command": "gap", "inputs": {"pointset": "p.csv"}, "grid": {"refine": [128, 64]}},
    )
    with pytest.raises(ConfigError, match="strictly increasing"):
        parse_config(cfg_path)


def test_missing_or_broken_config(workdir, capsys):
    assert main(["--config", str(workdir / "nope.json")]) == 2
    bad = workdir / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


# --- simple commands ----------------------------------------------------------------


def test_gap_command_and_determinism(workdir):
    pts = write_points(workdir / "pts.csv", [0.0, 0.5, 1.2, 2.0])
    out1, out2 = str(workdir / "r1.json"), str(workdir / "r2.json")
    cfg = {"command": "gap", "inputs": {"pointset": pts}}
    cfg_path = write_json(workdir / "cfg.json", cfg)
    assert main(["--config", cfg_path, "--out", out1]) == 0
    assert main(["--config", cfg_path, "--out", out2]) == 0
    r1, r2 = read_report(out1), read_report(out2)
    assert r1["results"]["separation"] == pytest.approx(0.5)
    assert r1["passed"] is True
    r1.pop("generated_at"), r2.pop("generated_at")
    assert r1 == r2


def test_density_command_with_predicate(workdir):
    rng = np.random.default_rng(3)
    k = np.arange(64, dtype=float)
    pts = write_points(workdir / "pts.csv", k + rng.uniform(-0.2, 0.2, 64))
    out = str(workdir / "report.json")
    cfg_path = write_json(
        workdir / "cfg.json",
        {"command": "density", "inputs": {"pointset": pts, "a": 0.8, "r": 8.0}},
    )
    assert main(["--config", cfg_path, "--out", out]) == 0
    rep = read_report(out)
    pred = rep["results"]["interval_predicate"]
    assert pred["predicted_frame"] is True
    assert pred["density_lower"] > 0.8
    assert len(rep["results"]["density"]["r_values"]) == 3


def test_density_predicate_needs_both_parameters(workdir, capsys):
    pts = write_points(workdir / "pts.csv", [0.0, 1.0, 2.0])
    cfg_path = write_json(
        workdir / "cfg.json", {"command": "density", "inputs": {"pointset": pts, "a": 0.8}}
    )
    assert main(["--config", cfg_path]) == 2
    assert "both 'a' and 'r'" in capsys.readouterr().err


def test_frame_bounds_with_csv_plot(workdir):
    dom = write_json(workdir / "dom.json", {"intervals": E_INTERVALS})
    lam = np.arange(32) - 16.0
    pts = write_points(workdir / "pts.csv", lam)
    out = str(workdir / "report.json")
    cfg_path = write_json(
        workdir / "cfg.json",
        {
            "command": "frame-bounds",
            "inputs": {"domain": dom, "pointset": pts},
            "grid": {"n_per_unit": 32},
            "output": {"format": "csv"},
        },
    )
    assert main(["--config", cfg_path, "--out", out]) == 0
    rep = read_report(out)["results"]["report"]
    assert rep["lower"] == pytest.approx(1.0, abs=1e-10)
    assert rep["upper"] == pytest.approx(1.0, abs=1e-10)
    assert rep["flags"]["tight"] is True
    plot = str(workdir / "report.csv")
    assert os.path.exists(plot)
    header = open(plot).readline().strip().split(",")
    assert header == ["index", "eigenvalue"]


def test_frame_bounds_far_from_the_origin(workdir):
    # translating the band scales each member by a unimodular constant: the
    # bounds on [1e10, 1e10 + 1] are those on [0, 1]
    rng = np.random.default_rng(0)
    pts = write_points(workdir / "pts.csv", np.arange(24) - 12 + rng.uniform(-0.25, 0.25, 24))
    bounds = []
    for s in (0.0, 1e10):
        dom = write_json(workdir / "dom.json", {"intervals": [[s, s + 1.0]]})
        cfg_path = write_json(workdir / "cfg.json", {
            "command": "frame-bounds", "inputs": {"domain": dom, "pointset": pts},
            "grid": {"n_per_unit": 16}})
        out = str(workdir / "report.json")
        assert main(["--config", cfg_path, "--out", out]) == 0
        rep = read_report(out)["results"]["report"]
        bounds.append((rep["lower"], rep["upper"], rep["rank"]))
    assert bounds[1] == pytest.approx(bounds[0], rel=1e-12)


# --- multiplier checks ----------------------------------------------------------------


def unit_setup(workdir, n_points=256):
    dom = write_json(workdir / "dom.json", {"intervals": [[0.0, 1.0]]})
    pts = write_points(workdir / "pts.csv", np.arange(n_points) - n_points / 2.0)
    return dom, pts


def test_mult_check_sweep_certifies_vanishing_multiplier(workdir):
    dom, pts = unit_setup(workdir)
    out = str(workdir / "report.json")
    cfg_path = write_json(
        workdir / "cfg.json",
        {
            "command": "mult-check",
            "inputs": {
                "domain": dom,
                "pointset": pts,
                "multiplier": {"expr": "t"},
                "check": "frame",
            },
        },
    )
    assert main(["--config", cfg_path, "--out", out]) == 0
    sweep = read_report(out)["results"]["sweep"]
    assert sweep["predicted_flag"] is False
    assert sweep["measured_flag"] is False
    assert sweep["consistent"] is True
    assert sweep["metric_trend"][0] > sweep["metric_trend"][-1]


def test_mult_check_csv_multiplier_single_grid(workdir):
    from framelab.domain import Domain, SampledFunction, make_grid
    from framelab.translates import Generator

    dom, pts = unit_setup(workdir)
    grid = make_grid(Domain([(0.0, 1.0)]), 64)
    phi = SampledFunction.from_callable(grid, lambda t: 2.0 + np.sin(2 * np.pi * t))
    write_table(workdir / "phi.csv", Generator(phi).table)
    out = str(workdir / "report.json")
    cfg_path = write_json(
        workdir / "cfg.json",
        {
            "command": "mult-check",
            "inputs": {
                "domain": dom,
                "pointset": pts,
                "multiplier": {"csv": str(workdir / "phi.csv")},
            },
            "grid": {"n_per_unit": 64},
        },
    )
    assert main(["--config", cfg_path, "--out", out]) == 0
    check = read_report(out)["results"]["check"]
    assert check["consistent"] is True and check["predicted"]["frame"] is True


def test_mult_check_csv_multiplier_rejects_sweep(workdir, capsys):
    from framelab.domain import Domain, SampledFunction, make_grid
    from framelab.translates import Generator

    dom, pts = unit_setup(workdir)
    grid = make_grid(Domain([(0.0, 1.0)]), 128)
    phi = SampledFunction(grid, np.full(grid.size, 2.0 + 0j))
    write_table(workdir / "phi.csv", Generator(phi).table)
    cfg_path = write_json(
        workdir / "cfg.json",
        {
            "command": "mult-check",
            "inputs": {
                "domain": dom,
                "pointset": pts,
                "multiplier": {"csv": str(workdir / "phi.csv")},
                "sweep": True,
            },
        },
    )
    assert main(["--config", cfg_path]) == 2
    assert "cannot be resampled" in capsys.readouterr().err


def test_mult_check_converse(workdir):
    dom = write_json(workdir / "dom.json", {"intervals": E_INTERVALS})
    pts = write_points(workdir / "pts.csv", np.arange(64) - 32.0)
    out = str(workdir / "report.json")
    cfg_path = write_json(
        workdir / "cfg.json",
        {
            "command": "mult-check",
            "inputs": {
                "domain": dom,
                "pointset": pts,
                "multiplier": {"expr": "2 + sin(2 * pi * t)"},
                "check": "converse",
            },
            "grid": {"n_per_unit": 64},
        },
    )
    assert main(["--config", cfg_path, "--out", out]) == 0
    check = read_report(out)["results"]["check"]
    assert check["base"]["lower"] == pytest.approx(1.0, abs=1e-9)
    assert check["base"]["upper"] == pytest.approx(1.0, abs=1e-9)


def test_mult_check_converse_rejects_sweep(workdir, capsys):
    dom = write_json(workdir / "dom.json", {"intervals": E_INTERVALS})
    pts = write_points(workdir / "pts.csv", np.arange(64) - 32.0)
    out = workdir / "report.json"
    cfg_path = write_json(
        workdir / "cfg.json",
        {
            "command": "mult-check",
            "inputs": {
                "domain": dom,
                "pointset": pts,
                "multiplier": {"expr": "2 + sin(2 * pi * t)"},
                "check": "converse",
                "sweep": True,
            },
            "grid": {"n_per_unit": 64},
        },
    )
    assert main(["--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "inputs/sweep" in err and "converse" in err
    assert not out.exists()


@pytest.mark.parametrize("command, inputs", [
    ("frame-bounds", {}),
    ("mult-check", {"multiplier": {"expr": "2 + sin(t)"}, "check": "frame", "sweep": False}),
])
def test_over_budget_system_exits_3_before_forming_members(workdir, capsys, command, inputs):
    # 4096 nodes and 4096 members: U alone would be 256 MB of complex entries
    dom = write_json(workdir / "dom.json", {"intervals": [[0.0, 1.0]]})
    rng = np.random.default_rng(5)
    pts = write_points(workdir / "pts.csv", np.arange(4096) - 2048 + rng.uniform(-0.2, 0.2, 4096))
    cfg_path = write_json(
        workdir / "cfg.json",
        {
            "command": command,
            "inputs": {"domain": dom, "pointset": pts, **inputs},
            "grid": {"n_per_unit": 4096},
        },
    )
    tracemalloc.start()
    try:
        code = main(["--config", cfg_path, "--out", str(workdir / "report.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "exceeds the dense spectral budget" in capsys.readouterr().err
    assert peak < 64 * 2**20


@pytest.mark.parametrize("n_per_unit", [1009, 1024])
def test_frame_sequence_check_at_the_dense_budget(workdir, n_per_unit):
    # 1280 members: only S fits the budget, and the check judges the
    # product's own system, with nothing padded past the grid
    dom = write_json(workdir / "dom.json", {"intervals": [[0.0, 1.0]]})
    rng = np.random.default_rng(1)
    pts = write_points(workdir / "pts.csv", np.arange(1280) - 640 + rng.uniform(-0.2, 0.2, 1280))
    out = str(workdir / "report.json")
    cfg_path = write_json(workdir / "cfg.json", {
        "command": "mult-check",
        "inputs": {"domain": dom, "pointset": pts,
                   "multiplier": {"expr": "piecewise([0, 0.5]: 1 + t)"},
                   "check": "frame_sequence", "sweep": False},
        "grid": {"n_per_unit": n_per_unit},
    })
    assert main(["--config", cfg_path, "--out", out]) == 0
    check = read_report(out)["results"]["check"]
    assert check["details"]["ambient_invariant"] is True
    assert check["details"]["ambient_bounds"] == [check["multiplied"]["lower"],
                                                  check["multiplied"]["upper"]]


def test_mult_check_hypothesis_failure_is_exit_3(workdir, capsys):
    dom = write_json(workdir / "dom.json", {"intervals": E_INTERVALS})
    pts = write_points(workdir / "pts.csv", [0.0, 1.0, 2.0])
    cfg_path = write_json(
        workdir / "cfg.json",
        {
            "command": "mult-check",
            "inputs": {
                "domain": dom,
                "pointset": pts,
                "multiplier": {"expr": "t"},
                "check": "riesz",
                "sweep": False,
            },
            "grid": {"n_per_unit": 32},
        },
    )
    assert main(["--config", cfg_path]) == 3
    err = capsys.readouterr().err
    assert "hypothesis violated" in err
    # three members cannot span the 32 node dimensions, so the check fails
    # before any eigensolve
    assert "base system is not a Riesz basis (3 members cannot span 32 nodes)" in err


def test_tight_hypothesis_failure_names_rank_and_spread(workdir, capsys):
    # 2k for k = -16..15 on 32 nodes of the unit band: the members for k and
    # k + 16 agree up to sign, so S = 2 P for the projection P onto 16 dims,
    # a tight frame of its span that is no frame of the whole space
    dom = write_json(workdir / "dom.json", {"intervals": E_INTERVALS})
    pts = write_points(workdir / "pts.csv", 2.0 * np.arange(-16, 16))
    cfg_path = write_json(
        workdir / "cfg.json",
        {
            "command": "mult-check",
            "inputs": {"domain": dom, "pointset": pts, "multiplier": {"expr": "2 + t"},
                       "check": "tight", "sweep": False},
            "grid": {"n_per_unit": 32},
        },
    )
    assert main(["--config", cfg_path]) == 3
    err = capsys.readouterr().err
    assert "hypothesis violated: base system is not a tight frame" in err
    assert "(measured rank 16 of n = 32 at rank_tol 1e-08, retained bounds [2, 2], spread " in err
    spread = float(err.split("spread ")[1].split()[0])
    assert 0.0 <= spread <= 1e-12
    assert "against 1e-08 * upper)" in err


# --- translate checks --------------------------------------------------------------


def test_translate_check_full_band(workdir):
    dom = write_json(workdir / "dom.json", {"intervals": E_INTERVALS})
    pts = write_points(workdir / "pts.csv", np.arange(64) - 32.0)
    out = str(workdir / "report.json")
    cfg_path = write_json(
        workdir / "cfg.json",
        {
            "command": "translate-check",
            "inputs": {"domain": dom, "pointset": pts, "generator": {"expr": "1"}},
            "grid": {"n_per_unit": 64},
        },
    )
    assert main(["--config", cfg_path, "--out", out]) == 0
    cls = read_report(out)["results"]["classification"]
    assert cls["consistent"] is True
    assert cls["multiplied"]["lower"] == pytest.approx(1.0, abs=1e-10)
    assert cls["multiplied"]["upper"] == pytest.approx(1.0, abs=1e-10)
    assert cls["measured"] == {"bessel": True, "frame": True, "frame_sequence": True}


def test_translate_check_sweep_requires_expression(workdir, capsys):
    from framelab.domain import Domain, SampledFunction, make_grid
    from framelab.translates import Generator

    dom = write_json(workdir / "dom.json", {"intervals": E_INTERVALS})
    pts = write_points(workdir / "pts.csv", np.arange(64) - 32.0)
    grid = make_grid(Domain([(-0.5, 0.5)]), 64)
    write_table(workdir / "gen.csv", Generator(SampledFunction(grid, np.ones(64))).table)
    cfg_path = write_json(
        workdir / "cfg.json",
        {
            "command": "translate-check",
            "inputs": {
                "domain": dom,
                "pointset": pts,
                "generator": {"csv": str(workdir / "gen.csv")},
                "sweep": True,
            },
            "grid": {"n_per_unit": 64},
        },
    )
    assert main(["--config", cfg_path]) == 2
    assert "only expression generators" in capsys.readouterr().err


def test_translate_check_generator_grid_mismatch(workdir, capsys):
    from framelab.domain import Domain, SampledFunction, make_grid
    from framelab.translates import Generator

    dom = write_json(workdir / "dom.json", {"intervals": E_INTERVALS})
    pts = write_points(workdir / "pts.csv", np.arange(64) - 32.0)
    grid = make_grid(Domain([(-0.5, 0.5)]), 32)  # config asks for 64
    write_table(workdir / "gen.csv", Generator(SampledFunction(grid, np.ones(32))).table)
    cfg_path = write_json(
        workdir / "cfg.json",
        {
            "command": "translate-check",
            "inputs": {
                "domain": dom,
                "pointset": pts,
                "generator": {"csv": str(workdir / "gen.csv")},
            },
            "grid": {"n_per_unit": 64},
        },
    )
    assert main(["--config", cfg_path]) == 2
    assert "do not match" in capsys.readouterr().err


# --- generator and reconstruction ----------------------------------------------------


def test_build_generator_writes_csv(workdir):
    bump = write_json(workdir / "bump.json", {"intervals": [[-0.4, 0.4]], "delta": 0.05})
    gen_csv = str(workdir / "gen.csv")
    out = str(workdir / "report.json")
    cfg_path = write_json(
        workdir / "cfg.json",
        {
            "command": "build-generator",
            "inputs": {"bump": bump, "csv_out": gen_csv},
            "grid": {"n_per_unit": 320},
        },
    )
    assert main(["--config", cfg_path, "--out", out]) == 0
    rep = read_report(out)["results"]
    assert rep["max_dev_on_base"] == 0.0
    assert rep["nodes"] == 288
    assert os.path.exists(gen_csv)


def test_build_generator_csv_matches_the_generator_table(workdir, monkeypatch):
    import framelab.cli as cli
    from framelab.domain import Domain, make_grid
    from framelab.translates import BumpSpec, build_bump_generator

    written = []
    atomic_write = cli._atomic_write
    monkeypatch.setattr(cli, "_atomic_write",
                        lambda path, fill: (written.append(path), atomic_write(path, fill)))

    bump = write_json(workdir / "bump.json", {"intervals": [[-0.4, 0.4]], "delta": 0.05})
    out_dir = workdir / "out"
    out_dir.mkdir()
    gen_csv = out_dir / "gen.csv"
    cfg_path = write_json(
        workdir / "cfg.json",
        {
            "command": "build-generator",
            "inputs": {"bump": bump, "csv_out": str(gen_csv)},
            "grid": {"n_per_unit": 320},
        },
    )
    assert main(["--config", cfg_path, "--out", str(out_dir / "report.json")]) == 0
    spec = BumpSpec(Domain([(-0.4, 0.4)]), 0.05)
    write_table(workdir / "reference.csv",
                build_bump_generator(spec, make_grid(spec.dilated, 320)).table)
    assert str(gen_csv) in written
    assert gen_csv.read_bytes() == (workdir / "reference.csv").read_bytes()
    assert sorted(p.name for p in out_dir.iterdir()) == ["gen.csv", "report.json"]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
def test_written_files_get_the_mode_open_gives(workdir, umask):
    """A new report, CSV sidecar or ``csv_out`` gets 0o666 less the umask, as
    ``open(path, "w")`` gives it; a file written again keeps its mode."""
    bump = write_json(workdir / "bump.json", {"intervals": [[-0.4, 0.4]], "delta": 0.05})
    outputs = [workdir / name for name in ("gen.csv", "report.json", "report.csv")]
    cfg_path = write_json(
        workdir / "cfg.json",
        {
            "command": "build-generator",
            "inputs": {"bump": bump, "csv_out": str(outputs[0])},
            "grid": {"n_per_unit": 320},
            "output": {"format": "csv"},
        },
    )
    argv = ["--config", cfg_path, "--out", str(outputs[1])]
    saved = os.umask(umask)
    try:
        assert main(argv) == 0
        assert [p.stat().st_mode & 0o7777 for p in outputs] == [0o666 & ~umask] * 3
        for p, mode in zip(outputs, (0o640, 0o604, 0o600)):
            p.chmod(mode)
        assert main(argv) == 0
        assert [p.stat().st_mode & 0o7777 for p in outputs] == [0o640, 0o604, 0o600]
    finally:
        os.umask(saved)
    assert sorted(p.name for p in workdir.iterdir()) == [
        "bump.json", "cfg.json", "gen.csv", "report.csv", "report.json"]


def half_integer_points(workdir):
    lam = (np.arange(576) - 288) / 1.8
    return write_points(workdir / "pts.csv", lam)


def test_reconstruct_command(workdir):
    band = write_json(workdir / "band.json", {"intervals": [[-0.4, 0.4]]})
    pts = half_integer_points(workdir)
    out = str(workdir / "report.json")
    cfg_path = write_json(
        workdir / "cfg.json",
        {
            "command": "reconstruct",
            "inputs": {"band": band, "delta": 0.05, "pointset": pts, "n_targets": 2},
            "grid": {"n_per_unit": 320},
            "seed": 5,
        },
    )
    assert main(["--config", cfg_path, "--out", out]) == 0
    rep = read_report(out)
    assert rep["passed"] is True
    runs = rep["results"]["targets"]
    assert len(runs) == 2
    for r in runs:
        assert r["product_residual"] <= 1e-8
        assert r["vanish_outside"] <= 1e-8
        assert r["coeff_bound_ok"] is True


def test_reconstruct_with_target_csv_and_densify(workdir):
    from framelab.domain import Domain, SampledFunction, make_grid
    from framelab.translates import BumpSpec, Generator

    band = write_json(workdir / "band.json", {"intervals": [[-0.4, 0.4]]})
    lam = (np.arange(288) - 144) / 0.9  # critical lattice; densify will tighten it
    pts = write_points(workdir / "pts.csv", lam)
    spec = BumpSpec(Domain([(-0.4, 0.4)]), 0.05)
    grid = make_grid(spec.dilated, 320)
    inside = spec.base_domain.contains(grid.nodes)
    target = SampledFunction(grid, np.cos(2 * np.pi * grid.nodes) * inside)
    write_table(workdir / "target.csv", Generator(target, label="f").table)
    out = str(workdir / "report.json")
    cfg_path = write_json(
        workdir / "cfg.json",
        {
            "command": "reconstruct",
            "inputs": {
                "band": band,
                "delta": 0.05,
                "pointset": pts,
                "target_csv": str(workdir / "target.csv"),
                "densify": {"target_gap": 0.6, "sep_min": 0.3},
            },
            "grid": {"n_per_unit": 320},
        },
    )
    assert main(["--config", cfg_path, "--out", out]) == 0
    rep = read_report(out)
    assert rep["passed"] is True
    assert rep["results"]["n_points"] > 288


def _target_csv(workdir, values):
    """A target spectrum file on the dilated-band grid of ``_reconstruct``;
    ``values(nodes, inside)`` gives its values."""
    from framelab.domain import Domain, SampledFunction, make_grid
    from framelab.translates import BumpSpec, Generator

    spec = BumpSpec(Domain([(-0.4, 0.4)]), 0.05)
    grid = make_grid(spec.dilated, 320)
    inside = spec.base_domain.contains(grid.nodes)
    target = SampledFunction(grid, values(grid.nodes, inside))
    write_table(workdir / "target.csv", Generator(target, label="f").table)
    return str(workdir / "target.csv")


@pytest.mark.parametrize("values, message", [
    (lambda w, inside: np.cos(2 * np.pi * w), "leaks outside the inner band"),
    (lambda w, inside: np.zeros(w.size), "is identically zero"),
], ids=["leaking", "zero"])
def test_reconstruct_with_a_bad_target_csv_is_exit_2(workdir, capsys, values, message):
    cfg = _reconstruct(workdir)
    del cfg["inputs"]["n_targets"]
    cfg["inputs"]["target_csv"] = _target_csv(workdir, values)
    cfg_path = write_json(workdir / "cfg.json", cfg)
    assert main(["--config", cfg_path, "--out", str(workdir / "report.json")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "numerical failure" not in err
    assert cfg["inputs"]["target_csv"] in err and message in err
    assert not (workdir / "report.json").exists()


def test_reconstruct_with_target_csv_and_n_targets_is_exit_2(workdir, capsys):
    cfg = _reconstruct(workdir)
    cfg["inputs"]["n_targets"] = 5
    cfg["inputs"]["target_csv"] = _target_csv(workdir, lambda w, inside: np.cos(w) * inside)
    cfg_path = write_json(workdir / "cfg.json", cfg)
    assert main(["--config", cfg_path, "--out", str(workdir / "report.json")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "inputs/target_csv" in err and "inputs/n_targets" in err
    assert not (workdir / "report.json").exists()


def _multiplier_off_grid(workdir):
    cfg = _spectrum_file(workdir, "mult-check", "0.625,2.0,0.0")
    cfg["grid"]["n_per_unit"] = 8
    return cfg, cfg["inputs"]["multiplier"]["csv"]


def _generator_off_grid(workdir):
    cfg = _spectrum_file(workdir, "translate-check", "0.625,2.0,0.0")
    cfg["grid"]["n_per_unit"] = 8
    return cfg, cfg["inputs"]["generator"]["csv"]


def _target_off_grid(workdir):
    cfg = _reconstruct(workdir)
    del cfg["inputs"]["n_targets"]
    path = _target_csv(workdir, lambda w, inside: np.cos(w) * inside)
    lines = open(path, encoding="utf-8").read().splitlines()
    (workdir / "target.csv").write_text("\n".join(lines[:-1]) + "\n")  # 287 of 288 nodes
    cfg["inputs"]["target_csv"] = path
    return cfg, path


@pytest.mark.parametrize("make", [_multiplier_off_grid, _generator_off_grid, _target_off_grid],
                         ids=["mult-check-multiplier", "translate-check-generator",
                              "reconstruct-target"])
def test_spectrum_on_the_wrong_grid_is_exit_2(workdir, capsys, make):
    cfg, path = make(workdir)
    out = workdir / "report.json"
    assert main(["--config", write_json(workdir / "cfg.json", cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "numerical failure" not in err
    assert f"{path}: bad spectrum (" in err and "do not match" in err
    assert not out.exists()


def test_reconstruct_with_sep_min_above_target_gap_is_exit_2(workdir, capsys):
    cfg = _reconstruct(workdir)
    cfg["inputs"]["densify"] = {"target_gap": 0.3, "sep_min": 0.6}
    cfg_path = write_json(workdir / "cfg.json", cfg)
    assert main(["--config", cfg_path, "--out", str(workdir / "report.json")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "inputs/densify/sep_min" in err
    assert not (workdir / "report.json").exists()


def test_build_generator_with_overlapping_bands_is_exit_2(workdir, capsys):
    bump = write_json(workdir / "bump.json",
                      {"intervals": [[-0.4, 0.0], [0.05, 0.4]], "delta": 0.05})
    cfg_path = write_json(
        workdir / "cfg.json",
        {
            "command": "build-generator",
            "inputs": {"bump": bump, "csv_out": str(workdir / "gen.csv")},
            "grid": {"n_per_unit": 320},
        },
    )
    assert main(["--config", cfg_path, "--out", str(workdir / "report.json")]) == 2
    err = capsys.readouterr().err
    assert "inputs/bump" in err and "transition bands overlap" in err
    assert sorted(p.name for p in workdir.iterdir()) == ["bump.json", "cfg.json"]
    # the same bump as a translate-check generator
    dom = write_json(workdir / "dom.json", {"intervals": E_INTERVALS})
    pts = write_points(workdir / "pts.csv", [0.0, 1.0, 2.0])
    cfg_path = write_json(
        workdir / "cfg.json",
        {"command": "translate-check",
         "inputs": {"domain": dom, "pointset": pts, "generator": {"bump": bump}},
         "grid": {"n_per_unit": 320}},
    )
    assert main(["--config", cfg_path, "--out", str(workdir / "report.json")]) == 2
    assert "inputs/generator/bump" in capsys.readouterr().err
    assert not (workdir / "report.json").exists()


def test_reconstruct_with_delta_too_narrow_for_the_grid_is_exit_2(workdir, capsys):
    cfg = _reconstruct(workdir)
    cfg["inputs"]["delta"] = 0.01
    cfg_path = write_json(workdir / "cfg.json", cfg)
    assert main(["--config", cfg_path, "--out", str(workdir / "report.json")]) == 2
    err = capsys.readouterr().err
    assert "inputs/delta" in err and "grid/n_per_unit 320" in err
    assert "need at least 16" in err
    assert not (workdir / "report.json").exists()


def test_reconstruct_job_builds_one_system_for_all_targets(workdir, monkeypatch):
    import framelab.multiplication as multiplication
    import framelab.translates as translates
    from framelab.domain import Domain, SampledFunction, make_grid
    from framelab.pointset import load_pointset
    from framelab.translates import BumpSpec, build_bump_generator, oversampled_expansion

    calls = {"exponential_system": 0, "measure_bounds": 0}
    # the expansion measures its system inside multiplication.require_frame
    for module, name in ((translates, "exponential_system"), (multiplication, "measure_bounds")):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    band = write_json(workdir / "band.json", {"intervals": [[-0.4, 0.4]]})
    pts = half_integer_points(workdir)
    out = str(workdir / "report.json")
    cfg_path = write_json(
        workdir / "cfg.json",
        {
            "command": "reconstruct",
            "inputs": {"band": band, "delta": 0.05, "pointset": pts, "n_targets": 3},
            "grid": {"n_per_unit": 320},
            "seed": 5,
        },
    )
    assert main(["--config", cfg_path, "--out", out]) == 0
    assert calls == {"exponential_system": 1, "measure_bounds": 1}
    monkeypatch.undo()

    # the job's seeded targets, expanded one at a time
    spec = BumpSpec(Domain([(-0.4, 0.4)]), 0.05)
    grid = make_grid(spec.dilated, 320)
    gen = build_bump_generator(spec, grid)
    ps = load_pointset(pts)
    inside = spec.base_domain.contains(grid.nodes)
    rng = np.random.default_rng(5)
    runs = read_report(out)["results"]["targets"]
    assert len(runs) == 3
    for run_record in runs:
        vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        single = oversampled_expansion(SampledFunction(grid, vals * inside), gen, ps,
                                       spec.base_domain)
        assert run_record == {k: getattr(single, k) for k in run_record}


# --- unions and the continuity demo -------------------------------------------------


def test_union_check_command(workdir):
    lam = (np.arange(64) - 32) * 0.5
    pts = write_points(workdir / "pts.csv", lam)
    out = str(workdir / "report.json")
    cfg_path = write_json(
        workdir / "cfg.json",
        {
            "command": "union-check",
            "inputs": {
                "pointset": pts,
                "parts": [
                    {"intervals": [[-1.0, 0.0]], "expr": "1.5 + 0.5 * cos(2 * pi * t)", "label": "lo"},
                    {"intervals": [[0.0, 1.0]], "expr": "2 + sin(2 * pi * t)", "label": "hi"},
                ],
            },
            "grid": {"n_per_unit": 32},
        },
    )
    assert main(["--config", cfg_path, "--out", out]) == 0
    rep = read_report(out)["results"]["union"]
    assert rep["consistent"] is True
    assert rep["part_ranks"] == [32, 32]


def test_union_sweep_degenerate_and_aliasing_mismatch(workdir):
    pts = write_points(workdir / "pts.csv", np.arange(256) - 128.0)
    out = str(workdir / "report.json")
    cfg_path = write_json(
        workdir / "cfg.json",
        {
            "command": "union-check",
            "inputs": {
                "pointset": pts,
                "parts": [{"intervals": [[0.0, 1.0]], "expr": "t - 0.5"}],
                "sweep": True,
            },
        },
    )
    assert main(["--config", cfg_path, "--out", out]) == 0
    sweep = read_report(out)["results"]["sweep"]
    assert sweep["predicted_frame"] is False and sweep["measured_frame"] is False

    # healthy spectrum, but the fixed point set aliases differently per level:
    # the run completes and reports the mismatch as a failed check (exit 1)
    cfg_path = write_json(
        workdir / "cfg2.json",
        {
            "command": "union-check",
            "inputs": {
                "pointset": pts,
                "parts": [{"intervals": [[0.0, 1.0]], "expr": "2 + sin(2 * pi * t)"}],
                "sweep": True,
            },
        },
    )
    out2 = str(workdir / "report2.json")
    assert main(["--config", cfg_path, "--out", out2]) == 1
    assert read_report(out2)["passed"] is False


def test_corollary_demo_default_hat(workdir):
    dom = write_json(workdir / "dom.json", {"intervals": E_INTERVALS})
    out = str(workdir / "report.json")
    cfg_path = write_json(
        workdir / "cfg.json", {"command": "corollary-demo", "inputs": {"domain": dom}}
    )
    assert main(["--config", cfg_path, "--out", out, "--format", "csv"]) == 0
    rep = read_report(out)
    assert rep["passed"] is True
    hat = rep["results"]["hat"]
    assert hat["predicted_obstruction"] is True and hat["measured_obstruction"] is True
    assert hat["ratios"][0] == pytest.approx(0.25, rel=1e-9)
    control = rep["results"]["control"]
    assert control["measured_obstruction"] is False
    plot = str(workdir / "report.csv")
    header = open(plot).readline().strip().split(",")
    assert header == ["level", "hat_lower", "control_lower"]


def test_corollary_demo_needs_single_interval(workdir, capsys):
    dom = write_json(workdir / "dom.json", {"intervals": [[0.0, 1.0], [2.0, 3.0]]})
    cfg_path = write_json(
        workdir / "cfg.json", {"command": "corollary-demo", "inputs": {"domain": dom}}
    )
    assert main(["--config", cfg_path]) == 2
    assert "single-interval" in capsys.readouterr().err


# --- flags, env, and output plumbing ---------------------------------------------------


def test_flag_overrides(workdir):
    dom = write_json(workdir / "dom.json", {"intervals": E_INTERVALS})
    pts = write_points(workdir / "pts.csv", np.arange(64) - 32.0)
    out = str(workdir / "report.json")
    cfg_path = write_json(
        workdir / "cfg.json",
        {
            "command": "corollary-demo",
            "inputs": {"domain": dom},
            "grid": {"n_per_unit": 32},
        },
    )
    assert main(["--config", cfg_path, "--out", out, "--refine", "32,64", "--seed", "7"]) == 0
    rep = read_report(out)
    assert rep["grid"]["refine"] == [32, 64]
    assert rep["seed"] == 7
    assert main(["--config", cfg_path, "--refine", "a,b"]) == 2
    assert main(["--config", cfg_path, "--refine", "64"]) == 2
    assert main(["--config", cfg_path, "--refine", "0,64"]) == 2
    assert main(["--config", cfg_path, "--seed", "-3"]) == 2
    del pts


def test_report_goes_to_stdout_without_out_path(workdir, capsys):
    pts = write_points(workdir / "pts.csv", [0.0, 1.0, 2.5])
    cfg_path = write_json(workdir / "cfg.json", {"command": "gap", "inputs": {"pointset": pts}})
    assert main(["--config", cfg_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "gap"
    # farthest box point from the set: the midpoint of the wide [1, 2.5] hole
    assert payload["results"]["gap"]["value"] == pytest.approx(0.75, abs=1e-9)


def test_unwritable_report_path_is_exit_2(workdir, capsys):
    pts = write_points(workdir / "pts.csv", [0.0, 1.0])
    cfg_path = write_json(workdir / "cfg.json", {"command": "gap", "inputs": {"pointset": pts}})
    missing_dir = str(workdir / "no" / "such" / "dir" / "r.json")
    assert main(["--config", cfg_path, "--out", missing_dir]) == 2
    assert "error" in capsys.readouterr().err


def _bump_without_delta(workdir, command):
    bump = write_json(workdir / "bump.json", {"intervals": [[-0.4, 0.4]]})
    if command == "build-generator":
        return {"command": command, "inputs": {"bump": bump, "csv_out": str(workdir / "g.csv")}}
    dom, pts = unit_setup(workdir, 16)
    return {"command": command,
            "inputs": {"domain": dom, "pointset": pts, "generator": {"bump": bump}}}


def _domain_without_intervals(workdir, command):
    dom = write_json(workdir / "dom.json", {"bands": [[0.0, 1.0]]})
    pts = write_points(workdir / "pts.csv", [0.0, 1.0])
    return {"command": command, "inputs": {"domain": dom, "pointset": pts}}


def _reversed_union_part(workdir, command):
    pts = write_points(workdir / "pts.csv", np.arange(8) - 4.0)
    return {"command": command,
            "inputs": {"pointset": pts, "parts": [{"intervals": [[1.0, 0.0]], "expr": "1"}]}}


def _pointset_file(workdir, command, name, text):
    (workdir / name).write_text(text)
    return {"command": command, "inputs": {"pointset": str(workdir / name)}}


def _pointset_row_not_numeric(workdir, command):
    return _pointset_file(workdir, command, "abc.csv", "0.0\nabc\n1.0\n")


def _pointset_row_nan(workdir, command):
    return _pointset_file(workdir, command, "nan.csv", "0.0\nnan\n1.0\n")


def _pointset_json_without_points(workdir, command):
    return _pointset_file(workdir, command, "nopoints.json", '{"dim": 1, "box": [[0, 1]]}')


def _pointset_csv_empty(workdir, command):
    return _pointset_file(workdir, command, "empty.csv", "")


def _spectrum_file(workdir, command, bad_row):
    """A spectrum CSV on the 4-node grid of [0, 1] whose third data row is ``bad_row``."""
    rows = ["omega,re,im", "0.125,2.0,0.0", "0.375,2.0,0.0", bad_row, "0.875,2.0,0.0"]
    (workdir / "spec.csv").write_text("\n".join(rows) + "\n")
    dom, pts = unit_setup(workdir, 4)
    key = "multiplier" if command == "mult-check" else "generator"
    return {"command": command, "grid": {"n_per_unit": 4},
            "inputs": {"domain": dom, "pointset": pts, key: {"csv": str(workdir / "spec.csv")}}}


def _spectrum_value_not_numeric(workdir, command):
    return _spectrum_file(workdir, command, "0.625,two,0.0")


def _spectrum_row_short(workdir, command):
    return _spectrum_file(workdir, command, "0.625,2.0")


def _spectrum_value_nan(workdir, command):
    return _spectrum_file(workdir, command, "0.625,nan,0.0")


@pytest.mark.parametrize(
    "make, command, named",
    [
        (_bump_without_delta, "build-generator", "delta"),
        (_bump_without_delta, "translate-check", "delta"),
        (_domain_without_intervals, "frame-bounds", "intervals"),
        (_reversed_union_part, "union-check", "inputs/parts/0/intervals"),
        (_pointset_row_not_numeric, "gap", "abc.csv"),
        (_pointset_row_nan, "density", "nan.csv"),
        (_pointset_json_without_points, "gap", "nopoints.json"),
        (_pointset_csv_empty, "gap", "empty.csv"),
        (_spectrum_value_not_numeric, "mult-check", "spec.csv: bad spectrum row 4"),
        (_spectrum_row_short, "translate-check", "spec.csv: bad spectrum row 4"),
        (_spectrum_value_nan, "mult-check", "spec.csv: bad spectrum row 4"),
    ],
)
def test_malformed_input_files_are_exit_2(workdir, capsys, make, command, named):
    cfg_path = write_json(workdir / "cfg.json", make(workdir, command))
    assert main(["--config", cfg_path]) == 2
    assert named in capsys.readouterr().err


def _planar_inputs(workdir, command):
    """Minimal inputs of ``command`` whose point set is 2-D."""
    (workdir / "plane.csv").write_text("0,0\n1,0\n0,1\n0.5,0.5\n")
    dom = write_json(workdir / "dom.json", {"intervals": [[0.0, 1.0]]})
    extra = {
        "frame-bounds": {"domain": dom},
        "mult-check": {"domain": dom, "multiplier": {"expr": "1"}},
        "translate-check": {"domain": dom, "generator": {"expr": "1"}},
        "reconstruct": {"band": dom, "delta": 0.05},
        "union-check": {"parts": [{"intervals": [[0.0, 1.0]], "expr": "1"}]},
    }.get(command, {})
    return {"command": command, "inputs": {"pointset": str(workdir / "plane.csv"), **extra}}


@pytest.mark.parametrize(
    "command, code",
    [("frame-bounds", 2), ("mult-check", 2), ("translate-check", 2), ("reconstruct", 2),
     ("union-check", 2), ("gap", 0), ("density", 0)],
)
def test_planar_point_sets_exit_2_where_frequencies_are_needed(workdir, capsys, command, code):
    """Exponential systems need 1-D frequencies; gap and density take d-D sets."""
    cfg_path = write_json(workdir / "cfg.json", _planar_inputs(workdir, command))
    assert main(["--config", cfg_path, "--out", str(workdir / "report.json")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert "plane.csv: bad point set" in err and "1-D" in err


def _overflowing_inputs(workdir, command):
    """Minimal inputs of ``command`` whose one expression overflows on [0, 1]."""
    expr = "exp(1000 * t)"
    dom = write_json(workdir / "dom.json", {"intervals": [[0.0, 1.0]]})
    pts = write_points(workdir / "pts.csv", np.arange(32) - 16.0)
    inputs = {
        "mult-check": {"domain": dom, "pointset": pts, "multiplier": {"expr": expr},
                       "sweep": False},
        "mult-check-sweep": {"domain": dom, "pointset": pts, "multiplier": {"expr": expr},
                             "sweep": True},
        "translate-check": {"domain": dom, "pointset": pts, "generator": {"expr": expr}},
        "union-check": {"pointset": pts, "parts": [{"intervals": [[0.0, 1.0]], "expr": expr}]},
        "corollary-demo": {"domain": dom, "hat_expr": expr},
    }[command]
    return {"command": command.removesuffix("-sweep"), "inputs": inputs,
            "grid": {"n_per_unit": 32, "refine": [16, 32]}}


@pytest.mark.parametrize(
    "command", ["mult-check", "mult-check-sweep", "translate-check", "union-check",
                "corollary-demo"],
)
def test_expressions_that_overflow_are_exit_2(workdir, capsys, command):
    """An expression whose samples overflow is bad input, not a numerical failure."""
    cfg_path = write_json(workdir / "cfg.json", _overflowing_inputs(workdir, command))
    assert main(["--config", cfg_path, "--out", str(workdir / "report.json")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert "not finite at t = " in err
    assert not (workdir / "report.json").exists()


@pytest.mark.parametrize("sweep", [False, True])
@pytest.mark.parametrize(
    "expr",
    # an asymmetric modulus (complex route) and a mirror-symmetric one (real
    # route); both have finite samples whose squares overflow
    ["exp(400 * t)", "exp(800 * abs(t - 0.5))"],
)
def test_products_that_overflow_are_exit_3(workdir, capsys, expr, sweep):
    """Finite samples whose product overflows double precision are a
    numerical failure that names the overflow, with no numpy warning."""
    dom = write_json(workdir / "dom.json", {"intervals": [[0.0, 1.0]]})
    pts = write_points(workdir / "pts.csv", np.arange(32) - 16.0)
    cfg_path = write_json(workdir / "cfg.json", {
        "command": "mult-check",
        "inputs": {"domain": dom, "pointset": pts, "multiplier": {"expr": expr},
                   "sweep": sweep},
        "grid": {"n_per_unit": 32, "refine": [16, 32]},
    })
    assert main(["--config", cfg_path, "--out", str(workdir / "report.json")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert "numerical failure: overflow" in err
    assert not (workdir / "report.json").exists()


def test_envelope_that_overflows_is_exit_3(workdir, capsys):
    """One frequency keeps the product's spectrum near h max |phi|^2, which
    fits, while the envelope's max |phi|^2 does not."""
    dom = write_json(workdir / "dom.json", {"intervals": [[0.0, 1.0]]})
    pts = write_points(workdir / "pts.csv", [0.0])
    cfg_path = write_json(workdir / "cfg.json", {
        "command": "mult-check",
        "inputs": {"domain": dom, "pointset": pts, "multiplier": {"expr": "exp(362 * t)"},
                   "check": "bessel", "sweep": False},
        "grid": {"n_per_unit": 32},
    })
    assert main(["--config", cfg_path, "--out", str(workdir / "report.json")]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "numerical failure: overflow: the bessel envelope" in err
    assert not (workdir / "report.json").exists()


def test_run_config_validates_refine_programmatically():
    with pytest.raises(ConfigError, match="strictly increasing"):
        RunConfig(command="gap", refine=(64, 64))


def test_run_rejects_unreadable_input_file(workdir, capsys):
    cfg = RunConfig(command="gap", inputs={"pointset": str(workdir / "missing.csv")})
    assert run(cfg) == 2
    assert "error" in capsys.readouterr().err


def _dft_frame_bounds(workdir):
    dom = write_json(workdir / "dom.json", {"intervals": [[0.0, 1.0]]})
    pts = write_points(workdir / "pts.csv", np.arange(64) - 32.0)
    return {"command": "frame-bounds", "inputs": {"domain": dom, "pointset": pts},
            "grid": {"n_per_unit": 64}}


def test_failed_spectral_cross_check_exits_3(workdir, capsys, monkeypatch):
    import framelab.framecore as framecore

    original = framecore._gram_operator
    monkeypatch.setattr(framecore, "_gram_operator", lambda s: original(s) * (1 + 1e-6))
    cfg_path = write_json(workdir / "cfg.json", _dft_frame_bounds(workdir))
    assert main(["--config", cfg_path, "--out", str(workdir / "report.json")]) == 3
    err = capsys.readouterr().err
    assert "spectral cross-check failed" in err
    assert "Traceback" not in err


def _reconstruct(workdir):
    band = write_json(workdir / "band.json", {"intervals": [[-0.4, 0.4]]})
    return {"command": "reconstruct",
            "inputs": {"band": band, "delta": 0.05, "pointset": half_integer_points(workdir),
                       "n_targets": 1},
            "grid": {"n_per_unit": 320}}


def test_reconstruct_hypothesis_failure_names_rank_and_bounds(workdir, capsys):
    # 400 points at spacing 1/40 span [-5, 5): 17 dimensions of the 288 nodes
    # of the dilated band, however many members there are
    cfg = _reconstruct(workdir)
    cfg["inputs"]["pointset"] = write_points(workdir / "pts.csv", (np.arange(400) - 200) / 40)
    out = workdir / "report.json"
    assert main(["--config", write_json(workdir / "cfg.json", cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "hypothesis violated: the oversampled exponential system is not a frame" in err
    assert "(measured rank 17 of n = 288 at rank_tol 1e-08, retained bounds [" in err
    lower, upper = map(float, err.split("retained bounds [")[1].split("]")[0].split(", "))
    assert lower == pytest.approx(5.85e-7, rel=1e-3) and upper == pytest.approx(40.0)
    assert not out.exists()


def test_integral_floats_for_integer_keys_reach_the_run_as_ints(workdir):
    # JSON Schema counts 1.0 as an integer; the run and its report see 1
    cfg = _reconstruct(workdir)
    cfg["inputs"]["n_targets"] = 2.0
    cfg["grid"] = {"n_per_unit": 320.0, "refine": [64.0, 128.0]}
    cfg["tolerances"] = {"max_iter": 2000.0}
    cfg["seed"] = 1.0
    out = str(workdir / "report.json")
    assert main(["--config", write_json(workdir / "cfg.json", cfg), "--out", out]) == 0
    rep = read_report(out)
    echoed = [rep["seed"], rep["inputs"]["n_targets"], rep["grid"]["n_per_unit"],
              *rep["grid"]["refine"], rep["tolerances"]["max_iter"]]
    assert echoed == [1, 2, 320, 64, 128, 2000]
    assert all(type(v) is int for v in echoed)
    assert len(rep["results"]["targets"]) == 2


@pytest.mark.parametrize("section, key, value, named", [
    (None, "seed", 1.5, "seed"),
    ("inputs", "n_targets", 2.5, "inputs/n_targets"),
    ("grid", "n_per_unit", 16.5, "grid/n_per_unit"),
    ("grid", "refine", [64, 128.5], "grid/refine/1"),
    ("tolerances", "max_iter", 10.5, "tolerances/max_iter"),
])
def test_non_integral_integer_keys_are_exit_2(workdir, capsys, section, key, value, named):
    cfg = _reconstruct(workdir)
    (cfg if section is None else cfg.setdefault(section, {}))[key] = value
    assert main(["--config", write_json(workdir / "cfg.json", cfg)]) == 2
    offending = value[-1] if isinstance(value, list) else value
    assert f"{named}: {offending!r} is not of type 'integer'" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize(
    "make, section, key",
    [(_dft_frame_bounds, "tolerances", "rank_tol"),
     (_reconstruct, "tolerances", "recon_tol"),
     (_reconstruct, "inputs", "delta")],
)
def test_non_finite_config_numbers_are_exit_2(workdir, capsys, make, section, key, value):
    cfg = make(workdir)
    cfg.setdefault(section, {})[key] = value
    # json.dumps writes NaN, Infinity and -Infinity, which json.load accepts
    cfg_path = write_json(workdir / "cfg.json", cfg)
    assert main(["--config", cfg_path, "--out", str(workdir / "report.json")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "cfg.json" in err and "non-finite" in err
    assert not (workdir / "report.json").exists()


def test_finite_config_of_the_non_finite_cases_runs(workdir):
    for make in (_dft_frame_bounds, _reconstruct):
        cfg_path = write_json(workdir / "cfg.json", make(workdir))
        assert main(["--config", cfg_path, "--out", str(workdir / "report.json")]) == 0


@pytest.mark.parametrize("rows", ["0.5\n", "0.5,0.5\n0.7,0.5\n"])
def test_density_on_a_box_with_a_zero_width_side(workdir, capsys, rows):
    """Default radii would be 0: exit 2 naming the file; explicit radii exceed the box: exit 3."""
    (workdir / "flat.csv").write_text(rows)
    inputs = {"pointset": str(workdir / "flat.csv")}
    cfg_path = write_json(workdir / "cfg.json", {"command": "density", "inputs": inputs})
    assert main(["--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert "flat.csv: bad point set" in err and "zero-width" in err
    assert "Traceback" not in err
    cfg_path = write_json(
        workdir / "cfg.json", {"command": "density", "inputs": {**inputs, "r_values": [0.1]}}
    )
    assert main(["--config", cfg_path]) == 3
    assert "window exceeds analysis box" in capsys.readouterr().err


@pytest.mark.parametrize("command, name, text", [
    ("gap", "one.csv", "0.5\n"),
    ("density", "one.json", '{"dim": 1, "box": [[0, 1]], "points": [[0.5]]}'),
])
def test_one_point_set_has_no_separation_exit_2(workdir, capsys, command, name, text):
    (workdir / name).write_text(text)
    inputs = {"pointset": str(workdir / name)}
    cfg_path = write_json(workdir / "cfg.json", {"command": command, "inputs": inputs})
    assert main(["--config", cfg_path, "--out", str(workdir / "report.json")]) == 2
    err = capsys.readouterr().err
    assert f"{name}: bad point set" in err and "at least two points" in err
    assert "Traceback" not in err


def test_json_point_set_with_a_wrong_dim_exits_2(workdir, capsys):
    (workdir / "mismatch.json").write_text('{"dim": 2, "box": [[0, 1]], "points": [[0.2], [0.7]]}')
    inputs = {"pointset": str(workdir / "mismatch.json")}
    cfg_path = write_json(workdir / "cfg.json", {"command": "gap", "inputs": inputs})
    assert main(["--config", cfg_path, "--out", str(workdir / "report.json")]) == 2
    err = capsys.readouterr().err
    assert "mismatch.json: bad point set" in err and "dim 2" in err
    assert "Traceback" not in err
    assert not (workdir / "report.json").exists()


def _bump_nan_delta(workdir):
    (workdir / "bump.json").write_text('{"intervals": [[0, 1]], "delta": NaN}')
    return "bump.json", {"command": "build-generator",
                         "inputs": {"bump": str(workdir / "bump.json"), "csv_out": "g.csv"}}


def _spectrum_undecodable(workdir):
    (workdir / "spec.csv").write_bytes(b"\xff\xfe0,1,0\n")
    write_points(workdir / "pts.csv", np.arange(-16, 16))
    return "spec.csv", {"command": "mult-check", "inputs": {
        "domain": write_json(workdir / "dom.json", {"intervals": E_INTERVALS}),
        "pointset": str(workdir / "pts.csv"), "multiplier": {"csv": str(workdir / "spec.csv")}}}


def _pointset_field_too_long(workdir):
    (workdir / "pts.csv").write_text("1" * 140_000 + "\n")
    return "pts.csv", {"command": "gap", "inputs": {"pointset": str(workdir / "pts.csv")}}


def _domain_integer_too_large(workdir):
    (workdir / "dom.json").write_text('{"intervals": [[0, 1%s]]}' % ("0" * 400))
    write_points(workdir / "pts.csv", np.arange(-16, 16))
    return "dom.json", {"command": "frame-bounds", "inputs": {
        "domain": str(workdir / "dom.json"), "pointset": str(workdir / "pts.csv")}}


def _config_integer_too_large(workdir):
    write_points(workdir / "pts.csv", np.arange(-16, 16))
    (workdir / "cfg.json").write_text(
        '{"command": "reconstruct", "inputs": {"band": "%s", "pointset": "%s", "delta": 1%s}}'
        % (write_json(workdir / "dom.json", {"intervals": E_INTERVALS}),
           workdir / "pts.csv", "0" * 400)
    )
    return "cfg.json", None


def _interval_predicate_of_planar_set(workdir):
    (workdir / "plane.csv").write_text("0,0\n1,0\n0,1\n1,1\n")
    return "plane.csv", {"command": "density", "inputs": {
        "pointset": str(workdir / "plane.csv"), "a": 1.0, "r": 0.25}}


@pytest.mark.parametrize("make", [
    _bump_nan_delta, _spectrum_undecodable, _pointset_field_too_long,
    _domain_integer_too_large, _config_integer_too_large, _interval_predicate_of_planar_set,
])
def test_fuzzed_input_escapes_are_exit_2(workdir, capsys, make):
    """Inputs the CLI fuzz test found escaping as tracebacks with exit 1."""
    named, config = make(workdir)
    cfg_path = str(workdir / "cfg.json") if config is None else write_json(workdir / "cfg.json", config)
    assert main(["--config", cfg_path, "--out", str(workdir / "report.json")]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


# --- size caps ----------------------------------------------------------------------


def _oversized(workdir, command, grid, **inputs):
    dom = write_json(workdir / "dom.json", {"intervals": [[0.0, 1.0]]})
    pts = write_points(workdir / "pts.csv", np.arange(-16, 16) + 0.1)
    bump = write_json(workdir / "bump.json", {"intervals": [[-0.4, 0.4]], "delta": 0.05})
    base = {
        "frame-bounds": {"domain": dom, "pointset": pts},
        "mult-check": {"domain": dom, "pointset": pts, "multiplier": {"expr": "2 + sin(t)"},
                       "sweep": True},
        "build-generator": {"bump": bump, "csv_out": str(workdir / "gen.csv")},
        "reconstruct": {"band": dom, "delta": 0.05, "pointset": pts},
        "union-check": {"pointset": pts, "parts": [{"intervals": [[0.0, 1.0]], "expr": "1"}]},
        "corollary-demo": {"domain": dom},
    }[command]
    return write_json(workdir / "cfg.json",
                      {"command": command, "inputs": {**base, **inputs}, "grid": grid})


@pytest.mark.parametrize("command, grid, inputs, key", [
    ("frame-bounds", {"n_per_unit": 2**20}, {}, "grid/n_per_unit"),
    ("mult-check", {"refine": [64, 2**20]}, {}, "grid/refine"),
    ("build-generator", {"n_per_unit": 2**20}, {}, "grid/n_per_unit"),
    ("union-check", {"n_per_unit": 2**20}, {}, "grid/n_per_unit"),
    ("union-check", {"refine": [32, 2**20]}, {"sweep": True}, "grid/refine"),
    ("corollary-demo", {"refine": [64, 2**20]}, {}, "grid/refine"),
    ("reconstruct", {"n_per_unit": 64}, {"n_targets": 10**6}, "inputs/n_targets"),
])
def test_config_past_a_size_cap_exits_2_before_allocating(workdir, capsys, command, grid,
                                                          inputs, key):
    cfg_path = _oversized(workdir, command, grid, **inputs)
    tracemalloc.start()
    try:
        code = main(["--config", cfg_path, "--out", str(workdir / "report.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert key in capsys.readouterr().err
    # a grid of 2**20 nodes alone holds 24 MB of nodes, weights and indices
    assert peak < 4 * 2**20


@pytest.mark.parametrize("command, interval, grid, key", [
    ("frame-bounds", [1e12, 1e12 + 1], {"n_per_unit": 16384}, "grid/n_per_unit"),
    ("frame-bounds", [1e16, 1e16 + 2], {"n_per_unit": 4}, "grid/n_per_unit"),
    ("mult-check", [1e12, 1e12 + 1], {"refine": [8192, 16384]}, "grid/refine"),
])
def test_grid_steps_below_double_precision_are_exit_2(workdir, capsys, command, interval,
                                                      grid, key):
    # far from the origin a fine step falls below the spacing of the floats,
    # so the midpoints would not be strictly increasing
    far = write_json(workdir / "far.json", {"intervals": [interval]})
    out = workdir / "report.json"
    assert main(["--config", _oversized(workdir, command, grid, domain=far),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert key in err and "double precision" in err
    assert not out.exists()


def _far_points(workdir, s):
    """The 24 points k / 1.2 (k = -12..11) and +-s."""
    return write_points(workdir / "far_pts.csv",
                        np.concatenate([np.arange(-12, 12) / 1.2, [-s, s]]))


def test_far_points_on_a_dyadic_step_run(workdir):
    # at 16 nodes per unit h * 1e12 is an integer, so +-1e12 alias to 0 exactly
    cfg_path = _oversized(workdir, "frame-bounds", {"n_per_unit": 16},
                          pointset=_far_points(workdir, 1e12))
    out = workdir / "report.json"
    assert main(["--config", cfg_path, "--out", str(out)]) == 0
    assert read_report(out)["results"]["report"]["spectra_cross_checked"]


@pytest.mark.parametrize("command, grid, s", [
    ("frame-bounds", {"n_per_unit": 10}, 1e15 + 0.3),
    ("frame-bounds", {"n_per_unit": 10}, 2.0**50),
    ("mult-check", {"refine": [16, 20]}, 1e15 + 0.3),
    ("translate-check", {"n_per_unit": 10}, 1e15 + 0.3),
    ("reconstruct", {"n_per_unit": 320}, 1e15 + 0.3),
    ("union-check", {"refine": [16, 20]}, 1e15 + 0.3),
])
def test_phases_past_the_bound_are_exit_2(workdir, capsys, monkeypatch, command, grid, s):
    # on a step that is not dyadic the phase of 1e15 + 0.3 drifts by far more
    # than 1e-10 cycles a row, and fl(0.1) * 2^50, exact as it is, lies 6e-3 from
    # 2^50 / 10; a sweep is refused at its first such level before any is measured
    dom = write_json(workdir / "dom.json", {"intervals": [[0.0, 1.0]]})
    inputs = {
        "frame-bounds": {"domain": dom},
        "mult-check": {"domain": dom, "multiplier": {"expr": "2 + sin(t)"}, "sweep": True},
        "translate-check": {"domain": dom, "generator": {"expr": "1"}},
        "reconstruct": {"band": dom, "delta": 0.05},
        "union-check": {"parts": [{"intervals": [[0.0, 1.0]], "expr": "1"}], "sweep": True},
    }[command]
    inputs["pointset"] = _far_points(workdir, s)
    cfg_path = write_json(workdir / "cfg.json",
                          {"command": command, "inputs": inputs, "grid": grid})
    eigensolves = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: eigensolves.append(a))
    out = workdir / "report.json"
    assert main(["--config", cfg_path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"far_pts.csv: bad point set (frequencies up to |lambda| = {s:.6g} round" in err
    assert eigensolves == []
    assert not out.exists()


def test_grid_cap_counts_the_domain_measure(workdir, capsys):
    from framelab.cli import MAX_GRID_NODES

    wide = write_json(workdir / "wide.json", {"intervals": [[0.0, 1e6]]})
    cfg_path = _oversized(workdir, "frame-bounds", {"n_per_unit": 1}, domain=wide)
    assert main(["--config", cfg_path, "--out", str(workdir / "report.json")]) == 2
    assert f"1000000 nodes, above the cap of {MAX_GRID_NODES}" in capsys.readouterr().err
    # a refinement level past the float range is an input error too
    cfg_path = _oversized(workdir, "corollary-demo", {})
    assert main(["--config", cfg_path, "--refine", "64," + "1" * 400]) == 2
    assert "grid/refine" in capsys.readouterr().err


def test_grid_at_the_cap_runs(workdir):
    from framelab.cli import MAX_GRID_NODES

    out = str(workdir / "report.json")
    cfg_path = _oversized(workdir, "frame-bounds", {"n_per_unit": MAX_GRID_NODES})
    assert main(["--config", cfg_path, "--out", out]) == 0
    assert read_report(out)["results"]["report"]["dim_space"] == MAX_GRID_NODES
    cfg_path = _oversized(workdir, "frame-bounds", {"n_per_unit": MAX_GRID_NODES + 1})
    assert main(["--config", cfg_path, "--out", out]) == 2
