import dataclasses

import numpy as np
import pytest

import framelab.multiplication as multiplication
import framelab.translates as translates
from framelab.domain import Domain, SampledFunction, make_grid
from framelab.errors import FrameLabError, HypothesisError
from framelab.framecore import exponential_system, measure_bounds, synthesize
from framelab.multiplication import multiply_system, profile_refinement
from framelab.pointset import PointSet
from framelab.records import jsonable
from framelab.translates import (
    BumpSpec,
    Generator,
    UnionPart,
    UnionSpec,
    build_bump_generator,
    classify_translates,
    convolution_closure_check,
    load_generator_csv,
    matched_lattice,
    obstruction_trend,
    outer_frame_check,
    oversampled_expansion,
    oversampled_expansions,
    smoothstep,
    translate_system,
    union_check,
    union_sweep,
)
from support import (
    expansion_tail_profile,
    oracle_frame_sums,
    time_frame_sum,
    time_values,
    write_table,
)

E = Domain([(-0.5, 0.5)])


def integer_lattice(n, spacing=1.0, pad=0.5):
    lam = (np.arange(n) - n // 2) * spacing
    return PointSet.from_1d(lam, box=(lam[0] - pad * spacing, lam[-1] + pad * spacing))


def plateau_setup(n_per_unit=320):
    spec = BumpSpec(Domain([(-0.4, 0.4)]), 0.05)
    grid = make_grid(spec.dilated, n_per_unit)
    return spec, grid, build_bump_generator(spec, grid)


# --- generator basics ---------------------------------------------------------


def test_generator_time_values_from_flat_spectrum():
    g = make_grid(E, 64)
    gen = Generator(SampledFunction(g, np.ones(g.size)), label="sinc")
    h = time_values(gen.hat, [0.0, 1.0, 2.0])
    assert h[0] == pytest.approx(1.0, abs=1e-12)
    # integer shifts of the full-band kernel interpolate zero exactly:
    # the node exponentials complete full cycles over the band
    assert abs(h[1]) < 1e-12 and abs(h[2]) < 1e-12
    assert gen.hat.norm_sq == pytest.approx(1.0)


def test_generator_csv_round_trip(tmp_path):
    g = make_grid(E, 32)
    vals = np.exp(2j * np.pi * g.nodes) * (1.0 + g.nodes**2)
    gen = Generator(SampledFunction(g, vals), label="h")
    path = tmp_path / "gen.csv"
    write_table(path, gen.table)
    back = load_generator_csv(path, g)
    assert np.array_equal(back.hat.values, vals)


def test_generator_csv_node_mismatch(tmp_path):
    g = make_grid(E, 32)
    gen = Generator(SampledFunction(g, np.ones(g.size)))
    path = tmp_path / "gen.csv"
    write_table(path, gen.table)
    with pytest.raises(FrameLabError, match="do not match"):
        load_generator_csv(path, make_grid(E, 64))


# --- smooth plateau -----------------------------------------------------------


def test_smoothstep_shape():
    assert smoothstep(-1.0) == 0.0 and smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0 and smoothstep(2.0) == 1.0
    assert smoothstep(0.5) == pytest.approx(0.5)
    t = np.linspace(-0.2, 1.2, 201)
    s = smoothstep(t)
    assert np.all(np.diff(s) >= 0)
    # complementary symmetry of the exp(-1/t) blend
    assert np.allclose(s + smoothstep(1.0 - t), 1.0, atol=1e-12)


def test_bump_spec_validation_and_dict():
    spec = BumpSpec(Domain([(-0.4, 0.4)]), 0.05)
    assert spec.dilated == Domain([(-0.45, 0.45)])
    assert BumpSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ValueError, match="delta"):
        BumpSpec(Domain([(-0.4, 0.4)]), 0.0)


def test_bump_profile_plateau_and_decay():
    spec = BumpSpec(Domain([(0.0, 1.0), (2.0, 3.0)]), 0.2)
    assert spec.profile(np.array([0.5, 2.5])) == pytest.approx([1.0, 1.0])
    assert spec.profile(np.array([1.5]))[0] == pytest.approx(0.0, abs=1e-12)
    assert spec.profile(np.array([-0.3, 3.3])) == pytest.approx([0.0, 0.0])


def test_build_bump_generator_exact_plateau():
    spec, grid, gen = plateau_setup()
    inside = spec.base_domain.contains(grid.nodes)
    assert np.all(gen.hat.values[inside] == 1.0)
    vals = gen.hat.values.real
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(gen.hat.values.imag == 0.0)


def test_build_bump_generator_rejects_touching_bands():
    spec = BumpSpec(Domain([(0.0, 1.0), (1.05, 2.0)]), 0.05)
    with pytest.raises(FrameLabError, match="transition bands overlap"):
        build_bump_generator(spec, make_grid(Domain([(0.0, 1.0)]), 32))


def test_build_bump_generator_rejects_wrong_grid():
    spec = BumpSpec(Domain([(-0.4, 0.4)]), 0.05)
    with pytest.raises(FrameLabError, match="dilated domain"):
        build_bump_generator(spec, make_grid(spec.base_domain, 320))


def test_build_bump_generator_rejects_coarse_grid():
    spec = BumpSpec(Domain([(-0.4, 0.4)]), 0.05)
    with pytest.raises(FrameLabError, match="need at least 16"):
        build_bump_generator(spec, make_grid(spec.dilated, 64))


# --- classification -----------------------------------------------------------


def test_translate_system_requires_matching_grid():
    g = make_grid(E, 32)
    gen = Generator(SampledFunction(g, np.ones(g.size)))
    with pytest.raises(FrameLabError, match="not sampled"):
        translate_system(gen, integer_lattice(32), make_grid(E, 64))


def test_classify_full_band_generator():
    g = make_grid(E, 64)
    gen = Generator(SampledFunction(g, np.ones(g.size)), label="sinc")
    rep = classify_translates(gen, matched_lattice(g))
    assert rep.predicted == rep.measured == {
        "bessel": True, "frame": True, "frame_sequence": True,
    }
    assert rep.consistent
    assert rep.mult_report.lower == pytest.approx(1.0, abs=1e-10)
    assert rep.mult_report.upper == pytest.approx(1.0, abs=1e-10)
    assert rep.details["rank_matches_support"]


def test_classify_half_band_generator_is_frame_sequence():
    g = make_grid(E, 128)
    vals = np.where(np.abs(g.nodes) <= 0.25, 2.0 + np.cos(2 * np.pi * g.nodes), 0.0)
    gen = Generator(SampledFunction(g, vals))
    rep = classify_translates(gen, matched_lattice(g))
    assert rep.predicted["frame"] is False
    assert rep.predicted["frame_sequence"] is True
    assert rep.measured == rep.predicted
    assert rep.details["support_nodes"] == 64
    assert rep.mult_report.rank == 64
    assert rep.consistent


def test_classify_requires_frame_of_the_band():
    g = make_grid(E, 32)
    gen = Generator(SampledFunction(g, np.ones(g.size)))
    with pytest.raises(HypothesisError, match="not a frame"):
        classify_translates(gen, PointSet.from_1d([0.0, 1.0, 2.0]))


def test_classify_with_refinement_trace():
    g = make_grid(E, 64)
    fn = lambda t: 2.0 + np.sin(2 * np.pi * t)
    gen = Generator(SampledFunction.from_callable(g, fn))
    trace = profile_refinement(E, fn)
    rep = classify_translates(gen, matched_lattice(g), trace=trace)
    assert rep.predicted["frame"] and rep.consistent
    assert rep.details["trace"]["bounded_below"]


# --- continuity obstruction -----------------------------------------------------


def test_obstruction_trend_of_edge_vanishing_spectrum():
    rep = obstruction_trend(E, lambda w: 1.0 - np.abs(2.0 * w))
    assert rep.levels == (64, 128, 256)
    # matched lattices keep the base tight, so the lower bound is exactly
    # the squared minimum of the hat: quartering per doubling
    assert rep.ratios == pytest.approx((0.25, 0.25), rel=1e-9)
    assert rep.predicted_obstruction and rep.measured_obstruction
    assert rep.consistent


def test_obstruction_trend_control_is_flat():
    rep = obstruction_trend(E, lambda w: np.ones_like(w))
    assert rep.lower_bounds == pytest.approx((1.0, 1.0, 1.0), rel=1e-9)
    assert not rep.predicted_obstruction and not rep.measured_obstruction
    assert rep.consistent


def test_obstruction_trend_validation_and_custom_lattice():
    with pytest.raises(FrameLabError, match="single-interval"):
        obstruction_trend(Domain([(0.0, 1.0), (2.0, 3.0)]), lambda w: w)
    with pytest.raises(ValueError, match="two refinement levels"):
        obstruction_trend(E, lambda w: w, levels=(64,))
    seen = []

    def record(grid):
        seen.append(grid.size)
        return matched_lattice(grid)

    obstruction_trend(E, lambda w: np.ones_like(w), levels=(32, 64), lattice_for=record)
    assert seen == [32, 64]


def test_matched_lattice_makes_exponentials_tight():
    g = make_grid(Domain([(-0.4, 0.4)]), 80)
    rep = measure_bounds(exponential_system(g, matched_lattice(g)))
    assert rep.flags.tight
    assert rep.lower == pytest.approx(0.8, abs=1e-10)


# --- oversampled expansion -------------------------------------------------------


def half_integer_lattice(grid):
    m = grid.domain.measure
    n = 2 * grid.size
    lam = (np.arange(n) - n // 2) / (2.0 * m)
    return PointSet.from_1d(lam, box=(lam[0] - 0.25 / m, lam[-1] + 0.25 / m))


def bandlimited_target(grid, band):
    vals = np.sin(3 * np.pi * grid.nodes) * (2.0 + np.cos(2 * np.pi * grid.nodes))
    return SampledFunction(grid, vals * band.contains(grid.nodes))


def test_oversampled_expansion_reconstructs():
    spec, grid, gen = plateau_setup()
    ps = half_integer_lattice(grid)
    f_hat = bandlimited_target(grid, spec.base_domain)
    res = oversampled_expansion(f_hat, gen, ps, spec.base_domain)
    exp = exponential_system(grid, ps)
    assert np.array_equal(res.reconstruction, synthesize(exp, res.alphas).values * gen.hat.values)
    formed = (exp.matrix @ res.alphas) * gen.hat.values
    assert np.linalg.norm(res.reconstruction - formed) <= 1e-13 * np.linalg.norm(formed)
    # two interleaved matched lattices: the frame operator is exactly 2*measure
    assert res.exp_report.lower == pytest.approx(1.8, abs=1e-9)
    assert res.cg_residual <= 1e-9
    assert res.product_residual <= 1e-9
    assert res.vanish_outside <= 1e-9
    assert res.coeff_bound_ok
    assert res.coeff_norm_sq <= res.coeff_bound * (1 + 1e-9)
    recs = jsonable(res.table)
    assert len(recs) == ps.size and set(recs[0]) == {"lambda", "re", "im"}


def test_oversampled_expansion_rejects_leaky_target():
    spec, grid, gen = plateau_setup()
    ps = half_integer_lattice(grid)
    f_hat = SampledFunction(grid, np.ones(grid.size))
    with pytest.raises(FrameLabError, match="leaks outside"):
        oversampled_expansion(f_hat, gen, ps, spec.base_domain)


def test_oversampled_expansion_rejects_zero_target():
    spec, grid, gen = plateau_setup()
    f_hat = SampledFunction(grid, np.zeros(grid.size))
    with pytest.raises(FrameLabError, match="identically zero"):
        oversampled_expansion(f_hat, gen, half_integer_lattice(grid), spec.base_domain)


def test_oversampled_expansion_rejects_grid_mismatch():
    spec, grid, gen = plateau_setup()
    other = make_grid(spec.base_domain, 320)
    f_hat = bandlimited_target(other, spec.base_domain)
    with pytest.raises(FrameLabError, match="different grids"):
        oversampled_expansion(f_hat, gen, half_integer_lattice(grid), spec.base_domain)


def test_oversampled_expansion_requires_frame():
    spec, grid, gen = plateau_setup()
    f_hat = bandlimited_target(grid, spec.base_domain)
    with pytest.raises(HypothesisError, match="not a frame"):
        oversampled_expansion(f_hat, gen, PointSet.from_1d([0.0, 1.0, 2.0]), spec.base_domain)


def random_band_targets(grid, band, n, seed=3):
    rng = np.random.default_rng(seed)
    inside = band.contains(grid.nodes)
    return [
        SampledFunction(grid, (rng.standard_normal(grid.size)
                               + 1j * rng.standard_normal(grid.size)) * inside)
        for _ in range(n)
    ]


def test_oversampled_expansions_match_single_calls():
    # the one-interval band takes the structured route; the two-interval band
    # takes the dense one, on a jittered lattice that CG needs a dozen steps for
    spec, grid, gen = plateau_setup()
    two = BumpSpec(Domain([(-0.4, -0.1), (0.1, 0.4)]), 0.05)
    two_grid = make_grid(two.dilated, 320)
    n = 2 * two_grid.size
    jitter = np.random.default_rng(3).uniform(-0.25, 0.25, n)
    two_ps = PointSet.from_1d((np.arange(n) - n // 2 + jitter) / (2.0 * two_grid.domain.measure))
    for spec, grid, gen, ps in [(spec, grid, gen, half_integer_lattice(grid)),
                                (two, two_grid, build_bump_generator(two, two_grid), two_ps)]:
        targets = random_band_targets(grid, spec.base_domain, 3)
        batch = oversampled_expansions(targets, gen, ps, spec.base_domain)
        assert len(batch) == 3
        for f_hat, res in zip(targets, batch):
            single = oversampled_expansion(f_hat, gen, ps, spec.base_domain)
            assert np.array_equal(res.alphas, single.alphas)
            assert np.array_equal(res.reconstruction, single.reconstruction)
            for name in ("cg_residual", "product_residual", "vanish_outside", "coeff_norm_sq",
                         "coeff_bound", "coeff_bound_ok"):
                assert getattr(res, name) == getattr(single, name), name
            assert res.exp_report.lower == single.exp_report.lower
            assert res.exp_report.upper == single.exp_report.upper
        # one measurement of the shared system serves every target
        assert batch[0].exp_report is batch[2].exp_report


@pytest.mark.parametrize(
    "second, message",
    [
        (np.ones, "target spectrum leaks outside the inner band"),
        (np.zeros, "target spectrum is identically zero"),
    ],
)
def test_oversampled_expansions_validate_every_target_first(monkeypatch, second, message):
    spec, grid, gen = plateau_setup()
    builds = []
    build = translates.exponential_system
    monkeypatch.setattr(translates, "exponential_system",
                        lambda g, ps: builds.append(g) or build(g, ps))
    good = bandlimited_target(grid, spec.base_domain)
    targets = [good, SampledFunction(grid, second(grid.size)), good]
    with pytest.raises(FrameLabError, match=f"^{message}$"):
        oversampled_expansions(targets, gen, half_integer_lattice(grid), spec.base_domain)
    assert builds == []


def test_expansion_budget_warning_names_the_caller(monkeypatch):
    # a claimed lower bound far above the measured one leaves every
    # expansion over its coefficient budget
    measure = multiplication.measure_bounds  # called by require_frame
    monkeypatch.setattr(multiplication, "measure_bounds",
                        lambda sys, rank_tol: dataclasses.replace(measure(sys, rank_tol), lower=1e6))
    spec, grid, gen = plateau_setup()
    ps = half_integer_lattice(grid)
    f_hat = bandlimited_target(grid, spec.base_domain)
    for expand in (lambda: oversampled_expansion(f_hat, gen, ps, spec.base_domain),
                   lambda: oversampled_expansions([f_hat], gen, ps, spec.base_domain)[0]):
        with pytest.warns(UserWarning, match="frame-bound budget") as record:
            assert not expand().coeff_bound_ok
        assert [w.filename for w in record] == [__file__]


def test_expansion_tail_profile_budget():
    g = make_grid(E, 64)
    gen = Generator(SampledFunction(g, np.ones(g.size)))
    ps = integer_lattice(64)
    rng = np.random.default_rng(7)
    alphas = rng.normal(size=64) + 1j * rng.normal(size=64)
    prof = expansion_tail_profile(gen, ps, alphas, np.linspace(-0.3, 0.3, 7), [0.0, 8.0, 33.0])
    assert prof["radii"] == [0.0, 8.0, 33.0]
    for t, c in zip(prof["tail_max"], prof["cs_bound"]):
        assert t <= c * (1 + 1e-9) + 1e-300
    assert prof["tail_max"][-1] == 0.0 and prof["cs_bound"][-1] == 0.0
    with pytest.raises(ValueError, match="one coefficient per point"):
        expansion_tail_profile(gen, ps, alphas[:10], [0.0], [1.0])


# --- outer frames ---------------------------------------------------------------


def test_outer_frame_projection_matches_reference():
    spec, grid, gen = plateau_setup()
    rep = outer_frame_check(gen, half_integer_lattice(grid), spec.base_domain)
    assert rep.max_bound_dev <= 1e-10 * rep.reference_report.upper
    assert rep.bounds_equal
    assert rep.projected_report.rank == rep.reference_report.rank


def test_outer_frame_requires_unit_plateau():
    spec, grid, gen = plateau_setup()
    half = Generator(SampledFunction(grid, 0.5 * gen.hat.values))
    ps = half_integer_lattice(grid)
    with pytest.raises(FrameLabError, match="identically one"):
        outer_frame_check(half, ps, spec.base_domain)
    rep = outer_frame_check(half, ps, spec.base_domain, require_unit=False)
    assert not rep.bounds_equal


def test_outer_frame_rejects_empty_band():
    spec, grid, gen = plateau_setup()
    with pytest.raises(FrameLabError, match="no grid nodes"):
        outer_frame_check(gen, half_integer_lattice(grid), Domain([(5.0, 6.0)]))


# --- convolution closure ----------------------------------------------------------


def conv_setup(n=128):
    g = make_grid(E, n)
    w = g.nodes
    f = Generator(SampledFunction(g, 2.0 + np.sin(2 * np.pi * w)), label="f")
    gg = Generator(
        SampledFunction(g, (1.5 + 0.5 * np.cos(2 * np.pi * w)) * np.exp(1j * np.pi * w)),
        label="g",
    )
    return g, f, gg, matched_lattice(g)


def test_convolution_bessel_and_frame_modes():
    g, f, gg, ps = conv_setup()
    b = convolution_closure_check(f, gg, ps, "bessel")
    assert b.consistent
    sup_f, sup_g = b.details["factor_sup"]
    assert b.envelope[1] == pytest.approx((sup_f * sup_g) ** 2, rel=1e-12)
    assert b.envelope[1] == pytest.approx(36.0, rel=1e-2)
    fr = convolution_closure_check(f, gg, ps, "frame")
    assert fr.consistent
    lo, hi = fr.envelope
    assert lo <= fr.measured[0] * (1 + 1e-9) and fr.measured[1] <= hi * (1 + 1e-9)


def test_convolution_frame_mode_hypothesis_errors():
    g, f, gg, ps = conv_setup()
    chi = Generator(SampledFunction(g, (np.abs(g.nodes) <= 0.25).astype(complex)))
    with pytest.raises(HypothesisError, match="bounded below"):
        convolution_closure_check(chi, gg, ps, "frame")
    with pytest.raises(HypothesisError, match="not a frame"):
        convolution_closure_check(f, gg, PointSet.from_1d([0.0, 1.0]), "frame")


def test_convolution_frame_mode_hypothesis_errors_state_their_numbers():
    g, f, gg, ps = conv_setup()
    chi = Generator(SampledFunction(g, (np.abs(g.nodes) <= 0.25).astype(complex)))
    with pytest.raises(HypothesisError) as info:
        convolution_closure_check(chi, gg, ps, "frame")
    assert ("(first ess_inf 0 against 1e-12 * ess_sup 1; second ess_inf 1.00015 against "
            "1e-12 * ess_sup 1.99985)") in str(info.value)
    # 256 members at spacing 1/40 span [-3.2, 3.2), 13 dimensions of the 128
    with pytest.raises(HypothesisError, match="not a frame") as info:
        convolution_closure_check(f, gg, integer_lattice(256, 1 / 40), "frame")
    assert "(measured rank 13 of n = 128 at rank_tol 1e-08, retained bounds [" in str(info.value)


def test_convolution_frame_sequence_mode():
    g, f, gg, ps = conv_setup()
    mask = np.abs(g.nodes) <= 0.25
    chi = Generator(SampledFunction(g, mask * (2.0 + np.cos(2 * np.pi * g.nodes))))
    rep = convolution_closure_check(chi, gg, ps, "frame_sequence")
    assert rep.details["support_nodes"] == 64
    assert rep.details["rank_matches_support"]
    assert rep.consistent
    left = Generator(SampledFunction(g, (g.nodes <= -0.1).astype(complex)))
    right = Generator(SampledFunction(g, (g.nodes >= 0.1).astype(complex)))
    with pytest.raises(FrameLabError, match="supports do not intersect"):
        convolution_closure_check(left, right, ps, "frame_sequence")


def test_convolution_quotient_mode():
    g, f, gg, ps = conv_setup()
    rep = convolution_closure_check(f, gg, ps, "quotient")
    assert rep.consistent
    lo, hi = rep.quotient_range
    g_lo, g_hi = rep.details["g_range"]
    assert lo <= g_lo * (1 + 1e-9) and g_hi <= hi * (1 + 1e-9)
    chi = Generator(SampledFunction(g, (np.abs(g.nodes) <= 0.25).astype(complex)))
    with pytest.raises(FrameLabError, match="quotient is unbounded"):
        convolution_closure_check(chi, gg, ps, "quotient")


def test_convolution_bessel_quotient_mode():
    g, f, gg, ps = conv_setup()
    auto = convolution_closure_check(f, gg, ps, "bessel_quotient")
    assert auto.consistent
    explicit = convolution_closure_check(f, gg, ps, "bessel_quotient", floor=0.5)
    assert explicit.consistent
    assert explicit.details["sup_bound"] >= auto.details["sup_bound"]
    with pytest.raises(FrameLabError, match="exceeds the first factor"):
        convolution_closure_check(f, gg, ps, "bessel_quotient", floor=1.5)
    chi = Generator(SampledFunction(g, (np.abs(g.nodes) <= 0.25).astype(complex)))
    with pytest.raises(FrameLabError, match="positive floor"):
        convolution_closure_check(chi, gg, ps, "bessel_quotient")


def test_convolution_mode_and_grid_validation():
    g, f, gg, ps = conv_setup()
    with pytest.raises(ValueError, match="unknown convolution mode"):
        convolution_closure_check(f, gg, ps, "banana")
    other = Generator(SampledFunction(make_grid(E, 64), np.ones(64)))
    with pytest.raises(FrameLabError, match="different grids"):
        convolution_closure_check(f, other, ps, "bessel")


# --- unions ------------------------------------------------------------------------


def test_union_check_two_bands_exact_envelope():
    parts = (
        UnionPart(Domain([(-1.0, 0.0)]), lambda w: 1.5 + 0.5 * np.cos(2 * np.pi * w), "lo"),
        UnionPart(Domain([(0.0, 1.0)]), lambda w: 2.0 + np.sin(2 * np.pi * w), "hi"),
    )
    spec = UnionSpec(parts, integer_lattice(64, spacing=0.5))
    rep = union_check(spec, 32)
    # matched lattice: every part system is exactly 2x a node mask, so the
    # stacked bounds sit on the envelope ends
    assert rep.m == pytest.approx(2.0, abs=1e-10)
    assert rep.M == pytest.approx(2.0, abs=1e-10)
    assert rep.part_ranks == (32, 32)
    assert rep.total_report.lower == pytest.approx(rep.envelope[0], rel=1e-9)
    assert rep.total_report.upper == pytest.approx(rep.envelope[1], rel=1e-9)
    assert rep.within and rep.consistent


def test_union_spec_needs_parts():
    with pytest.raises(ValueError, match="at least one part"):
        UnionSpec((), integer_lattice(8))


def test_union_sweep_flags_common_zero():
    part = UnionPart(Domain([(0.0, 1.0)]), lambda w: w - 0.5, "lin")
    spec = UnionSpec((part,), integer_lattice(256))
    sweep = union_sweep(spec, levels=(64, 128, 256))
    assert not sweep.predicted_frame and not sweep.measured_frame
    assert sweep.consistent
    assert sweep.p_hats[1] / sweep.p_hats[0] == pytest.approx(0.25, rel=1e-9)
    assert sweep.lowers[-1] < sweep.lowers[0]


def test_union_sweep_needs_two_levels():
    # one level certifies no trend: the vanishing generator would pass as a frame
    part = UnionPart(Domain([(0.0, 1.0)]), lambda w: w - 0.5, "lin")
    spec = UnionSpec((part,), integer_lattice(256))
    with pytest.raises(ValueError, match="two refinement levels"):
        union_sweep(spec, levels=(64,))


# --- time-side frame sums -------------------------------------------------------------


def test_time_and_frequency_sums_agree():
    # on a band translated by s the two sides keep agreeing: the time kernel
    # is the exponential system's own builder, so no phase carries s * x
    for s in (0.0, 1e6, 1e9):
        g = make_grid(Domain([(s - 0.5, s + 0.5)]), 64)
        w = g.nodes - s
        hat = 2.0 + np.sin(2 * np.pi * w) + 0.5j * np.cos(2 * np.pi * w)
        gen = Generator(SampledFunction(g, hat))
        ps = PointSet.from_1d([-3.7, -1.2, 0.0, 2.4, 7.9])
        rng = np.random.default_rng(11)
        f_hat = SampledFunction(g, rng.normal(size=64) + 1j * rng.normal(size=64))
        sf = oracle_frame_sums(translate_system(gen, ps, g), f_hat)
        st = time_frame_sum(gen, ps, f_hat)
        assert st == pytest.approx(sf, rel=1e-12), s
        # a finer time step keeps the quadrature exact
        assert time_frame_sum(gen, ps, f_hat, dt=1e-3) == pytest.approx(sf, rel=1e-12), s


def test_time_sum_needs_uniform_grid_or_window():
    dom = Domain([(0.0, 1.0), (2.0, 2.35)])
    g = make_grid(dom, 8)
    gen = Generator(SampledFunction(g, np.ones(g.size)))
    ps = PointSet.from_1d([0.0, 1.0])
    f_hat = SampledFunction(g, np.ones(g.size))
    with pytest.raises(FrameLabError, match="uniform grid"):
        time_frame_sum(gen, ps, f_hat)
    val = time_frame_sum(gen, ps, f_hat, half_width=3.0)
    assert np.isfinite(val) and val >= 0.0


@pytest.mark.parametrize("second, on_lattice", [((0.75, 1.25), True), ((0.7, 1.2), False)])
def test_matched_window_needs_every_node_on_one_lattice(second, on_lattice):
    # both pieces have step 1/32; the second one's nodes lie on the first
    # one's lattice only when its start is a multiple of the step away
    g = make_grid(Domain([(0.0, 0.5), second]), 32)
    w = g.nodes
    gen = Generator(SampledFunction(g, 2.0 + np.sin(2 * np.pi * w) + 0.5j * np.cos(2 * np.pi * w)))
    ps = PointSet.from_1d([-3.7, -1.2, 0.0, 2.4, 7.9])
    rng = np.random.default_rng(5)
    f_hat = SampledFunction(g, rng.normal(size=g.size) + 1j * rng.normal(size=g.size))
    if on_lattice:
        assert time_frame_sum(gen, ps, f_hat) == pytest.approx(
            oracle_frame_sums(translate_system(gen, ps, g), f_hat), rel=1e-12)
    else:
        with pytest.raises(FrameLabError, match="uniform grid"):
            time_frame_sum(gen, ps, f_hat)


def test_time_sum_grid_mismatch():
    g = make_grid(E, 32)
    gen = Generator(SampledFunction(g, np.ones(32)))
    f_hat = SampledFunction(make_grid(E, 64), np.ones(64))
    with pytest.raises(FrameLabError, match="different grids"):
        time_frame_sum(gen, PointSet.from_1d([0.0]), f_hat)


def test_synthesized_expansion_vanishes_outside_band():
    spec, grid, gen = plateau_setup()
    ps = half_integer_lattice(grid)
    f_hat = bandlimited_target(grid, spec.base_domain)
    res = oversampled_expansion(f_hat, gen, ps, spec.base_domain)
    sys = exponential_system(grid, ps)
    s_vals = synthesize(sys, res.alphas).values
    outside = ~spec.base_domain.contains(grid.nodes)
    out_mass = np.sqrt(np.sum(grid.weights[outside] * np.abs(s_vals[outside]) ** 2))
    assert out_mass <= 1e-9 * f_hat.norm()
