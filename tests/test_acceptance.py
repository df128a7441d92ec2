"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line via ``_verdict`` before asserting, so a
plain ``pytest -v tests/test_acceptance.py`` doubles as the sign-off sheet.
"""

import time

import numpy as np
import pytest

from framelab.domain import Domain, SampledFunction, indicator, make_grid
from framelab.framecore import (
    SynthesisSystem,
    exponential_system,
    measure_bounds,
    synthesize,
)
from framelab.multiplication import (
    check_bessel_multiplication,
    check_converse,
    check_frame_multiplication,
    check_frame_sequence_multiplication,
    check_riesz_multiplication,
    check_tight_multiplication,
    multiply_system,
)
from framelab.pointset import (
    PointSet,
    beurling_1d_frame_predicate,
    densify,
    gap,
)
from framelab.translates import (
    BumpSpec,
    Generator,
    UnionPart,
    UnionSpec,
    build_bump_generator,
    classify_translates,
    convolution_closure_check,
    matched_lattice,
    obstruction_trend,
    outer_frame_check,
    oversampled_expansion,
    translate_system,
    union_check,
    union_sweep,
)
from support import oracle_frame_sums, time_frame_sum

E_HALF = Domain([(-0.5, 0.5)])
E_UNIT = Domain([(0.0, 1.0)])


def _verdict(tag: str, ok: bool, detail: str) -> bool:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def dft_base(grid):
    return exponential_system(grid, matched_lattice(grid))


def jittered(n, seed, amp=0.2):
    rng = np.random.default_rng(seed)
    k = np.arange(n, dtype=float)
    return PointSet.from_1d(k + rng.uniform(-amp, amp, n), box=(k[0] - 0.5, k[-1] + 0.5))


def test_a01_sinc_orthonormal_anchor():
    t0 = time.perf_counter()
    grid = make_grid(E_HALF, 256)
    gen = Generator(SampledFunction(grid, np.ones(grid.size)), label="sinc")
    lam = np.arange(256) - 128.0
    ps = PointSet.from_1d(lam, box=(-128.5, 127.5))
    rep = classify_translates(gen, ps)
    dev = max(abs(rep.mult_report.lower - 1.0), abs(rep.mult_report.upper - 1.0))
    elapsed = time.perf_counter() - t0
    ok = (
        dev <= 1e-10
        and rep.mult_report.flags.tight
        and rep.mult_report.flags.frame_for_whole_space
        and rep.consistent
        and elapsed < 5.0
    )
    assert _verdict("A1", ok, f"sinc translates bound dev {dev:.2e}, {elapsed:.2f}s")


def test_a02_multiplication_equivalence():
    t0 = time.perf_counter()
    grid = make_grid(E_HALF, 256)
    phi = SampledFunction.from_callable(grid, lambda t: 2.0 + np.sin(2 * np.pi * t))
    rep = check_frame_multiplication(dft_base(grid), phi)
    mag2 = np.abs(phi.values) ** 2
    dev = max(abs(rep.mult_report.lower - mag2.min()), abs(rep.mult_report.upper - mag2.max()))
    in_analytic = 1.0 - 1e-12 <= rep.mult_report.lower and rep.mult_report.upper <= 9.0 + 1e-12
    elapsed = time.perf_counter() - t0
    ok = (
        dev <= 1e-10
        and in_analytic
        and rep.predicted == rep.measured
        and rep.envelope_holds
        and rep.consistent
        and elapsed < 10.0
    )
    assert _verdict("A2", ok, f"node-extrema dev {dev:.2e}, envelope [1,9] holds, {elapsed:.2f}s")


def test_a03_tight_riesz_bessel_variants():
    # tightness survives a unimodular multiplier
    grid = make_grid(E_HALF, 128)
    uni = SampledFunction.from_callable(grid, lambda t: np.exp(2j * np.pi * 3 * t))
    tight = check_tight_multiplication(dft_base(grid), uni)
    spread = tight.details["spread"]

    # an interior zero halves the Riesz Gram floor at every grid doubling
    gmins = []
    for lv in (64, 128, 256):
        g = make_grid(E_HALF, lv)
        phi = SampledFunction.from_callable(g, lambda t: t)
        gmins.append(check_riesz_multiplication(dft_base(g), phi).details["gram_extremes"][0])
    decays = [gmins[i] / gmins[i + 1] for i in range(2)]

    # Bessel bound M * sup|phi|^2 on random piecewise multipliers
    g = make_grid(E_HALF, 128)
    base = dft_base(g)
    violations = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        edges = np.sort(rng.uniform(-0.5, 0.5, size=3))
        vals = rng.uniform(-2.0, 2.0, size=4)
        samples = np.full(g.size, vals[0] + 0j)
        for j in range(3):
            samples[g.nodes >= edges[j]] = vals[j + 1]
        rep = check_bessel_multiplication(base, SampledFunction(g, samples))
        if rep.mult_report.upper > rep.details["upper_bound"] * (1 + 1e-9) or not rep.consistent:
            violations += 1

    ok = (
        spread <= 1e-8
        and tight.measured["tight"]
        and all(d >= 2.0 for d in decays)
        and violations == 0
    )
    assert _verdict(
        "A3",
        ok,
        f"tight spread {spread:.2e}, riesz decay {min(decays):.2f}x/doubling, "
        f"bessel violations {violations}/20",
    )


def test_a04_converse_recovers_base():
    grid = make_grid(E_HALF, 256)
    phi = SampledFunction.from_callable(grid, lambda t: 2.0 + np.sin(2 * np.pi * t))
    rep = check_converse(multiply_system(dft_base(grid), phi), phi)
    dev = max(abs(rep.base_report.lower - 1.0), abs(rep.base_report.upper - 1.0))
    ok = dev <= 1e-9 and rep.consistent
    assert _verdict("A4", ok, f"recovered base bounds dev {dev:.2e}")


def test_a05_frame_sequence_span_identity():
    grid = make_grid(E_UNIT, 256)
    chi = indicator(grid, Domain([(0.0, 0.5)]))
    rep = check_frame_sequence_multiplication(dft_base(grid), chi)
    dev = max(abs(rep.mult_report.lower - 1.0), abs(rep.mult_report.upper - 1.0))
    ok = (
        rep.mult_report.rank == 128
        and rep.details["support_nodes"] == 128
        and dev <= 1e-10
        and rep.consistent
    )
    assert _verdict("A5", ok, f"rank {rep.mult_report.rank} == 128, bound dev {dev:.2e}")


def test_a06_beurling_predicates_on_jittered_lattices():
    t0 = time.perf_counter()
    band = Domain([(-0.4, 0.4)])
    grid = make_grid(band, 64)
    gaps, lowers, predicates = [], [], []
    for seed in range(10):
        ps = jittered(64, seed)
        gaps.append(gap(ps))
        predicates.append(beurling_1d_frame_predicate(ps, a=0.8, r=8.0).predicted_frame)
        lowers.append(measure_bounds(exponential_system(grid, ps)).lower)
    elapsed = time.perf_counter() - t0
    ok = (
        all(0.3 <= g <= 0.7 for g in gaps)
        and all(predicates)
        and all(lo > 0.05 for lo in lowers)
        and elapsed < 30.0
    )
    assert _verdict(
        "A6",
        ok,
        f"gaps [{min(gaps):.3f},{max(gaps):.3f}], predicate 10/10, "
        f"min lower {min(lowers):.3f} > 0.05, {elapsed:.1f}s",
    )


def test_a07_continuity_obstruction():
    hat = obstruction_trend(E_HALF, lambda w: 1.0 - np.abs(2.0 * w))
    control = obstruction_trend(E_HALF, lambda w: np.ones_like(w))
    control_dev = max(abs(r - 1.0) for r in control.ratios)
    ok = (
        all(r <= 0.6 for r in hat.ratios)
        and hat.consistent
        and control_dev <= 0.05
        and control.consistent
        and not control.measured_obstruction
    )
    assert _verdict(
        "A7",
        ok,
        f"hat ratios {tuple(round(r, 3) for r in hat.ratios)} <= 0.6, "
        f"control flat within {control_dev:.1e}",
    )


def test_a08_oversampled_expansion_pipeline():
    t0 = time.perf_counter()
    band = Domain([(-0.4, 0.4)])
    spec = BumpSpec(band, 0.05)
    grid = make_grid(spec.dilated, 320)
    gen = build_bump_generator(spec, grid)
    rng = np.random.default_rng(2024)
    k = np.arange(-180, 180, dtype=float)
    ps = densify(
        PointSet.from_1d(k + rng.uniform(-0.3, 0.3, k.size), box=(-180.5, 179.5)),
        target_gap=0.2,
        sep_min=0.1,
    )
    inside = band.contains(grid.nodes)
    exp = exponential_system(grid, ps)

    worst = {"product": 0.0, "vanish": 0.0, "perm": 0.0}
    budget_ok = True
    for _ in range(50):
        vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        f_hat = SampledFunction(grid, vals * inside)
        res = oversampled_expansion(f_hat, gen, ps, band)
        worst["product"] = max(worst["product"], res.product_residual)
        worst["vanish"] = max(worst["vanish"], res.vanish_outside)
        budget_ok = budget_ok and res.coeff_bound_ok
        perm = rng.permutation(ps.size)
        direct = synthesize(exp, res.alphas).values
        shuffled = synthesize(SynthesisSystem(grid, exp.matrix[:, perm]), res.alphas[perm]).values
        worst["perm"] = max(
            worst["perm"],
            float(np.abs(direct - shuffled).max() / max(np.abs(direct).max(), 1e-300)),
        )
    elapsed = time.perf_counter() - t0
    ok = (
        worst["product"] <= 1e-8
        and worst["vanish"] <= 1e-8
        and budget_ok
        and worst["perm"] <= 1e-9
        and elapsed < 60.0
    )
    assert _verdict(
        "A8",
        ok,
        f"50 targets: residual {worst['product']:.1e}, vanish {worst['vanish']:.1e}, "
        f"perm {worst['perm']:.1e}, coeff budget ok, {elapsed:.1f}s",
    )


def test_a09_outer_frame_projection():
    band = Domain([(-0.4, 0.4)])
    spec = BumpSpec(band, 0.05)
    grid = make_grid(spec.dilated, 320)
    gen = build_bump_generator(spec, grid)
    rng = np.random.default_rng(9)
    k = np.arange(-160, 160, dtype=float)
    ps = PointSet.from_1d(k + rng.uniform(-0.3, 0.3, k.size), box=(-160.5, 159.5))
    rep = outer_frame_check(gen, ps, band, tol=1e-10)
    rel = rep.max_bound_dev / rep.reference_report.upper
    ok = rep.bounds_equal and rel <= 1e-10
    assert _verdict("A9", ok, f"projected vs band-exponential bound dev {rel:.2e} (rel)")


def test_a10_convolution_closure_sweep():
    grid = make_grid(E_HALF, 64)
    ps = matched_lattice(grid)
    w = grid.nodes
    half_mask = np.abs(w) <= 0.25
    violations = 0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        cf, cg = rng.uniform(2.0, 3.0, size=2)
        af, ag = rng.uniform(0.2, 0.8, size=2)
        hf = cf + af * np.sin(2 * np.pi * w + rng.uniform(0, np.pi))
        hg = (cg + ag * np.cos(2 * np.pi * w)) * np.exp(1j * np.pi * rng.uniform(-1, 1) * w)
        gen_f = Generator(SampledFunction(grid, hf.astype(complex)), label="f")
        gen_g = Generator(SampledFunction(grid, hg), label="g")
        gen_fs = Generator(SampledFunction(grid, hf * half_mask), label="f_masked")
        for mode, pair in (
            ("bessel", (gen_f, gen_g)),
            ("frame", (gen_f, gen_g)),
            ("quotient", (gen_f, gen_g)),
            ("bessel_quotient", (gen_f, gen_g)),
            ("frame_sequence", (gen_fs, gen_g)),
        ):
            rep = convolution_closure_check(pair[0], pair[1], ps, mode)
            if not rep.consistent:
                violations += 1
    ok = violations == 0
    assert _verdict("A10", ok, f"20 random pairs x 5 closure modes: {violations} violations")


def test_a11_union_criterion():
    parts = (
        UnionPart(Domain([(-1.0, 0.0)]), lambda t: 1.5 + 0.5 * np.cos(2 * np.pi * t), "lo"),
        UnionPart(Domain([(0.0, 1.0)]), lambda t: 2.0 + np.sin(2 * np.pi * t), "hi"),
    )
    lam = (np.arange(64) - 32) * 0.5
    rep = union_check(UnionSpec(parts, PointSet.from_1d(lam, box=(-16.25, 15.75))), 32)
    within = (
        rep.envelope[0] - 1e-9 * rep.envelope[1] <= rep.total_report.lower
        and rep.total_report.upper <= rep.envelope[1] * (1 + 1e-9)
    )

    degenerate = UnionSpec(
        (UnionPart(E_UNIT, lambda t: t - 0.5, "lin"),),
        PointSet.from_1d(np.arange(256) - 128.0, box=(-128.5, 127.5)),
    )
    sweep = union_sweep(degenerate, levels=(64, 128, 256))
    trending_to_zero = (
        not sweep.measured_frame
        and sweep.lowers[0] > sweep.lowers[1] > sweep.lowers[2]
        and sweep.consistent
    )
    ok = within and rep.consistent and trending_to_zero
    assert _verdict(
        "A11",
        ok,
        f"stacked bounds in [m*p,M*P] (within={within}), "
        f"common-zero lower trend {tuple(f'{v:.1e}' for v in sweep.lowers)}",
    )


def test_a12_dictionary_unitarity():
    grid = make_grid(E_HALF, 64)
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        hat = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        gen = Generator(SampledFunction(grid, hat))
        f_hat = SampledFunction(
            grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        )
        n_pts = int(rng.integers(5, 13))
        ps = PointSet.from_1d(np.sort(rng.uniform(-20.0, 20.0, n_pts)))
        sf = oracle_frame_sums(translate_system(gen, ps, gen.grid), f_hat)
        st = time_frame_sum(gen, ps, f_hat)
        worst = max(worst, abs(st - sf) / abs(sf))
    ok = worst <= 1e-6
    assert _verdict("A12", ok, f"time vs frequency frame sums: worst rel dev {worst:.2e}")
