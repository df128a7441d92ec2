"""Bounds that do not depend on where the band sits.  Translating E by s
multiplies each member e_lambda by the constant e^{-2 pi i lambda s}, and
translating Lambda by sigma multiplies every member by e^{-2 pi i sigma t}:
both are unimodular multipliers, which keep the bounds, the rank and the
flags.  Each route that ``measure_bounds`` or ``reconstruct`` takes is
checked against the untranslated system: the real S and the real G of a
bare one-interval system, the complex S and G of a product with an
asymmetric modulus, the dense S and G of a two-interval grid, and the
FFT-applied frame operator of conjugate gradients.  Shifts of Lambda reach
1e15 on dyadic steps, where every phase product is exact."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framelab.domain import Domain, SampledFunction, make_grid
from framelab.errors import PhaseError
from framelab.framecore import (
    RECON_TOL,
    _frame_operator,
    _drifts,
    _gram_operator,
    check_phases,
    exponential_system,
    frame_operator_apply,
    measure_bounds,
    reconstruct,
)
from framelab.multiplication import multiply_system, refine_check
from framelab.pointset import PointSet
from framelab.translates import UnionPart, UnionSpec, obstruction_trend, union_sweep

EPS = np.finfo(float).eps
ROUTES = ("real S", "real G", "complex product", "multi-interval", "CG")
# interval ends are multiples of 1/8, so E + s is exact
SHIFTS = (0.0, 1e3, 1e6, 1e9, 1e12)
# a shift of Lambda this far keeps its phases only where h lambda and the
# second interval's offset times lambda are exact: on steps 1 / n_per_unit
# for n_per_unit a power of two, with the second interval 2 after the first
FAR = 1e15


def intervals(rng, route, far=False):
    """One interval [a, a + l], or two with a gap, ends in eighths; ``far``
    starts the second 2 after the first."""
    a = int(rng.integers(-16, 17)) / 8
    length = int(rng.integers(4, 13)) / 8
    if route != "multi-interval":
        return [(a, a + length)]
    gap = 2 - length if far else int(rng.integers(1, 9)) / 8
    second = int(rng.integers(4, 13)) / 8
    return [(a, a + length), (a + length + gap, a + length + gap + second)]


def frequencies(rng, route, n, measure):
    """A jittered lattice of spacing 1 / |E|: K > 1024 for the real S alone,
    K < n for the real G alone, and a frame of n <= K < 2n otherwise."""
    if route == "real S":
        k = 1100
    elif route == "real G":
        k = int(rng.integers(8, 40))
    else:
        k = int(rng.integers(n, 2 * n))
    return (np.arange(k) - k // 2 + rng.uniform(-0.2, 0.2, k)) / measure


def translated(route, ivs, n_per_unit, lam, phi, s, sigma):
    grid = make_grid(Domain([(a + s, b + s) for a, b in ivs]), n_per_unit)
    sys = exponential_system(grid, PointSet.from_1d(lam + sigma))
    if phi is not None:
        sys = multiply_system(sys, SampledFunction(grid, phi))
    return sys


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(ROUTES),
    st.sampled_from(SHIFTS),
    st.sampled_from([0.0, 0.375, -12.5, 1000.0, FAR]),
)
@example(seed=1, route="multi-interval", s=1e13, sigma=0.0)
@example(seed=2, route="real S", s=1e12, sigma=FAR)
@example(seed=3, route="real G", s=0.0, sigma=-FAR)
@example(seed=4, route="complex product", s=1e3, sigma=FAR)
@example(seed=5, route="multi-interval", s=1e13, sigma=FAR)
@example(seed=6, route="CG", s=1e9, sigma=-FAR)
@settings(max_examples=100)
def test_translation_keeps_the_bounds(seed, route, s, sigma):
    rng = np.random.default_rng(seed)
    far = abs(sigma) == FAR
    ivs = intervals(rng, route, far)
    n_per_unit = 2100 if route == "real G" else int(rng.integers(16, 49))
    if far:
        n_per_unit = 2048 if route == "real G" else 2 ** int(rng.integers(4, 6))
    hull = ivs[-1][1] - ivs[0][0]
    n = make_grid(Domain(ivs), n_per_unit).size
    lam = frequencies(rng, route, n, sum(b - a for a, b in ivs))
    if far:
        # lambda + sigma rounds to eighths; the reference takes the frequencies
        # the shifted system has, less sigma, exactly
        lam = (lam + sigma) - sigma
    phi = None
    if route == "complex product":
        phi = np.linspace(0.5, 2.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))

    ref = translated(route, ivs, n_per_unit, lam, phi, 0.0, 0.0)
    sys = translated(route, ivs, n_per_unit, lam, phi, s, sigma)
    # the route under test is the one both systems take
    real = route in ("real S", "real G", "CG")
    if route != "real G":
        assert (_frame_operator(sys).dtype == np.float64) == real
    if route != "real S":
        assert (_gram_operator(sys).dtype == np.float64) == real

    # s scales the columns and sigma the rows by unimodular constants; the
    # nodes themselves round to ulp(s), which the bounds must not see beyond
    # a few eps * s * max|lambda| of each bound, nor sigma beyond a few eps *
    # sigma * hull of the upper bound, unless every phase product is exact
    want = measure_bounds(ref)
    rel = 4 * EPS * s * np.abs(lam).max()
    floor = (1e-13 + (0.0 if far else 4 * EPS * abs(sigma) * hull)) * want.upper
    if route == "CG":
        # a target that moves with the members, times e^{-2 pi i sigma t}, meets
        # the old frame operator conjugated by that row scaling, and its
        # coefficients move by unimodular constants
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        phase = sigma * ref.grid.nodes
        row = np.exp(-2j * np.pi * (phase - np.round(phase)))
        applied = frame_operator_apply(sys, SampledFunction(sys.grid, row * f)).values
        expected = row * frame_operator_apply(ref, SampledFunction(ref.grid, f)).values
        assert np.linalg.norm(applied - expected) <= floor * np.linalg.norm(f)
        c = np.abs(reconstruct(ref, SampledFunction(ref.grid, f)).coeffs)
        moved = np.abs(reconstruct(sys, SampledFunction(sys.grid, row * f)).coeffs)
        # both solves stop at a relative residual of RECON_TOL, which moves
        # the coefficients by at most this share of their norm
        share = 2 * RECON_TOL * want.upper / want.lower
        assert np.linalg.norm(moved - c) <= share * np.linalg.norm(c)
        return

    got = measure_bounds(sys)
    assert got.rank == want.rank
    assert got.flags == want.flags
    assert got.lower == pytest.approx(want.lower, rel=rel, abs=floor)
    assert got.upper == pytest.approx(want.upper, rel=rel, abs=floor)
    if want.gram_extremes is None:
        assert got.gram_extremes is None
    else:
        assert got.gram_extremes == pytest.approx(want.gram_extremes, rel=rel, abs=floor)


def far_system(n_per_unit, s):
    """The 24 points k / 1.2 (k = -12..11) and +-s on [0, 1]."""
    grid = make_grid(Domain([(0.0, 1.0)]), n_per_unit)
    lam = np.concatenate([np.arange(-12, 12) / 1.2, [-s, s]])
    return exponential_system(grid, PointSet.from_1d(lam))


@pytest.mark.parametrize("s", [1e11, 1e12, 1e14])
def test_far_points_on_a_dyadic_step_keep_the_near_bounds(s):
    """At 16 nodes per unit h s is an integer for s = 1e6 and each s here, so
    +-s alias to the frequency 0 exactly and the bounds are those of 1e6."""
    want, got = (measure_bounds(far_system(16, far)) for far in (1e6, s))
    assert got.spectra_cross_checked and want.spectra_cross_checked
    assert got.rank == want.rank
    assert got.lower == pytest.approx(want.lower, rel=1e-12)
    assert got.upper == pytest.approx(want.upper, rel=1e-12)


@pytest.mark.parametrize("n_per_unit, s, refused", [
    (16, 1e15 + 0.3, False),
    (16, 1e154, False),
    (10, 1e6, False),
    (10, 1e10, False),
    (10, 1e7 + 0.3, True),
    (10, 2.0**50, True),
    (10, 1e15 + 0.3, True),
    (10, 1e301, True),
])
def test_phases_past_the_bound_are_refused(n_per_unit, s, refused):
    """A dyadic step rounds no product h lambda, whatever |lambda|.  At h =
    fl(0.1) the step's phase is judged against lambda / 10: 1e6 and 1e10
    round to it exactly, while 1e7 + 0.3 drifts by 7e-11 cycles a row and
    2^50, whose product with fl(0.1) is exact, by 6e-3.  Past about 1e300,
    where the error-free product's split overflows, |lambda| is refused on
    any step."""
    grid = make_grid(Domain([(0.0, 1.0)]), n_per_unit)
    lam = np.array([-s, 0.5, s])
    if not refused:
        check_phases(grid, lam)
        return
    with pytest.raises(ValueError, match="round their phases on this grid"):
        check_phases(grid, lam)
    with pytest.raises(ValueError, match="round their phases on this grid"):
        exponential_system(grid, PointSet.from_1d(lam))


@pytest.mark.parametrize("sweep", ["refine_check", "union_sweep", "obstruction_trend"])
def test_sweeps_refuse_a_far_level_before_any_eigensolve(monkeypatch, sweep):
    """On [0, 1] the 24 points k / 1.2 and +-(1e15 + 0.3) keep their phases at
    16 nodes per unit, a dyadic step, and drift past the bound at 20: each
    sweep builds both levels' systems first, so it measures neither."""
    dom = Domain([(0.0, 1.0)])
    s = 1e15 + 0.3
    ps = PointSet.from_1d(np.concatenate([np.arange(-12, 12) / 1.2, [-s, s]]))
    check_phases(make_grid(dom, 16), ps.xs)
    phi = lambda t: 2 + np.sin(t)
    run = {
        "refine_check": lambda: refine_check(dom, lambda g: exponential_system(g, ps), phi,
                                             levels=(16, 20)),
        "union_sweep": lambda: union_sweep(UnionSpec([UnionPart(dom, phi)], ps),
                                           levels=(16, 20)),
        "obstruction_trend": lambda: obstruction_trend(dom, phi, levels=(16, 20),
                                                       lattice_for=lambda g: ps),
    }[sweep]
    eigensolves = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda *a, **k: eigensolves.append(a) or eigvalsh(*a, **k))
    with pytest.raises(PhaseError, match="round their phases on this grid"):
        run()
    assert eigensolves == []


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_phase_drift_is_exact(seed):
    """``_drifts`` gives, in exact arithmetic, |fl(d lambda) - d* lambda| + (m
    - 1) |fl(h lambda) - lambda length / m| per interval, with d the
    builder's offset and d* = (a - a_0) + (length / m - length_0 / m_0) / 2
    the exact one, for ends, steps and frequencies that round anywhere."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1e3, 1e3)
    ends = np.cumsum([a, *rng.uniform(0.1, 3.0, 3)])
    ivs = [(ends[0], ends[1]), (ends[2], ends[3])]
    grid = make_grid(Domain(ivs), int(rng.integers(8, 200)))
    lam = rng.uniform(-1, 1, 6) * 10.0 ** rng.uniform(0, 12, 6)
    got = np.array(list(_drifts(grid, lam)))
    (a0, b0), h0 = ivs[0], grid.steps[0]
    m0 = int(np.sum(grid.interval_index == 0))
    for i, ((lo, hi), h) in enumerate(zip(ivs, grid.steps)):
        m = int(np.sum(grid.interval_index == i))
        d = (lo - a0) + (h - h0) / 2
        exact_d = (F(lo) - F(a0)) + (F(hi - lo) / m - F(b0 - a0) / m0) / 2
        for k, x in enumerate(lam):
            want = (abs(F(d * x) - exact_d * F(x))
                    + (m - 1) * abs(F(h * x) - F(x) * F(hi - lo) / m))
            assert got[i, k] == pytest.approx(float(want), rel=1e-12, abs=1e-300)
