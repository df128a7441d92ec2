"""Bounds that do not depend on where the band sits.  Translating E by s
multiplies each member e_lambda by the constant e^{-2 pi i lambda s}, and
translating Lambda by sigma multiplies every member by e^{-2 pi i sigma t}:
both are unimodular multipliers, which keep the bounds, the rank and the
flags.  Each route that ``measure_bounds`` or ``reconstruct`` takes is
checked against the untranslated system: the real S and the real G of a
bare one-interval system, the complex S and G of a product with an
asymmetric modulus, the dense S and G of a two-interval grid, and the
FFT-applied frame operator of conjugate gradients."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framelab.domain import Domain, SampledFunction, make_grid
from framelab.framecore import (
    RECON_TOL,
    _frame_operator,
    _gram_operator,
    exponential_system,
    frame_operator_apply,
    measure_bounds,
    reconstruct,
)
from framelab.multiplication import multiply_system
from framelab.pointset import PointSet

EPS = np.finfo(float).eps
ROUTES = ("real S", "real G", "complex product", "multi-interval", "CG")
# interval ends are multiples of 1/8, so E + s is exact
SHIFTS = (0.0, 1e3, 1e6, 1e9, 1e12)


def intervals(rng, route):
    """One interval [a, a + l], or two with a gap, ends in eighths."""
    a = int(rng.integers(-16, 17)) / 8
    length = int(rng.integers(4, 13)) / 8
    if route != "multi-interval":
        return [(a, a + length)]
    gap = int(rng.integers(1, 9)) / 8
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
    st.sampled_from([0.0, 0.375, -12.5, 1000.0]),
)
@example(seed=1, route="multi-interval", s=1e13, sigma=0.0)
@settings(max_examples=100)
def test_translation_keeps_the_bounds(seed, route, s, sigma):
    rng = np.random.default_rng(seed)
    ivs = intervals(rng, route)
    n_per_unit = 2100 if route == "real G" else int(rng.integers(16, 49))
    hull = ivs[-1][1] - ivs[0][0]
    n = make_grid(Domain(ivs), n_per_unit).size
    lam = frequencies(rng, route, n, sum(b - a for a, b in ivs))
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
    # sigma * hull of the upper bound
    want = measure_bounds(ref)
    rel = 4 * EPS * s * np.abs(lam).max()
    floor = (1e-13 + 4 * EPS * abs(sigma) * hull) * want.upper
    if route == "CG":
        # a target that moves with the members, times e^{-2 pi i sigma t}, meets
        # the old frame operator conjugated by that row scaling, and its
        # coefficients move by unimodular constants
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        row = np.exp(-2j * np.pi * sigma * ref.grid.nodes)
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
