"""The real route for the Gram matrix: an exponential system on a uniform
one-interval grid, unmultiplied or times a multiplier whose modulus is its
own reversal, has its Gram diagonalized as the real Re(V^H V) of the member
matrix centred on the grid.  Its spectrum is checked against the complex
``gram()`` of the same member matrix, and the reports against a copy built
from the raw matrix, which always takes the complex route."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framelab.framecore as framecore
from framelab.domain import Domain, SampledFunction, make_grid
from framelab.errors import FrameLabError
from framelab.expr import parse_multiplier
from framelab.framecore import (RANK_TOL, SynthesisSystem, _frame_operator, _gram_operator,
                                exponential_system, gram, measure_bounds)
from framelab.multiplication import multiply_system
from framelab.pointset import PointSet
from support import jittered_lattice

CASES = ("unmultiplied", "mirror", "asymmetric")


def off_centre_system(rng, n_per_unit, wide):
    """Jittered frequencies on [a, b] with a random a and length, K <= n or
    (``wide``) K > n."""
    a = rng.uniform(-3.0, 3.0)
    length = rng.uniform(0.5, 2.0)
    grid = make_grid(Domain([(a, a + length)]), n_per_unit)
    n = grid.size
    k = int(rng.integers(n + 1, 2 * n + 1) if wide else rng.integers(1, n + 1))
    spacing = rng.uniform(0.6, 1.4) / length
    lam = (np.arange(k) - k // 2 + rng.uniform(-0.3, 0.3, k)) * spacing
    return exponential_system(grid, PointSet.from_1d(lam))


def multiplier(rng, grid, case):
    """None, an even modulus times arbitrary phases, or a modulus that is
    not its own reversal."""
    n = grid.size
    if case == "unmultiplied":
        return None
    if case == "mirror":
        mod = rng.uniform(0.1, 1.0, n)
        mod = mod + mod[::-1]
    else:
        mod = np.linspace(0.5, 2.0, n) * rng.uniform(0.9, 1.1, n)
    return SampledFunction(grid, mod * np.exp(2j * np.pi * rng.uniform(size=n)))


def clipped_extremes(eigs):
    return float(max(eigs[0], 0.0)), float(max(eigs[-1], 0.0))


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=4, max_value=100),
    st.booleans(),
    st.sampled_from(CASES),
)
def test_real_gram_matches_complex_gram(seed, n_per_unit, wide, case):
    rng = np.random.default_rng(seed)
    sys = off_centre_system(rng, n_per_unit, wide)
    phi = multiplier(rng, sys.grid, case)
    if phi is not None:
        sys = multiply_system(sys, phi)

    G = _gram_operator(sys)
    assert G.dtype == (np.complex128 if case == "asymmetric" else np.float64)
    eigs = np.linalg.eigvalsh(G)
    reference = np.linalg.eigvalsh(gram(sys))
    assert np.abs(eigs - reference).max() <= 1e-12 * max(reference[-1], 1e-300)

    rep = measure_bounds(sys)
    raw = measure_bounds(SynthesisSystem(sys.grid, sys.matrix, sys.labels))
    n, k = sys.grid.size, sys.size
    if k > n:
        assert rep.gram_extremes is None and raw.gram_extremes is None
    else:
        # the report reads exactly the route's own extremes
        assert rep.gram_extremes == clipped_extremes(eigs)
        g_min, g_max = clipped_extremes(reference)
        assert rep.gram_extremes == pytest.approx((g_min, g_max), abs=1e-12 * g_max)
        assert rep.flags.riesz_sequence == (g_max > 0.0 and g_min > RANK_TOL * g_max)
        if case == "asymmetric":
            assert rep.gram_extremes == raw.gram_extremes
    assert rep.flags.riesz_sequence == raw.flags.riesz_sequence
    assert rep.spectra_cross_checked and raw.spectra_cross_checked


def test_only_structured_systems_with_an_even_modulus_take_the_real_gram():
    grid = make_grid(Domain([(0.0, 1.0)]), 64)
    sys = exponential_system(grid, jittered_lattice(80, 3))

    def route(system):
        return _gram_operator(system).dtype

    assert route(sys) == np.float64
    assert route(multiply_system(sys, parse_multiplier("t - 0.5").sample(grid))) == np.float64
    assert route(multiply_system(sys, parse_multiplier("2 + sin(2 * pi * t)").sample(grid))) \
        == np.complex128
    union = make_grid(Domain([(0.0, 0.4), (0.6, 1.0)]), 64)
    assert route(exponential_system(union, jittered_lattice(40, 3))) == np.complex128
    assert route(SynthesisSystem(grid, sys.matrix, sys.labels)) == np.complex128


def test_one_modulus_rule_routes_s_and_g(monkeypatch):
    grid = make_grid(Domain([(0.0, 1.0)]), 64)
    mult = multiply_system(exponential_system(grid, jittered_lattice(48, 7)),
                           parse_multiplier("1 - abs(2 * (t - 0.5))").sample(grid))
    assert _frame_operator(mult).dtype == _gram_operator(mult).dtype == np.float64
    real = measure_bounds(mult)
    # a negative tolerance admits no nonzero modulus: both routes turn complex
    monkeypatch.setattr(framecore, "_MIRROR_ULPS", -1)
    assert _frame_operator(mult).dtype == _gram_operator(mult).dtype == np.complex128
    reference = measure_bounds(mult)
    assert real.rank == reference.rank
    assert real.gram_extremes == pytest.approx(reference.gram_extremes,
                                               abs=1e-12 * reference.upper)


def _overflowing(route):
    """A system whose measurement overflows on ``route``: up to 1024 nodes S
    is formed first; past it only G is."""
    n_per_unit = 1100 if route.endswith("G") else 32
    grid = make_grid(Domain([(0.0, 1.0)]), n_per_unit)
    if route == "dense":
        return SynthesisSystem(grid, np.full((grid.size, 8), 1e200, dtype=complex))
    # finite samples whose squares overflow: an even modulus, or one rising
    # across the grid
    ramp = 1.0 if route.startswith("real") else np.linspace(1.0, 2.0, grid.size)
    sys = exponential_system(grid, PointSet.from_1d(np.arange(8) - 4.0))
    mult = multiply_system(sys, SampledFunction(grid, 1e170 * ramp * np.ones(grid.size)))
    form = _gram_operator if route.endswith("G") else _frame_operator
    with np.errstate(over="ignore", invalid="ignore"):
        assert (form(mult).dtype == np.float64) == route.startswith("real")
    return mult


@pytest.mark.parametrize("route", ["real S", "complex S", "real G", "complex G", "dense"])
def test_overflow_is_a_frame_lab_error_on_every_route(route):
    sys = _overflowing(route)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FrameLabError, match="overflow"):
            measure_bounds(sys)


@pytest.mark.parametrize("case", ["unmultiplied", "mirror"])
@pytest.mark.parametrize("k", [20, 48])
def test_real_routes_are_translation_invariant(case, k):
    """Translating E by s scales each member by a unimodular constant, which
    keeps the bounds: on [s, s + 1] with 32 nodes (K <= n and K > n) the
    bounds, rank and Gram extremes stay those of s = 0, to a few eps * s *
    max|lambda|, with S and G both on their real forms."""
    lam = jittered_lattice(48, 5).xs[:k]
    reports = {}
    for s in (0.0, 1e6, 1e9, 1e10, 1e12):
        grid = make_grid(Domain([(s, s + 1.0)]), 32)
        sys = exponential_system(grid, PointSet.from_1d(lam))
        phi = multiplier(np.random.default_rng(9), grid, case)
        if phi is not None:
            sys = multiply_system(sys, phi)
        assert _frame_operator(sys).dtype == _gram_operator(sys).dtype == np.float64
        reports[s] = measure_bounds(sys)
        assert reports[s].spectra_cross_checked
    ref = reports[0.0]
    for s, rep in reports.items():
        tol = (1e-14 + 4 * np.finfo(float).eps * s * np.abs(lam).max()) * ref.upper
        assert rep.rank == ref.rank
        assert rep.lower == pytest.approx(ref.lower, abs=tol)
        assert rep.upper == pytest.approx(ref.upper, abs=tol)
        if k <= grid.size:
            assert rep.gram_extremes == pytest.approx(ref.gram_extremes, abs=tol)
        else:
            assert rep.gram_extremes is None
