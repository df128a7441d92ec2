"""The real route for products with a mirror-symmetric modulus: a structured
product whose modulus |phi| equals its own reversal is solved as the real
symmetric diag(d) R diag(d), R the real form of the Toeplitz T.  Its spectrum
is checked against the complex route diag(phi) T diag(conj(phi)) and against
the squared singular values of the weighted member matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framelab.framecore as framecore
from framelab.domain import Domain, SampledFunction, make_grid
from framelab.expr import parse_multiplier
from framelab.framecore import _frame_operator, _toeplitz, exponential_system, measure_bounds
from framelab.multiplication import multiply_system
from framelab.pointset import PointSet
from support import jittered_lattice, oracle_bounds_svd


def complex_route(sys):
    """diag(phi) T diag(conj(phi)) from the product's column and multiplier."""
    phi = sys._multiplier
    return phi[:, None] * _toeplitz(sys._column) * phi.conj()


def svd_spectrum(sys):
    """Squared singular values of the weighted matrix, ascending, padded with
    zeros to the node count."""
    s = np.linalg.svd(sys.weighted, compute_uv=False)
    return np.sort(np.concatenate([s**2, np.zeros(max(0, sys.grid.size - s.size))]))


def mirrored_multiplier(rng, grid, zeros=0):
    """A random even modulus times a random phase, so phi itself is not even;
    ``zeros`` mirrored pairs of nodes get phi = 0."""
    n = grid.size
    mod = rng.uniform(0.0, 1.0, n)
    mod = mod + mod[::-1]
    if zeros:
        at = rng.choice(n, size=min(zeros, n), replace=False)
        mod[at] = mod[n - 1 - at] = 0.0
    return SampledFunction(grid, mod * np.exp(2j * np.pi * rng.uniform(size=n)))


def product_system(seed, n, n_members):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2.0, 2.0)
    grid = make_grid(Domain([(a, a + 1.0)]), n)
    assert grid.size == n
    lam = rng.uniform(-0.75 * n, 0.75 * n, n_members)
    return rng, exponential_system(grid, PointSet.from_1d(lam))


def assert_real_route_matches(sys):
    S = _frame_operator(sys)
    assert S.dtype == np.float64
    real = np.linalg.eigvalsh(S)
    reference = np.linalg.eigvalsh(complex_route(sys))
    tol = 1e-12 * max(reference[-1], 1e-300)
    assert np.abs(real - reference).max() <= tol
    assert np.abs(real - svd_spectrum(sys)).max() <= tol


node_counts = st.one_of(
    st.just(1),
    st.just(2),
    st.integers(min_value=1, max_value=120).map(lambda m: 2 * m + 1),
    st.integers(min_value=2, max_value=120).map(lambda m: 2 * m),
)


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    node_counts,
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=0, max_value=3),
)
def test_mirrored_modulus_takes_real_route(seed, n, n_members, zeros):
    rng, sys = product_system(seed, n, n_members)
    phi = mirrored_multiplier(rng, sys.grid, zeros)
    assert_real_route_matches(multiply_system(sys, phi))


def test_product_of_two_mirrored_multipliers_takes_real_route():
    rng, sys = product_system(3, 200, 260)
    first = multiply_system(sys, mirrored_multiplier(rng, sys.grid))
    both = multiply_system(first, mirrored_multiplier(rng, sys.grid, zeros=4))
    d = np.abs(both._multiplier)
    assert not np.array_equal(d, d[::-1])  # the accumulated product rounds asymmetrically
    assert_real_route_matches(both)


def test_asymmetric_modulus_stays_complex():
    rng, sys = product_system(5, 128, 160)
    phi = mirrored_multiplier(rng, sys.grid).values
    d = np.abs(phi)
    # one node off its mirror by 64 ulps of max |phi|: past the tolerance
    phi[0] *= 1.0 + 64 * np.finfo(float).eps * d.max() / d[0]
    mult = multiply_system(sys, SampledFunction(sys.grid, phi))
    S = _frame_operator(mult)
    assert S.dtype == np.complex128
    assert np.array_equal(S, complex_route(mult))


def test_measure_bounds_on_real_route_matches_complex_route(monkeypatch):
    grid = make_grid(Domain([(0.0, 1.0)]), 1024)
    sys = exponential_system(grid, jittered_lattice(1280, 11))
    mult = multiply_system(sys, parse_multiplier("t - 0.5").sample(grid))
    assert _frame_operator(mult).dtype == np.float64
    real = measure_bounds(mult)
    # a negative tolerance admits no nonzero modulus: every product is complex
    monkeypatch.setattr(framecore, "_MIRROR_ULPS", -1)
    assert _frame_operator(mult).dtype == np.complex128
    reference = measure_bounds(mult)
    assert real.rank == reference.rank
    for x, y in [(real.lower, reference.lower), (real.upper, reference.upper),
                 *zip(real.spectrum, reference.spectrum)]:
        assert x == pytest.approx(y, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("expr", ["t - 0.5", "exp(2 * pi * i * 3 * t)", "1 - abs(2 * (t - 0.5))"])
def test_real_route_bounds_agree_with_svd_oracle(expr):
    grid = make_grid(Domain([(0.0, 1.0)]), 96)
    mult = multiply_system(exponential_system(grid, jittered_lattice(120, 4)),
                           parse_multiplier(expr).sample(grid))
    assert _frame_operator(mult).dtype == np.float64
    rep = measure_bounds(mult)
    lo, hi, rank = oracle_bounds_svd(mult)
    assert rep.rank == rank
    assert rep.upper == pytest.approx(hi, rel=1e-9)
    assert rep.lower == pytest.approx(lo, rel=1e-9)
