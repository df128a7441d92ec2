"""The structured route of ``measure_bounds``: exponential systems on a
uniform one-interval grid, and their products with multipliers, form the
frame operator from its Toeplitz column; the unmultiplied one is solved in
its real form.  Every structured spectrum is checked against the dense
product U @ U^H, and the bounds against the SVD oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framelab.framecore as framecore
from framelab.domain import Domain, SampledFunction, make_grid
from framelab.errors import FrameLabError
from framelab.framecore import (
    SynthesisSystem,
    _apply_frame_operator,
    _frame_operator,
    _gram_operator,
    _real_form,
    _toeplitz,
    exponential_system,
    gram,
    measure_bounds,
)
from framelab.multiplication import (
    check_converse,
    check_frame_sequence_multiplication,
    check_riesz_multiplication,
    multiply_system,
)
from framelab.pointset import PointSet
from support import dft_base, oracle_bounds_svd


def dense_spectrum(sys):
    U = sys.weighted
    return np.linalg.eigvalsh(U @ U.conj().T)


def random_multiplier(rng, grid):
    """Complex node values with modulus in [0.5, 2]."""
    mod = rng.uniform(0.5, 2.0, grid.size)
    return SampledFunction(grid, mod * np.exp(2j * np.pi * rng.uniform(size=grid.size)))


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.25, max_value=3.0),
    st.integers(min_value=2, max_value=300),
    st.integers(min_value=1, max_value=400),
)
def test_structured_spectra_match_dense(seed, a, length, n_nodes, n_members):
    rng = np.random.default_rng(seed)
    grid = make_grid(Domain([(a, a + length)]), max(1, int(n_nodes / length)))
    assert grid.size <= 300
    nyquist = grid.size / (2.0 * length)
    lam = rng.uniform(-1.5 * nyquist, 1.5 * nyquist, n_members)
    sys = exponential_system(grid, PointSet.from_1d(lam))
    c = sys._column
    assert c is not None and c.shape == (grid.size,)

    dense = dense_spectrum(sys)
    tol = 1e-12 * dense[-1]
    real = _real_form(c)
    assert real.dtype == np.float64
    assert np.array_equal(real, real.T)
    assert np.abs(np.linalg.eigvalsh(_toeplitz(c)) - dense).max() <= tol
    assert np.abs(np.linalg.eigvalsh(real) - dense).max() <= tol

    mult = multiply_system(sys, random_multiplier(rng, grid))
    dense_mult = dense_spectrum(mult)
    structured = np.linalg.eigvalsh(_frame_operator(mult))
    assert np.abs(structured - dense_mult).max() <= 1e-12 * dense_mult[-1]


@settings(max_examples=30)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=4, max_value=100),
    st.sampled_from(["K < n", "K = n", "K > n"]),
)
def test_bare_system_is_its_product_with_ones(seed, n_per_unit, shape):
    """The bare exponential system on an off-centre interval is its own
    product with phi = 1, to the bit, on every structured route."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-3.0, 3.0)
    length = rng.uniform(0.5, 2.0)
    grid = make_grid(Domain([(a, a + length)]), n_per_unit)
    n = grid.size
    k = {"K < n": max(1, n // 2), "K = n": n, "K > n": 2 * n}[shape]
    lam = (np.arange(k) - k // 2 + rng.uniform(-0.3, 0.3, k)) / length
    bare = exponential_system(grid, PointSet.from_1d(lam))
    ones = multiply_system(bare, SampledFunction(grid, np.ones(n)))
    assert np.array_equal(bare._multiplier, np.ones(n))

    S = _frame_operator(bare)
    assert S.dtype == np.float64
    assert np.array_equal(S, _frame_operator(ones))
    assert np.array_equal(_gram_operator(bare), _gram_operator(ones))
    p = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.array_equal(_apply_frame_operator(bare, p), _apply_frame_operator(ones, p))
    assert measure_bounds(bare).to_dict() == measure_bounds(ones).to_dict()


@pytest.mark.parametrize("structured", [True, False])
def test_disagreeing_s_and_gram_spectra_fail_the_cross_check(monkeypatch, structured):
    grid = make_grid(Domain([(0.0, 1.0)]), 64)
    sys = dft_base(grid) if structured else SynthesisSystem(grid, dft_base(grid).matrix)
    assert (sys._column is not None) == structured
    assert measure_bounds(sys).spectra_cross_checked
    original = framecore._gram_operator
    monkeypatch.setattr(framecore, "_gram_operator", lambda s: original(s) * (1 + 1e-6))
    with pytest.raises(FrameLabError, match="spectral cross-check failed"):
        measure_bounds(sys)


def test_toeplitz_column_matches_dense_operator():
    grid = make_grid(Domain([(-0.5, 1.5)]), 40)
    sys = exponential_system(grid, PointSet.from_1d(np.linspace(-30.0, 30.0, 97)))
    U = sys.weighted
    dense = U @ U.conj().T
    assert np.abs(_toeplitz(sys._column) - dense).max() <= 1e-13 * np.abs(dense).max()


def oversampled(n_nodes: int, n_members: int, seed: int) -> PointSet:
    """Jittered lattice of n_members frequencies with spacing n_nodes / n_members
    (at most 1 for K >= n: a frame; exactly 1 for K < n: a Riesz sequence)."""
    rng = np.random.default_rng(seed)
    k = np.arange(n_members) - n_members // 2
    step = min(1.0, n_nodes / n_members)
    return PointSet.from_1d((k + rng.uniform(-0.2, 0.2, n_members)) * step)


@pytest.mark.parametrize("n_nodes, n_members", [(64, 80), (128, 160), (96, 96), (120, 60)])
@pytest.mark.parametrize("seed", [1, 2])
def test_measure_bounds_agrees_with_svd_oracle(n_nodes, n_members, seed):
    grid = make_grid(Domain([(0.0, 1.0)]), n_nodes)
    sys = exponential_system(grid, oversampled(n_nodes, n_members, seed))
    phi = random_multiplier(np.random.default_rng(seed), grid)
    for s in (sys, multiply_system(sys, phi)):
        rep = measure_bounds(s)
        lo, hi, rank = oracle_bounds_svd(s)
        assert rep.rank == rank == min(n_nodes, n_members)
        assert rep.upper == pytest.approx(hi, rel=1e-9)
        assert rep.lower == pytest.approx(lo, rel=1e-9)


def record_routes(monkeypatch):
    """Wrap ``_frame_operator`` and record (nodes, structured) per call."""
    routes = []
    original = framecore._frame_operator

    def recording(sys):
        routes.append((sys.grid.size, sys._column is not None))
        return original(sys)

    monkeypatch.setattr(framecore, "_frame_operator", recording)
    return routes


def test_dense_route_for_multi_interval_grids_and_raw_matrices(monkeypatch):
    routes = record_routes(monkeypatch)
    two = make_grid(Domain([(0.0, 1.0), (2.0, 2.5)]), 32)
    lam = np.arange(-30, 30, dtype=float)
    multi = exponential_system(two, PointSet.from_1d(lam))
    phi = SampledFunction(two, np.full(two.size, 2.0 + 0j))
    one = make_grid(Domain([(0.0, 1.0)]), 32)
    raw = SynthesisSystem(one, exponential_system(one, PointSet.from_1d(lam)).matrix)
    for s in (multi, multiply_system(multi, phi), raw):
        measure_bounds(s)
    assert routes == [(two.size, False), (two.size, False), (one.size, False)]


def test_frame_sequence_check_takes_only_the_structured_routes(monkeypatch):
    routes = record_routes(monkeypatch)
    g = make_grid(Domain([(0.0, 1.0)]), 64)
    sys = dft_base(g)
    chi = SampledFunction(g, (g.nodes < 0.5).astype(complex))
    rep = check_frame_sequence_multiplication(sys, chi)
    assert rep.details["ambient_invariant"] and rep.details["rank_matches_support"]
    # base and multiplied systems structured, and no third (padded) system
    assert routes == [(g.size, True), (g.size, True)]


def test_converse_composes_multiplier_with_its_inverse():
    g = make_grid(Domain([(-0.5, 0.5)]), 128)
    rng = np.random.default_rng(7)
    sys = exponential_system(g, oversampled(g.size, 150, 7))
    phi = random_multiplier(rng, g)
    mult = multiply_system(sys, phi)
    recovered = multiply_system(mult, SampledFunction(g, 1.0 / phi.values))
    assert np.array_equal(recovered._multiplier, phi.values * (1.0 / phi.values))
    dense = dense_spectrum(recovered)
    assert np.abs(np.linalg.eigvalsh(_frame_operator(recovered)) - dense).max() <= (
        1e-12 * dense[-1]
    )
    rep = check_converse(mult, phi)
    base = measure_bounds(sys)
    assert rep.base_report.lower == pytest.approx(base.lower, rel=1e-9)
    assert rep.base_report.upper == pytest.approx(base.upper, rel=1e-9)
    assert rep.base_report.rank == base.rank
    assert rep.consistent


def test_riesz_check_reads_gram_extremes_from_measure_bounds():
    g = make_grid(Domain([(-0.5, 0.5)]), 64)
    sys = exponential_system(g, oversampled(g.size, g.size, 3))
    phi = SampledFunction.from_callable(g, lambda t: 2.0 + np.sin(2 * np.pi * t))
    rep = check_riesz_multiplication(sys, phi)
    assert rep.details["gram_extremes"] == rep.mult_report.gram_extremes
    eigs = np.linalg.eigvalsh(gram(multiply_system(sys, phi)))
    assert rep.details["gram_extremes"] == pytest.approx((eigs[0], eigs[-1]), rel=1e-12)
    assert rep.consistent


@pytest.mark.parametrize("rank_tol", [float("nan"), float("inf"), -float("inf")])
def test_measure_bounds_rejects_non_finite_rank_tol(rank_tol):
    g = make_grid(Domain([(0.0, 1.0)]), 16)
    with pytest.raises(ValueError, match="rank_tol"):
        measure_bounds(dft_base(g), rank_tol)
