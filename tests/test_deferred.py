"""Deferred member matrices: an exponential system, and its products with
multipliers, form U only when something reads ``matrix``.  U is built by
factored products of running powers, one block per interval of the grid
(``_uniform_matrix``), and so is the Toeplitz column of a one-interval grid
(``_toeplitz_column``); U is checked against an extended-precision
reference.  The checks and the expansions report what a system built from
the eager matrix gives."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framelab import translates
from framelab.domain import Domain, SampledFunction, make_grid
from framelab.errors import FrameLabError
from framelab.framecore import (
    SynthesisSystem,
    _toeplitz_column,
    exponential_system,
    measure_bounds,
)
from framelab.multiplication import (
    check_frame_multiplication,
    check_frame_sequence_multiplication,
    check_riesz_multiplication,
    multiply_system,
)
from framelab.pointset import PointSet
from framelab.translates import BumpSpec, build_bump_generator, oversampled_expansions
from support import jittered_lattice


def formed(sys) -> bool:
    return "matrix" in vars(sys)


def eager(grid, lam):
    return np.exp(-2j * np.pi * np.outer(grid.nodes, lam))


LONG_EPS = float(np.finfo(np.longdouble).eps)
DOUBLE_EPS = float(np.finfo(float).eps)
long_double = pytest.mark.skipif(LONG_EPS >= DOUBLE_EPS,
                                 reason="long double is no wider than double here")


def reference_error(grid, lam, mat):
    """Largest |mat - exp(-2 pi i t lambda)| over the exact midpoints t of the
    grid's intervals, each cut into its own equal cells, with t lambda formed
    in long double and reduced mod 1 before its exponential."""
    t = []
    for (a, b), m in zip(grid.domain.intervals, np.bincount(grid.interval_index)):
        a, b = np.longdouble(a), np.longdouble(b)
        j = np.arange(m, dtype=np.longdouble) + np.longdouble(0.5)
        t.append(a + j * ((b - a) / m))
    phase = np.multiply.outer(np.concatenate(t), np.asarray(lam, np.longdouble))
    angle = -8 * np.arctan(np.longdouble(1)) * (phase - np.round(phase))
    return float(np.hypot(mat.real - np.cos(angle), mat.imag - np.sin(angle)).max())


# The reference h U conj(U[0]) rounds each phase 2 pi t lambda to about
# eps * 2 pi |t| |lambda|, so the intervals stay inside |t| <= 0.7, where that
# is at most about 1e-12 for |lambda| <= 2000.
@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=1100),
    st.integers(min_value=1, max_value=1300),
    st.floats(min_value=-0.7, max_value=0.45),
    st.floats(min_value=0.0, max_value=1.0),
)
@example(seed=1, n=1, n_members=7, a=0.0, stretch=1.0)
@example(seed=2, n=1024, n_members=1280, a=0.0, stretch=1.0)
@example(seed=3, n=1025, n_members=1, a=-0.7, stretch=1.0)
@example(seed=4, n=1089, n_members=300, a=-0.5, stretch=0.0)
@example(seed=5, n=1090, n_members=1300, a=0.45, stretch=1.0)
@example(seed=6, n=2, n_members=2, a=0.1, stretch=0.5)
def test_toeplitz_column_matches_dense_column(seed, n, n_members, a, stretch):
    rng = np.random.default_rng(seed)
    length = 0.25 + stretch * (0.45 - a)
    h = length / n
    nodes = a + (np.arange(n) + 0.5) * h
    lam = rng.uniform(-2000.0, 2000.0, n_members)
    U = np.exp(-2j * np.pi * np.outer(nodes, lam))
    dense = h * (U @ U[0].conj())
    c = _toeplitz_column(h, lam, n)
    assert c.shape == (n,)
    assert np.abs(c - dense).max() <= 1e-11 * np.abs(dense).max()


@pytest.mark.parametrize("intervals", [[(0.0, 1.0)], [(-0.5, 0.25), (1.0, 1.5)]])
def test_forced_matrix_is_the_eager_expression(intervals):
    grid = make_grid(Domain(intervals), 48)
    ps = jittered_lattice(70, 4)
    sys = exponential_system(grid, ps)
    assert not formed(sys) and sys.size == 70 and len(sys) == 70
    assert sys.labels == tuple(ps.xs)
    assert sys.matrix is sys.matrix

    phi = np.exp(1j * grid.nodes) * (2.0 + np.cos(3 * grid.nodes))
    base = exponential_system(grid, ps)
    mult = multiply_system(base, SampledFunction(grid, phi))
    assert not formed(mult)
    assert np.array_equal(mult.matrix, phi[:, None] * base.matrix)

    # running powers: at least as close to the exact values as np.exp
    if LONG_EPS >= DOUBLE_EPS:
        pytest.skip("long double is no wider than double here")
    assert reference_error(grid, ps.xs, sys.matrix) <= reference_error(
        grid, ps.xs, eager(grid, ps.xs))


def sizes():
    """Node counts up to 4096, with 1, 2 and the squares B^2 and B^2 + 1 at
    which the factored product changes shape."""
    squares = st.integers(min_value=1, max_value=63).flatmap(
        lambda b: st.sampled_from([b * b, b * b + 1]))
    return st.sampled_from([1, 2]) | squares | st.integers(min_value=1, max_value=4096)


# Both U and the eager expression carry the node rounding eps * max(|a|, |b|)
# into a phase of up to 2 pi * 1.45 * 2000, and U adds about 2 sqrt(n)
# rounded products; over 800 random draws the worst error was 1.8 (U) and 2.3
# (eager) times eps * (1 + 2 pi max(|a|, |b|) max|lambda| + sqrt(n)).
@long_double
@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    sizes(),
    st.integers(min_value=1, max_value=64),
    st.floats(min_value=-0.7, max_value=0.45),
    st.integers(min_value=1, max_value=4),
)
@example(seed=1, n=1, n_members=5, a=-0.7, stretch=1)
@example(seed=2, n=4096, n_members=64, a=0.45, stretch=1)
@example(seed=3, n=63 * 63 + 1, n_members=3, a=-0.5, stretch=4)
@example(seed=4, n=2, n_members=64, a=0.0, stretch=2)
def test_uniform_matrix_matches_the_long_double_reference(seed, n, n_members, a, stretch):
    grid = make_grid(Domain([(a, a + 1 / stretch)]), n * stretch)
    assert grid.size == n and grid.steps is not None and len(grid.steps) == 1
    lam = np.unique(np.random.default_rng(seed).uniform(-2000.0, 2000.0, n_members))
    sys = exponential_system(grid, PointSet.from_1d(lam, box=(-2000.0, 2000.0)))
    reach = max(abs(a), abs(a + 1 / stretch))
    scale = DOUBLE_EPS * (1 + 2 * math.pi * reach * np.abs(lam).max() + math.sqrt(n))
    assert reference_error(grid, lam, sys.matrix) <= 4 * scale


@pytest.mark.parametrize("seed", [1, 2])
def test_expansions_match_a_system_built_from_the_eager_matrix(monkeypatch, seed):
    spec = BumpSpec(Domain([(-0.4, 0.4)]), 0.05)
    grid = make_grid(spec.dilated, 320)
    gen = build_bump_generator(spec, grid)
    ps = jittered_lattice(601, seed)
    rng = np.random.default_rng(seed)
    inside = spec.base_domain.contains(grid.nodes)
    targets = [SampledFunction(grid, (rng.standard_normal(grid.size)
                                      + 1j * rng.standard_normal(grid.size)) * inside)
               for _ in range(2)]
    fast = oversampled_expansions(targets, gen, ps, spec.base_domain)

    build = translates.exponential_system

    def eager_system(g, points):
        sys = build(g, points)
        sys.matrix = eager(g, points.xs)
        return sys

    monkeypatch.setattr(translates, "exponential_system", eager_system)
    slow = oversampled_expansions(targets, gen, ps, spec.base_domain)
    for got, want in zip(fast, slow):
        assert np.linalg.norm(got.alphas - want.alphas) <= 1e-9 * np.linalg.norm(want.alphas)


def test_deferred_system_keeps_the_member_checks():
    grid = make_grid(Domain([(0.0, 1.0)]), 16)
    with pytest.raises(ValueError, match="at least one member"):
        SynthesisSystem._deferred(grid, [], lambda: eager(grid, []))
    with pytest.raises(ValueError, match="one label per member"):
        SynthesisSystem(grid, eager(grid, [0.0, 1.0]), labels=[0.0])


def test_frame_check_past_the_gram_budget_forms_no_matrix(monkeypatch):
    grid = make_grid(Domain([(0.0, 1.0)]), 1024)
    ps = jittered_lattice(1280, 8)
    phi = SampledFunction.from_callable(grid, lambda t: 2.0 + np.sin(2 * np.pi * t))
    products = []
    original = SynthesisSystem.multiplied

    def recording(self, values):
        out = original(self, values)
        products.append(out)
        return out

    monkeypatch.setattr(SynthesisSystem, "multiplied", recording)
    tracemalloc.start()
    try:
        sys = exponential_system(grid, ps)
        rep = check_frame_multiplication(sys, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.consistent and rep.mult_report.n_members == 1280
    assert len(products) == 1
    assert not formed(sys) and not formed(products[0])
    # U alone would be 1024 x 1280 complex entries, 21 MB
    assert peak < 32 * 2**20


def test_budget_is_checked_before_the_matrix_is_formed():
    grid = make_grid(Domain([(0.0, 1.0)]), 1100)
    sys = exponential_system(grid, jittered_lattice(1100, 2))
    with pytest.raises(FrameLabError, match="dense spectral budget"):
        measure_bounds(sys)
    assert not formed(sys)


def assert_same_bounds(lazy, dense):
    assert lazy.rank == dense.rank
    assert lazy.lower == pytest.approx(dense.lower, rel=1e-9)
    assert lazy.upper == pytest.approx(dense.upper, rel=1e-9)


@pytest.mark.parametrize("seed", [1, 2])
def test_checks_match_a_system_built_from_the_forced_matrix(seed):
    grid = make_grid(Domain([(-0.5, 0.5)]), 96)
    rng = np.random.default_rng(seed)
    phi = SampledFunction(grid, rng.uniform(0.5, 2.0, grid.size) + 0j)
    chi = SampledFunction(grid, (grid.nodes < 0.1).astype(complex))

    # Gram path: K <= 1024, so both read the same weighted matrix
    sys = exponential_system(grid, jittered_lattice(120, seed))
    dense = SynthesisSystem(grid, sys.matrix, sys.labels)
    lazy_rep, dense_rep = measure_bounds(sys), measure_bounds(dense)
    assert_same_bounds(lazy_rep, dense_rep)
    assert lazy_rep.spectra_cross_checked and dense_rep.spectra_cross_checked

    # frame-sequence path, padding included
    lazy_fs = check_frame_sequence_multiplication(sys, chi)
    dense_fs = check_frame_sequence_multiplication(dense, chi)
    assert_same_bounds(lazy_fs.mult_report, dense_fs.mult_report)
    assert lazy_fs.details["ambient_bounds"] == pytest.approx(
        dense_fs.details["ambient_bounds"], rel=1e-9
    )
    assert lazy_fs.consistent == dense_fs.consistent

    # Riesz path (a Riesz basis, K = n): phi's modulus is not even, so the
    # product's Gram extremes come from identical complex matrices; the lazy
    # base takes the real Gram and the raw-matrix copy the complex one, so
    # theirs agree to rounding
    riesz = exponential_system(grid, jittered_lattice(grid.size, seed))
    lazy_r = check_riesz_multiplication(riesz, phi)
    dense_r = check_riesz_multiplication(SynthesisSystem(grid, riesz.matrix, riesz.labels), phi)
    assert lazy_r.details["gram_extremes"] == dense_r.details["gram_extremes"]
    assert lazy_r.base_report.gram_extremes == pytest.approx(
        dense_r.base_report.gram_extremes, rel=1e-12
    )
    assert_same_bounds(lazy_r.mult_report, dense_r.mult_report)
    assert lazy_r.consistent == dense_r.consistent
