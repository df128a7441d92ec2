import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab.domain import (
    Domain,
    SampledFunction,
    dilate,
    grid_size,
    indicator,
    inner,
    load_domain,
    make_grid,
)
from framelab.errors import GridMismatchError


# --- Domain -----------------------------------------------------------------


def test_domain_sorts_and_validates():
    d = Domain([(2.0, 3.0), (0.0, 1.0)])
    assert d.intervals == ((0.0, 1.0), (2.0, 3.0))
    assert d.measure == 2.0
    assert d.hull == (0.0, 3.0)
    assert d.radius == 1.5
    assert d.center == 1.5


@pytest.mark.parametrize(
    "ivs",
    [[], [(0.0, 0.0)], [(1.0, 0.0)], [(0.0, math.inf)], [(0.0, 2.0), (1.0, 3.0)], [(0.0, 1.0), (1.0, 2.0)]],
)
def test_domain_rejects_bad_intervals(ivs):
    with pytest.raises(ValueError):
        Domain(ivs)


def test_domain_merged_joins_touching():
    d = Domain.merged([(0.0, 1.0), (1.0, 2.0), (3.0, 4.0), (3.5, 5.0)])
    assert d.intervals == ((0.0, 2.0), (3.0, 5.0))


def test_domain_contains_is_closed_and_vectorized():
    d = Domain([(0.0, 1.0), (2.0, 3.0)])
    x = np.array([-0.1, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 3.1])
    assert d.contains(x).tolist() == [False, True, True, True, False, True, True, False]


def test_domain_equality_and_dict_round_trip(tmp_path):
    d = Domain([(0.0, 1.0), (2.0, 3.0)])
    assert Domain.from_dict(d.to_dict()) == d
    assert hash(Domain(d.intervals)) == hash(d)
    p = tmp_path / "dom.json"
    p.write_text(json.dumps(d.to_dict()))
    assert load_domain(p) == d


def test_dilate_merges_overlaps():
    d = Domain([(0.0, 1.0), (1.2, 2.0)])
    assert dilate(d, 0.05).intervals == ((-0.05, 1.05), (1.15, 2.05))
    assert dilate(d, 0.2).intervals == ((-0.2, 2.2),)
    with pytest.raises(ValueError):
        dilate(d, -0.1)


# --- Grid -------------------------------------------------------------------


def test_make_grid_cell_counts_and_weights():
    g = make_grid(Domain([(0.0, 1.0), (2.0, 2.5)]), 8)
    assert g.size == 8 + 4
    assert np.isclose(g.weights.sum(), 1.5)
    assert g.interval_index.tolist() == [0] * 8 + [1] * 4
    lo, hi = g.cell_bounds()
    assert np.isclose(lo[0], 0.0) and np.isclose(hi[7], 1.0)
    assert np.isclose(lo[8], 2.0) and np.isclose(hi[-1], 2.5)


def test_make_grid_ceil_is_roundoff_safe():
    # 0.9 * 320 = 288.0000000000001 in floating point; must not become 289
    g = make_grid(Domain([(-0.45, 0.45)]), 320)
    assert g.size == 288


def test_make_grid_rejects_bad_resolution():
    with pytest.raises(ValueError):
        make_grid(Domain([(0.0, 1.0)]), 0)


@given(st.integers(min_value=1, max_value=64), st.floats(min_value=0.1, max_value=5.0))
def test_grid_weights_sum_to_measure(n, length):
    g = make_grid(Domain([(0.0, length)]), n)
    assert abs(g.weights.sum() - length) <= 1e-12 * max(1.0, length)
    assert np.all(np.diff(g.nodes) > 0)


def test_commensurate_exponentials_are_exactly_orthonormal():
    # midpoint rule integrates e^{2 pi i k t} exactly to 0 over [-1/2,1/2]
    g = make_grid(Domain([(-0.5, 0.5)]), 16)
    for k in range(1, 16):
        f = SampledFunction.from_callable(g, lambda t, k=k: np.exp(2j * np.pi * k * t))
        one = SampledFunction.from_callable(g, lambda t: np.ones_like(t))
        # roundoff of the exponential evaluations only; a genuine midpoint-rule
        # error at this resolution would be ~1e-2
        assert abs(inner(g, f, one)) < 1e-14
        assert abs(inner(g, f, f) - 1.0) < 1e-14


def test_grid_matches_structural():
    g1 = make_grid(Domain([(0.0, 1.0)]), 16)
    g2 = make_grid(Domain([(0.0, 1.0)]), 16)
    g3 = make_grid(Domain([(0.0, 1.0)]), 32)
    assert g1.matches(g2)
    assert not g1.matches(g3)


# --- SampledFunction + inner -------------------------------------------------


def test_sampled_function_shape_check_and_norm():
    g = make_grid(Domain([(0.0, 2.0)]), 4)
    f = SampledFunction(g, np.ones(g.size))
    assert np.isclose(f.norm_sq, 2.0)
    assert np.isclose(f.norm(), math.sqrt(2.0))
    with pytest.raises(ValueError):
        SampledFunction(g, np.ones(g.size + 1))


def test_indicator_matches_membership():
    g = make_grid(Domain([(0.0, 1.0)]), 16)
    chi = indicator(g, Domain([(0.0, 0.5)]))
    assert chi.values[: 8].tolist() == [1.0] * 8
    assert chi.values[8:].tolist() == [0.0] * 8


def test_inner_rejects_mismatched_grids():
    g1 = make_grid(Domain([(0.0, 1.0)]), 8)
    g2 = make_grid(Domain([(0.0, 1.0)]), 16)
    f1 = SampledFunction(g1, np.ones(g1.size))
    f2 = SampledFunction(g2, np.ones(g2.size))
    with pytest.raises(GridMismatchError):
        inner(g1, f1, f2)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_inner_cauchy_schwarz(seed):
    rng = np.random.default_rng(seed)
    g = make_grid(Domain([(0.0, 1.0)]), 32)
    f = SampledFunction(g, rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size))
    h = SampledFunction(g, rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size))
    assert abs(inner(g, f, h)) <= f.norm() * h.norm() * (1 + 1e-12)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_inner_conjugate_symmetry(seed):
    rng = np.random.default_rng(seed)
    g = make_grid(Domain([(0.0, 1.0)]), 16)
    f = SampledFunction(g, rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size))
    h = SampledFunction(g, rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size))
    assert inner(g, f, h) == pytest.approx(np.conj(inner(g, h, f)))


@settings(max_examples=50)
@given(
    st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(0.01, 5.0)), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=400),
)
def test_grid_size_counts_make_grid_nodes(pieces, n_per_unit):
    ivs, at = [], None
    for start, length in sorted(pieces):
        a = start if at is None else max(start, at + 0.5)
        ivs.append((a, a + length))
        at = a + length
    dom = Domain(ivs)
    assert grid_size(dom, n_per_unit) == make_grid(dom, n_per_unit).size
