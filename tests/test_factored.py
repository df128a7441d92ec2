"""U^H v and U c applied from a structured system's running powers, without
forming U: they agree with the products of the formed matrix to rounding,
the relative guards' scale comes from the Toeplitz column, an expansion in
the shape of a CLI ``reconstruct`` job never forms U, and the span pre-check
keeps its exact 1e-12 boundary behind the FFT screen."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framelab.framecore as framecore
from framelab.domain import Domain, SampledFunction, make_grid
from framelab.errors import NotInSpanError
from framelab.framecore import (
    SynthesisSystem,
    _adjoint,
    _analysis,
    _synthesis,
    exponential_system,
    reconstruct,
)
from framelab.pointset import PointSet
from framelab.translates import BumpSpec, build_bump_generator, oversampled_expansions


def random_vector(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=16000),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=400),
    st.booleans(),
    st.booleans(),
)
def test_factored_products_match_the_formed_matrix(seed, shift, cells, n_members, far, multiply):
    # a dyadic step with ends in its multiples: the band sits at shift / 16,
    # up to 1e3, and frequencies near 1e6 keep their phases exactly
    a = shift / 16
    grid = make_grid(Domain([(a, a + cells / 16)]), 16)
    assert grid.size == cells
    rng = np.random.default_rng(seed)
    lam = rng.uniform(-12.0, 12.0, n_members) + (1e6 if far else 0.0)
    sys = exponential_system(grid, PointSet.from_1d(lam))
    if multiply:
        mod = rng.uniform(0.5, 2.0, grid.size)
        sys = sys.multiplied(mod * np.exp(2j * np.pi * rng.uniform(size=grid.size)))
    U = sys.matrix
    u_norm = np.linalg.norm(U)
    v = random_vector(rng, grid.size)
    c = random_vector(rng, sys.size)
    assert np.linalg.norm(_analysis(sys, v) - _adjoint(U, v)) <= 1e-13 * u_norm * np.linalg.norm(v)
    assert np.linalg.norm(_synthesis(sys, c) - U @ c) <= 1e-13 * u_norm * np.linalg.norm(c)
    assert sys._scale == pytest.approx(np.linalg.norm(sys.weighted), rel=1e-12)


def test_a_product_takes_over_its_bare_systems_powers():
    grid = make_grid(Domain([(0.0, 1.0)]), 64)
    sys = exponential_system(grid, PointSet.from_1d(np.arange(80) - 40.3))
    phi = np.linspace(1.0, 2.0, grid.size)
    before = sys.multiplied(phi)
    powers = sys._powers
    assert all(np.array_equal(a, b) for a, b in zip(before._powers, powers))


def test_reconstruct_job_shape_never_forms_the_member_matrix(monkeypatch):
    # the shape of a CLI reconstruct job: 288 nodes on the dilated band, 1801
    # points at spacing 0.2 (past the Gram budget) and 8 targets
    spec = BumpSpec(Domain([(-0.4, 0.4)]), 0.05)
    grid = make_grid(spec.dilated, 320)
    assert grid.size == 288
    gen = build_bump_generator(spec, grid)
    rng = np.random.default_rng(7)
    k = np.arange(1801) - 900
    ps = PointSet.from_1d(0.2 * (k + rng.uniform(-0.3, 0.3, k.size)))
    inside = spec.base_domain.contains(grid.nodes)
    targets = [SampledFunction(grid, random_vector(rng, grid.size) * inside) for _ in range(8)]
    calls = []
    original = framecore._exponential_matrix

    def counting(g, lam):
        calls.append(lam.size)
        return original(g, lam)

    monkeypatch.setattr(framecore, "_exponential_matrix", counting)
    results = oversampled_expansions(targets, gen, ps, spec.base_domain, tol=1e-8)
    assert len(results) == 8 and all(res.product_residual <= 1e-7 for res in results)
    assert not calls


@pytest.mark.parametrize("structured", [True, False])
@pytest.mark.parametrize("factor", [1.1, 0.9])
def test_span_pre_check_boundary(structured, factor):
    """A null-space target plus a member sum whose ||U^H sqrt(w) b|| sits
    just above (1.1) or just below (0.9) 1e-12 scale ||b||: the FFT screen
    sees neither, so the exact test decides."""
    grid = make_grid(Domain([(0.0, 1.0)]), 64)
    rng = np.random.default_rng(3)
    k = np.arange(24) - 12
    sys = exponential_system(grid, PointSet.from_1d(k + rng.uniform(-0.2, 0.2, k.size)))
    W = sys.weighted
    q, _ = np.linalg.qr(W)
    off = random_vector(rng, grid.size)
    off -= q @ (q.conj().T @ off)
    off /= np.linalg.norm(off)
    member_sum = W @ random_vector(rng, sys.size)
    seen = np.linalg.norm(W.conj().T @ member_sum)
    b = off + factor * 1e-12 * np.linalg.norm(W) / seen * member_sum
    f = SampledFunction(grid, b / np.sqrt(grid.weights))
    target = sys if structured else SynthesisSystem(grid, sys.matrix)
    with pytest.raises(NotInSpanError, match="not in span") as err:
        reconstruct(target, f, tol=1e-10, max_iter=200)
    if factor > 1:
        assert err.value.iterations > 0
    else:
        assert err.value.iterations == 0 and err.value.residual == 1.0
