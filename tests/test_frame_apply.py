"""The two routes of ``_apply_frame_operator``: exponential systems on a
uniform one-interval grid, and their products with multipliers, apply the
frame operator by a 2n circulant FFT of their Toeplitz column; every other
system applies U (U^H p) densely.  The FFT route is checked against the dense
product U @ U^H @ p, and ``reconstruct`` is checked to take it in every CG
step and to agree with the dense route.  Each row of ``reconstruct_all``
equals the single call on its target, bit for bit, on both routes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framelab.framecore as framecore
from framelab.domain import Domain, SampledFunction, make_grid
from framelab.errors import NotInSpanError
from framelab.framecore import (
    SynthesisSystem,
    _apply_frame_operator,
    exponential_system,
    frame_operator_apply,
    measure_bounds,
    reconstruct,
    reconstruct_all,
)
from framelab.multiplication import multiply_system
from framelab.pointset import PointSet
from support import oracle_min_norm_coeffs, random_sampled


def random_multiplier(rng, grid):
    """Complex node values with modulus in [0.5, 2]."""
    mod = rng.uniform(0.5, 2.0, grid.size)
    return SampledFunction(grid, mod * np.exp(2j * np.pi * rng.uniform(size=grid.size)))


def centred_dense_apply(grid, lam, phi, p):
    """U U^H p from members on the grid's nodes shifted to centre on the
    interval midpoint, t_j - m = (j + 1/2 - n/2) h: a shift of t multiplies each
    member by a unit constant, so U U^H is unchanged, while the phases
    2 pi (t - m) lambda stay small enough to round far below 1e-12."""
    n, h = grid.size, grid.steps[0]
    U = np.sqrt(h) * np.exp(-2j * np.pi * np.outer((np.arange(n) + 0.5 - n / 2) * h, lam))
    if phi is not None:
        U = phi.values[:, None] * U
    return U @ (U.conj().T @ p)


def random_vector(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def jittered(n_members, step, rng):
    k = np.arange(n_members) - n_members // 2
    return PointSet.from_1d((k + rng.uniform(-0.2, 0.2, n_members)) * step)


@settings(max_examples=60)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.25, max_value=3.0),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=400),
    st.booleans(),
)
def test_fft_route_matches_dense_product(seed, a, length, n_nodes, n_members, multiply):
    rng = np.random.default_rng(seed)
    grid = make_grid(Domain([(a, a + length)]), max(1, int(n_nodes / length)))
    assert grid.size <= 300
    nyquist = grid.size / (2.0 * length)
    lam = rng.uniform(-1.5 * nyquist, 1.5 * nyquist, n_members)
    sys = exponential_system(grid, PointSet.from_1d(lam))
    phi = random_multiplier(rng, grid) if multiply else None
    if multiply:
        sys = multiply_system(sys, phi)
    assert sys._column is not None
    for _ in range(3):
        p = random_vector(rng, grid.size)
        dense = centred_dense_apply(grid, lam, phi, p)
        fft = _apply_frame_operator(sys, p)
        assert np.linalg.norm(fft - dense) <= 1e-12 * np.linalg.norm(dense)


@pytest.mark.parametrize("multiply", [False, True])
def test_frame_operator_apply_structured_matches_dense(multiply):
    grid = make_grid(Domain([(-0.3, 0.9)]), 100)
    rng = np.random.default_rng(5)
    sys = exponential_system(grid, jittered(150, 0.8, rng))
    if multiply:
        sys = multiply_system(sys, random_multiplier(rng, grid))
    f = random_sampled(rng, grid)
    dense = SynthesisSystem(grid, sys.matrix)
    assert dense._column is None
    structured = frame_operator_apply(sys, f).values
    expected = frame_operator_apply(dense, f).values
    assert np.linalg.norm(structured - expected) <= 1e-12 * np.linalg.norm(expected)
    # and against the member sum S f = sum_k <f, psi_k> psi_k
    member_sum = sys.matrix @ (sys.matrix.conj().T @ (grid.weights * f.values))
    assert np.linalg.norm(structured - member_sum) <= 1e-12 * np.linalg.norm(member_sum)


def count_adjoint_calls(monkeypatch):
    calls = []
    original = framecore._adjoint

    def counting(U, v):
        calls.append(v.shape)
        return original(U, v)

    monkeypatch.setattr(framecore, "_adjoint", counting)
    return calls


def frame_and_targets(seed, n_targets=3):
    """A structured frame (K > n) on [0, 0.9] and smooth targets."""
    grid = make_grid(Domain([(0.0, 0.9)]), 80)
    rng = np.random.default_rng(seed)
    sys = exponential_system(grid, jittered(110, 0.8, rng))
    targets = [random_sampled(rng, grid) for _ in range(n_targets)]
    return sys, targets


def test_structured_reconstruct_forms_no_member_matrix(monkeypatch):
    sys, targets = frame_and_targets(11)
    calls = count_adjoint_calls(monkeypatch)
    for f in targets:
        res = reconstruct(sys, f, tol=1e-10)
        assert res.residual <= 1e-10 and res.iterations > 2
    assert not calls and "matrix" not in sys.__dict__

    dense = SynthesisSystem(sys.grid, sys.matrix)
    res = reconstruct(dense, targets[0], tol=1e-10)
    # the screen's S b (also the first CG step's product), one product per
    # later step, final residual, coefficients
    assert len(calls) == res.iterations + 2


@pytest.mark.parametrize("seed", [11, 12])
def test_structured_and_dense_reconstruct_agree(seed):
    sys, targets = frame_and_targets(seed)
    dense = SynthesisSystem(sys.grid, sys.matrix)
    lower = measure_bounds(sys).lower
    tol = 1e-10
    for f in targets:
        fast = reconstruct(sys, f, tol=tol)
        slow = reconstruct(dense, f, tol=tol)
        assert fast.residual <= tol and slow.residual <= tol
        # c = U^H S^-1 b, and ||U^H S^-1|| = lower^-1/2: a residual of at most
        # tol * ||f|| moves the coefficients by at most tol * ||f|| / sqrt(lower)
        effect = tol * f.norm() / np.sqrt(lower)
        oracle = oracle_min_norm_coeffs(sys, f)
        slack = 1e-12 * np.linalg.norm(oracle)
        assert np.linalg.norm(fast.coeffs - oracle) <= effect + slack
        assert np.linalg.norm(slow.coeffs - oracle) <= effect + slack
        assert np.linalg.norm(fast.coeffs - slow.coeffs) <= 2 * effect + slack


def test_off_span_target_is_not_in_span_on_both_routes():
    grid = make_grid(Domain([(0.0, 1.0)]), 64)
    rng = np.random.default_rng(3)
    sys = exponential_system(grid, jittered(24, 1.0, rng))
    assert sys.size < grid.size and sys._column is not None
    # orthogonal to the members in the weighted geometry
    q, _ = np.linalg.qr(sys.weighted)
    off = random_vector(rng, grid.size)
    off -= q @ (q.conj().T @ off)
    f = SampledFunction(grid, off / np.sqrt(grid.weights))
    for s in (sys, SynthesisSystem(grid, sys.matrix)):
        with pytest.raises(NotInSpanError, match="not in span"):
            reconstruct(s, f, tol=1e-10, max_iter=200)


@pytest.mark.parametrize("eps", [1e-9, 1e-3, 1.0])
def test_mixed_target_is_not_in_span_on_both_routes(eps):
    """A unit off-span target plus eps times an in-span one: CG stalls on the
    mixture, and the failure is classified by the off-span share of b."""
    grid = make_grid(Domain([(0.0, 1.0)]), 64)
    rng = np.random.default_rng(3)
    sys = exponential_system(grid, jittered(24, 1.0, rng))
    q, _ = np.linalg.qr(sys.weighted)
    off = random_vector(rng, grid.size)
    off -= q @ (q.conj().T @ off)
    off /= np.linalg.norm(off)
    inside = q @ random_vector(rng, sys.size)
    inside /= np.linalg.norm(inside)
    b = off + eps * inside
    f = SampledFunction(grid, b / np.sqrt(grid.weights))
    share = 1.0 / np.linalg.norm(b)
    for s in (sys, SynthesisSystem(grid, sys.matrix)):
        with pytest.raises(NotInSpanError, match="not in span") as err:
            reconstruct(s, f, tol=1e-10, max_iter=200)
        assert err.value.residual == pytest.approx(share, rel=1e-9)


@settings(max_examples=30)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
    st.permutations(["one eigenvector", "three eigenvectors", "member sum", "member sum",
                     "zero"]),
    st.integers(min_value=0, max_value=5),
    st.booleans(),
)
def test_batched_rows_equal_single_calls(seed, structured, kinds, off_at, visible):
    """Each row of ``reconstruct_all`` equals ``reconstruct`` of that target
    alone bit for bit, on both routes, in a batch whose rows stop at different
    iterations; an off-span row, one the span pre-check stops or one that
    stalls in the loop, raises its single call's error."""
    grid = make_grid(Domain([(0.0, 1.0)]), 48)
    rng = np.random.default_rng(seed)
    sys = exponential_system(grid, jittered(24, 1.0, rng))
    if not structured:
        sys = SynthesisSystem(grid, sys.matrix)
    W, sw = sys.weighted, np.sqrt(grid.weights)
    # eigenvectors of S = W W^H in its range: CG stops after one step per
    # distinct eigenvalue, while a random member sum takes many steps
    eigs, vecs = np.linalg.eigh(W @ W.conj().T)
    in_range = vecs[:, eigs > 1e-8 * eigs[-1]]
    picks = {"one eigenvector": 1, "three eigenvectors": 3}
    rows = []
    for kind in kinds:
        if kind == "zero":
            b = np.zeros(grid.size)
        elif kind == "member sum":
            b = W @ random_vector(rng, sys.size)
        else:
            cols = rng.choice(in_range.shape[1], picks[kind], replace=False)
            b = in_range[:, cols] @ random_vector(rng, picks[kind])
        rows.append(SampledFunction(grid, b / sw))

    batch = reconstruct_all(sys, rows, tol=1e-10, max_iter=200)
    assert len({res.iterations for res in batch}) >= 3
    for f, res in zip(rows, batch):
        single = reconstruct(sys, f, tol=1e-10, max_iter=200)
        assert np.array_equal(res.coeffs, single.coeffs)
        assert (res.residual, res.iterations) == (single.residual, single.iterations)
        if not f.values.any():
            assert not res.coeffs.any() and (res.residual, res.iterations) == (0.0, 0)

    off = random_vector(rng, grid.size)
    off -= in_range @ (in_range.conj().T @ off)
    if visible:
        off += W @ random_vector(rng, sys.size)
    off_span = SampledFunction(grid, off / sw)
    with pytest.raises(NotInSpanError) as alone:
        reconstruct(sys, off_span, tol=1e-10, max_iter=200)
    with pytest.raises(NotInSpanError) as mixed:
        reconstruct_all(sys, rows[:off_at] + [off_span] + rows[off_at:],
                                  tol=1e-10, max_iter=200)
    assert (alone.value.iterations > 0) == visible
    assert type(mixed.value) is type(alone.value)
    assert str(mixed.value) == str(alone.value)
    assert (mixed.value.residual, mixed.value.iterations) == (
        alone.value.residual, alone.value.iterations)
