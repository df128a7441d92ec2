import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab.domain import Domain, SampledFunction, make_grid
from framelab.errors import (
    FrameLabError,
    GridMismatchError,
    NotInSpanError,
    ReconstructionError,
)
from framelab.framecore import (
    SynthesisSystem,
    _adjoint,
    analyze,
    exponential_system,
    frame_operator_apply,
    gram,
    measure_bounds,
    reconstruct,
    synthesize,
)
from framelab.pointset import PointSet
from support import (
    dft_base,
    oracle_bounds_svd,
    oracle_frame_sums,
    oracle_min_norm_coeffs,
    random_sampled,
    random_system,
    write_table,
)


# --- SynthesisSystem ----------------------------------------------------------


def test_system_from_matrix():
    g = make_grid(Domain([(0.0, 1.0)]), 8)
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((g.size, 3)) + 1j * rng.standard_normal((g.size, 3))
    s1 = SynthesisSystem(g, mat)
    assert np.array_equal(s1.matrix, mat)
    assert s1.labels == (0, 1, 2)
    assert len(s1) == 3


def test_system_validation():
    g = make_grid(Domain([(0.0, 1.0)]), 8)
    with pytest.raises(ValueError):
        SynthesisSystem(g, np.zeros((g.size + 1, 2), dtype=complex))
    with pytest.raises(ValueError):
        SynthesisSystem(g, np.zeros((g.size, 0), dtype=complex))
    with pytest.raises(ValueError):
        SynthesisSystem(g, np.zeros((g.size, 2), dtype=complex), labels=[1])


def test_exponential_system_labels_and_values():
    g = make_grid(Domain([(-0.5, 0.5)]), 8)
    ps = PointSet.from_1d([0.0, 1.0, -2.0])
    sys = exponential_system(g, ps)
    assert sys.labels == (-2.0, 0.0, 1.0)
    assert np.allclose(sys.matrix[:, 1], 1.0)  # lambda = 0 member
    expected = np.exp(-2j * np.pi * 1.0 * g.nodes)
    assert np.allclose(sys.matrix[:, 2], expected)


# --- bounds vs oracle -----------------------------------------------------------


def test_integer_exponentials_are_an_onb():
    g = make_grid(Domain([(-0.5, 0.5)]), 64)
    rep = measure_bounds(dft_base(g))
    assert abs(rep.lower - 1.0) < 1e-12 and abs(rep.upper - 1.0) < 1e-12
    assert rep.flags.tight and rep.flags.frame_for_whole_space
    assert rep.flags.riesz_sequence and rep.flags.frame_sequence
    assert rep.rank == g.size
    assert rep.spectra_cross_checked


@settings(max_examples=30)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=24),
    st.integers(min_value=1, max_value=30),
)
def test_bounds_match_svd_oracle(seed, n_nodes, n_members):
    rng = np.random.default_rng(seed)
    sys = random_system(rng, n_nodes, n_members)
    rep = measure_bounds(sys)
    lo, hi, rank = oracle_bounds_svd(sys)
    assert rep.upper == pytest.approx(hi, rel=1e-9, abs=1e-12)
    assert rep.lower == pytest.approx(lo, rel=1e-8, abs=1e-12)
    assert rep.rank == rank


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_bounds_scale_quadratically(seed):
    rng = np.random.default_rng(seed)
    sys = random_system(rng, 12, 18)
    s = 0.5 + rng.uniform(0.0, 2.0)
    rep = measure_bounds(sys)
    rep_s = measure_bounds(SynthesisSystem(sys.grid, s * sys.matrix))
    assert rep_s.lower == pytest.approx(s**2 * rep.lower, rel=1e-9)
    assert rep_s.upper == pytest.approx(s**2 * rep.upper, rel=1e-9)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_bounds_are_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    sys = random_system(rng, 10, 15)
    perm = rng.permutation(15)
    rep = measure_bounds(sys)
    rep_p = measure_bounds(SynthesisSystem(sys.grid, sys.matrix[:, perm]))
    assert rep_p.lower == pytest.approx(rep.lower, rel=1e-10)
    assert rep_p.upper == pytest.approx(rep.upper, rel=1e-10)
    assert rep_p.rank == rep.rank


def test_rank_deficiency_and_flags():
    g = make_grid(Domain([(0.0, 1.0)]), 8)
    rng = np.random.default_rng(1)
    base = rng.standard_normal((g.size, 3)) + 1j * rng.standard_normal((g.size, 3))
    mat = np.concatenate([base, base[:, :1]], axis=1)  # duplicated member
    rep = measure_bounds(SynthesisSystem(g, mat))
    assert rep.rank == 3 and rep.n_members == 4
    assert rep.flags.frame_sequence and not rep.flags.frame_for_whole_space
    assert not rep.flags.riesz_sequence  # Gram is singular

    tall = measure_bounds(SynthesisSystem(g, base))  # 3 members, 8 nodes
    assert not tall.flags.frame_for_whole_space
    assert tall.flags.riesz_sequence

    wide = random_system(rng, 6, 20)
    rep_w = measure_bounds(wide)
    assert rep_w.flags.frame_for_whole_space
    assert not rep_w.flags.riesz_sequence  # more members than dimensions


def test_bessel_bound_flag():
    g = make_grid(Domain([(-0.5, 0.5)]), 32)
    sys = dft_base(g)
    assert measure_bounds(sys, bessel_bound=1.5).flags.bessel
    assert not measure_bounds(sys, bessel_bound=0.5).flags.bessel


def test_measure_bounds_input_validation():
    g = make_grid(Domain([(-0.5, 0.5)]), 8)
    for rank_tol in (0.0, 1.0, 2.0):
        with pytest.raises(ValueError):
            measure_bounds(dft_base(g), rank_tol=rank_tol)


def test_measure_bounds_budget_guard():
    g = make_grid(Domain([(0.0, 1.0)]), 1030)
    mat = np.ones((g.size, 1031), dtype=complex)
    with pytest.raises(FrameLabError, match="budget"):
        measure_bounds(SynthesisSystem(g, mat))


def test_wide_system_skips_gram_but_keeps_bounds():
    # K > limit: only the S-side spectrum is available, no cross-check
    g = make_grid(Domain([(0.0, 1.0)]), 16)
    rng = np.random.default_rng(2)
    mat = rng.standard_normal((g.size, 1100)) + 1j * rng.standard_normal((g.size, 1100))
    sys = SynthesisSystem(g, mat)
    rep = measure_bounds(sys)
    lo, hi, rank = oracle_bounds_svd(sys)
    assert rep.upper == pytest.approx(hi, rel=1e-9)
    assert rep.lower == pytest.approx(lo, rel=1e-8)
    assert not rep.spectra_cross_checked
    assert rep.gram_extremes is None and not rep.flags.riesz_sequence


def test_spectrum_csv(tmp_path):
    g = make_grid(Domain([(-0.5, 0.5)]), 16)
    rep = measure_bounds(dft_base(g))
    path = tmp_path / "spec.csv"
    write_table(path, rep.table)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "index,eigenvalue"
    assert len(rows) == g.size + 1
    assert float(rows[1].split(",")[1]) == pytest.approx(1.0)


# --- operators -------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_analysis_synthesis_adjointness(seed):
    rng = np.random.default_rng(seed)
    sys = random_system(rng, 10, 14)
    f = random_sampled(rng, sys.grid)
    c = rng.standard_normal(14) + 1j * rng.standard_normal(14)
    lhs = np.sum(sys.grid.weights * synthesize(sys, c).values * np.conj(f.values))
    rhs = np.vdot(analyze(sys, f), c)  # vdot conjugates its first argument
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_frame_inequality_on_random_vectors(seed):
    rng = np.random.default_rng(seed)
    sys = random_system(rng, 8, 20)
    rep = measure_bounds(sys)
    assert rep.flags.frame_for_whole_space
    for _ in range(10):
        f = random_sampled(rng, sys.grid)
        total = float(np.sum(np.abs(analyze(sys, f)) ** 2))
        assert rep.lower * f.norm_sq <= total * (1 + 1e-9)
        assert total <= rep.upper * f.norm_sq * (1 + 1e-9)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_analyze_matches_member_loop(seed):
    rng = np.random.default_rng(seed)
    sys = random_system(rng, 9, 7)
    f = random_sampled(rng, sys.grid)
    assert float(np.sum(np.abs(analyze(sys, f)) ** 2)) == pytest.approx(
        oracle_frame_sums(sys, f), rel=1e-10
    )


@pytest.mark.parametrize("n, k", [(9, 7), (288, 1801)])
def test_adjoint_equals_conjugate_transpose_product_exactly(n, k):
    """U^H v without a conjugate copy of U is the reference product bit for bit."""
    rng = np.random.default_rng(n)
    U = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.array_equal(_adjoint(U, v), U.conj().T @ v)


def test_frame_operator_is_identity_for_onb():
    g = make_grid(Domain([(-0.5, 0.5)]), 32)
    sys = dft_base(g)
    rng = np.random.default_rng(3)
    f = random_sampled(rng, g)
    sf = frame_operator_apply(sys, f)
    assert np.allclose(sf.values, f.values, atol=1e-12)


def test_gram_is_hermitian_psd_and_shares_spectrum():
    rng = np.random.default_rng(4)
    sys = random_system(rng, 10, 6)
    G = gram(sys)
    assert np.allclose(G, G.conj().T)
    eig_g = np.linalg.eigvalsh(G)
    assert eig_g.min() > -1e-12
    U = sys.weighted
    eig_s = np.linalg.eigvalsh(U @ U.conj().T)
    assert np.allclose(np.sort(eig_s)[-6:], np.sort(eig_g), atol=1e-10)


# --- reconstruct -------------------------------------------------------------------


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_reconstruct_matches_least_squares_oracle(seed):
    rng = np.random.default_rng(seed)
    sys = random_system(rng, 8, 16)
    f = random_sampled(rng, sys.grid)
    res = reconstruct(sys, f, tol=1e-12, max_iter=400)
    assert res.residual <= 1e-12
    oracle = oracle_min_norm_coeffs(sys, f)
    assert np.allclose(res.coeffs, oracle, atol=1e-8 * max(1.0, np.abs(oracle).max()))
    assert np.allclose(synthesize(sys, res.coeffs).values, f.values, atol=1e-9)


def test_reconstruct_zero_target():
    g = make_grid(Domain([(-0.5, 0.5)]), 16)
    res = reconstruct(dft_base(g), SampledFunction(g, np.zeros(g.size)))
    assert res.iterations == 0 and res.residual == 0.0
    assert np.all(res.coeffs == 0)


def test_reconstruct_detects_off_span_target():
    g = make_grid(Domain([(0.0, 1.0)]), 8)
    rng = np.random.default_rng(6)
    mat = rng.standard_normal((g.size, 3)) + 1j * rng.standard_normal((g.size, 3))
    sys = SynthesisSystem(g, mat)
    # build a target orthogonal to the members in the weighted geometry
    q, _ = np.linalg.qr(sys.weighted)
    w_sqrt = np.sqrt(g.weights)
    off = (np.eye(g.size) - q @ q.conj().T) @ (w_sqrt * rng.standard_normal(g.size))
    f = SampledFunction(g, off / w_sqrt)
    with pytest.raises(NotInSpanError, match="not in span"):
        reconstruct(sys, f, tol=1e-10, max_iter=50)


def test_reconstruct_reports_nonconvergence():
    rng = np.random.default_rng(7)
    sys = random_system(rng, 12, 20)
    f = random_sampled(rng, sys.grid)
    with pytest.raises(ReconstructionError, match="no convergence"):
        reconstruct(sys, f, tol=1e-14, max_iter=1)


def test_reconstruct_grid_mismatch():
    g1 = make_grid(Domain([(-0.5, 0.5)]), 16)
    g2 = make_grid(Domain([(-0.5, 0.5)]), 32)
    f = SampledFunction(g2, np.ones(g2.size))
    with pytest.raises(GridMismatchError):
        reconstruct(dft_base(g1), f)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_reconstruct_residual_monotone_in_iterations(seed):
    rng = np.random.default_rng(seed)
    sys = random_system(rng, 10, 25)
    f = random_sampled(rng, sys.grid)
    residuals = []
    for iters in (1, 3, 6, 12, 60):
        try:
            res = reconstruct(sys, f, tol=1e-13, max_iter=iters)
            residuals.append(res.residual)
        except ReconstructionError as exc:
            residuals.append(exc.residual)
    for a, b in zip(residuals, residuals[1:]):
        assert b <= a * (1 + 1e-9)
