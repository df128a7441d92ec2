import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab.domain import Domain, SampledFunction, indicator, make_grid
from framelab.errors import FrameLabError, HypothesisError
from framelab.framecore import exponential_system, gram, measure_bounds
from framelab.multiplication import (
    check_bessel_multiplication,
    check_converse,
    check_frame_multiplication,
    check_frame_sequence_multiplication,
    check_riesz_multiplication,
    check_tight_multiplication,
    multiply_system,
    profile_multiplier,
    profile_refinement,
    refine_check,
    trend_is_stable,
)
from framelab.pointset import PointSet
from support import dft_base

E = Domain([(-0.5, 0.5)])
UNIT = Domain([(0.0, 1.0)])


def two_plus_sine(t):
    return 2.0 + np.sin(2 * np.pi * t)


# --- profiles -----------------------------------------------------------------


def test_profile_extrema_and_support():
    g = make_grid(UNIT, 16)
    chi = indicator(g, Domain([(0.0, 0.5)]))
    prof = profile_multiplier(g, chi)
    assert prof.ess_sup == 1.0 and prof.ess_inf == 0.0
    assert prof.zero_measure_fraction == pytest.approx(0.5)
    assert prof.support_domain == Domain([(0.0, 0.5)])
    assert prof.ess_inf_support == 1.0
    assert not prof.bounded_below_on_grid


def test_profile_of_zero_multiplier():
    g = make_grid(UNIT, 8)
    prof = profile_multiplier(g, SampledFunction(g, np.zeros(g.size)))
    assert prof.support_domain is None
    assert prof.zero_measure_fraction == pytest.approx(1.0)
    assert prof.ess_inf_support == np.inf


def test_profile_grid_mismatch():
    g1, g2 = make_grid(UNIT, 8), make_grid(UNIT, 16)
    phi = SampledFunction(g2, np.ones(g2.size))
    with pytest.raises(FrameLabError, match="not sampled"):
        profile_multiplier(g1, phi)


def test_multiply_system_values_and_labels():
    g = make_grid(E, 32)
    sys = dft_base(g)
    phi = SampledFunction.from_callable(g, two_plus_sine)
    mult = multiply_system(sys, phi)
    assert mult.labels == sys.labels
    assert np.allclose(mult.matrix, phi.values[:, None] * sys.matrix)


def test_trend_is_stable():
    assert trend_is_stable([1.0, 0.99, 0.97])
    assert not trend_is_stable([1.0, 0.5, 0.25])
    assert not trend_is_stable([0.0, 0.0])
    assert not trend_is_stable([1.0, 2.0, 1.5])  # final value far off the peak
    with pytest.raises(ValueError):
        trend_is_stable([])


def test_profile_refinement_certifies_decay_and_stability():
    trace = profile_refinement(UNIT, lambda t: t, levels=(64, 128, 256))
    assert not trace.bounded_below
    assert not trace.bounded_below_on_support
    assert trace.sup_stable
    assert trace.ess_inf[0] == pytest.approx(1.0 / 128)

    flat = profile_refinement(UNIT, lambda t: np.ones_like(t), levels=(64, 128))
    assert flat.bounded_below and flat.sup_stable

    with pytest.raises(ValueError):
        profile_refinement(UNIT, lambda t: t, levels=(64,))


# --- frame check -----------------------------------------------------------------


def test_frame_check_bounds_equal_node_extrema():
    g = make_grid(E, 256)
    sys = dft_base(g)
    phi = SampledFunction.from_callable(g, two_plus_sine)
    rep = check_frame_multiplication(sys, phi)
    mag2 = np.abs(phi.values) ** 2
    assert rep.mult_report.lower == pytest.approx(mag2.min(), abs=1e-10)
    assert rep.mult_report.upper == pytest.approx(mag2.max(), abs=1e-10)
    assert rep.envelope_holds and rep.consistent
    assert rep.predicted == rep.measured == {"frame": True, "complete": True}
    # analytical envelope: base is an ONB, |phi| ranges over [1, 3]
    assert 1.0 <= rep.mult_report.lower and rep.mult_report.upper <= 9.0


def test_frame_check_detects_zero_multiplier():
    g = make_grid(UNIT, 64)
    sys = dft_base(g)
    chi = indicator(g, Domain([(0.0, 0.5)]))
    rep = check_frame_multiplication(sys, chi)
    assert rep.predicted == {"frame": False, "complete": False}
    assert rep.measured == {"frame": False, "complete": False}
    assert rep.consistent


def test_frame_check_requires_frame_base():
    g = make_grid(E, 32)
    sys = exponential_system(g, PointSet.from_1d([0.0, 1.0, 2.0]))
    phi = SampledFunction(g, np.ones(g.size))
    with pytest.raises(HypothesisError, match="not a frame"):
        check_frame_multiplication(sys, phi)


def test_frame_check_with_trace_overrides_grid_surrogate():
    g = make_grid(UNIT, 64)
    sys = dft_base(g)
    phi = SampledFunction.from_callable(g, lambda t: t)
    trace = profile_refinement(UNIT, lambda t: t)
    rep = check_frame_multiplication(sys, phi, trace=trace)
    assert not rep.predicted["frame"]
    # at a fixed grid the minimum node value is still positive, so the
    # measured flag disagrees; the sweep is the authoritative verdict
    assert rep.measured["frame"]
    assert not rep.consistent


# --- tight check -------------------------------------------------------------------


def test_tight_check_unimodular_preserves():
    g = make_grid(E, 128)
    sys = dft_base(g)
    phi = SampledFunction.from_callable(g, lambda t: np.exp(2j * np.pi * 3 * t))
    rep = check_tight_multiplication(sys, phi)
    assert rep.predicted == {"tight": True} == rep.measured
    assert rep.details["spread"] <= 1e-8
    assert rep.consistent


def test_tight_check_nonconstant_breaks():
    g = make_grid(E, 128)
    sys = dft_base(g)
    phi = SampledFunction.from_callable(g, two_plus_sine)
    rep = check_tight_multiplication(sys, phi)
    assert rep.predicted == {"tight": False} == rep.measured
    assert rep.consistent


def test_tight_check_requires_tight_base():
    g = make_grid(E, 32)
    rng = np.random.default_rng(0)
    lam = np.arange(32) - 16 + rng.uniform(-0.2, 0.2, 32)
    sys = exponential_system(g, PointSet.from_1d(lam, box=(-16.5, 15.5)))
    phi = SampledFunction(g, np.ones(g.size))
    with pytest.raises(HypothesisError, match="tight"):
        check_tight_multiplication(sys, phi)


# --- riesz check --------------------------------------------------------------------


def test_riesz_interior_zero_decays_per_doubling():
    gmins = []
    for lv in (64, 128, 256):
        g = make_grid(E, lv)
        rep = check_riesz_multiplication(dft_base(g), SampledFunction.from_callable(g, lambda t: t))
        gmins.append(rep.details["gram_extremes"][0])
        assert rep.consistent  # single-grid: predicted and measured both true
    assert gmins[0] / gmins[1] >= 2.0
    assert gmins[1] / gmins[2] >= 2.0


def test_riesz_check_requires_riesz_base():
    g = make_grid(E, 16)
    lam = np.arange(-12, 12).astype(float)  # 24 members, 16 nodes
    sys = exponential_system(g, PointSet.from_1d(lam, box=(-12.5, 11.5)))
    phi = SampledFunction(g, np.ones(g.size))
    with pytest.raises(HypothesisError, match="Riesz"):
        check_riesz_multiplication(sys, phi)


def test_riesz_envelope_from_gram_extremes():
    g = make_grid(E, 64)
    sys = dft_base(g)
    phi = SampledFunction.from_callable(g, two_plus_sine)
    rep = check_riesz_multiplication(sys, phi)
    gmin, gmax = rep.details["gram_extremes"]
    assert rep.envelope[0] <= gmin * (1 + 1e-9)
    assert gmax <= rep.envelope[1] * (1 + 1e-9)
    assert rep.consistent


# --- bessel check -------------------------------------------------------------------


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_bessel_bound_holds_for_random_piecewise(seed):
    rng = np.random.default_rng(seed)
    g = make_grid(E, 128)
    sys = dft_base(g)
    edges = np.sort(rng.uniform(-0.5, 0.5, size=3))
    vals = rng.uniform(-2.0, 2.0, size=4)

    def pw(t):
        out = np.full(t.shape, vals[0] + 0j)
        for j in range(3):
            out[t >= edges[j]] = vals[j + 1]
        return out

    phi = SampledFunction.from_callable(g, pw)
    rep = check_bessel_multiplication(sys, phi)
    assert rep.consistent
    assert rep.mult_report.upper <= rep.details["upper_bound"] * (1 + 1e-9)


def test_bessel_flags_unbounded_trend():
    trace = profile_refinement(UNIT, lambda t: 1.0 / t, levels=(64, 128, 256))
    g = make_grid(UNIT, 256)
    sys = dft_base(g)
    phi = SampledFunction.from_callable(g, lambda t: 1.0 / t)
    rep = check_bessel_multiplication(sys, phi, trace=trace)
    assert rep.details["unbounded_trend"]
    assert rep.envelope_holds  # the grid-level bound still holds


# --- converse -----------------------------------------------------------------------


def test_converse_recovers_base_bounds():
    g = make_grid(E, 256)
    sys = dft_base(g)
    phi = SampledFunction.from_callable(g, two_plus_sine)
    rep = check_converse(multiply_system(sys, phi), phi)
    assert rep.base_report.lower == pytest.approx(1.0, abs=1e-9)
    assert rep.base_report.upper == pytest.approx(1.0, abs=1e-9)
    assert rep.consistent


def test_converse_rejects_near_zero_multiplier():
    g = make_grid(UNIT, 64)
    sys = dft_base(g)
    chi = indicator(g, Domain([(0.0, 0.5)]))
    with pytest.raises(FrameLabError, match="near-zero"):
        check_converse(multiply_system(sys, chi), chi)


def test_converse_requires_frame():
    g = make_grid(E, 32)
    sys = exponential_system(g, PointSet.from_1d([0.0, 1.0]))
    phi = SampledFunction(g, np.full(g.size, 2.0 + 0j))
    with pytest.raises(HypothesisError):
        check_converse(multiply_system(sys, phi), phi)


# --- frame sequence ------------------------------------------------------------------


def test_frame_sequence_rank_equals_support():
    g = make_grid(UNIT, 256)
    sys = dft_base(g)
    chi = indicator(g, Domain([(0.0, 0.5)]))
    rep = check_frame_sequence_multiplication(sys, chi)
    assert rep.details["support_nodes"] == g.size // 2
    assert rep.mult_report.rank == g.size // 2
    assert rep.details["rank_matches_support"]
    assert rep.details["ambient_invariant"]
    assert rep.mult_report.lower == pytest.approx(1.0, abs=1e-10)
    assert rep.mult_report.upper == pytest.approx(1.0, abs=1e-10)
    assert rep.consistent


def test_frame_sequence_rejects_zero_multiplier():
    g = make_grid(UNIT, 32)
    sys = dft_base(g)
    with pytest.raises(FrameLabError, match="empty support"):
        check_frame_sequence_multiplication(sys, SampledFunction(g, np.zeros(g.size)))


def test_frame_sequence_envelope_with_varying_support_values():
    g = make_grid(UNIT, 128)
    sys = dft_base(g)
    phi = SampledFunction.from_callable(
        g, lambda t: np.where(t <= 0.5, 2.0 + np.cos(2 * np.pi * t), 0.0)
    )
    rep = check_frame_sequence_multiplication(sys, phi)
    lo, hi = rep.envelope
    assert lo <= rep.mult_report.lower * (1 + 1e-9)
    assert rep.mult_report.upper <= hi * (1 + 1e-9)
    assert rep.consistent


# --- refinement sweeps ----------------------------------------------------------------


def test_refine_check_frame_certifies_vanishing_multiplier():
    sweep = refine_check(UNIT, dft_base, lambda t: t, check="frame")
    assert not sweep.predicted_flag
    assert not sweep.measured_flag
    assert sweep.consistent
    assert sweep.metric_trend[0] > sweep.metric_trend[-1]


def test_refine_check_frame_stable_multiplier():
    sweep = refine_check(E, dft_base, two_plus_sine, check="frame", levels=(32, 64, 128))
    assert sweep.predicted_flag and sweep.measured_flag and sweep.consistent


def test_refine_check_riesz_decay():
    sweep = refine_check(E, dft_base, lambda t: t, check="riesz")
    assert not sweep.predicted_flag and not sweep.measured_flag
    assert sweep.consistent
    assert sweep.metric_trend[0] / sweep.metric_trend[1] >= 2.0


def test_refine_check_bessel_and_tight():
    b = refine_check(E, dft_base, two_plus_sine, check="bessel", levels=(32, 64))
    assert b.predicted_flag and b.measured_flag and b.consistent
    t = refine_check(
        E, dft_base, lambda x: np.exp(2j * np.pi * x), check="tight", levels=(32, 64)
    )
    assert t.predicted_flag and t.measured_flag and t.consistent


def test_refine_check_frame_sequence():
    sweep = refine_check(
        UNIT,
        dft_base,
        lambda t: np.where(t <= 0.5, 1.0, 0.0),
        check="frame_sequence",
        levels=(32, 64, 128),
    )
    assert sweep.predicted_flag and sweep.measured_flag and sweep.consistent


def test_refine_check_unknown_kind():
    with pytest.raises(ValueError, match="unknown check"):
        refine_check(UNIT, dft_base, lambda t: t, check="banana")


def test_refine_check_needs_increasing_levels():
    with pytest.raises(ValueError, match="two refinement levels"):
        refine_check(UNIT, dft_base, lambda t: t, levels=(128, 64))


def test_reports_are_json_serializable():
    g = make_grid(E, 64)
    sys = dft_base(g)
    phi = SampledFunction.from_callable(g, two_plus_sine)
    rep = check_frame_multiplication(sys, phi)
    json.dumps(rep.to_dict())
    sweep = refine_check(E, dft_base, two_plus_sine, check="frame", levels=(32, 64))
    json.dumps(sweep.to_dict())
