import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framelab.multiplication
import framelab.translates
from framelab.domain import Domain, SampledFunction, indicator, make_grid
from framelab.errors import FrameLabError, HypothesisError
from framelab.framecore import SynthesisSystem, exponential_system, gram, measure_bounds
from framelab.multiplication import (
    STABILITY,
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
from framelab.translates import (
    Generator,
    UnionPart,
    UnionSpec,
    classify_translates,
    convolution_closure_check,
    obstruction_trend,
    oversampled_expansion,
    union_sweep,
)
from support import dft_base, oracle_stays_flat, oracle_trend_is_stable, random_system

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


@st.composite
def domains(draw):
    """One to three disjoint intervals of random lengths and gaps."""
    a = draw(st.floats(-3.0, 3.0))
    intervals = []
    for _ in range(draw(st.integers(1, 3))):
        b = a + draw(st.floats(0.05, 2.0))
        intervals.append((a, b))
        a = b + draw(st.floats(0.05, 1.0))
    return Domain(intervals)


@given(dom=domains(), n_per_unit=st.integers(8, 1000), data=st.data())
def test_support_follows_the_cells_not_their_rounded_edges(dom, n_per_unit, data):
    """A multiplier with no zeros is supported on the whole domain, one
    interval per domain interval; one zeroed block of cells inside an
    interval adds exactly one gap."""
    g = make_grid(dom, n_per_unit)
    support = profile_multiplier(g, SampledFunction(g, np.ones(g.size))).support_domain
    assert len(support.intervals) == len(dom.intervals)
    for got, want in zip(support.intervals, dom.intervals):
        assert got == pytest.approx(want, rel=1e-14, abs=1e-14)
    cells = np.flatnonzero(g.interval_index == data.draw(st.sampled_from(range(len(dom.intervals)))))
    if cells.size < 3:
        return
    start = data.draw(st.integers(cells[1], cells[-2]))
    stop = data.draw(st.integers(start + 1, cells[-1]))
    vals = np.ones(g.size)
    vals[start:stop] = 0.0
    gapped = profile_multiplier(g, SampledFunction(g, vals)).support_domain
    assert len(gapped.intervals) == len(dom.intervals) + 1


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


@st.composite
def trend_traces(draw):
    """1-6 values drawn from a pool of zeros, negatives and magnitudes from
    1e-300 to 1e300, each also at the stability edges of itself, so traces
    repeat values and sit on both thresholds."""
    magnitude = st.floats(min_value=1e-300, max_value=1e300)
    pool = draw(st.lists(st.one_of(st.just(0.0), magnitude, magnitude.map(lambda v: -v)),
                         min_size=1, max_size=3))
    edges = [v * f for v in pool for f in (1.0, 1.0 - STABILITY, 1.0 + STABILITY)]
    return draw(st.lists(st.sampled_from(edges), min_size=1, max_size=6))


@settings(max_examples=300)
@given(trend_traces())
def test_both_trend_forms_match_the_reference_rules(values):
    assert trend_is_stable(values) == oracle_trend_is_stable(values)
    assert trend_is_stable(values, ceiling=True) == oracle_stays_flat(values)


def test_both_trend_forms_reject_an_empty_trace():
    for ceiling in (False, True):
        with pytest.raises(ValueError, match="empty trace"):
            trend_is_stable([], ceiling=ceiling)


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


def _rank_deficient(g, rng, rank=8):
    """More members than nodes, all inside a rank-``rank`` subspace."""
    mat = rng.standard_normal((g.size, rank)) @ rng.standard_normal((rank, g.size + 8))
    return SynthesisSystem(g, mat.astype(complex))


@pytest.mark.parametrize("check", ["frame", "riesz", "converse"])
def test_failed_hypothesis_measures_only_the_given_system(monkeypatch, check):
    """The hypothesis is judged on the given system alone: the other one is
    never formed or measured."""
    rng = np.random.default_rng(23)
    g = make_grid(UNIT, 16)
    phi = SampledFunction.from_callable(g, two_plus_sine)
    run = {
        "frame": lambda: check_frame_multiplication(_rank_deficient(g, rng), phi),
        "riesz": lambda: check_riesz_multiplication(random_system(rng, 16, 24), phi),
        "converse": lambda: check_converse(_rank_deficient(g, rng), phi),
    }[check]
    calls = []

    def counted(sys, *args, **kwargs):
        calls.append(sys)
        return measure_bounds(sys, *args, **kwargs)

    monkeypatch.setattr(framelab.multiplication, "measure_bounds", counted)
    with pytest.raises(HypothesisError, match="hypothesis violated"):
        run()
    assert len(calls) == 1


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


def test_every_sweep_reads_the_one_stability_constant(monkeypatch):
    # at 1.0 the floor form asks only for a positive final value, so the
    # vanishing multiplier, the vanishing union and the edge-vanishing
    # spectrum all pass as stable
    monkeypatch.setattr(framelab.multiplication, "STABILITY", 1.0)
    sweep = refine_check(UNIT, dft_base, lambda t: t, "frame")
    assert sweep.predicted_flag and sweep.measured_flag
    assert sweep.trace.stability == 1.0
    lattice = (np.arange(256) - 128) * 0.5
    spec = UnionSpec(
        (UnionPart(Domain([(0.0, 1.0)]), lambda t: t - 0.25, "a"),
         UnionPart(Domain([(1.0, 2.0)]), lambda t: 1 + t, "b")),
        PointSet.from_1d(lattice, box=(lattice[0] - 0.25, lattice[-1] + 0.25)),
    )
    union = union_sweep(spec, levels=(16, 32, 64))
    assert union.predicted_frame and union.measured_frame
    obstruction = obstruction_trend(E, lambda w: 1.0 - np.abs(2.0 * w))
    assert not obstruction.predicted_obstruction and not obstruction.measured_obstruction
    assert obstruction.hat_trace.stability == 1.0
    # at 0.0 the ceiling form asks for a perfectly flat supremum
    monkeypatch.setattr(framelab.multiplication, "STABILITY", 0.0)
    bessel = refine_check(E, dft_base, two_plus_sine, "bessel", levels=(32, 64))
    assert not bessel.predicted_flag and not bessel.measured_flag
    assert bessel.trace.stability == 0.0
    # the same union sweep at the shipped constant: p_hat and the stacked
    # lower bound both sink
    monkeypatch.undo()
    union = union_sweep(spec, levels=(16, 32, 64))
    assert not union.predicted_frame and not union.measured_frame


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


# --- member count against node count ------------------------------------------


def _few_members():
    """Three exponentials on a 32-node grid: K < n, so never a frame of the space."""
    g = make_grid(E, 32)
    ps = PointSet.from_1d([0.0, 1.0, 2.0])
    return g, ps, SampledFunction(g, 2.0 + np.sin(2 * np.pi * g.nodes))


def _run_with_few_members(case):
    g, ps, phi = _few_members()
    sys = exponential_system(g, ps)
    if case == "converse":
        return check_converse(multiply_system(sys, phi), phi)
    if case == "translates":
        return classify_translates(Generator(phi), ps)
    if case == "expansion":
        return oversampled_expansion(phi, Generator(SampledFunction(g, np.ones(g.size))), ps, E)
    if case == "convolution":
        return convolution_closure_check(Generator(phi), Generator(phi), ps, "frame")
    checks = {"frame": check_frame_multiplication, "tight": check_tight_multiplication,
              "frame_sequence": check_frame_sequence_multiplication}
    return checks[case](sys, phi)


@pytest.mark.parametrize("case", ["frame", "tight", "frame_sequence", "converse", "translates",
                                  "expansion", "convolution"])
def test_fewer_members_than_nodes_fail_before_any_eigensolve(monkeypatch, case):
    calls = []
    for module in (framelab.multiplication, framelab.translates):
        monkeypatch.setattr(module, "measure_bounds",
                            lambda *a, **k: calls.append(1) or measure_bounds(*a, **k))
    with pytest.raises(HypothesisError, match="not a (tight )?frame") as info:
        _run_with_few_members(case)
    assert "3 members cannot span 32 nodes" in str(info.value)
    assert calls == []
