"""Pointwise multiplier checks: measured against predicted frame properties.

A bounded multiplier phi sends a system {psi_k} to {phi psi_k}.  On a fixed
grid the prediction "bounded below" is undecidable (every sampled multiplier
with nonzero values looks bounded below), so the decision threshold is not a
single number: a refinement sweep certifies it by watching the essential
infimum across grid doublings.  Stable means bounded below; a trace that keeps
sinking means the infimum is heading to zero.

Every check follows one pattern: multiply a system with bounds A, B by phi,
and the product's bounds land in [A ess inf |phi|^2, B ess sup |phi|^2].
Translate systems are the same pattern with phi = hhat acting on the
exponential system, so their classification lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .domain import Domain, Grid, SampledFunction, extend_grid, make_grid
from .errors import FrameLabError, HypothesisError
from .framecore import (RANK_TOL, TIGHT_SPREAD, FrameReport, SynthesisSystem, exponential_system,
                        measure_bounds)
from .pointset import PointSet
from .records import Record

if TYPE_CHECKING:
    from .translates import Generator

__all__ = [
    "MultiplierProfile",
    "RefinementTrace",
    "MultCheckReport",
    "MultSweepReport",
    "profile_multiplier",
    "multiply_system",
    "profile_refinement",
    "trend_is_stable",
    "check_frame_multiplication",
    "check_tight_multiplication",
    "check_riesz_multiplication",
    "check_bessel_multiplication",
    "check_converse",
    "check_frame_sequence_multiplication",
    "refine_check",
    "require_members",
    "ZERO_TOL",
    "ENVELOPE_SLACK",
    "STABILITY",
    "AMBIENT_PAD_CELLS",
    "DEFAULT_LEVELS",
]

# The fixed values every check runs on; reports carry the first and third
# (``multiplier.zero_tol``, ``trace.stability``).
ZERO_TOL = 1e-12  # node magnitudes at or below this share of the largest count as zeros
ENVELOPE_SLACK = 1e-9  # measured bounds may overshoot an envelope by this share of its top
STABILITY = 0.05  # a trace is stable when its last value keeps this share of its peak
AMBIENT_PAD_CELLS = 8  # zero cells padded on each side in the frame-sequence ambient check
DEFAULT_LEVELS = (64, 128, 256)  # nodes per unit length of a sweep's grids, coarse to fine


@dataclass(frozen=True, eq=False)
class MultiplierProfile(Record):
    """Grid-level magnitude summary of a multiplier.

    ``zero_tol`` (``ZERO_TOL``) is relative to the largest magnitude; nodes at
    or below it count as zeros.  ``support_domain`` merges the quadrature
    cells of the surviving nodes (None when everything vanishes).
    """

    phi: SampledFunction = field(repr=False)
    ess_inf: float
    ess_sup: float
    zero_measure_fraction: float
    support_domain: Domain | None
    zero_tol: float
    support_mask: np.ndarray = field(repr=False)
    ess_inf_support: float = field(default=math.inf, repr=False)

    _keys = {"support_domain": "support"}

    @property
    def bounded_below_on_grid(self) -> bool:
        """Single-grid surrogate: no zeros at this resolution (every node
        magnitude above ``zero_tol`` times the largest, and positive)."""
        return self.ess_inf > self.zero_tol * self.ess_sup and self.ess_inf > 0.0


def profile_multiplier(g: Grid, phi: SampledFunction) -> MultiplierProfile:
    if not phi.grid.matches(g):
        raise FrameLabError("multiplier is not sampled on the requested grid")
    mag = np.abs(phi.values)
    sup = float(mag.max())
    mask = mag > ZERO_TOL * sup
    zero_fraction = float(np.sum(g.weights[~mask]) / g.domain.measure)
    support = _cells_to_domain(g, mask)
    inf_support = float(mag[mask].min()) if mask.any() else math.inf
    return MultiplierProfile(
        phi=phi,
        ess_inf=float(mag.min()),
        ess_sup=sup,
        zero_measure_fraction=zero_fraction,
        support_domain=support,
        zero_tol=ZERO_TOL,
        support_mask=mask,
        ess_inf_support=inf_support,
    )


def _cells_to_domain(g: Grid, mask: np.ndarray) -> Domain | None:
    if not mask.any():
        return None
    left, right = g.cell_bounds()
    return Domain.merged(zip(left[mask], right[mask]))


def multiply_system(sys: SynthesisSystem, phi: SampledFunction) -> SynthesisSystem:
    if not phi.grid.matches(sys.grid):
        raise FrameLabError("multiplier is not sampled on the system grid")
    return sys.multiplied(phi.values)


def trend_is_stable(values) -> bool:
    """True when the final value stays within ``STABILITY`` of the trace peak.

    Used on essential-infimum and lower-bound traces across grid doublings:
    a bounded-below quantity settles; one sinking toward zero keeps losing
    ground against its own maximum.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("empty trace")
    peak = max(values)
    if peak <= 0.0:
        return False
    return values[-1] > 0.0 and values[-1] >= (1.0 - STABILITY) * peak


def _stays_flat(values) -> bool:
    """The supremum rule: the largest value stays within ``STABILITY`` of the
    smallest (a growing supremum emulates an unbounded one)."""
    return max(values) <= (1.0 + STABILITY) * min(values) if min(values) > 0 else False


def refinement_levels(levels) -> tuple:
    """The one level rule of every refinement sweep: at least two levels,
    positive and strictly increasing (a single level certifies no trend)."""
    levels = tuple(int(l) for l in levels)
    if len(levels) < 2 or levels[0] < 1 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("a sweep needs at least two refinement levels, positive and "
                         f"strictly increasing; got {list(levels)}")
    return levels


def within_envelope(envelope: tuple, bounds: tuple) -> bool:
    """Measured ``bounds`` (lo, hi) inside ``envelope`` (lo, hi), up to
    ``ENVELOPE_SLACK`` relative to the envelope's upper end."""
    lo, hi = envelope
    tol = ENVELOPE_SLACK * max(abs(hi), 1e-300)
    return bounds[0] >= lo - tol - 1e-300 and bounds[1] <= hi + tol


@dataclass(frozen=True)
class RefinementTrace(Record):
    """Multiplier extrema across grid refinements of one domain.

    ``samples`` holds the multiplier sampled on each level's grid, so sweeps
    measure on the very grids the trace was taken on.
    """

    levels: tuple
    ess_inf: tuple
    ess_sup: tuple
    ess_inf_support: tuple
    bounded_below: bool
    bounded_below_on_support: bool
    sup_stable: bool
    stability: float
    samples: tuple = field(default=(), repr=False, compare=False)


def profile_refinement(dom: Domain, phi_fn, levels=DEFAULT_LEVELS) -> RefinementTrace:
    """Sample a callable multiplier on successively finer grids and certify
    whether its magnitude stays bounded below (and its supremum stable)."""
    levels = refinement_levels(levels)
    samples = tuple(SampledFunction.from_callable(make_grid(dom, lv), phi_fn) for lv in levels)
    infs, sups, inf_sups = [], [], []
    for phi in samples:
        prof = profile_multiplier(phi.grid, phi)
        infs.append(prof.ess_inf)
        sups.append(prof.ess_sup)
        inf_sups.append(prof.ess_inf_support if math.isfinite(prof.ess_inf_support) else 0.0)
    return RefinementTrace(
        levels=levels,
        ess_inf=tuple(infs),
        ess_sup=tuple(sups),
        ess_inf_support=tuple(inf_sups),
        bounded_below=trend_is_stable(infs),
        bounded_below_on_support=trend_is_stable(inf_sups),
        sup_stable=_stays_flat(sups),
        stability=STABILITY,
        samples=samples,
    )


@dataclass(frozen=True)
class MultCheckReport(Record):
    """Predicted versus measured status of a multiplied system.

    ``envelope`` is [base_lower * ess_inf^2, base_upper * ess_sup^2] (or the
    check-specific analogue); ``consistent`` states that predictions matched
    measurements and that measured bounds landed inside the envelope whenever
    the prediction promised a frame-type property.
    """

    check: str
    profile: MultiplierProfile
    base_report: FrameReport
    mult_report: FrameReport
    predicted: dict
    measured: dict
    envelope: tuple | None
    envelope_holds: bool | None
    consistent: bool
    details: dict

    _keys = {"profile": "multiplier", "base_report": "base", "mult_report": "multiplied"}


# ---------------------------------------------------------------------------
# the check skeleton: prepare -> hypothesis -> predict/measure -> envelope ->
# report.  Each kind supplies the parts that differ.


class _Prepared(NamedTuple):
    base_report: FrameReport
    profile: MultiplierProfile
    mult: SynthesisSystem
    mult_report: FrameReport


def _prepare(sys: SynthesisSystem, phi: SampledFunction, rank_tol: float) -> _Prepared:
    base_report = measure_bounds(sys, rank_tol)
    profile = profile_multiplier(sys.grid, phi)
    mult = multiply_system(sys, phi)
    return _Prepared(base_report, profile, mult, measure_bounds(mult, rank_tol))


def _prepare_converse(sys_mult: SynthesisSystem, phi: SampledFunction,
                      rank_tol: float) -> _Prepared:
    """Divide the multiplier back out: the recovered system plays the base."""
    profile = profile_multiplier(sys_mult.grid, phi)
    if not profile.bounded_below_on_grid:
        raise FrameLabError("division by near-zero multiplier")
    mult_report = measure_bounds(sys_mult, rank_tol)
    recovered = multiply_system(sys_mult, SampledFunction(sys_mult.grid, 1.0 / phi.values))
    return _Prepared(measure_bounds(recovered, rank_tol), profile, sys_mult, mult_report)


def _bounds(report: FrameReport) -> tuple:
    return (report.lower, report.upper)


def _product_envelope(p: _Prepared) -> tuple:
    return (p.base_report.lower * p.profile.ess_inf**2, p.base_report.upper * p.profile.ess_sup**2)


def _bounded_below(profile: MultiplierProfile, trace: RefinementTrace | None) -> bool:
    return trace.bounded_below if trace is not None else profile.bounded_below_on_grid


def _bounded_below_on_support(profile: MultiplierProfile, trace: RefinementTrace | None) -> bool:
    if trace is not None:
        return trace.bounded_below_on_support
    return math.isfinite(profile.ess_inf_support) and profile.ess_inf_support > 0.0


# Judges: (prepared, trace, **options) -> (predicted, measured, envelope,
# the bounds it brackets, the predicted key that turns the bracket check on
# (None: always on), other conditions hold, details).


def _judge_frame(p, trace):
    predicted = {
        "frame": _bounded_below(p.profile, trace),
        "complete": p.profile.zero_measure_fraction == 0.0,
    }
    measured = {
        "frame": p.mult_report.flags.frame_for_whole_space,
        "complete": p.mult_report.rank == p.mult_report.dim_space,
    }
    return predicted, measured, _product_envelope(p), _bounds(p.mult_report), "frame", True, {}


def _judge_tight(p, trace):
    prof = p.profile
    unimodular = prof.ess_inf > 0.0 and (prof.ess_sup - prof.ess_inf) <= TIGHT_SPREAD * prof.ess_sup
    flags = p.mult_report.flags
    spread = p.mult_report.upper - p.mult_report.lower
    return ({"tight": unimodular}, {"tight": flags.tight and flags.frame_for_whole_space},
            _product_envelope(p), _bounds(p.mult_report), None, True, {"spread": spread})


def _judge_riesz(p, trace):
    predicted = {"riesz": _bounded_below(p.profile, trace)}
    rep = p.mult_report
    measured = {"riesz": rep.flags.riesz_sequence and rep.rank == rep.dim_space}
    # the base is a Riesz basis (K <= n), so measure_bounds kept the Gram extremes
    g_extremes = rep.gram_extremes
    base_g = p.base_report.gram_extremes
    envelope = (base_g[0] * p.profile.ess_inf**2, base_g[1] * p.profile.ess_sup**2)
    return predicted, measured, envelope, g_extremes, "riesz", True, {"gram_extremes": g_extremes}


def _judge_bessel(p, trace):
    bound = p.base_report.upper * p.profile.ess_sup**2
    measured = {"bessel": p.mult_report.flags.bessel}
    details = {
        "upper_bound": bound,
        "unbounded_trend": trace is not None and not trace.sup_stable,
    }
    return {"bessel": True}, measured, (0.0, bound), _bounds(p.mult_report), None, True, details


def _judge_frame_sequence(p, trace):
    """Three measurements: the rank matches the support node count; the
    retained bounds land in the support-restricted envelope; and padding the
    ambient domain with zero cells moves nothing."""
    prof, mult, mult_report = p.profile, p.mult, p.mult_report
    if prof.support_domain is None:
        raise FrameLabError("zero multiplier: empty support")
    n_support = int(prof.support_mask.sum())
    rank_ok = mult_report.rank == n_support
    predicted = {"frame_sequence": _bounded_below_on_support(prof, trace)}
    measured = {"frame_sequence": mult_report.flags.frame_sequence}
    inf_support = prof.ess_inf_support if math.isfinite(prof.ess_inf_support) else 0.0
    envelope = (p.base_report.lower * inf_support**2, p.base_report.upper * prof.ess_sup**2)

    pad = AMBIENT_PAD_CELLS
    big_grid = extend_grid(mult.grid, pad, pad)
    big_members = np.zeros((big_grid.size, mult.size), dtype=complex)
    big_members[pad : pad + mult.grid.size, :] = mult.matrix
    big_report = measure_bounds(
        SynthesisSystem(big_grid, big_members, mult.labels), mult_report.rank_tol
    )
    scale = max(mult_report.upper, 1e-300)
    ambient_ok = (
        big_report.rank == mult_report.rank
        and abs(big_report.lower - mult_report.lower) <= 1e-10 * scale
        and abs(big_report.upper - mult_report.upper) <= 1e-10 * scale
    )
    details = {
        "support_nodes": n_support,
        "rank_matches_support": bool(rank_ok),
        "ambient_invariant": bool(ambient_ok),
        "ambient_bounds": _bounds(big_report),
        "ess_inf_support": prof.ess_inf_support,
    }
    return (predicted, measured, envelope, _bounds(mult_report), "frame_sequence",
            rank_ok and ambient_ok, details)


def _judge_converse(p, trace):
    envelope = (
        p.mult_report.lower / p.profile.ess_sup**2,
        p.mult_report.upper / p.profile.ess_inf**2,
    )
    measured = {"frame": p.base_report.flags.frame_for_whole_space}
    return {"frame": True}, measured, envelope, _bounds(p.base_report), None, True, {}


def _judge_translates(p, trace, label):
    n_support = int(p.profile.support_mask.sum())
    rank_ok = p.mult_report.rank == n_support
    flags = p.mult_report.flags
    predicted = {
        "bessel": True,
        "frame": _bounded_below(p.profile, trace),
        "frame_sequence": _bounded_below_on_support(p.profile, trace),
    }
    measured = {
        "bessel": flags.bessel,
        "frame": flags.frame_for_whole_space,
        "frame_sequence": flags.frame_sequence,
    }
    details = {
        "generator": label,
        "support_nodes": n_support,
        "rank_matches_support": bool(rank_ok),
    }
    return (predicted, measured, _product_envelope(p), _bounds(p.mult_report), "frame", rank_ok,
            details)


@dataclass(frozen=True)
class _Kind:
    """One check kind, as the skeleton and refinement sweeps read it.

    The skeleton runs ``prepare``, demands ``hypothesis`` (None: no
    hypothesis; ``violation`` says what failed), lets ``judge`` predict,
    measure and name the bracket, and tests it.  A sweep traces ``metric`` per level, takes its
    prediction from ``predict(trace, reports)``, its measurement from
    ``trend(metric, reports)`` and requires ``level_ok`` of every
    level report.  ``spans``: the hypothesis demands a frame of the whole
    space, checked against the member count before anything is measured.
    """

    prepare: Callable
    hypothesis: Callable | None
    violation: str
    judge: Callable
    traced: bool = True
    metric: Callable | None = None
    predict: Callable | None = None
    trend: Callable = lambda metric, reports: trend_is_stable(metric)
    level_ok: Callable = lambda r: r.envelope_holds
    spans: bool = False


def require_members(sys: SynthesisSystem, violation: str) -> None:
    """Fail a frame-of-the-whole-space hypothesis before any eigensolve when
    the system has fewer members than nodes (K vectors cannot span n)."""
    if sys.size < sys.grid.size:
        raise HypothesisError(f"hypothesis violated: {violation} ({sys.size} members "
                              f"cannot span {sys.grid.size} nodes)")


_NOT_A_FRAME = "base system is not a frame of the whole space"


def _is_frame(p: _Prepared) -> bool:
    return p.base_report.flags.frame_for_whole_space


_KINDS = {
    "frame": _Kind(
        _prepare, _is_frame, _NOT_A_FRAME, _judge_frame, spans=True,
        metric=lambda r: r.mult_report.lower,
        predict=lambda trace, reports: trace.bounded_below,
    ),
    "tight": _Kind(
        _prepare, lambda p: p.base_report.flags.tight and _is_frame(p),
        "base system is not a tight frame", _judge_tight, spans=True,
        metric=lambda r: r.mult_report.upper - r.mult_report.lower,
        predict=lambda trace, reports: reports[0].predicted["tight"],
        trend=lambda metric, reports: all(r.measured["tight"] for r in reports),
    ),
    "riesz": _Kind(
        _prepare,
        lambda p: p.base_report.flags.riesz_sequence
        and p.base_report.rank == p.base_report.dim_space,
        "base system is not a Riesz basis", _judge_riesz,
        metric=lambda r: r.details["gram_extremes"][0],
        predict=lambda trace, reports: trace.bounded_below,
    ),
    "bessel": _Kind(
        _prepare, None, "", _judge_bessel,
        metric=lambda r: r.mult_report.upper,
        predict=lambda trace, reports: trace.sup_stable,
        trend=lambda metric, reports: _stays_flat(metric),
        level_ok=lambda r: r.consistent,
    ),
    "frame_sequence": _Kind(
        _prepare, _is_frame, _NOT_A_FRAME, _judge_frame_sequence, spans=True,
        metric=lambda r: r.mult_report.lower,
        predict=lambda trace, reports: trace.bounded_below_on_support,
    ),
    "converse": _Kind(
        _prepare_converse, lambda p: p.mult_report.flags.frame_for_whole_space,
        "multiplied system is not a frame", _judge_converse, traced=False, spans=True,
    ),
    "translates": _Kind(
        _prepare, _is_frame, "the exponential system is not a frame of the sampled band",
        _judge_translates, spans=True,
    ),
}


def _measured(check: str, p: _Prepared) -> str:
    """The numbers a check's hypothesis was judged on, for its failure message."""
    r = p.mult_report if check == "converse" else p.base_report
    text = (f"measured rank {r.rank} of n = {r.dim_space} at rank_tol {r.rank_tol:g}, "
            f"retained bounds [{r.lower:.6g}, {r.upper:.6g}]")
    if check == "tight":
        text += f", spread {r.upper - r.lower:.6g} against {TIGHT_SPREAD:g} * upper"
    elif check == "riesz":
        extremes = ("not measured: more members than nodes" if r.gram_extremes is None
                    else "[%.6g, %.6g]" % r.gram_extremes)
        text += f", {r.n_members} members, Gram extremes {extremes}"
    return text


def _run_check(check: str, sys: SynthesisSystem, phi: SampledFunction, rank_tol: float,
               trace: RefinementTrace | None, **options) -> MultCheckReport:
    kind = _KINDS[check]
    if kind.spans:
        require_members(sys, kind.violation)
    prepared = kind.prepare(sys, phi, rank_tol)
    if kind.hypothesis is not None and not kind.hypothesis(prepared):
        raise HypothesisError(f"hypothesis violated: {kind.violation} "
                              f"({_measured(check, prepared)})")
    try:
        predicted, measured, envelope, bounds, gate, others_hold, details = kind.judge(
            prepared, trace, **options
        )
    except OverflowError as exc:
        # ess_sup**2 past double precision on a product whose spectrum fits
        raise FrameLabError(f"overflow: the {check} envelope exceeds double precision") from exc
    # the one bracket test of every kind; a prediction that promises no
    # frame-type property turns it off
    holds = within_envelope(envelope, bounds) or (gate is not None and not predicted[gate])
    if kind.traced:
        details["trace"] = None if trace is None else trace.to_dict()
    return MultCheckReport(
        check=check,
        profile=prepared.profile,
        base_report=prepared.base_report,
        mult_report=prepared.mult_report,
        predicted=predicted,
        measured=measured,
        envelope=envelope,
        envelope_holds=bool(holds),
        consistent=bool(predicted == measured and holds and others_hold),
        details=details,
    )


def check_frame_multiplication(sys: SynthesisSystem, phi: SampledFunction,
                               rank_tol: float = RANK_TOL,
                               trace: RefinementTrace | None = None) -> MultCheckReport:
    """Does {phi psi_k} remain a frame of the whole sampled space?

    Predicted from the multiplier magnitude being bounded away from zero
    (certified by ``trace`` when given, otherwise the single-grid surrogate);
    measured from the spectrum of the multiplied system.  Completeness rides
    along: a multiplier with no zero cells keeps the span full.
    """
    return _run_check("frame", sys, phi, rank_tol, trace)


def check_tight_multiplication(sys: SynthesisSystem, phi: SampledFunction,
                               rank_tol: float = RANK_TOL,
                               trace: RefinementTrace | None = None) -> MultCheckReport:
    """Does a tight base stay tight?  Only constant-magnitude multipliers keep
    the spread at zero."""
    return _run_check("tight", sys, phi, rank_tol, trace)


def check_riesz_multiplication(sys: SynthesisSystem, phi: SampledFunction,
                               rank_tol: float = RANK_TOL,
                               trace: RefinementTrace | None = None) -> MultCheckReport:
    """Does a Riesz basis stay a Riesz basis?  Measured on the Gram spectrum."""
    return _run_check("riesz", sys, phi, rank_tol, trace)


def check_bessel_multiplication(sys: SynthesisSystem, phi: SampledFunction,
                                rank_tol: float = RANK_TOL,
                                trace: RefinementTrace | None = None) -> MultCheckReport:
    """Upper-bound control: the multiplied upper bound sits below
    base_upper * ess_sup^2.  A growing supremum trace flags an unbounded
    multiplier being emulated at grid scale."""
    return _run_check("bessel", sys, phi, rank_tol, trace)


def check_converse(sys_mult: SynthesisSystem, phi: SampledFunction,
                   rank_tol: float = RANK_TOL) -> MultCheckReport:
    """Given {phi psi_k} measured as a frame and a multiplier bounded away
    from zero, recover the base system by dividing and check its bounds land
    in [alpha / ess_sup^2, beta / ess_inf^2]."""
    return _run_check("converse", sys_mult, phi, rank_tol, None)


def check_frame_sequence_multiplication(sys: SynthesisSystem, phi: SampledFunction,
                                        rank_tol: float = RANK_TOL,
                                        trace: RefinementTrace | None = None) -> MultCheckReport:
    """A multiplier supported on part of the domain yields a frame for the
    subspace of functions living on that support.

    Three measurements: the Gram rank matches the support node count; the
    retained bounds land in the support-restricted envelope; and padding the
    ambient domain with zero cells moves nothing (the verdict belongs to the
    span, not the ambient space).
    """
    return _run_check("frame_sequence", sys, phi, rank_tol, trace)


def classify_translates(gen: Generator, ps: PointSet, rank_tol: float = RANK_TOL,
                        trace: RefinementTrace | None = None) -> MultCheckReport:
    """Frame status of the translate system, via the multiplier dictionary.

    The exponential system on the frequency grid must itself be a frame of
    the sampled space; the generator's spectrum then acts as the multiplier.
    Predictions: always Bessel; frame iff |hhat| bounded below on the band;
    frame sequence for the subspace carried by the support of hhat.
    """
    return _run_check("translates", exponential_system(gen.grid, ps), gen.hat, rank_tol,
                      trace, label=gen.label)


_CHECKS = {
    "frame": check_frame_multiplication,
    "tight": check_tight_multiplication,
    "riesz": check_riesz_multiplication,
    "bessel": check_bessel_multiplication,
    "frame_sequence": check_frame_sequence_multiplication,
}


@dataclass(frozen=True)
class MultSweepReport(Record):
    """Refinement-certified multiplier check.

    Per-level reports plus the certified verdict: the prediction comes from
    the multiplier trace, the measurement from the per-level bound trend
    judged by the same stability rule.
    """

    check: str
    levels: tuple
    reports: tuple
    trace: RefinementTrace
    metric_trend: tuple
    predicted_flag: bool
    measured_flag: bool
    consistent: bool


def refine_check(dom: Domain, system_factory, phi_fn, check: str = "frame",
                 levels=DEFAULT_LEVELS, rank_tol: float = RANK_TOL) -> MultSweepReport:
    """Run one multiplier check across grid refinements and certify the trend.

    ``system_factory(grid)`` builds the base system at each level;
    ``phi_fn(nodes)`` samples the multiplier.  The per-level metric is the
    lower bound for frame-type checks, the Gram minimum for the Riesz check,
    and the upper bound (stability of the supremum) for the Bessel check.
    """
    if check not in _CHECKS:
        raise ValueError(f"unknown check kind {check!r}")
    kind = _KINDS[check]
    trace = profile_refinement(dom, phi_fn, levels)
    reports = [
        _CHECKS[check](system_factory(phi.grid), phi, rank_tol=rank_tol, trace=trace)
        for phi in trace.samples
    ]
    metric = [float(kind.metric(r)) for r in reports]
    predicted = kind.predict(trace, reports)
    measured = kind.trend(metric, reports)
    consistent = predicted == measured and all(kind.level_ok(r) for r in reports)
    return MultSweepReport(
        check=check,
        levels=trace.levels,
        reports=tuple(reports),
        trace=trace,
        metric_trend=tuple(metric),
        predicted_flag=bool(predicted),
        measured_flag=bool(measured),
        consistent=bool(consistent),
    )
