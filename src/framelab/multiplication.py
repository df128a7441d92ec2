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
exponential system, so their classification lives here too; the converse
divides phi back out of a product.  Every check runs in one order: profile
the multiplier, measure the given system, judge its hypothesis on that one
report, and only then form and measure the other system, so a failed
hypothesis never builds or diagonalizes the product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from .domain import Domain, Grid, SampledFunction, make_grid
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
    "DEFAULT_LEVELS",
]

# The fixed values every check runs on; reports carry the first and third
# (``multiplier.zero_tol``, ``trace.stability``).
ZERO_TOL = 1e-12  # node magnitudes at or below this share of the largest count as zeros
ENVELOPE_SLACK = 1e-9  # measured bounds may overshoot an envelope by this share of its top
STABILITY = 0.05  # a trace is stable when its last value keeps this share of its peak
DEFAULT_LEVELS = (64, 128, 256)  # nodes per unit length of a sweep's grids, coarse to fine


@dataclass(frozen=True, eq=False)
class MultiplierProfile(Record):
    """Grid-level magnitude summary of a multiplier.

    ``zero_tol`` (``ZERO_TOL``) is relative to the largest magnitude; nodes at
    or below it count as zeros.  ``support_domain`` merges the quadrature
    cells of the surviving nodes (None when everything vanishes).
    """

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
    # one interval per run of kept cells within one grid interval, found by
    # index: neighbouring cell edges may round an ulp apart, so merging the
    # edges by value would split the run
    kept = np.flatnonzero(mask)
    cut = np.flatnonzero((np.diff(kept) > 1) | (np.diff(g.interval_index[kept]) != 0)) + 1
    first, last = kept[np.r_[0, cut]], kept[np.r_[cut - 1, kept.size - 1]]
    left, right = g.cell_bounds()
    return Domain.merged(zip(left[first], right[last]))


def multiply_system(sys: SynthesisSystem, phi: SampledFunction) -> SynthesisSystem:
    if not phi.grid.matches(sys.grid):
        raise FrameLabError("multiplier is not sampled on the system grid")
    return sys.multiplied(phi.values)


def trend_is_stable(values, *, ceiling: bool = False) -> bool:
    """The one trend rule of every refinement sweep, judged by ``STABILITY``.

    Floor form (an infimum or a lower bound): the final value is positive and
    keeps ``1 - STABILITY`` of the peak; one sinking toward zero keeps losing
    ground.  Ceiling form (a supremum or an upper bound): the largest value
    stays within ``1 + STABILITY`` of the smallest, which is positive; a
    growing supremum emulates an unbounded one.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("empty trace")
    low, high = min(values), max(values)
    if ceiling:
        return low > 0.0 and high <= (1.0 + STABILITY) * low
    return values[-1] > 0.0 and values[-1] >= (1.0 - STABILITY) * high


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
        sup_stable=trend_is_stable(sups, ceiling=True),
        stability=STABILITY,
        samples=samples,
    )


@dataclass(frozen=True, eq=False)
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
# the check skeleton: profile -> measure the given system -> hypothesis ->
# form and measure the other -> judge -> envelope -> report.  Each kind
# supplies the parts that differ.


class _Prepared(NamedTuple):
    base_report: FrameReport
    profile: MultiplierProfile
    mult_report: FrameReport


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
    """Two measurements: the rank matches the support node count, and the
    retained bounds land in the support-restricted envelope; the padding
    identity makes the product's bounds its ambient ones."""
    prof, mult_report = p.profile, p.mult_report
    if prof.support_domain is None:
        raise FrameLabError("zero multiplier: empty support")
    n_support = int(prof.support_mask.sum())
    rank_ok = mult_report.rank == n_support
    predicted = {"frame_sequence": _bounded_below_on_support(prof, trace)}
    measured = {"frame_sequence": mult_report.flags.frame_sequence}
    envelope = (p.base_report.lower * prof.ess_inf_support**2,
                p.base_report.upper * prof.ess_sup**2)
    # padding identity: zero cells in the ambient domain add zero rows to U,
    # so G = U^H U and every retained eigenvalue of S stay exactly the same;
    # where both spectra fit the budget, measure_bounds has already
    # cross-checked the structured S against G, the independent measurement
    details = {
        "support_nodes": n_support,
        "rank_matches_support": bool(rank_ok),
        "ambient_invariant": True,
        "ambient_bounds": _bounds(mult_report),
        "ess_inf_support": prof.ess_inf_support,
    }
    return (predicted, measured, envelope, _bounds(mult_report), "frame_sequence", rank_ok,
            details)


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

    The skeleton runs one order for every kind: profile the multiplier,
    measure the given system, judge the hypothesis on that one report, and
    only then form and measure the other system.  A kind with a
    ``violation`` has a hypothesis, which demands at least a frame of the
    whole space: it is checked against the member count before anything is
    measured and then on the given report, beside the kind's own
    ``hypothesis`` (None: nothing more); ``violation`` says what failed.
    ``converse``: the given system is the product, and the other is
    formed by dividing the multiplier back out, so it plays the base.
    ``judge`` predicts, measures and names the bracket, which the skeleton
    tests.  A sweep traces ``metric`` per level and takes its prediction from
    the ``RefinementTrace`` verdict named by ``predicted_by`` (None: the tight
    rule of ``refine_check``); a converse check has no trace.
    """

    judge: Callable
    violation: str = ""
    hypothesis: Callable | None = None
    converse: bool = False
    metric: Callable | None = None
    predicted_by: str | None = None


def require_members(sys: SynthesisSystem, violation: str) -> None:
    """Fail a frame-of-the-whole-space hypothesis before any eigensolve when
    the system has fewer members than nodes (K vectors cannot span n)."""
    if sys.size < sys.grid.size:
        raise HypothesisError(f"hypothesis violated: {violation} ({sys.size} members "
                              f"cannot span {sys.grid.size} nodes)")


_NOT_A_FRAME = "base system is not a frame of the whole space"

_KINDS = {
    "frame": _Kind(
        _judge_frame, _NOT_A_FRAME,
        metric=lambda r: r.mult_report.lower, predicted_by="bounded_below",
    ),
    "tight": _Kind(
        _judge_tight, "base system is not a tight frame", lambda r: r.flags.tight,
        metric=lambda r: r.mult_report.upper - r.mult_report.lower,
    ),
    "riesz": _Kind(
        _judge_riesz, "base system is not a Riesz basis", lambda r: r.flags.riesz_sequence,
        metric=lambda r: r.details["gram_extremes"][0], predicted_by="bounded_below",
    ),
    "bessel": _Kind(
        _judge_bessel, metric=lambda r: r.mult_report.upper, predicted_by="sup_stable",
    ),
    "frame_sequence": _Kind(
        _judge_frame_sequence, _NOT_A_FRAME,
        metric=lambda r: r.mult_report.lower, predicted_by="bounded_below_on_support",
    ),
    "converse": _Kind(_judge_converse, "multiplied system is not a frame", converse=True),
    "translates": _Kind(
        _judge_translates, "the exponential system is not a frame of the sampled band",
    ),
}


def _measured(r: FrameReport, check: str = "") -> str:
    """The numbers of ``r`` that a hypothesis was judged on, for its failure
    message; ``check`` adds the tight spread or the Riesz Gram extremes."""
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
    if kind.violation:
        require_members(sys, kind.violation)
    profile = profile_multiplier(sys.grid, phi)
    if kind.converse and not profile.bounded_below_on_grid:
        raise FrameLabError("division by near-zero multiplier")
    given = measure_bounds(sys, rank_tol)
    if (kind.violation and not given.flags.frame_for_whole_space
            or kind.hypothesis is not None and not kind.hypothesis(given)):
        raise HypothesisError(f"hypothesis violated: {kind.violation} "
                              f"({_measured(given, check)})")
    other = measure_bounds(sys.multiplied(1 / phi.values if kind.converse else phi.values),
                           rank_tol)
    prepared = (_Prepared(other, profile, given) if kind.converse
                else _Prepared(given, profile, other))
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
    if not kind.converse:
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

    Two measurements: the rank matches the support node count, and the
    retained bounds land in the support-restricted envelope.  The padding
    identity (zero cells in the ambient domain are zero rows of U, which move
    no retained eigenvalue) makes the product's bounds its ambient bounds:
    the verdict belongs to the span, not the ambient space.
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


@dataclass(frozen=True, eq=False)
class MultSweepReport(Record):
    """Refinement-certified multiplier check.

    Per-level reports plus the certified verdict: the multiplier trace
    predicts and the per-level metric trend measures, by the one trend rule;
    a tight sweep predicts from level 0 and measures every level instead.
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

    ``system_factory(grid)`` builds the base system at each level, all before
    the first eigensolve, so that a level it refuses (``exponential_system``'s
    ``PhaseError``) costs none; ``phi_fn(nodes)`` samples the multiplier.  The
    per-level metric is the lower bound for frame-type checks and the Gram
    minimum for the Riesz check (floor form of ``trend_is_stable``), the upper
    bound for the Bessel check (ceiling form), and the spread for the tight
    check, where level 0 predicts and every level must measure tight.
    """
    if check not in _CHECKS:
        raise ValueError(f"unknown check kind {check!r}")
    kind = _KINDS[check]
    trace = profile_refinement(dom, phi_fn, levels)
    systems = [system_factory(phi.grid) for phi in trace.samples]
    reports = [_CHECKS[check](base, phi, rank_tol=rank_tol, trace=trace)
               for base, phi in zip(systems, trace.samples)]
    metric = [float(kind.metric(r)) for r in reports]
    if kind.predicted_by is None:
        predicted = reports[0].predicted["tight"]
        measured = all(r.measured["tight"] for r in reports)
    else:
        predicted = getattr(trace, kind.predicted_by)
        measured = trend_is_stable(metric, ceiling=kind.predicted_by == "sup_stable")
    consistent = predicted == measured and all(r.envelope_holds for r in reports)
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
