"""Translate systems of a bandlimited generator, measured in frequency.

For h with spectrum supported on a bounded set, the shifted copies h(. - l)
pair with a bandlimited f through <f, h(. - l)> = <fhat, e_l hhat>, so every
translate measurement here is a multiplier measurement on the frequency grid:
the translate system of h along a point set is the exponential system times
hhat.  Nothing here evaluates in time: the time-side quadrature that confirms
the dictionary is unitary at the discrete level is a test oracle.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .domain import Domain, Grid, SampledFunction, dilate
from .domain import make_grid
from .errors import FrameLabError, HypothesisError, input_file
from .framecore import (
    MAX_ITER,
    RANK_TOL,
    RECON_TOL,
    FrameReport,
    SynthesisSystem,
    exponential_system,
    measure_bounds,
    reconstruct_all,
    synthesize,
)
from .multiplication import (
    DEFAULT_LEVELS,
    RefinementTrace,
    classify_translates,
    multiply_system,
    profile_multiplier,
    profile_refinement,
    refinement_levels,
    require_frame,
    trend_is_stable,
    within_envelope,
)
from .pointset import PointSet
from .records import Record, Table

__all__ = [
    "Generator",
    "BumpSpec",
    "UnionPart",
    "UnionSpec",
    "ExpansionResult",
    "OuterFrameReport",
    "ConvolutionReport",
    "UnionReport",
    "ObstructionReport",
    "smoothstep",
    "build_bump_generator",
    "translate_system",
    "classify_translates",
    "obstruction_trend",
    "oversampled_expansion",
    "oversampled_expansions",
    "outer_frame_check",
    "convolution_closure_check",
    "union_check",
    "union_sweep",
    "load_generator_csv",
]


@dataclass(frozen=True, eq=False)
class Generator:
    """A generator given by its spectrum sampled on a frequency grid."""

    hat: SampledFunction
    label: str = "h"

    @property
    def grid(self) -> Grid:
        return self.hat.grid

    @property
    def table(self) -> Table:
        """The spectrum as (omega, re, im) rows, one per grid node."""
        values = self.hat.values
        return Table(("omega", "re", "im"), self.grid.nodes, values.real, values.imag)


def load_generator_csv(path, grid: Grid, label: str = "h") -> Generator:
    """Read (omega, re, im) rows; the omegas must match the grid nodes.

    A row that is short, non-numeric or non-finite is a ConfigError naming the
    file and the row; omegas that do not match the grid, one naming the file.
    """
    with input_file(path, "spectrum"), open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    omegas, vals = [], []
    for n, row in enumerate(rows, start=1):
        if not row or row[0].strip().lower() == "omega":
            continue
        with input_file(path, f"spectrum row {n}"):
            omega, real, imag = (float(v) for v in row[:3])
            if not all(map(math.isfinite, (omega, real, imag))):
                raise ValueError("non-finite value")
        omegas.append(omega)
        vals.append(complex(real, imag))
    omegas = np.asarray(omegas)
    with input_file(path, "spectrum"):
        if omegas.size != grid.size or not np.allclose(omegas, grid.nodes, rtol=0, atol=1e-9):
            raise ValueError(f"{omegas.size} omegas do not match the {grid.size} grid nodes")
    return Generator(SampledFunction(grid, np.asarray(vals)), label=label)


def smoothstep(t):
    """C-infinity ramp: 0 for t <= 0, 1 for t >= 1, exp(-1/t) blend between."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    if mid.any():
        tm = t[mid]
        a = np.exp(-1.0 / tm)
        b = np.exp(-1.0 / (1.0 - tm))
        out[mid] = a / (a + b)
    return out


@dataclass(frozen=True)
class BumpSpec:
    """Smooth plateau spec: identically one on base_domain, supported on its
    delta-dilation, with exp(-1/t) smoothstep transition bands."""

    base_domain: Domain
    delta: float

    def __post_init__(self):
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")

    @property
    def dilated(self) -> Domain:
        return dilate(self.base_domain, self.delta)

    def to_dict(self) -> dict:
        return {"intervals": [[a, b] for a, b in self.base_domain.intervals], "delta": self.delta}

    @classmethod
    def from_dict(cls, d) -> "BumpSpec":
        return cls(Domain(d["intervals"]), float(d["delta"]))

    def profile(self, omega) -> np.ndarray:
        """Unclamped plateau values at arbitrary frequencies."""
        omega = np.asarray(omega, dtype=float)
        out = np.zeros(omega.shape)
        d = self.delta
        for a, b in self.base_domain.intervals:
            rise = smoothstep((omega - (a - d)) / d)
            fall = smoothstep(((b + d) - omega) / d)
            out = out + rise * fall
        return np.clip(out, 0.0, 1.0)


_MIN_BAND_NODES = 16


def build_bump_generator(spec: BumpSpec, grid: Grid, label: str = "bump") -> Generator:
    """Sample the plateau on a grid covering the dilated domain.

    The values are clamped to exactly 1 on nodes of the base domain so that
    downstream identity checks are exact, and the grid must resolve the
    transition bands (at least 16 nodes per band).
    """
    E = spec.base_domain
    d = spec.delta
    for (_, b0), (a1, _) in zip(E.intervals, E.intervals[1:]):
        if a1 - b0 <= 2 * d:
            raise FrameLabError(
                "transition bands overlap: merge the touching intervals or shrink delta"
            )
    if grid.domain != spec.dilated:
        raise FrameLabError("grid does not cover the dilated domain of the bump")
    for a, b in E.intervals:
        for lo, hi in ((a - d, a), (b, b + d)):
            n_band = int(np.count_nonzero((grid.nodes > lo) & (grid.nodes < hi)))
            if n_band < _MIN_BAND_NODES:
                raise FrameLabError(
                    f"grid resolves a transition band with only {n_band} nodes; "
                    f"need at least {_MIN_BAND_NODES}"
                )
    values = spec.profile(grid.nodes).astype(complex)
    values[E.contains(grid.nodes)] = 1.0
    values[~spec.dilated.contains(grid.nodes)] = 0.0
    return Generator(SampledFunction(grid, values), label=label)


def translate_system(gen: Generator, ps: PointSet, freq_grid: Grid) -> SynthesisSystem:
    """Frequency-side translate system {e_lambda * hhat} along the point set."""
    if not gen.grid.matches(freq_grid):
        raise FrameLabError("generator is not sampled on the requested grid")
    return multiply_system(exponential_system(freq_grid, ps), gen.hat)


@dataclass(frozen=True)
class ObstructionReport(Record):
    """Lower-bound trend of a translate system across grid refinements.

    The node lattice is re-matched to the grid dimension at every level, so a
    sinking trend is the generator's fault, not a rank deficit.  A spectrum
    that is continuous and vanishes somewhere on the closed band forces the
    trend to zero: no translate system of such a generator keeps a lower
    frame bound.
    """

    levels: tuple
    lower_bounds: tuple
    ratios: tuple
    hat_trace: RefinementTrace
    predicted_obstruction: bool
    measured_obstruction: bool
    consistent: bool


def matched_lattice(grid: Grid) -> PointSet:
    """Frequency lattice of spacing 1/measure sized to the grid dimension.

    On a single-interval grid these exponentials are exactly orthogonal in
    the discrete inner product, so the bare exponential system is tight.
    """
    m = grid.domain.measure
    n = grid.size
    k = np.arange(n) - n // 2
    lam = k / m
    return PointSet.from_1d(lam, box=(lam[0] - 0.5 / m, lam[-1] + 0.5 / m))


def obstruction_trend(dom: Domain, hat_fn, levels=DEFAULT_LEVELS,
                      rank_tol: float = RANK_TOL, lattice_for=None) -> ObstructionReport:
    """Measure the translate-system lower bound across refinements.

    ``hat_fn(nodes)`` samples the generator spectrum at each level;
    ``lattice_for(grid)`` overrides the default matched lattice.  Every
    level's system is built before the first eigensolve, so that a lattice
    refused at any level costs none.
    """
    if len(dom.intervals) != 1:
        raise FrameLabError("the obstruction sweep uses a single-interval band")
    hat_trace = profile_refinement(dom, hat_fn, levels)
    make_ps = lattice_for if lattice_for is not None else matched_lattice
    systems = [exponential_system(hat.grid, make_ps(hat.grid)) for hat in hat_trace.samples]
    lowers = [measure_bounds(multiply_system(base, hat), rank_tol).lower
              for base, hat in zip(systems, hat_trace.samples)]
    ratios = tuple(
        lowers[i + 1] / lowers[i] if lowers[i] > 0 else math.inf for i in range(len(lowers) - 1)
    )
    predicted = not hat_trace.bounded_below
    measured = not trend_is_stable(lowers)
    return ObstructionReport(
        levels=hat_trace.levels,
        lower_bounds=tuple(lowers),
        ratios=ratios,
        hat_trace=hat_trace,
        predicted_obstruction=bool(predicted),
        measured_obstruction=bool(measured),
        consistent=bool(predicted == measured),
    )


@dataclass(frozen=True, eq=False)
class ExpansionResult(Record):
    """Oversampled expansion f(x) = sum_k alpha_k g(x - lambda_k).

    ``reconstruction`` is the assembled spectrum (sum_k alpha_k e_k) * ghat;
    ``cg_residual`` is the solver residual on the exponential system;
    ``product_residual`` is the reconstruction's defect against fhat;
    ``vanish_outside`` is the mass the exponential sum leaves outside the
    inner band, where the coefficients must conspire to cancel.  The JSON
    form is the six per-target values.
    """

    labels: np.ndarray = field(repr=False)
    alphas: np.ndarray = field(repr=False)
    reconstruction: np.ndarray = field(repr=False)
    cg_residual: float
    product_residual: float
    vanish_outside: float
    coeff_norm_sq: float
    coeff_bound: float
    coeff_bound_ok: bool
    exp_report: FrameReport = field(repr=False)

    @property
    def table(self) -> Table:
        """The expansion as (lambda, re, im) rows, one per point."""
        return Table(("lambda", "re", "im"), self.labels, self.alphas.real, self.alphas.imag)


def oversampled_expansion(f_hat: SampledFunction, gen: Generator, ps: PointSet,
                          band: Domain, tol: float = RECON_TOL, max_iter: int = MAX_ITER,
                          rank_tol: float = RANK_TOL) -> ExpansionResult:
    """Expand a function bandlimited to ``band`` over translates of a plateau
    generator along an oversampled point set.

    The grid covers the dilated band.  The exponential system along the point
    set must be a frame of the whole sampled space; its expansion of fhat
    automatically cancels outside the inner band (fhat vanishes there), and
    multiplying by the plateau, which is one on the band, reproduces fhat.
    """
    return _expand([f_hat], gen, ps, band, tol, max_iter, rank_tol)[0]


def oversampled_expansions(f_hats, gen: Generator, ps: PointSet, band: Domain,
                           tol: float = RECON_TOL, max_iter: int = MAX_ITER,
                           rank_tol: float = RANK_TOL) -> list:
    """``oversampled_expansion`` of every target in ``f_hats``, in order.

    The targets share one exponential system, one measurement of its bounds
    and one frame-hypothesis check; each result equals the single-target
    expansion exactly.  Every target is validated before the system is built.
    """
    return _expand(f_hats, gen, ps, band, tol, max_iter, rank_tol)


def _check_target(f_hat: SampledFunction, grid: Grid, inside: np.ndarray) -> None:
    """A ``FrameLabError`` unless ``f_hat`` lives on ``grid``, is not
    identically zero and vanishes off the nodes marked ``inside``, to 1e-12
    of its largest value."""
    if not f_hat.grid.matches(grid):
        raise FrameLabError("generator and target live on different grids")
    f_scale = float(np.abs(f_hat.values).max())
    if f_scale == 0.0:
        raise FrameLabError("target spectrum is identically zero")
    if np.abs(f_hat.values[~inside]).max(initial=0.0) > 1e-12 * f_scale:
        raise FrameLabError("target spectrum leaks outside the inner band")


def _expand(f_hats, gen, ps, band, tol, max_iter, rank_tol) -> list:
    """The one body of both expansion entry points, which call it directly so
    that the budget warning's ``stacklevel=3`` names their caller."""
    grid = gen.grid
    inside = band.contains(grid.nodes)
    for f_hat in f_hats:
        _check_target(f_hat, grid, inside)

    exp = exponential_system(grid, ps)
    exp_report = require_frame(exp, "the oversampled exponential system is not a frame", rank_tol)
    results = []
    for f_hat, rec in zip(f_hats, reconstruct_all(exp, f_hats, tol, max_iter)):
        alphas = rec.coeffs

        f_norm = f_hat.norm()
        s_vals = synthesize(exp, alphas).values
        vanish = math.sqrt(
            float(np.sum(grid.weights[~inside] * np.abs(s_vals[~inside]) ** 2))
        ) / f_norm
        recon = s_vals * gen.hat.values
        prod_residual = math.sqrt(
            float(np.sum(grid.weights * np.abs(recon - f_hat.values) ** 2))
        ) / f_norm

        coeff_norm_sq = float(np.vdot(alphas, alphas).real)
        coeff_bound = f_hat.norm_sq / exp_report.lower
        bound_ok = within_envelope((0.0, coeff_bound), (0.0, coeff_norm_sq))
        if not bound_ok:
            warnings.warn("expansion coefficients exceed the frame-bound budget", stacklevel=3)
        results.append(ExpansionResult(
            labels=np.asarray(ps.xs),
            alphas=alphas,
            reconstruction=recon,
            cg_residual=rec.residual,
            product_residual=prod_residual,
            vanish_outside=vanish,
            coeff_norm_sq=coeff_norm_sq,
            coeff_bound=coeff_bound,
            coeff_bound_ok=bool(bound_ok),
            exp_report=exp_report,
        ))
    return results


@dataclass(frozen=True, eq=False)
class OuterFrameReport(Record):
    """Bounds of the translate system projected onto the inner band.

    For a plateau generator (identically one on the band) the projected
    system coincides with the band-restricted exponential system, so the
    bounds agree to machine precision.
    """

    projected_report: FrameReport
    reference_report: FrameReport
    full_report: FrameReport
    max_bound_dev: float
    bounds_equal: bool

    _keys = {"projected_report": "projected", "reference_report": "reference",
             "full_report": "unprojected"}


def outer_frame_check(gen: Generator, ps: PointSet, band: Domain,
                      rank_tol: float = RANK_TOL, tol: float = 1e-10,
                      require_unit: bool = True) -> OuterFrameReport:
    """Project the translate system onto the inner band and compare with the
    band-restricted exponentials."""
    grid = gen.grid
    inside = band.contains(grid.nodes)
    if not inside.any():
        raise FrameLabError("band contains no grid nodes")
    if require_unit and np.abs(gen.hat.values[inside] - 1.0).max() > 1e-12:
        raise FrameLabError(
            "generator is not identically one on the inner band; "
            "projection would not reproduce the exponentials"
        )
    exp = exponential_system(grid, ps)
    chi = inside.astype(complex)
    projected = exp.multiplied(chi * gen.hat.values)
    reference = exp.multiplied(chi)
    proj_report = measure_bounds(projected, rank_tol)
    ref_report = measure_bounds(reference, rank_tol)
    full_report = measure_bounds(multiply_system(exp, gen.hat), rank_tol)
    scale = max(ref_report.upper, 1e-300)
    dev = max(
        abs(proj_report.lower - ref_report.lower),
        abs(proj_report.upper - ref_report.upper),
    )
    return OuterFrameReport(
        projected_report=proj_report,
        reference_report=ref_report,
        full_report=full_report,
        max_bound_dev=dev,
        bounds_equal=bool(dev <= tol * scale),
    )


@dataclass(frozen=True, eq=False)
class ConvolutionReport(Record):
    """Envelope checks for the translate system of a convolution.

    The convolution's spectrum is the pointwise product of the factor
    spectra, so interval arithmetic on the factor magnitudes brackets every
    measured quantity.
    """

    mode: str
    exp_report: FrameReport
    product_report: FrameReport | None
    envelope: tuple | None
    measured: tuple | None
    quotient_range: tuple | None
    within: bool
    consistent: bool
    details: dict

    _keys = {"exp_report": "exponential", "product_report": "product"}


_CONV_MODES = ("bessel", "frame", "frame_sequence", "quotient", "bessel_quotient")


def _envelope_end(bound: float, magnitude: float, mode: str) -> float:
    """bound * magnitude**2, one end of a closure envelope; a FrameLabError
    when the square passes double precision, on spectra that fit it."""
    try:
        return bound * magnitude**2
    except OverflowError as exc:
        raise FrameLabError(f"overflow: the {mode} envelope exceeds double precision") from exc


def convolution_closure_check(gen_f: Generator, gen_g: Generator, ps: PointSet,
                              mode: str, rank_tol: float = RANK_TOL,
                              floor: float | None = None) -> ConvolutionReport:
    """Check one closure direction for the convolution of two generators.

    Modes: ``bessel`` and ``frame`` bracket the product system's bounds by
    products of the factor envelopes; ``frame_sequence`` does the same on the
    support intersection; ``quotient`` recovers the second factor's magnitude
    range from the product and the first factor; ``bessel_quotient`` bounds
    the second factor's system when the first is bounded below by ``floor``.
    """
    if mode not in _CONV_MODES:
        raise ValueError(f"unknown convolution mode {mode!r}")
    grid = gen_f.grid
    if not gen_g.grid.matches(grid):
        raise FrameLabError("generators live on different grids")
    prof_f = profile_multiplier(grid, gen_f.hat)
    prof_g = profile_multiplier(grid, gen_g.hat)
    with np.errstate(over="ignore", invalid="ignore"):
        product = gen_f.hat.values * gen_g.hat.values
    if not np.isfinite(product).all():
        raise FrameLabError("overflow: the product spectrum exceeds double precision")
    product_hat = SampledFunction(grid, product)
    prof_p = profile_multiplier(grid, product_hat)
    exp = exponential_system(grid, ps)
    exp_report = (require_frame(exp, "exponentials are not a frame of the band", rank_tol)
                  if mode == "frame" else measure_bounds(exp, rank_tol))
    m, M = exp_report.lower, exp_report.upper
    details: dict = {
        "factor_sup": (prof_f.ess_sup, prof_g.ess_sup),
        "factor_inf": (prof_f.ess_inf, prof_g.ess_inf),
    }

    g_range = (prof_g.ess_inf, prof_g.ess_sup)
    if mode == "quotient":
        if not prof_f.bounded_below_on_grid:
            raise FrameLabError("first factor is not bounded below; quotient is unbounded")
        quotient_range = (prof_p.ess_inf / prof_f.ess_sup, prof_p.ess_sup / prof_f.ess_inf)
        details["g_range"] = g_range
        within = bool(within_envelope(quotient_range, g_range))
        return ConvolutionReport(mode, exp_report, None, None, None, quotient_range,
                                 within, within, details)

    # the bracketed system is the product's, or ghat's for bessel_quotient;
    # each mode states its hypotheses, its envelope's lower end and any
    # further condition
    hat, lower, upper = product_hat, 0.0, _envelope_end(M, prof_f.ess_sup * prof_g.ess_sup, mode)
    quotient_range, range_ok = None, True
    if mode == "frame":
        if not (prof_f.bounded_below_on_grid and prof_g.bounded_below_on_grid):
            factors = "; ".join(
                f"{name} ess_inf {prof.ess_inf:.6g} against {prof.zero_tol:g} * ess_sup "
                f"{prof.ess_sup:.6g}" for name, prof in (("first", prof_f), ("second", prof_g)))
            raise HypothesisError("hypothesis violated: a factor is not bounded below on the "
                                  f"band ({factors})")
        lower = _envelope_end(m, prof_f.ess_inf * prof_g.ess_inf, mode)
    elif mode == "frame_sequence":
        mask = prof_p.support_mask
        if not mask.any():
            raise FrameLabError("zero product: supports do not intersect")
        inf_f = float(np.abs(gen_f.hat.values[mask]).min())
        inf_g = float(np.abs(gen_g.hat.values[mask]).min())
        lower = _envelope_end(m, inf_f * inf_g, mode)
        details["support_nodes"] = int(mask.sum())
    elif mode == "bessel_quotient":
        if floor is None:
            floor = prof_f.ess_inf
        if floor <= prof_f.zero_tol * prof_f.ess_sup or floor <= 0.0:
            raise FrameLabError("first factor is not bounded below by a positive floor")
        if prof_f.ess_inf < floor * (1 - 1e-12):
            raise FrameLabError("declared floor exceeds the first factor's actual infimum")
        sup_bound = prof_p.ess_sup / floor
        hat, upper, quotient_range = gen_g.hat, _envelope_end(M, sup_bound, mode), (0.0, sup_bound)
        range_ok = within_envelope(quotient_range, g_range)
        details["sup_bound"] = float(sup_bound)
        details["g_upper_bound"] = float(upper)
    product_report = measure_bounds(multiply_system(exp, hat), rank_tol)
    measured = (product_report.lower, product_report.upper)
    within = within_envelope((lower, upper), measured) and range_ok
    ok = within
    if mode == "frame":
        ok = within and product_report.flags.frame_for_whole_space
    elif mode == "frame_sequence":
        rank_ok = product_report.rank == details["support_nodes"]
        details["rank_matches_support"] = bool(rank_ok)
        ok = within and rank_ok
    return ConvolutionReport(mode, exp_report, product_report, (lower, upper), measured,
                             quotient_range, bool(within), bool(ok), details)


@dataclass(frozen=True, eq=False)
class UnionPart:
    """One band with its generator spectrum (a vectorized callable)."""

    domain: Domain
    hat_fn: object
    label: str = ""


@dataclass(frozen=True, eq=False)
class UnionSpec:
    """Bands E_j with generators h_j sharing one translation point set."""

    parts: tuple
    pointset: PointSet

    def __post_init__(self):
        if not self.parts:
            raise ValueError("union needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))

    @property
    def domain(self) -> Domain:
        """The union of the bands: the domain of the stacked system's grid."""
        return Domain.merged(iv for part in self.parts for iv in part.domain.intervals)


@dataclass(frozen=True, eq=False)
class UnionReport(Record):
    """Stacked translate system over a union of bands.

    p_hat/P_hat are the grid extrema of sum_j |hhat_j|^2 over the union;
    the stacked bounds must land in [min_j m_j * p_hat, max_j M_j * P_hat]
    where (m_j, M_j) are the band-restricted exponential bounds.
    """

    total_report: FrameReport
    part_bounds: tuple
    part_ranks: tuple
    p_hat: float
    P_hat: float
    m: float
    M: float
    envelope: tuple
    within: bool
    consistent: bool

    _keys = {"total_report": "total"}


def union_check(spec: UnionSpec, n_per_unit: int, rank_tol: float = RANK_TOL) -> UnionReport:
    """Measure the stacked system {e_lambda chi_j hhat_j} on the union grid."""
    grid = make_grid(spec.domain, n_per_unit)
    return _union_report(spec, exponential_system(grid, spec.pointset), rank_tol)


def _union_report(spec: UnionSpec, exp: SynthesisSystem, rank_tol: float) -> UnionReport:
    """``union_check`` of the exponential system ``exp`` on the union grid."""
    grid = exp.grid
    blocks, part_bounds, part_ranks = [], [], []
    sum_sq = np.zeros(grid.size)
    for part in spec.parts:
        mask = part.domain.contains(grid.nodes)
        hat = np.asarray(part.hat_fn(grid.nodes), dtype=complex) * mask
        sum_sq += np.abs(hat) ** 2
        blocks.append(hat[:, None] * exp.matrix)
        rep = measure_bounds(exp.multiplied(mask.astype(complex)), rank_tol)
        part_bounds.append((rep.lower, rep.upper))
        part_ranks.append(rep.rank)
    stacked = SynthesisSystem(grid, np.concatenate(blocks, axis=1))
    total_report = measure_bounds(stacked, rank_tol)
    p_hat = float(sum_sq.min())
    P_hat = float(sum_sq.max())
    m = min(b[0] for b in part_bounds)
    M = max(b[1] for b in part_bounds)
    envelope = (m * p_hat, M * P_hat)
    frame_measured = total_report.flags.frame_for_whole_space
    p_positive = p_hat > rank_tol * max(P_hat, 1e-300)
    within = (not frame_measured) or within_envelope(
        envelope, (total_report.lower, total_report.upper)
    )
    consistent = (frame_measured == p_positive) and within
    return UnionReport(
        total_report=total_report,
        part_bounds=tuple(part_bounds),
        part_ranks=tuple(part_ranks),
        p_hat=p_hat,
        P_hat=P_hat,
        m=m,
        M=M,
        envelope=envelope,
        within=bool(within),
        consistent=bool(consistent),
    )


@dataclass(frozen=True, eq=False)
class UnionSweepReport(Record):
    levels: tuple
    reports: tuple
    p_hats: tuple
    lowers: tuple
    predicted_frame: bool
    measured_frame: bool
    consistent: bool


def union_sweep(spec: UnionSpec, levels=DEFAULT_LEVELS,
                rank_tol: float = RANK_TOL) -> UnionSweepReport:
    """Union check across refinements: a common zero of every generator drives
    p_hat, and with it the stacked lower bound, to zero.  Every level's system
    is built before the first eigensolve, as in ``refine_check``."""
    levels = refinement_levels(levels)
    systems = [exponential_system(make_grid(spec.domain, lv), spec.pointset) for lv in levels]
    reports = [_union_report(spec, exp, rank_tol) for exp in systems]
    p_hats = [r.p_hat for r in reports]
    lowers = [r.total_report.lower for r in reports]
    predicted = trend_is_stable(p_hats)
    measured = trend_is_stable(lowers)
    consistent = predicted == measured and all(r.within for r in reports)
    return UnionSweepReport(
        levels=levels,
        reports=tuple(reports),
        p_hats=tuple(p_hats),
        lowers=tuple(lowers),
        predicted_frame=bool(predicted),
        measured_frame=bool(measured),
        consistent=bool(consistent),
    )

