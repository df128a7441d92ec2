"""Shared builders and independent oracles for the test suite.

Oracles deliberately take a different computational route than the library:
singular values instead of eigendecompositions, dense least squares instead
of conjugate gradients, sliding-window scans instead of event enumeration.
"""

import itertools
import math

import numpy as np

from framelab.domain import Domain, Grid, SampledFunction, make_grid
from framelab.errors import FrameLabError
from framelab.framecore import SynthesisSystem, _exponential_matrix, exponential_system
from framelab.multiplication import STABILITY
from framelab.pointset import PointSet
from framelab.records import Table, write_csv


def dft_base(grid: Grid) -> SynthesisSystem:
    """Integer-type frequency lattice matched to the grid dimension; on a
    single-interval grid this is an orthonormal basis of the node space."""
    n = grid.size
    m = grid.domain.measure
    lam = (np.arange(n) - n // 2) / m
    return exponential_system(grid, PointSet.from_1d(lam, box=(lam[0] - 0.5 / m, lam[-1] + 0.5 / m)))


def jittered_lattice(n: int, seed: int, amp: float = 0.2) -> PointSet:
    rng = np.random.default_rng(seed)
    k = np.arange(n) - n // 2
    lam = k + rng.uniform(-amp, amp, size=n)
    return PointSet.from_1d(lam, box=(k[0] - 0.5, k[-1] + 0.5))


def random_system(rng, n_nodes: int, n_members: int, length: float = 1.0) -> SynthesisSystem:
    dom = Domain([(0.0, length)])
    grid = make_grid(dom, max(1, int(round(n_nodes / length))))
    mat = rng.standard_normal((grid.size, n_members)) + 1j * rng.standard_normal(
        (grid.size, n_members)
    )
    return SynthesisSystem(grid, mat)


def random_sampled(rng, grid: Grid) -> SampledFunction:
    vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    return SampledFunction(grid, vals)


def write_table(path, table: Table) -> None:
    """Write ``table`` to ``path`` as CSV, as the CLI writes its CSV files."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(fh, table)


def points_dict(ps: PointSet) -> dict:
    """The {"dim", "box", "points"} dict of a JSON point-set file, which
    ``PointSet.from_dict`` reads back."""
    return {"dim": ps.dim, "box": [[l, u] for l, u in ps.box], "points": ps.points.tolist()}


def write_points_csv(path, ps: PointSet) -> None:
    """One point a row, each coordinate by its shortest repr."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(map(repr, row)) + "\n" for row in ps.points.tolist())


# --- oracles ---------------------------------------------------------------


def oracle_trend_is_stable(values) -> bool:
    """Reference floor trend rule: the final value stays within
    ``STABILITY`` of the trace peak."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("empty trace")
    peak = max(values)
    if peak <= 0.0:
        return False
    return values[-1] > 0.0 and values[-1] >= (1.0 - STABILITY) * peak


def oracle_stays_flat(values) -> bool:
    """Reference ceiling trend rule: the largest value stays within
    ``STABILITY`` of the smallest."""
    return max(values) <= (1.0 + STABILITY) * min(values) if min(values) > 0 else False


def oracle_gram_exact(lam, intervals, modulus=((1.0, 0.0),)) -> np.ndarray:
    """Grid-free Gram of the exponentials e^{-2 pi i lam_k t} on a union of
    intervals, weighted by |phi|^2 = sum_m c_m e^{2 pi i mu_m t}, given as
    ``modulus`` pairs (c_m, mu_m) (default |phi| = 1):

        G[k, l] = sum_m c_m sum over [a, b] of the integral over [a, b] of
                  e^{2 pi i (lam_k - lam_l + mu_m) t} dt,

    each integral in closed form, e^{pi i d (a + b)} (b - a) sinc(d (b - a)),
    whose d = 0 limit is the interval length.  The library's Gram is its
    midpoint-rule quadrature.
    """
    lam = np.asarray(lam, dtype=float)
    gram = np.zeros((lam.size, lam.size), dtype=complex)
    for c, mu in modulus:
        d = lam[:, None] - lam[None, :] + mu
        for a, b in intervals:
            gram += c * np.exp(1j * np.pi * d * (a + b)) * (b - a) * np.sinc(d * (b - a))
    return gram


def oracle_bounds_svd(sys: SynthesisSystem, rank_tol: float = 1e-8):
    """Retained frame bounds from singular values of the weighted matrix."""
    s = np.linalg.svd(sys.weighted, compute_uv=False)
    spec = np.sort(s**2)[::-1]
    if spec.size == 0 or spec[0] <= 0.0:
        return 0.0, 0.0, 0
    keep = spec > rank_tol * spec[0]
    retained = spec[keep]
    return float(retained[-1]), float(retained[0]), int(retained.size)


def oracle_min_norm_coeffs(sys: SynthesisSystem, f: SampledFunction) -> np.ndarray:
    """Min-norm solution of U c = sqrt(w) f by dense least squares."""
    b = np.sqrt(sys.grid.weights) * f.values
    coeffs, *_ = np.linalg.lstsq(sys.weighted, b, rcond=None)
    return coeffs


def oracle_gap_1d(ps: PointSet, n_samples: int = 200001) -> float:
    """Covering radius by dense sampling of the distance-to-set function."""
    (lo, hi) = ps.box[0]
    xs = np.linspace(lo, hi, n_samples)
    pts = ps.xs
    idx = np.searchsorted(pts, xs)
    left = np.clip(idx - 1, 0, pts.size - 1)
    right = np.clip(idx, 0, pts.size - 1)
    dist = np.minimum(np.abs(xs - pts[left]), np.abs(xs - pts[right]))
    return float(dist.max())


def oracle_window_counts_1d(ps: PointSet, r: float, n_centers: int = 20001):
    """min/max closed-window counts by scanning many window centers."""
    (lo, hi) = ps.box[0]
    centers = np.linspace(lo + r, hi - r, n_centers)
    pts = ps.xs
    left = np.searchsorted(pts, centers - r, side="left")
    right = np.searchsorted(pts, centers + r, side="right")
    counts = right - left
    return int(counts.min()), int(counts.max())


def oracle_separation(ps: PointSet) -> float:
    """Smallest distance over every pair of points."""
    pts = ps.points.tolist()
    return min(math.dist(p, q) for i, p in enumerate(pts) for q in pts[i + 1:])


def oracle_scan_axis(lo: float, hi: float, spacing: float) -> list:
    """Scan sites along one side: lo + k spacing for k up to floor((hi - lo) /
    spacing), then hi itself when the last site falls short of it by more than
    1e-12."""
    axis = []
    for k in range(math.floor((hi - lo) / spacing) + 1):
        axis.append(lo + k * spacing)
    if axis[-1] < hi - 1e-12:
        axis.append(hi)
    return axis


def oracle_gap_nd(ps: PointSet, spacing: float) -> float:
    """The largest nearest-point distance over every site of the scan lattice
    of the box at ``spacing``."""
    sites = itertools.product(*(oracle_scan_axis(l, u, spacing) for l, u in ps.box))
    pts = ps.points.tolist()
    return max(min(math.dist(s, p) for p in pts) for s in sites)


def oracle_window_counts_nd(ps: PointSet, r: float, spacing: float):
    """min/max closed-window counts over every scan centre: the lattice of the
    inner box [l + r, u - r] at ``spacing``, one midpoint along a side shorter
    than ``spacing``."""
    axes = []
    for l, u in ps.box:
        lo, hi = l + r, u - r
        axes.append([(lo + hi) / 2.0] if hi - lo < spacing else oracle_scan_axis(lo, hi, spacing))
    centres = np.array(list(itertools.product(*axes)))
    counts = np.all(np.abs(ps.points[None, :, :] - centres[:, None, :]) <= r, axis=-1).sum(axis=1)
    return int(counts.min()), int(counts.max())


def oracle_frame_sums(sys: SynthesisSystem, f: SampledFunction) -> float:
    """sum_k |<f, psi_k>|^2 accumulated member by member."""
    total = 0.0
    w = sys.grid.weights
    for k in range(sys.size):
        ip = np.sum(w * f.values * np.conj(sys.matrix[:, k]))
        total += abs(ip) ** 2
    return float(total)


# --- time side ---------------------------------------------------------------
# A translate system is measured in frequency; these evaluate it in time by
# quadrature of the grid spectra, the other side of <f, h(. - l)> = <fhat, e_l hhat>.


def _time_kernel(grid: Grid, x) -> np.ndarray:
    """exp(2 pi i x_m omega_j): the conjugate transpose of the exponential
    system along x.  Its first-row phase, constant for each x_m, cancels
    between f and h in every inner product the time side takes."""
    members = _exponential_matrix(grid, np.asarray(x, dtype=float).ravel())
    return np.conjugate(members, out=members).T


def time_values(hat: SampledFunction, x) -> np.ndarray:
    """h(x) = integral of hhat(w) e^{2 pi i w x} dw by grid quadrature."""
    return _time_kernel(hat.grid, x) @ (hat.grid.weights * hat.values)


def translate_values(hat: SampledFunction, x, ps: PointSet) -> np.ndarray:
    """h(x_j - lambda_k) for every x_j and lambda_k: the members e_lambda
    hhat of the translate system taken to time by one quadrature kernel."""
    spectra = exponential_system(hat.grid, ps).matrix
    spectra *= (hat.grid.weights * hat.values)[:, None]
    return _time_kernel(hat.grid, x) @ spectra


def time_frame_sum(gen, ps: PointSet, f_hat: SampledFunction,
                   half_width: float | None = None, dt: float | None = None) -> float:
    """sum_k |<f, h(. - lambda_k)>|^2 by time-domain quadrature.

    Both f and h are evaluated in time from their grid spectra.  With the
    default window (half width 1/(2 * spacing), for nodes on one lattice
    nodes[0] + k * spacing) the discrete time sum reproduces the frequency-side
    sum exactly: the node frequency differences are multiples of the spacing,
    and those exponentials integrate to zero over the matched window.
    """
    grid = gen.grid
    if not f_hat.grid.matches(grid):
        raise FrameLabError("target and generator live on different grids")
    w = grid.weights
    omega = grid.nodes
    if half_width is None:
        step = float(w[0])
        k = (omega - omega[0]) / step
        if not np.allclose(w, step, rtol=1e-12, atol=0) or np.abs(k - np.rint(k)).max() > 1e-9:
            raise FrameLabError("matched window needs a uniform grid; pass half_width")
        half_width = 1.0 / (2.0 * step)
    span = float(omega[-1] - omega[0])
    if dt is None:
        m_steps = int(math.ceil(2.0 * half_width * (span + 1.0)))
    else:
        m_steps = max(1, int(math.ceil(2.0 * half_width / dt)))
    dt = 2.0 * half_width / m_steps
    x = -half_width + (np.arange(m_steps) + 0.5) * dt
    inner_products = dt * (translate_values(gen.hat, x, ps).conj().T @ time_values(f_hat, x))
    return float(np.vdot(inner_products, inner_products).real)


def expansion_tail_profile(gen, ps: PointSet, alphas, xs, radii) -> dict:
    """Sup-norm tails of sum_{|lambda| > R} alpha_k g(x - lambda_k) on a window,
    with the Cauchy-Schwarz budget ||alpha_tail|| * sqrt(sum |g(x - lambda)|^2)."""
    xs = np.asarray(xs, dtype=float)
    alphas = np.asarray(alphas, dtype=complex)
    lam = ps.xs
    if alphas.shape != lam.shape:
        raise ValueError("one coefficient per point required")
    g_shifted = translate_values(gen.hat, xs, ps)
    tail_max, cs_bound = [], []
    for r in radii:
        mask = np.abs(lam) > r
        if mask.any():
            tail = g_shifted[:, mask] @ alphas[mask]
            tail_max.append(float(np.abs(tail).max()))
            budget = float(np.linalg.norm(alphas[mask])) * float(
                np.sqrt((np.abs(g_shifted[:, mask]) ** 2).sum(axis=1)).max()
            )
            cs_bound.append(budget)
        else:
            tail_max.append(0.0)
            cs_bound.append(0.0)
    return {"radii": list(radii), "tail_max": tail_max, "cs_bound": cs_bound}
