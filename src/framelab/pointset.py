"""Separated point sets in a box: separation, covering gap, Beurling densities,
frame-sufficiency predicates for exponential systems, and densification.

All densities are finite-window counts; no limit claims are made.  Window
counts use closed windows, and the 1-D extrema are exact: the count function
is piecewise constant in the window position, so sweeping the alignment
events (every point entering or leaving) plus the midpoints between them
visits every value the count takes.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import FrameLabError, input_file
from .records import Record, Table

__all__ = [
    "PointSet",
    "DensityReport",
    "Beurling1DPrediction",
    "BallPrediction",
    "separation",
    "gap",
    "gap_details",
    "beurling_density",
    "beurling_1d_frame_predicate",
    "beurling_ball_frame_predicate",
    "densify",
    "load_pointset",
]

_SCAN_GUARD = 4_000_000  # max scan-lattice sites for d >= 2 searches


class PointSet:
    """Finitely many pairwise distinct points inside an axis-aligned box.

    For dim == 1 the points are kept sorted ascending.  Instances are value
    objects: no mutation after construction.
    """

    __slots__ = ("points", "box")

    def __init__(self, points, box):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a nonempty (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        box = tuple((float(l), float(u)) for l, u in np.atleast_2d(np.asarray(box, dtype=float)))
        if len(box) != pts.shape[1]:
            raise ValueError("box must give one (low, high) pair per dimension")
        for (l, u) in box:
            if not (math.isfinite(l) and math.isfinite(u)) or u < l:
                raise ValueError(f"bad box side ({l}, {u})")
        for j, (l, u) in enumerate(box):
            if np.any(pts[:, j] < l) or np.any(pts[:, j] > u):
                raise ValueError("all points must lie inside the box")
        if pts.shape[1] == 1:
            pts = pts[np.argsort(pts[:, 0])]
        if pts.shape[0] > 1:
            # pairwise distinct; for d = 1 the sorted order makes this cheap
            if pts.shape[1] == 1:
                if np.any(np.diff(pts[:, 0]) <= 0):
                    raise ValueError("points must be pairwise distinct")
            elif _separation(pts) <= 0:
                raise ValueError("points must be pairwise distinct")
        self.points = pts
        self.box = box

    @classmethod
    def from_1d(cls, xs, box=None) -> "PointSet":
        xs = np.sort(np.asarray(xs, dtype=float).ravel())
        if box is None:
            box = (xs[0], xs[-1])
        return cls(xs[:, None], (box,))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def xs(self) -> np.ndarray:
        """1-D coordinates (sorted). Only meaningful for dim == 1."""
        if self.dim != 1:
            raise ValueError("xs is only defined for 1-D point sets")
        return self.points[:, 0]

    @classmethod
    def from_dict(cls, d) -> "PointSet":
        """The point set of a {"dim", "box", "points"} dict, as a JSON point-set
        file holds it; a ``dim``, when present, must match the points."""
        ps = cls(d["points"], d["box"])
        dim = d.get("dim", ps.dim)
        if isinstance(dim, bool) or dim != ps.dim:
            raise ValueError(f"dim {dim!r} does not match {ps.dim}-D points")
        return ps

    @classmethod
    def from_csv(cls, path, box=None) -> "PointSet":
        rows = []
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for row in csv.reader(fh):
                if not row:
                    continue
                rows.append([float(v) for v in row])
        if not rows:
            raise ValueError("no points found")
        pts = np.asarray(rows, dtype=float)
        if box is None:
            box = [(pts[:, j].min(), pts[:, j].max()) for j in range(pts.shape[1])]
        return cls(pts, box)

    def __repr__(self):
        return f"PointSet({self.size} points, dim={self.dim})"


def load_pointset(path, box=None) -> PointSet:
    """Load a point set from .json ({dim, box, points}) or .csv (one point per line);
    a malformed file is a ConfigError naming it."""
    path = str(path)
    with input_file(path, "point set"):
        if path.endswith(".json"):
            with open(path, "r", encoding="utf-8") as fh:
                return PointSet.from_dict(json.load(fh))
        return PointSet.from_csv(path, box=box)


def separation(ps: PointSet) -> float:
    """Smallest pairwise distance.  Errors on fewer than two points."""
    if ps.size < 2:
        raise FrameLabError("separation undefined for fewer than two points")
    if ps.dim == 1:
        return float(np.diff(ps.xs).min())
    return _separation(ps.points)


def _gap_1d(ps: PointSet) -> float:
    xs = ps.xs
    (lo, hi), = ps.box
    candidates = [xs[0] - lo, hi - xs[-1]]
    if xs.size > 1:
        candidates.append(float(np.diff(xs).max()) / 2.0)
    return max(candidates)


def _lattice(sides, spacing: float) -> np.ndarray:
    """The scan sites of a box, one row each: l + k spacing along each side
    (l, u) up to u, then u itself when the last site falls short of it by more
    than 1e-12, so a side of no length is its one point.  A lattice of more
    than ``_SCAN_GUARD`` sites is refused before any side is formed."""
    axes, total = [], 1
    for l, u in sides:
        m = math.floor((u - l) / spacing) + 1
        tail = l + spacing * (m - 1) < u - 1e-12
        axes.append((l, u, m, tail))
        total *= m + tail
    if total > _SCAN_GUARD:
        raise FrameLabError(f"scan lattice of {total} sites exceeds the guard ({_SCAN_GUARD}); "
                            "use a coarser resolution or a smaller box")
    mesh = np.meshgrid(*(np.append(l + spacing * np.arange(m), [u] if tail else [])
                         for l, u, m, tail in axes), indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


def _differences(sites: np.ndarray, pts: np.ndarray):
    """sites - pts for every pair, in blocks of at most 2e6 pairs (rows of
    sites), each written over the last: a caller reduces a block before it
    asks for the next."""
    rows = max(1, int(2e6 // pts.shape[0]))
    out = np.empty((min(rows, sites.shape[0]),) + pts.shape)
    for start in range(0, sites.shape[0], rows):
        block = sites[start:start + rows]
        yield np.subtract(block[:, None, :], pts, out=out[:block.shape[0]])


def _separation(pts: np.ndarray) -> float:
    """Smallest pairwise distance of two or more points: each row's second
    smallest distance, its own point's being the smallest at 0."""
    return min(float(np.partition(np.linalg.norm(d, axis=-1), 1, axis=1)[:, 1].min())
               for d in _differences(pts, pts))


def gap(ps: PointSet) -> float:
    """Covering gap sup_x min_k |x - p_k| over the box.

    Exact for dim == 1 (the supremum sits at a box endpoint or a midpoint
    between consecutive points).  For dim >= 2 this is a lower estimate from a
    scan lattice; see gap_details for the scan spacing.
    """
    return gap_details(ps)["value"]


def gap_details(ps: PointSet) -> dict:
    """Gap value plus how it was obtained ({value, exact, scan_spacing})."""
    if ps.dim == 1:
        return {"value": _gap_1d(ps), "exact": True, "scan_spacing": None}
    spacing = separation(ps) / 4.0 if ps.size >= 2 else max(u - l for l, u in ps.box) / 64.0
    spacing = max(spacing, 1e-12)
    value = max(float(np.linalg.norm(d, axis=-1).min(axis=1).max())
                for d in _differences(_lattice(ps.box, spacing), ps.points))
    return {"value": value, "exact": False, "scan_spacing": spacing}


@dataclass(frozen=True, eq=False)
class DensityReport(Record):
    """Window-count densities at finitely many radii.

    nu_minus/nu_plus are the exact min/max closed-window counts over all
    window positions y with y + [-r, r]^d inside the box; d_minus/d_plus are
    those counts divided by (2r)^d.  ``extrapolated`` holds the same numbers
    at the largest radius the box admits.  ``scan_spacing`` is None when the
    extrema are exact (dim == 1).
    """

    dim: int
    r_values: tuple
    nu_minus: tuple
    nu_plus: tuple
    d_minus: tuple
    d_plus: tuple
    extrapolated: dict | None = None
    scan_spacing: float | None = None

    def __post_init__(self):
        n = len(self.r_values)
        if not (len(self.nu_minus) == len(self.nu_plus) == len(self.d_minus) == len(self.d_plus) == n):
            raise ValueError("mismatched report lengths")
        for lo, hi in zip(self.nu_minus, self.nu_plus):
            if lo > hi:
                raise ValueError("nu_minus must not exceed nu_plus")

    @property
    def table(self) -> Table:
        """The densities as one (r, nu_minus, nu_plus, d_minus, d_plus) row per radius."""
        return Table(("r", "nu_minus", "nu_plus", "d_minus", "d_plus"), self.r_values,
                     self.nu_minus, self.nu_plus, self.d_minus, self.d_plus)


def _window_counts_1d(xs: np.ndarray, box, r: float) -> tuple[int, int]:
    lo, hi = box
    y_min, y_max = lo + r, hi - r
    if y_min > y_max:
        # 2r == box side up to roundoff: a single admissible position
        y_min = y_max = (lo + hi) / 2.0
    # alignment events: a window endpoint meets a point
    events = np.concatenate([xs - r, xs + r, [y_min, y_max]])
    events = events[(events >= y_min) & (events <= y_max)]
    events = np.unique(events)
    mids = (events[:-1] + events[1:]) / 2.0
    ys = np.concatenate([events, mids]) if mids.size else events
    left = np.searchsorted(xs, ys - r, side="left")
    right = np.searchsorted(xs, ys + r, side="right")
    counts = right - left
    return int(counts.min()), int(counts.max())


def _window_counts_nd(pts: np.ndarray, box, r: float, spacing: float) -> tuple[int, int]:
    # window centres y with y + [-r, r]^d inside the box; an inner side
    # shorter than the spacing is scanned at its midpoint only
    inner = [(l + r, u - r) for l, u in box]
    inner = [(l, u) if u - l >= spacing else ((l + u) / 2.0,) * 2 for l, u in inner]
    counts = (np.all(np.abs(d, out=d) <= r, axis=-1).sum(axis=1)
              for d in _differences(_lattice(inner, spacing), pts))
    lows, highs = zip(*((int(c.min()), int(c.max())) for c in counts))
    return min(lows), max(highs)


def beurling_density(ps: PointSet, r_values) -> DensityReport:
    """Exact (1-D) or scan-lattice (d >= 2) window-count densities.

    Windows are y + [-r, r]^d restricted to positions with the window inside
    the box; a radius whose window does not fit raises an error.
    """
    r_values = [float(r) for r in r_values]
    if not r_values:
        raise ValueError("need at least one radius")
    min_side = min(u - l for l, u in ps.box)
    for r in r_values:
        if r <= 0:
            raise ValueError("radii must be positive")
        if 2 * r > min_side * (1 + 1e-12):
            raise FrameLabError(f"window exceeds analysis box (2r = {2 * r}, side = {min_side})")
    scan_spacing = None
    if ps.dim >= 2:
        scan_spacing = min(min(r_values) / 8.0, min_side / 64.0)
        if ps.size >= 2:
            scan_spacing = min(scan_spacing, separation(ps) / 4.0)

    def counts_at(r):
        if ps.dim == 1:
            return _window_counts_1d(ps.xs, ps.box[0], r)
        return _window_counts_nd(ps.points, ps.box, r, scan_spacing)

    nu_minus, nu_plus, d_minus, d_plus = [], [], [], []
    for r in r_values:
        lo, hi = counts_at(r)
        nu_minus.append(lo)
        nu_plus.append(hi)
        vol = (2.0 * r) ** ps.dim
        d_minus.append(lo / vol)
        d_plus.append(hi / vol)

    r_star = min_side / 2.0
    lo, hi = counts_at(r_star)
    vol = (2.0 * r_star) ** ps.dim
    extrapolated = {"r": r_star, "d_minus": lo / vol, "d_plus": hi / vol}
    return DensityReport(
        dim=ps.dim,
        r_values=tuple(r_values),
        nu_minus=tuple(nu_minus),
        nu_plus=tuple(nu_plus),
        d_minus=tuple(d_minus),
        d_plus=tuple(d_plus),
        extrapolated=extrapolated,
        scan_spacing=scan_spacing,
    )


@dataclass(frozen=True)
class Beurling1DPrediction(Record):
    """Sufficient-density verdict for exponential systems on [-a/2, a/2]."""

    predicted_frame: bool
    margin: float
    density_lower: float
    a: float
    r: float


@dataclass(frozen=True)
class BallPrediction(Record):
    """Small-gap verdict for exponential systems on a ball of radius r_ball."""

    predicted_frame: bool
    product: float
    gap: float
    r_ball: float


def beurling_1d_frame_predicate(ps: PointSet, a: float, r: float) -> Beurling1DPrediction:
    """Predict a frame of exponentials for an interval of length a from the
    finite-window lower density at radius r.  Strict inequality a < d_minus."""
    if ps.dim != 1:
        raise ValueError("1-D predicate needs a 1-D point set")
    if a <= 0:
        raise ValueError("interval length a must be positive")
    report = beurling_density(ps, [r])
    d_minus = report.d_minus[0]
    return Beurling1DPrediction(
        predicted_frame=bool(a < d_minus),
        margin=d_minus - a,
        density_lower=d_minus,
        a=a,
        r=r,
    )


def beurling_ball_frame_predicate(ps: PointSet, r_ball: float) -> BallPrediction:
    """Predict a frame of exponentials for a ball via r_ball * gap < 1/4 (strict)."""
    if r_ball <= 0:
        raise ValueError("ball radius must be positive")
    rho = gap(ps)
    product = r_ball * rho
    return BallPrediction(
        predicted_frame=bool(product < 0.25),
        product=product,
        gap=rho,
        r_ball=r_ball,
    )


def _min_distance_to(xs_sorted: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Distance from each x to the nearest element of xs_sorted."""
    idx = np.searchsorted(xs_sorted, x)
    left = np.clip(idx - 1, 0, xs_sorted.size - 1)
    right = np.clip(idx, 0, xs_sorted.size - 1)
    return np.minimum(np.abs(x - xs_sorted[left]), np.abs(x - xs_sorted[right]))


def densify(ps: PointSet, target_gap: float, sep_min: float) -> PointSet:
    """Add lattice infill so the covering gap drops to target_gap at most.

    Candidate points sit on a lattice of spacing target_gap anchored at the
    box's left end and are kept only when at least sep_min away from every
    existing point.  Plain filtering can leave an oversized hole when two
    candidates in a row are rejected by far-apart blockers, so a repair pass
    subdivides any remaining oversized hole, still honoring sep_min; if the
    requested combination is infeasible the error says so.
    """
    if ps.dim != 1:
        raise ValueError("densify is defined for 1-D point sets")
    if not (0 < sep_min <= target_gap):
        raise FrameLabError("infeasible densification: need 0 < sep_min <= target_gap")
    (lo, hi), = ps.box
    xs = ps.xs

    n_cells = int(math.floor((hi - lo) / target_gap + 1e-9))
    cand = np.minimum(lo + target_gap * np.arange(n_cells + 1), hi)
    keep = cand[_min_distance_to(xs, cand) >= sep_min]
    merged = np.sort(np.concatenate([xs, keep]))

    for _ in range(2):
        extra = []
        # edge holes need full-distance coverage, interior holes half-distance
        if merged[0] - lo > target_gap:
            extra.append(_subdivide(lo, merged[0], target_gap, merged, sep_min))
        if hi - merged[-1] > target_gap:
            extra.append(_subdivide(merged[-1], hi, target_gap, merged, sep_min))
        gaps = np.diff(merged)
        for i in np.nonzero(gaps > 2 * target_gap)[0]:
            extra.append(_subdivide(merged[i], merged[i + 1], 2 * target_gap, merged, sep_min))
        extra = [e for e in extra if e.size]
        if not extra:
            break
        merged = np.sort(np.concatenate([merged] + extra))

    out = PointSet.from_1d(merged, box=(lo, hi))
    if _gap_1d(out) > target_gap * (1 + 1e-9):
        raise FrameLabError(
            "cannot reach the target gap: sep_min exclusions leave an uncoverable hole"
        )
    return out


def _subdivide(a, b, max_step, existing, sep_min):
    """Evenly spaced interior points of (a, b) with spacing <= max_step,
    dropping any closer than sep_min to an existing point."""
    length = b - a
    m = int(math.ceil(length / max_step - 1e-12)) - 1
    if m <= 0:
        return np.empty(0)
    pts = a + (length / (m + 1)) * np.arange(1, m + 1)
    ok = _min_distance_to(existing, pts) >= sep_min
    return pts[ok]
