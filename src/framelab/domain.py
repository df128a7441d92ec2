"""Bounded domains as finite unions of disjoint intervals, plus midpoint grids.

The grid fixes the discrete inner product used by every other module:
integrals over the domain become weighted sums over cell midpoints.  Midpoint
cells make commensurate exponentials exactly orthogonal in the discrete inner
product, which is what lets the orthonormal-basis anchors in the test-suite
hold to machine precision instead of quadrature precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatchError, input_file

__all__ = [
    "Domain",
    "Grid",
    "SampledFunction",
    "dilate",
    "make_grid",
    "grid_size",
    "nodes_resolved",
    "inner",
    "indicator",
    "load_domain",
]


class Domain:
    """Finite union of pairwise disjoint closed intervals with positive length."""

    __slots__ = ("intervals",)

    def __init__(self, intervals):
        ivs = sorted((float(a), float(b)) for a, b in intervals)
        if not ivs:
            raise ValueError("domain needs at least one interval")
        for a, b in ivs:
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError(f"interval endpoints must be finite, got [{a}, {b}]")
            if b <= a:
                raise ValueError(f"degenerate interval [{a}, {b}]")
        for (_, b0), (a1, _) in zip(ivs, ivs[1:]):
            if a1 <= b0:
                raise ValueError("intervals must be pairwise disjoint")
        self.intervals = tuple(ivs)

    @classmethod
    def merged(cls, intervals):
        """Build a Domain from intervals, merging any that touch or overlap."""
        ivs = sorted((float(a), float(b)) for a, b in intervals)
        out = [list(ivs[0])]
        for a, b in ivs[1:]:
            if a <= out[-1][1]:
                out[-1][1] = max(out[-1][1], b)
            else:
                out.append([a, b])
        return cls(out)

    @property
    def measure(self) -> float:
        return sum(b - a for a, b in self.intervals)

    @property
    def radius(self) -> float:
        """Half the diameter of the smallest interval containing the domain."""
        return (self.intervals[-1][1] - self.intervals[0][0]) / 2.0

    @property
    def center(self) -> float:
        return (self.intervals[-1][1] + self.intervals[0][0]) / 2.0

    @property
    def hull(self) -> tuple[float, float]:
        return (self.intervals[0][0], self.intervals[-1][1])

    def contains(self, x):
        """Closed-interval membership, vectorized over x."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=bool)
        for a, b in self.intervals:
            out |= (x >= a) & (x <= b)
        return out

    def to_dict(self) -> dict:
        return {"intervals": [[a, b] for a, b in self.intervals]}

    @classmethod
    def from_dict(cls, d) -> "Domain":
        return cls(d["intervals"])

    def __eq__(self, other):
        return isinstance(other, Domain) and self.intervals == other.intervals

    def __hash__(self):
        return hash(self.intervals)

    def __repr__(self):
        body = ", ".join(f"[{a:g}, {b:g}]" for a, b in self.intervals)
        return f"Domain({body})"


def load_domain(path) -> Domain:
    """Domain JSON file -> Domain; a malformed spec is a ConfigError naming the file."""
    with input_file(path, "domain spec"), open(path, "r", encoding="utf-8") as fh:
        return Domain.from_dict(json.load(fh))


def dilate(dom: Domain, delta: float) -> Domain:
    """Grow every interval by delta on both sides, merging any overlaps."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return Domain.merged((a - delta, b + delta) for a, b in dom.intervals)


class Grid:
    """Midpoint-rule quadrature nodes over a Domain.

    Nodes are cell midpoints and weights cell widths, equal on each interval
    (``steps``; ``interval_index`` names each node's interval) and summing to
    the domain measure up to roundoff.  Grids are value objects, never mutated.
    """

    __slots__ = ("domain", "nodes", "weights", "n_per_unit", "interval_index", "steps")

    def __init__(self, domain, nodes, weights, n_per_unit=None, *, interval_index, steps):
        nodes = np.asarray(nodes, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-D arrays of equal length")
        if nodes.size == 0:
            raise ValueError("grid needs at least one node")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("grid nodes must be strictly increasing")
        if np.any(weights <= 0):
            raise ValueError("grid weights must be positive")
        total = weights.sum()
        if abs(total - domain.measure) > 1e-12 * max(1.0, domain.measure):
            raise ValueError("grid weights do not sum to the domain measure")
        self.domain = domain
        self.nodes = nodes
        self.weights = weights
        self.n_per_unit = n_per_unit
        self.interval_index = np.asarray(interval_index, dtype=int)
        self.steps = tuple(steps)

    @property
    def size(self) -> int:
        return self.nodes.size

    def matches(self, other: "Grid") -> bool:
        """True when both grids carry the same nodes and weights."""
        if self is other:
            return True
        return (
            self.domain == other.domain
            and np.array_equal(self.nodes, other.nodes)
            and np.array_equal(self.weights, other.weights)
        )

    def cell_bounds(self):
        """Per-node cell [left, right] edges; cells tile the domain."""
        half = self.weights / 2.0
        return self.nodes - half, self.nodes + half

    def __repr__(self):
        return f"Grid({self.domain!r}, {self.size} nodes, n_per_unit={self.n_per_unit})"


def _cells(length: float, n_per_unit: int) -> int:
    # guard against 0.9 * 320 = 288.0000...06 style roundoff in ceil
    return max(1, math.ceil(length * n_per_unit - 1e-9))


def grid_size(dom: Domain, n_per_unit: int) -> float:
    """Node count of ``make_grid(dom, n_per_unit)``, found without allocating;
    inf when a cell count passes the float range."""
    try:
        return sum(_cells(b - a, n_per_unit) for a, b in dom.intervals)
    except OverflowError:
        return math.inf


def nodes_resolved(dom: Domain, n_per_unit: int) -> bool:
    """Whether ``make_grid(dom, n_per_unit)`` has strictly increasing nodes in
    double precision, found without allocating: a node is a plus an offset
    rounded within half the spacing of the length, and sums more than the
    spacing at the interval's larger end apart round apart, so a step above
    the two spacings together is enough."""
    for a, b in dom.intervals:
        length = b - a
        step = length / _cells(length, n_per_unit)
        if step <= np.spacing(max(abs(a), abs(b))) + np.spacing(length):
            return False
    return True


def make_grid(dom: Domain, n_per_unit: int) -> Grid:
    """Midpoint grid with ceil(length * n_per_unit) equal cells per interval.

    Resolutions below 8 nodes per unit length are allowed for exactness demos
    but are too coarse for the bound measurements elsewhere in the package.
    """
    n_per_unit = int(n_per_unit)
    if n_per_unit < 1:
        raise ValueError("n_per_unit must be a positive integer")
    nodes, weights, index, steps = [], [], [], []
    for i, (a, b) in enumerate(dom.intervals):
        length = b - a
        cells = _cells(length, n_per_unit)
        step = length / cells
        k = np.arange(cells)
        nodes.append(a + (k + 0.5) * step)
        weights.append(np.full(cells, step))
        index.append(np.full(cells, i, dtype=int))
        steps.append(step)
    return Grid(
        dom,
        np.concatenate(nodes),
        np.concatenate(weights),
        n_per_unit=n_per_unit,
        interval_index=np.concatenate(index),
        steps=steps,
    )


@dataclass(frozen=True, eq=False)
class SampledFunction:
    """Complex function values on a Grid's nodes."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=complex)
        if vals.shape != (self.grid.size,):
            raise ValueError(
                f"expected {self.grid.size} values, got array of shape {vals.shape}"
            )
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "SampledFunction":
        return cls(grid, np.asarray(fn(grid.nodes), dtype=complex))

    @property
    def norm_sq(self) -> float:
        return float(np.sum(self.grid.weights * np.abs(self.values) ** 2))

    def norm(self) -> float:
        return math.sqrt(self.norm_sq)


def indicator(grid: Grid, dom: Domain) -> SampledFunction:
    """Indicator of ``dom`` sampled on ``grid`` (closed-interval membership)."""
    return SampledFunction(grid, dom.contains(grid.nodes).astype(complex))


def inner(g: Grid, f: SampledFunction, h: SampledFunction) -> complex:
    """Discrete inner product sum(w * f * conj(h)); conjugate-linear in h."""
    if not (f.grid.matches(g) and h.grid.matches(g)):
        raise GridMismatchError("inner product operands live on different grids")
    return complex(np.sum(g.weights * f.values * np.conj(h.values)))
