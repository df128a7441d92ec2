"""Finite synthesis systems and their frame-theoretic measurements.

Quadrature weights are absorbed into the member matrix as a sqrt(w) row
scaling, so singular values of the weighted matrix are exactly the square
roots of the operator bounds: the weighted frame operator is U @ U^H and the
Gram matrix is U^H @ U, and the two share their nonzero spectrum.

On a uniform one-interval grid with step h the frame operator of an
exponential system is Hermitian Toeplitz, T[j, l] = h sum_k
e^{-2 pi i (j - l) h lambda_k}, so the system keeps only its first column.
Every such system is a product with a multiplier phi, the bare one with phi
= 1, whose frame operator diag(phi) T diag(conj(phi)) ``measure_bounds``
forms in O(n^2) instead of the O(n^2 K) product U @ U^H: one structured
route.  Write diag(phi) = P D with P the unitary diagonal of phases and D =
diag(|phi|); the product is unitarily similar to D T D.  With J the reversal
matrix, J T J = conj(T), so Q = (I + iJ)/sqrt(2) is unitary and Q^H T Q =
Re T - Im(T J), a real symmetric Toeplitz-minus-Hankel matrix (the *real
form*).  When |phi| is its own reversal, J D J = D, so Q commutes with D and
Q^H D T D Q = D (Re T - Im(T J)) D, whose real eigensolve replaces the
complex one.  phi = 1 takes this route, as does a real h's conjugate-
symmetric h^ on a band centred at 0 (plateau bumps, hats, translate
generators from a real h) or any modulus even about the band's centre; a
product with an asymmetric modulus stays complex.  Every other system
(multi-interval grids, raw member matrices) is formed densely.

The Gram G = U^H U of such a system has a real form too.  With c the centre
of the grid's nodes, V[j, k] = sqrt(h) phi_j e^{-2 pi i (j - (n-1)/2) h
lambda_k} is U with column k scaled by e^{2 pi i c lambda_k}, so V^H V =
P^H G P for the unitary diagonal P of those phases, and (V^H V)[k, l] = h
sum_j |phi_j|^2 e^{2 pi i (j - (n-1)/2) h (lambda_k - lambda_l)}: the phases
of phi cancel, and since the offsets (j - (n-1)/2) h are symmetric about 0
the sum is real whenever |phi|^2 is too.  V is formed from those offsets,
never from the nodes, so it does not move when the band is translated.
Re(A^H A) = [Re A; Im A]^T [Re A; Im A] for any complex A, so the Gram is
formed as one real product of the stacked 2n x K matrix and diagonalized by
a real eigensolve.  One modulus rule (``_mirrored``) sends a structured
system to the real form of S and of G alike; every other Gram (an
asymmetric modulus, multi-interval grids, raw member matrices) is the
complex U^H U.  The S/G cross-check stays independent: S comes from the
Toeplitz column, G from V or U.

A product whose S or G is not finite in double precision (a multiplier such
as exp(400 t) on [0, 1]) is formed with numpy's overflow warnings silenced
and then rejected as a ``FrameLabError`` that names the overflow, on every
route alike.

``reconstruct_all`` solves every target of a job in one conjugate-gradient
loop over the (m, n) block of targets, and ``reconstruct`` is its batch of
one.  Each step applies the same operator to every live row
(``_apply_frame_operator``): T embeds in a 2n circulant with first column
[c, 0, conj(c[:0:-1])], so T p costs two length-2n FFTs, O(n log n) instead
of the O(nK) product U (U^H p), applied as phi * T(conj(phi) p), one
batched FFT pair for the whole block.  Every other system stays dense, one
U (U^H p) per row.  Each row keeps its own step sizes, best iterate and
iteration count, and leaves the block when it converges or trips the
null-space guard.  A row's result does not depend on the batch width, bit
for bit: every reduction is ``_rowdot``, a sum along the contiguous last
axis, and every U product (span pre-check, coefficients, an expansion's
synthesis) stays one matrix-vector product per target, because the columns
of a matrix-matrix product can differ from matrix-vector products in the
last bits.

The member matrix U of an exponential system, and of a product with a
multiplier, is deferred: it is formed on first access to ``matrix`` and
then cached, so measuring the bounds of a structured system whose S and G
both take a real form never forms it.  A grid is uniform on each interval,
and U stacks one block per interval from running powers instead of n K
exps.  One builder (``_factors``) forms them: for m nodes of step h, with j
= q B + r, B = 2^floor(bits(m) / 2), a power of two within a factor sqrt(2)
of sqrt(m), and z_k = e^{-2 pi i h lambda_k}, U[j, k] = u_k (z_k^B)^q
z_k^r, each factor a row of a ceil(m/B) x K or B x K matrix of powers from
one running product.  Every phase is
reduced mod 1 before its exp (``_cis``), and the coarse phase B h lambda_k
is the rounded step h lambda_k times the power of two B, exactly.  The first
row u_k = e^{-2 pi i (t_0 + d) lambda_k} takes the grid's first node t_0 and
the block's offset d from it, found from the interval ends and never from
the rounded nodes, so translating the band moves t_0 alone, a unimodular
constant on each column, and no bound.  A one-interval grid's column c_j =
h sum_k (z_k^B)^q z_k^r is one small matrix product of the same powers, 2K
exps in O(sqrt(m) K) memory.  V takes u_k = e^{2 pi i (m - 1) x_k}, x_k
the step h lambda_k halved and reduced mod 1 (``np.fmod``), both exactly, so
that (m - 1) h lambda_k / 2 is never rounded as a whole: u_k agrees with the
powers of z_k to (m - 1) eps / 2 cycles, whatever lambda_k, and V^H V stays
real.  Reconstruction, analysis, synthesis, the Gram spectrum and the
stacked union system read U, formed once per system; the time kernel of a
translate system is the conjugate transpose of ``_exponential_matrix``
along the time points.

The builder then measures the system of the grid's exact nodes a + (j +
1/2) length / m, up to a few eps per power, unless its phases drift from
theirs.  Row j of a block carries fl(d lambda_k) + j fl(h lambda_k), where
the exact nodes carry d* lambda_k + j lambda_k length / m, d the builder's
offset and d* the exact one; the centring phase adds no product of
lambda_k, and t_0 lambda_k only moves a column by a constant.
``exponential_system`` refuses frequencies (a PhaseError) whose largest sum
over the blocks of |fl(d lambda_k) - d* lambda_k| + (m - 1) |fl(h lambda_k)
- lambda_k length / m|, each term exact by Dekker's error-free product and
Knuth's two-sum (``_drifts``), passes ``PHASE_TOL`` = 1e-10 cycles.  A
dyadic step with ends in its multiples drifts by nothing, whatever
|lambda|: on [0, 1] at 16 nodes per unit, 1e12 and 1e154 alias to 0
exactly.  Any other step drifts by up to about eps h |lambda| a row, so
generic frequencies reach 1e-10 cycles over the band from |lambda| |E|
near 1e6 on; at 10 nodes per unit (h = fl(0.1)) on [0, 1], 1e6 and 1e10
pass (fl(0.1) times either rounds to a tenth of it exactly), 1e7 + 0.3
drifts by 6e-10 cycles and is refused, and 2^50, whose product with
fl(0.1) is exact but not 2^50 / 10, drifts by 0.06.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .domain import Grid, SampledFunction
from .errors import (FrameLabError, GridMismatchError, NotInSpanError, PhaseError,
                     ReconstructionError)
from .pointset import PointSet
from .records import Record, Table

__all__ = [
    "SynthesisSystem",
    "FrameFlags",
    "FrameReport",
    "ReconstructionResult",
    "exponential_system",
    "gram",
    "analyze",
    "synthesize",
    "frame_operator_apply",
    "measure_bounds",
    "reconstruct",
    "reconstruct_all",
    "RANK_TOL",
    "TIGHT_SPREAD",
    "RECON_TOL",
    "MAX_ITER",
]

# eigenvalues at or below this share of the largest fall outside the rank
RANK_TOL = 1e-8
# a spread (upper - lower) at or below this share of the upper end counts as tight
TIGHT_SPREAD = 1e-8
# the relative residual a reconstruction must reach
RECON_TOL = 1e-10
# the conjugate-gradient iterations a reconstruction may take
MAX_ITER = 2000
# the drift, in cycles, an exponential system's phases may carry from those
# of the grid's exact nodes (see ``check_phases``): each member value is then
# within 2 pi 1e-10 of its exact value, far inside the S/G cross-check's
# relative tolerance of 1e-9
PHASE_TOL = 1e-10

# dense Hermitian eigensolves stay reliable and fast up to this order;
# beyond it only the smaller of S and G is diagonalized
_FULL_SPECTRUM_LIMIT = 1024

# a multiplier modulus within this many ulps of its largest value of its own
# reversal is solved in the real form (see ``_mirrored``)
_MIRROR_ULPS = 8


class SynthesisSystem:
    """Ordered finite family of sampled functions sharing one grid, given by
    the (n_nodes, n_members) complex matrix of member values.  Value
    semantics: never mutated.
    """

    # set only on exponential systems of a uniform one-interval grid and on
    # their products, whose labels are their frequencies: the first column of
    # the bare system's Toeplitz frame operator and the product of the
    # multiplier values applied since (ones for the bare system)
    _column = None
    _multiplier = None

    def __init__(self, grid: Grid, matrix: np.ndarray, labels=None):
        mat = np.ascontiguousarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != grid.size:
            raise ValueError(f"member matrix must be ({grid.size}, K)")
        if mat.shape[1] == 0:
            raise ValueError("system needs at least one member")
        self.grid = grid
        self.matrix = mat
        if labels is None:
            labels = tuple(range(mat.shape[1]))
        else:
            labels = tuple(labels)
            if len(labels) != mat.shape[1]:
                raise ValueError("one label per member required")
        self.labels = labels

    @classmethod
    def _deferred(cls, grid: Grid, labels, build) -> "SynthesisSystem":
        """A system of one member per label whose matrix ``build()`` forms on
        first access to ``matrix``."""
        labels = tuple(labels)
        if not labels:
            raise ValueError("system needs at least one member")
        sys = cls.__new__(cls)
        sys.grid = grid
        sys.labels = labels
        sys._build = build
        return sys

    @cached_property
    def matrix(self) -> np.ndarray:
        """(n_nodes, n_members) member values; a deferred system forms them here."""
        mat = self._build()
        del self._build
        return mat

    @property
    def size(self) -> int:
        return len(self.labels)

    def __len__(self) -> int:
        return self.size

    @cached_property
    def weighted(self) -> np.ndarray:
        """sqrt(w)-scaled member matrix; its singular values squared are the bounds."""
        return np.sqrt(self.grid.weights)[:, None] * self.matrix

    @cached_property
    def _scale(self) -> float:
        """The relative guards' scale: the Frobenius norm of ``weighted``, from ``matrix``."""
        parts = self.matrix.view(float)
        return math.sqrt(float(self.grid.weights @ np.einsum("ij,ij->i", parts, parts)))

    @cached_property
    def _circulant(self) -> np.ndarray:
        """Eigenvalues of the 2n circulant whose leading block is the Toeplitz
        T of ``_column``; real, because its first column is Hermitian."""
        c = self._column
        return np.fft.fft(np.concatenate([c, [0.0], c[:0:-1].conj()])).real

    def multiplied(self, phi: np.ndarray) -> "SynthesisSystem":
        """Members phi * psi_k for node values phi, formed only when read; keeps
        the Toeplitz column."""
        out = SynthesisSystem._deferred(self.grid, self.labels, lambda: phi[:, None] * self.matrix)
        if self._column is not None:
            out._column = self._column
            out._multiplier = self._multiplier * phi
        return out


def _cis(x: np.ndarray) -> np.ndarray:
    """exp(-2 pi i x), with x reduced mod 1 first so that 2 pi x rounds in [-pi, pi]."""
    return np.exp(-2j * np.pi * (x - np.round(x)))


def _factors(start, h: float, lam: np.ndarray, n: int):
    """(coarse, fine) = (start_k (z_k^B)^q, z_k^r), q < ceil(n/B), r < B, z_k =
    exp(-2 pi i h lambda_k), B a power of two near sqrt(n): one running
    product of ``_cis``-reduced phases (see the module notes)."""
    b = 1 << n.bit_length() // 2
    rows = -(-n // b)
    out = np.ones((2, max(b, rows), lam.size), dtype=complex)
    out[0, 0] = start
    out[:, 1:] = _cis(np.outer([b, 1], h * lam))[:, None]
    return np.cumprod(out, axis=1, out=out)[0, :rows], out[1, :b]


def _toeplitz_column(h: float, lam: np.ndarray, n: int) -> np.ndarray:
    """c_j = h sum_k exp(-2 pi i j h lambda_k) for j < n, one small matrix
    product of the ``_factors`` powers: 2K exps in O(sqrt(n) K) memory."""
    coarse, fine = _factors(1.0, h, lam, n)
    return h * (coarse @ fine.T).ravel()[:n]


def _uniform_matrix(start: np.ndarray, h: float, lam: np.ndarray, n: int) -> np.ndarray:
    """U[j, k] = start_k exp(-2 pi i j h lambda_k), j < n: the ``_factors`` broadcast."""
    coarse, fine = _factors(start, h, lam, n)
    return (coarse[:, None, :] * fine).reshape(-1, lam.size)[:n]


def _blocks(g: Grid):
    """(start a, length, step h, node count m) of each interval of g."""
    return [(a, b - a, h, m) for (a, b), h, m in zip(g.domain.intervals, g.steps,
                                                     np.bincount(g.interval_index).tolist())]


def _exponential_matrix(g: Grid, lam: np.ndarray) -> np.ndarray:
    """U[j, k] = exp(-2 pi i t_j lambda_k) on g's nodes t_j, one block of
    running powers per interval of the grid (see the module notes)."""
    first = _cis(g.nodes[0] * lam)
    (a0, _, h0, _), *_ = blocks = _blocks(g)
    blocks = [_uniform_matrix(first * _cis(((a - a0) + (h - h0) / 2) * lam), h, lam, m)
              for a, _, h, m in blocks]
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _halves(x):
    """x = hi + lo, hi its leading 26 bits (Veltkamp's split)."""
    c = 134217729.0 * x
    hi = c - (c - x)
    return hi, x - hi


def _two_sum(a, b):
    """(fl(a + b), a + b - fl(a + b)), both exactly (Knuth's two-sum)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_product(a, b):
    """(fl(a b), a b - fl(a b)), both exactly: Dekker's error-free product
    (nan once a factor passes about 1e300)."""
    p = a * b
    (ah, al), (bh, bl) = _halves(a), _halves(b)
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _step_drift(h, length, m, lam):
    """fl(h lam) - lam length / m: m fl(h lam) and length lam split exactly,
    and their leading parts, within a few eps of each other, cancel exactly."""
    p, e = _two_product(float(m), h * lam)
    q, f = _two_product(length, lam)
    return ((p - q) + (e - f)) / m


def _drifts(g: Grid, lam: np.ndarray):
    """Per interval of g, the largest drift, in cycles, of the phases
    ``_exponential_matrix`` forms for lam from those of the exact nodes a +
    (j + 1/2) length / m, both taken from the first interval's first node:
    the offset's drift plus m - 1 times the step's (see the module notes)."""
    (a0, l0, h0, m0), *_ = blocks = _blocks(g)
    for a, length, h, m in blocks:
        (da, ra), (dh, rh) = _two_sum(a, -a0), _two_sum(h, -h0)
        d, rd = _two_sum(da, dh / 2)  # the builder's offset; less the exact one:
        off = (_step_drift(h, length, m, 1.0) - _step_drift(h0, l0, m0, 1.0)) / 2
        off -= ra + rh / 2 + rd
        yield (np.abs(off * lam - _two_product(d, lam)[1])
               + (m - 1) * np.abs(_step_drift(h, length, m, lam)))


def check_phases(g: Grid, lam: np.ndarray) -> None:
    """A PhaseError when the phases an exponential system on g forms for the
    frequencies lam drift from those of the grid's exact nodes by more than
    ``PHASE_TOL`` cycles (see ``_drifts`` and the module notes)."""
    with np.errstate(over="ignore", invalid="ignore"):
        err = np.max(list(_drifts(g, lam)), initial=0.0)
    if not err <= PHASE_TOL:
        raise PhaseError(f"frequencies up to |lambda| = {np.abs(lam).max():.6g} round their "
                         f"phases on this grid by {err:.3g} cycles, past {PHASE_TOL:g}")


def exponential_system(g: Grid, ps: PointSet) -> SynthesisSystem:
    """Members exp(-2 pi i lambda_k t) on g's nodes, labeled by lambda_k.

    The member matrix is formed by ``_exponential_matrix`` only when read; a
    one-interval system also keeps its Toeplitz column (see the module
    notes).  A PhaseError when ``check_phases`` refuses the frequencies on g."""
    if ps.dim != 1:
        raise ValueError("exponential systems take 1-D frequency sets")
    lam = ps.xs
    check_phases(g, lam)
    sys = SynthesisSystem._deferred(g, lam, lambda: _exponential_matrix(g, lam))
    if len(g.steps) == 1:
        sys._column = _toeplitz_column(g.steps[0], lam, g.size)
        sys._multiplier = np.ones(g.size)
    return sys


def gram(sys: SynthesisSystem) -> np.ndarray:
    """Gram matrix G[j, k] = <psi_k, psi_j> in the grid inner product."""
    U = sys.weighted
    G = U.conj().T @ U
    return 0.5 * (G + G.conj().T)


def _diagonals(c: np.ndarray) -> np.ndarray:
    """T[j, l] = v[n - 1 + j - l] for the Hermitian Toeplitz T with first column c."""
    return np.concatenate([c[:0:-1].conj(), c])


def _toeplitz(c: np.ndarray) -> np.ndarray:
    """Hermitian Toeplitz matrix with first column c, as a read-only view."""
    return sliding_window_view(_diagonals(c), c.size)[::-1].T


def _real_form(c: np.ndarray) -> np.ndarray:
    """Q^H T Q = Re T - Im(T J), Q = (I + iJ)/sqrt(2): real, exactly symmetric,
    with the spectrum of the Hermitian Toeplitz T of first column c."""
    v = _diagonals(c)
    return sliding_window_view(v.real, c.size)[::-1] - sliding_window_view(v.imag, c.size)


def _mirrored(phi: np.ndarray) -> np.ndarray | None:
    """The one modulus rule of the real forms: d = |phi| symmetrized as
    (d + d[::-1]) / 2 when d is its own reversal to within ``_MIRROR_ULPS``
    ulps of max d, otherwise None."""
    d = np.abs(phi)
    mirror = d[::-1]
    if np.abs(d - mirror).max() <= _MIRROR_ULPS * np.finfo(float).eps * d.max():
        return 0.5 * (d + mirror)
    return None


def _frame_operator(sys: SynthesisSystem) -> np.ndarray:
    """A Hermitian matrix unitarily similar to S = U U^H (see the module notes).

    A structured system with multiplier phi (ones for the bare system) gets
    the real symmetric diag(d) R diag(d), R the real form of T, when d = |phi|
    passes ``_mirrored``, and the complex diag(phi) T diag(conj(phi))
    otherwise; every other system the dense product.
    """
    c = sys._column
    if c is None:
        U = sys.weighted
        return U @ U.conj().T
    phi = sys._multiplier
    d = _mirrored(phi)
    if d is not None:
        S = _real_form(c)
        S *= d[:, None]
        S *= d
        return S
    S = phi[:, None] * _toeplitz(c)
    S *= phi.conj()
    return S


def _gram_operator(sys: SynthesisSystem) -> np.ndarray:
    """A Hermitian matrix unitarily similar to G = U^H U (see the module notes).

    A structured system whose multiplier (ones for the bare system) passes
    ``_mirrored`` gets the real symmetric Re(V^H V) for V the members on the
    grid's offsets from its centre, formed as one real product of the stacked
    [Re V; Im V]; every other system the complex U^H U.
    """
    if sys._column is None or _mirrored(sys._multiplier) is None:
        U = sys.weighted
        return U.conj().T @ U
    h, n = sys.grid.steps[0], sys.grid.size
    lam = np.asarray(sys.labels, dtype=float)
    V = math.sqrt(h) * _uniform_matrix(_cis((1 - n) * np.fmod(h / 2 * lam, 1.0)), h, lam, n)
    V *= sys._multiplier[:, None]
    A = np.concatenate([V.real, V.imag])
    return A.T @ A


def _eigvalsh(form, sys: SynthesisSystem, what: str) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian ``form(sys)``, formed with
    numpy's overflow warnings silenced; a ``FrameLabError`` naming the
    overflow when the matrix or its spectrum is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        M = form(sys)
    # the extremes of the real view show any inf or nan without an n x n mask
    parts = M.view(float)
    if np.isfinite(parts.min()) and np.isfinite(parts.max()):
        eigs = np.linalg.eigvalsh(M)
        if np.isfinite(eigs).all():
            return eigs
    raise FrameLabError(f"overflow: the {what} of this system exceeds double precision")


def _adjoint(U: np.ndarray, v: np.ndarray) -> np.ndarray:
    """U^H v without forming U^H: U.T is a view, and conjugating v and the
    product instead of U only flips signs, so the result is bit-identical."""
    return (U.T @ v.conj()).conj()


def _apply_frame_operator(sys: SynthesisSystem, p: np.ndarray) -> np.ndarray:
    """S p for S = U U^H, of a vector p or of each row of a block p, by the
    route ``_frame_operator`` takes: a 2n circulant FFT of the Toeplitz
    column, one pair for the whole block, or U (U^H p), one matrix-vector
    pair per row (see the module notes)."""
    if sys._column is None:
        U = sys.weighted
        if p.ndim == 2:
            return np.array([U @ _adjoint(U, row) for row in p])
        return U @ _adjoint(U, p)
    n = p.shape[-1]
    phi = sys._multiplier
    q = np.fft.ifft(sys._circulant * np.fft.fft(phi.conj() * p, 2 * n))[..., :n]
    return phi * q


def analyze(sys: SynthesisSystem, f: SampledFunction) -> np.ndarray:
    """Analysis coefficients <f, psi_k> for every member."""
    if not f.grid.matches(sys.grid):
        raise GridMismatchError("function and system live on different grids")
    return _adjoint(sys.matrix, sys.grid.weights * f.values)


def synthesize(sys: SynthesisSystem, coeffs) -> SampledFunction:
    """Linear combination sum_k c_k psi_k."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (sys.size,):
        raise ValueError(f"expected {sys.size} coefficients")
    return SampledFunction(sys.grid, sys.matrix @ coeffs)


def frame_operator_apply(sys: SynthesisSystem, f: SampledFunction) -> SampledFunction:
    """S f = sum_k <f, psi_k> psi_k."""
    if not f.grid.matches(sys.grid):
        raise GridMismatchError("function and system live on different grids")
    w_sqrt = np.sqrt(sys.grid.weights)
    return SampledFunction(sys.grid, _apply_frame_operator(sys, w_sqrt * f.values) / w_sqrt)


@dataclass(frozen=True)
class FrameFlags(Record):
    bessel: bool
    frame_for_whole_space: bool
    frame_sequence: bool
    riesz_sequence: bool
    tight: bool


@dataclass(frozen=True, eq=False)
class FrameReport(Record):
    """Measured spectral bounds of a synthesis system on its grid.

    ``lower`` is the smallest eigenvalue retained above rank_tol * upper, so
    for rank-deficient systems it is the bound on the span only;
    ``frame_for_whole_space`` records whether the span is everything.
    """

    lower: float
    upper: float
    rank: int
    dim_space: int
    n_members: int
    rank_tol: float
    flags: FrameFlags
    resolution: dict
    spectrum: np.ndarray = field(repr=False)
    gram_extremes: tuple | None = None
    spectra_cross_checked: bool = False

    @property
    def table(self) -> Table:
        """The spectrum as (index, eigenvalue) rows, largest eigenvalue first."""
        return Table(("index", "eigenvalue"), range(self.spectrum.size), self.spectrum)


def _grid_resolution(grid: Grid) -> dict:
    return {
        "nodes": int(grid.size),
        "measure": grid.domain.measure,
        "n_per_unit": grid.n_per_unit,
        "intervals": [[a, b] for a, b in grid.domain.intervals],
    }


def measure_bounds(sys: SynthesisSystem, rank_tol: float = RANK_TOL,
                   bessel_bound=None) -> FrameReport:
    """Frame bounds and status flags from the weighted spectra.

    Computes the spectrum of S = U U^H (formed by ``_frame_operator``) and of
    the Gram G = U^H U (formed by ``_gram_operator``), whichever fit the
    dense-eigensolve budget, cross-checks that their nonzero parts agree, and
    reads the bounds off the retained spectrum:

      upper = largest eigenvalue, rank = count above rank_tol * upper,
      lower = smallest retained eigenvalue.

    Flags: bessel is immediate for finite systems unless a caller bound is
    supplied; frame_for_whole_space needs rank == dim; riesz_sequence needs a
    fully retained Gram spectrum; tight means relative spread <= ``TIGHT_SPREAD``.
    """
    if not 0 < rank_tol < 1:
        raise ValueError("rank_tol must lie in (0, 1)")
    n, k = sys.grid.size, sys.size
    if min(n, k) > _FULL_SPECTRUM_LIMIT:
        raise FrameLabError(
            f"system of size {n} x {k} exceeds the dense spectral budget"
        )
    s_desc = g_desc = None
    if n <= _FULL_SPECTRUM_LIMIT:
        s_desc = np.clip(_eigvalsh(_frame_operator, sys, "frame operator")[::-1], 0.0, None)
    if k <= _FULL_SPECTRUM_LIMIT:
        g_desc = np.clip(_eigvalsh(_gram_operator, sys, "Gram matrix")[::-1], 0.0, None)
    m = min(n, k)
    spectrum = s_desc if s_desc is not None else np.concatenate([g_desc[:m], np.zeros(n - m)])

    lam_max = float(spectrum[0])
    retained = spectrum[spectrum > rank_tol * lam_max]
    rank = int(retained.size)
    upper = lam_max
    lower = float(retained[-1]) if rank else 0.0

    cross_checked = False
    if s_desc is not None and g_desc is not None:
        s_nz, g_nz = s_desc[:m], g_desc[:m]
        keep = np.maximum(s_nz, g_nz) > rank_tol * max(lam_max, 1e-300)
        if not np.allclose(s_nz[keep], g_nz[keep], rtol=1e-9, atol=1e-12 * max(lam_max, 1.0)):
            raise FrameLabError("spectral cross-check failed: S and Gram spectra disagree")
        cross_checked = True

    gram_extremes = None
    riesz = False
    if k <= n:
        g_min, g_max = float(g_desc[-1]), float(g_desc[0])
        gram_extremes = (g_min, g_max)
        riesz = g_max > 0.0 and g_min > rank_tol * g_max

    tight = rank >= 1 and (upper - lower) <= TIGHT_SPREAD * upper
    bessel = True if bessel_bound is None else upper <= float(bessel_bound) * (1 + 1e-12)
    flags = FrameFlags(
        bessel=bool(bessel),
        frame_for_whole_space=bool(rank == n and rank >= 1),
        frame_sequence=bool(rank >= 1),
        riesz_sequence=bool(riesz),
        tight=bool(tight),
    )
    return FrameReport(
        lower=lower,
        upper=upper,
        rank=rank,
        dim_space=n,
        n_members=k,
        rank_tol=rank_tol,
        flags=flags,
        resolution=_grid_resolution(sys.grid),
        spectrum=spectrum,
        gram_extremes=gram_extremes,
        spectra_cross_checked=cross_checked,
    )


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    coeffs: np.ndarray
    residual: float
    iterations: int


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a, b> of each row: a sum of the real views' products along the
    contiguous last axis, so that a row's value does not depend on the rows
    beside it, which the BLAS paths of ``np.vdot`` and ``np.linalg.norm``
    do not promise."""
    return np.sum(a.view(float) * b.view(float), axis=-1)


def reconstruct(sys: SynthesisSystem, f: SampledFunction, tol: float = RECON_TOL,
                max_iter: int = MAX_ITER) -> ReconstructionResult:
    """Expansion coefficients c with sum_k c_k psi_k = f, via conjugate
    gradients on the frame operator: ``reconstruct_all`` of one target.

    Solves S g = f from a zero start (iterates stay inside the span), then
    returns the analysis coefficients of g.  The error decreases monotonically
    in the S-norm; the reported residual is ||S g - f|| / ||f|| in the grid
    norm.  When the solve fails, a target whose least-squares share off the
    span exceeds ``tol`` is reported as "not in span" with that share as its
    residual; any other failure is a convergence failure.
    """
    return reconstruct_all(sys, [f], tol, max_iter)[0]


def reconstruct_all(sys: SynthesisSystem, fs, tol: float = RECON_TOL,
                    max_iter: int = MAX_ITER) -> list:
    """``reconstruct`` of every target in ``fs``, in order, by one
    conjugate-gradient loop over the block of targets, one row each.

    Each step applies S to every live row at once (``_apply_frame_operator``)
    and keeps each row's own step sizes, best iterate and iteration count; a
    row leaves the block when it converges or trips the null-space guard.
    Every reduction is ``_rowdot``, and every U product (the span pre-check
    and the coefficients) is one matrix-vector product per target, so each
    result equals the single call bit for bit, whatever the batch.  When
    targets fail, the first failing one's error is raised, as its single
    call raises it.
    """
    fs = list(fs)
    for f in fs:
        if not f.grid.matches(sys.grid):
            raise GridMismatchError("function and system live on different grids")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    # the weights go on vectors, so a structured system never forms ``weighted``
    U = sys.matrix
    sw = np.sqrt(sys.grid.weights)
    b = sw * np.array([f.values for f in fs], dtype=complex).reshape(-1, sw.size)
    b_norm = np.sqrt(_rowdot(b, b))

    # the span pre-check, one product per target: a target the members cannot
    # see at all fails before the loop
    u_scale = sys._scale
    invisible = b_norm > 0.0
    if u_scale != 0.0:
        for i in np.flatnonzero(invisible):
            a = _adjoint(U, sw * b[i])
            invisible[i] = math.sqrt(_rowdot(a, a)) <= 1e-12 * u_scale * b_norm[i]

    solved = np.flatnonzero((b_norm > 0.0) & ~invisible)
    best_x = np.zeros_like(b)
    best_rel = np.full(b_norm.size, math.inf)
    iterations = np.zeros(b_norm.size, dtype=int)
    live = solved
    r = b[live]
    x = np.zeros_like(r)
    p = r.copy()
    rs = _rowdot(r, r)
    # relative guard: a step with Rayleigh quotient this far below the
    # operator scale is numerically in the null space; stepping along it
    # would only amplify roundoff
    null_scale = 1e-28 * u_scale**2
    for it in range(1, max_iter + 1):
        if not live.size:
            break
        q = _apply_frame_operator(sys, p)
        den = _rowdot(p, q)
        stop = den <= null_scale * _rowdot(p, p)
        if stop.any():
            iterations[live[stop]] = it
            live, x, r, p, q, rs, den = (v[~stop] for v in (live, x, r, p, q, rs, den))
        alpha = (rs / den)[:, None]
        x = x + alpha * p
        r = r - alpha * q
        rs_new = _rowdot(r, r)
        rel = np.sqrt(rs_new) / b_norm[live]
        better = rel < best_rel[live]
        best_rel[live[better]] = rel[better]
        best_x[live[better]] = x[better]
        p = r + (rs_new / rs)[:, None] * p
        rs = rs_new
        done = rel <= tol
        if done.any():
            iterations[live[done]] = it
            live, x, r, p, rs = (v[~done] for v in (live, x, r, p, rs))
    iterations[live] = max_iter

    residual = np.zeros(b_norm.size)
    if solved.size:
        residual_vec = b[solved] - _apply_frame_operator(sys, best_x[solved])
        residual[solved] = np.sqrt(_rowdot(residual_vec, residual_vec)) / b_norm[solved]
    for i in np.flatnonzero(invisible | (residual > tol)):
        if invisible[i]:
            raise NotInSpanError(
                "target is not in span: residual 1.000e+00 is invisible to the system",
                residual=1.0,
                iterations=0,
            )
        # CG on a target with a part off the span can stall anywhere, so the
        # off-span share is measured directly: the least-squares residual of b
        fit = np.linalg.lstsq(sys.weighted, b[i], rcond=None)[0]
        off = b[i] - sys.weighted @ fit
        off_span = math.sqrt(_rowdot(off, off)) / b_norm[i]
        if off_span > tol:
            raise NotInSpanError(
                f"target is not in span: residual {off_span:.3e} is invisible to the system",
                residual=off_span,
                iterations=int(iterations[i]),
            )
        raise ReconstructionError(
            f"no convergence within {max_iter} iterations (best residual {residual[i]:.3e})",
            residual=float(residual[i]),
            iterations=int(iterations[i]),
        )
    results = []
    for i in range(b_norm.size):
        coeffs = _adjoint(U, sw * best_x[i]) if b_norm[i] else np.zeros(sys.size, dtype=complex)
        results.append(ReconstructionResult(coeffs, float(residual[i]), int(iterations[i])))
    return results
