"""Landau's eigenvalue count: an analytic oracle for the middle of the spectrum.

Let Lambda be K points of mean spacing 1/D, each jittered by up to 1/(4D),
filling a window of length L = K / D.  On a band E that fits in one period
of Lambda's lattice, S = U U^H is about D times the time-frequency limiting
operator of E and that window, so about |E| L of its eigenvalues sit near D
and the rest near 0 (Landau, Acta Math. 117 (1967); Landau & Widom, J. Math.
Anal. Appl. 77 (1980); Slepian, Bell Syst. Tech. J. 57 (1978) for the
discrete case).  The count above D/2 is within p of |E| L for E of p
intervals, when the grid resolves the window (n_per_unit > L).  D is read
from ``beurling_density`` of the same Lambda, so one theorem ties the
``density`` and ``frame-bounds`` measurements together.

With this jitter, "fits in one period" means hull(E) <= 0.6 D: past about
0.7 D the plateau of a single interval sags below D/2 at its edges, and the
count falls short by up to 11 at hull(E) = 0.9 D.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framelab.domain import Domain, make_grid
from framelab.framecore import exponential_system, measure_bounds
from framelab.pointset import PointSet, beurling_density


def landau_count(density, window, shift, intervals, mult, seed):
    """(eigenvalues of S above D/2, |E| L, the system) for jittered points of
    density ``density`` over a window of about ``window`` units from
    ``shift``, with D read from ``beurling_density`` and n_per_unit =
    ceil(mult L).  An off-centre window leaves the Toeplitz column complex."""
    rng = np.random.default_rng(seed)
    k = round(density * window)
    length = k / density
    lam = shift + (np.arange(k) + 0.5 + rng.uniform(-0.25, 0.25, k)) / density
    ps = PointSet.from_1d(lam, box=(shift, shift + length))
    measured = beurling_density(ps, [length / 2]).d_minus[0]
    band = Domain(intervals)
    sys = exponential_system(make_grid(band, math.ceil(mult * length)), ps)
    spectrum = measure_bounds(sys).spectrum
    return int(np.count_nonzero(spectrum > measured / 2)), band.measure * length, sys


@settings(max_examples=40)
@given(
    density=st.sampled_from([1.5, 2.0, 3.0, 4.0]),
    window=st.integers(8, 40),
    shift=st.floats(-50.0, 50.0),
    pieces=st.integers(1, 3),
    fill=st.floats(0.2, 0.6),
    start=st.floats(-2.0, 2.0),
    mult=st.sampled_from([2, 3, 4]),
    seed=st.integers(0, 2**32 - 1),
)
@example(density=4.0, window=40, shift=3.0, pieces=1, fill=0.6, start=0.0, mult=2, seed=1)
@example(density=1.5, window=40, shift=-7.0, pieces=3, fill=0.6, start=-2.0, mult=4, seed=2)
def test_landau_count_of_the_plateau(density, window, shift, pieces, fill, start, mult, seed):
    # p intervals and p - 1 gaps, of random widths, filling hull(E) = fill D
    widths = np.random.default_rng(seed).uniform(1.0, 3.0, 2 * pieces - 1)
    edges = start + np.concatenate([[0.0], np.cumsum(widths)]) * fill * density / widths.sum()
    intervals = [(edges[2 * j], edges[2 * j + 1]) for j in range(pieces)]
    count, predicted, sys = landau_count(density, window, shift, intervals, mult, seed)
    # one interval takes the structured real route, several the dense one
    assert (sys._column is not None) == (pieces == 1)
    assert abs(count - predicted) <= pieces, (count, predicted)
    # not vacuous: hull(E) = 1.5 D aliases, and the count misses the bound
    count, predicted, _ = landau_count(1.5, 16, shift, [(start, start + 2.25)], mult, seed)
    assert abs(count - predicted) > 1, (count, predicted)
