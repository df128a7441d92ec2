"""The Gram spectrum against a grid-free oracle.

``oracle_gram_exact`` integrates each Gram entry in closed form, so it
shares no grid, no quadrature and no route with ``measure_bounds``.  Two
properties anchor it: for |lambda_k - k| <= L < 1/4 on [0, 1] its extreme
eigenvalues obey Kadec's 1/4 theorem, and the library's midpoint-rule
``gram_extremes`` converge to them at second order on every route.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab.domain import Domain, SampledFunction, make_grid
from framelab.framecore import exponential_system, measure_bounds
from framelab.multiplication import multiply_system
from framelab.pointset import PointSet
from support import oracle_gram_exact

# |2 + sin 2 pi t|^2 = 9/2 + 4 sin 2 pi t - (1/2) cos 4 pi t, as (c_m, mu_m)
TWO_PLUS_SINE = ((4.5, 0.0), (-2j, 1.0), (2j, -1.0), (-0.25, 2.0), (-0.25, -2.0))


def oracle_extremes(lam, intervals, modulus=((1.0, 0.0),)):
    eigs = np.linalg.eigvalsh(oracle_gram_exact(lam, intervals, modulus))
    return np.array([eigs[0], eigs[-1]])


@given(
    jitter=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=24),
    radius=st.floats(0.0, 0.249),
    first=st.integers(-12, 12),
)
def test_oracle_extremes_lie_in_kadec_bracket(jitter, radius, first):
    """Kadec: |lambda_k - k| <= L < 1/4 makes the exponentials a Riesz basis
    of L^2[0, 1] with bounds (cos pi L - sin pi L)^2 and (2 - cos pi L +
    sin pi L)^2; a finite section's Gram is a principal block of the whole
    one, so its spectrum lies inside them."""
    lam = first + np.arange(len(jitter)) + radius * np.asarray(jitter)
    lo, hi = oracle_extremes(lam, [(0.0, 1.0)])
    c, s = math.cos(math.pi * radius), math.sin(math.pi * radius)
    assert lo >= (c - s) ** 2 - 1e-12
    assert hi <= (2.0 - c + s) ** 2 + 1e-12


def assert_second_order(intervals, lam, phi=None, modulus=((1.0, 0.0),), levels=(128, 256)):
    """Halving the step cuts |gram_extremes - oracle|, summed over both
    extremes, by about 4."""
    exact = oracle_extremes(lam, intervals, modulus)
    ps = PointSet.from_1d(lam, box=(lam.min() - 0.5, lam.max() + 0.5))
    errors = []
    for n_per_unit in levels:
        grid = make_grid(Domain(intervals), n_per_unit)
        sys = exponential_system(grid, ps)
        if phi is not None:
            sys = multiply_system(sys, SampledFunction.from_callable(grid, phi))
        errors.append(float(np.abs(np.subtract(measure_bounds(sys).gram_extremes, exact)).sum()))
    coarse, fine = errors
    assert 3.6 <= coarse / fine <= 4.4, errors


def random_band(seed):
    """2 to 12 integers jittered by up to 0.2, and an off-centre interval,
    from ``seed``.  Values are drawn by numpy, not by hypothesis: its
    simplest examples (zero jitter, dyadic ends) make the midpoint rule
    exact or commensurate with one level's step, where no order shows."""
    rng = np.random.default_rng(seed)
    k = np.arange(rng.integers(2, 13))
    lam = k - k.size // 2 + rng.uniform(-0.2, 0.2, k.size)
    start = rng.uniform(-3.0, 3.0)
    return rng, lam, (start, start + rng.uniform(0.5, 1.5))


SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=20)
@given(seed=SEEDS)
def test_bare_gram_converges_at_second_order(seed):
    """The real route: a bare system on an off-centre interval."""
    _, lam, interval = random_band(seed)
    assert_second_order([interval], lam)


@settings(max_examples=20)
@given(seed=SEEDS)
def test_multiplied_gram_converges_at_second_order(seed):
    """The complex route: phi = 2 + sin 2 pi t, whose |phi|^2 enters the
    oracle as shifted kernels."""
    _, lam, interval = random_band(seed)
    assert_second_order([interval], lam, phi=lambda t: 2.0 + np.sin(2 * np.pi * t),
                      modulus=TWO_PLUS_SINE)


@settings(max_examples=20)
@given(seed=SEEDS)
def test_two_interval_gram_converges_at_second_order(seed):
    """The dense route: a two-interval grid."""
    rng, lam, (a, b) = random_band(seed)
    c = b + rng.uniform(0.05, 1.0)
    assert_second_order([(a, b), (c, c + rng.uniform(0.3, 1.0))], lam)


@settings(max_examples=20)
@given(seed=SEEDS)
def test_mirrored_product_gram_converges_at_second_order(seed):
    """The real route of a product: phi = 2 + cos 2 pi (t - c), whose
    modulus is even about the interval's centre c."""
    _, lam, (a, b) = random_band(seed)
    c = (a + b) / 2
    # |phi|^2 = 9/2 + 4 cos 2 pi (t - c) + (1/2) cos 4 pi (t - c)
    modulus = [(4.5, 0.0)] + [(w * np.exp(-2j * np.pi * mu * c), mu)
                              for w, mu in ((2.0, 1.0), (2.0, -1.0), (0.25, 2.0), (0.25, -2.0))]
    assert_second_order([(a, b)], lam, phi=lambda t: 2.0 + np.cos(2 * np.pi * (t - c)),
                        modulus=modulus)


@settings(max_examples=10)
@given(seed=SEEDS)
def test_far_shifted_gram_converges_to_the_unshifted_oracle(seed):
    """Lambda + 2^40 on the dyadic steps of [a, a + 1]: every h lambda is
    exact, so the shifted system is the unshifted one times e^{-2 pi i 2^40
    t}, and its Gram extremes converge at second order to the oracle's of
    the unshifted set."""
    rng = np.random.default_rng(seed)
    k = np.arange(rng.integers(2, 17))
    # multiples of 2^-12, the spacing of the floats at 2^40, so the shift is exact
    lam = np.round((k - k.size // 2 + rng.uniform(-0.2, 0.2, k.size)) * 4096) / 4096
    a = int(rng.integers(-16, 17)) / 8
    exact = oracle_extremes(lam, [(a, a + 1.0)])
    ps = PointSet.from_1d(lam + 2.0**40)
    errors = []
    for n_per_unit in (128, 256):
        sys = exponential_system(make_grid(Domain([(a, a + 1.0)]), n_per_unit), ps)
        errors.append(float(np.abs(np.subtract(measure_bounds(sys).gram_extremes, exact)).sum()))
    coarse, fine = errors
    assert 3.6 <= coarse / fine <= 4.4, errors
