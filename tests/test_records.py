"""JSON forms of the report classes: the keys each one serializes to.

``OuterFrameReport`` and ``ConvolutionReport`` are pinned here because no CLI
command writes them, so ``test_report_shape.py`` never sees their keys.
Fields declared ``repr=False`` hold arrays and sampled functions and stay out.
"""

import numpy as np
import pytest

from framelab.domain import Domain, SampledFunction, make_grid
from framelab.framecore import exponential_system, measure_bounds
from framelab.multiplication import profile_refinement
from framelab.translates import (
    BumpSpec,
    Generator,
    build_bump_generator,
    convolution_closure_check,
    matched_lattice,
    outer_frame_check,
)

E = Domain([(-0.5, 0.5)])

FRAME_REPORT_KEYS = {
    "lower", "upper", "rank", "dim_space", "n_members", "rank_tol", "flags",
    "resolution", "spectra_cross_checked",
}
FLAG_KEYS = {"bessel", "frame_for_whole_space", "frame_sequence", "riesz_sequence", "tight"}


def frame_report_keys(d):
    assert set(d["flags"]) == FLAG_KEYS
    return set(d) - {"gram_extremes"}


def test_outer_frame_report_keys():
    spec = BumpSpec(Domain([(-0.4, 0.4)]), 0.05)
    grid = make_grid(spec.dilated, 320)
    gen = build_bump_generator(spec, grid)
    d = outer_frame_check(gen, matched_lattice(grid), spec.base_domain).to_dict()
    assert set(d) == {"projected", "reference", "unprojected", "max_bound_dev", "bounds_equal"}
    for key in ("projected", "reference", "unprojected"):
        assert frame_report_keys(d[key]) == FRAME_REPORT_KEYS


@pytest.mark.parametrize("mode", ["bessel", "frame", "frame_sequence", "quotient",
                                  "bessel_quotient"])
def test_convolution_report_keys(mode):
    g = make_grid(E, 64)
    f = Generator(SampledFunction(g, 2.0 + np.sin(2 * np.pi * g.nodes)))
    h = Generator(SampledFunction(g, 1.5 + 0.5 * np.cos(2 * np.pi * g.nodes)))
    d = convolution_closure_check(f, h, matched_lattice(g), mode).to_dict()
    assert set(d) == {"mode", "exponential", "product", "envelope", "measured",
                      "quotient_range", "within", "consistent", "details"}
    assert frame_report_keys(d["exponential"]) == FRAME_REPORT_KEYS
    if mode == "quotient":
        assert d["product"] is None and d["measured"] is None
    else:
        assert frame_report_keys(d["product"]) == FRAME_REPORT_KEYS


def test_unrepresented_fields_stay_out():
    g = make_grid(E, 32)
    report = measure_bounds(exponential_system(g, matched_lattice(g)))
    assert report.spectrum.size == g.size
    assert "spectrum" not in report.to_dict()
    trace = profile_refinement(E, lambda t: 2.0 + t, levels=(16, 32))
    assert len(trace.samples) == 2
    assert set(trace.to_dict()) == {
        "levels", "ess_inf", "ess_sup", "ess_inf_support", "bounded_below",
        "bounded_below_on_support", "sup_stable", "stability",
    }
