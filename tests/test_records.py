"""JSON forms of the report classes: the keys each one serializes to, and
the report writer, whose text must equal ``json.dumps`` of ``jsonable``.

``OuterFrameReport`` and ``ConvolutionReport`` are pinned here because no CLI
command writes them, so ``test_report_shape.py`` never sees their keys.
Fields declared ``repr=False`` hold arrays and sampled functions and stay out;
a field whose default is None stays out while it holds None.  No report class
overrides ``to_dict``, so those two rules are the whole of every JSON form.
"""

import inspect
import json
import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import framelab
from framelab.domain import Domain, SampledFunction, make_grid
from framelab.framecore import exponential_system, measure_bounds, reconstruct
from framelab.multiplication import (check_frame_multiplication, profile_multiplier,
                                     profile_refinement, refine_check)
from framelab.pointset import PointSet, beurling_density
from framelab.records import Record, Table, dumps, jsonable
from framelab.translates import (
    BumpSpec,
    ExpansionResult,
    Generator,
    UnionPart,
    UnionSpec,
    build_bump_generator,
    convolution_closure_check,
    matched_lattice,
    outer_frame_check,
    union_check,
    union_sweep,
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


def _reports():
    """A builder of each report class that holds an array, itself or in a
    FrameReport, each of one system on E, and of the DensityReport, which
    holds a dict."""
    g = make_grid(E, 32)
    exp = exponential_system(g, matched_lattice(g))
    phi = lambda t: 2.0 + np.sin(2 * np.pi * t)
    hat = SampledFunction(g, phi(g.nodes))
    union = UnionSpec([UnionPart(E, phi)], matched_lattice(g))
    spec = BumpSpec(Domain([(-0.4, 0.4)]), 0.05)
    bump = build_bump_generator(spec, make_grid(spec.dilated, 320))
    return {
        "FrameReport": lambda: measure_bounds(exp),
        "DensityReport": lambda: beurling_density(
            PointSet.from_1d(np.arange(11.0), box=(0.0, 10.0)), [1.0, 2.0]),
        "ReconstructionResult": lambda: reconstruct(exp, hat),
        "MultCheckReport": lambda: check_frame_multiplication(exp, hat),
        "MultSweepReport": lambda: refine_check(
            E, lambda grid: exponential_system(grid, matched_lattice(grid)), phi,
            levels=(16, 32)),
        "UnionReport": lambda: union_check(union, 32),
        "UnionSweepReport": lambda: union_sweep(union, levels=(16, 32)),
        "OuterFrameReport": lambda: outer_frame_check(bump, matched_lattice(bump.grid),
                                                      spec.base_domain),
        "ConvolutionReport": lambda: convolution_closure_check(
            Generator(hat), Generator(hat), matched_lattice(g), "frame"),
    }


@pytest.mark.parametrize("kind", [
    "FrameReport", "ReconstructionResult", "MultCheckReport", "MultSweepReport",
    "UnionReport", "UnionSweepReport", "OuterFrameReport", "ConvolutionReport", "DensityReport",
])
def test_reports_compare_and_hash_by_identity(kind):
    # a generated __eq__ would compare the arrays a report holds, and raise;
    # a generated __hash__ would hash the dict a DensityReport holds, and raise
    make = _reports()[kind]
    a, b = make(), make()
    assert type(a).__name__ == kind
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert a in [b, a] and b not in [a]


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


def test_no_report_class_overrides_to_dict():
    classes = {cls for _, mod in inspect.getmembers(framelab, inspect.ismodule)
               for _, cls in inspect.getmembers(mod, inspect.isclass)
               if issubclass(cls, Record) and cls is not Record
               and cls.__module__.startswith("framelab.")}
    assert {"FrameReport", "MultCheckReport", "MultiplierProfile", "DensityReport",
            "ExpansionResult"} <= {cls.__name__ for cls in classes}
    assert [cls.__name__ for cls in classes if "to_dict" in vars(cls)] == []


def test_multiplier_profile_keys():
    g = make_grid(E, 16)
    d = profile_multiplier(g, SampledFunction(g, g.nodes + 0j)).to_dict()
    assert set(d) == {"ess_inf", "ess_sup", "zero_measure_fraction", "support", "zero_tol"}


def test_expansion_result_keys():
    g = make_grid(E, 16)
    res = ExpansionResult(
        labels=np.zeros(3), alphas=np.zeros(3, complex), reconstruction=np.zeros(g.size, complex),
        cg_residual=1e-12, product_residual=1e-12, vanish_outside=1e-13, coeff_norm_sq=1.0,
        coeff_bound=2.0, coeff_bound_ok=True,
        exp_report=measure_bounds(exponential_system(g, matched_lattice(g))), band=E,
    )
    assert res.to_dict() == {"cg_residual": 1e-12, "product_residual": 1e-12,
                             "vanish_outside": 1e-13, "coeff_norm_sq": 1.0, "coeff_bound": 2.0,
                             "coeff_bound_ok": True}


def test_none_default_fields_stay_out_only_while_none():
    g = make_grid(E, 32)
    narrow = measure_bounds(exponential_system(g, PointSet.from_1d(np.arange(8.0))))
    wide = measure_bounds(exponential_system(g, PointSet.from_1d(np.arange(64.0))))
    assert narrow.to_dict()["gram_extremes"] == list(narrow.gram_extremes)
    assert wide.gram_extremes is None and "gram_extremes" not in wide.to_dict()

    line = beurling_density(PointSet.from_1d(np.arange(21.0), box=(0.0, 20.0)), [2.5])
    assert line.scan_spacing is None and "scan_spacing" not in line.to_dict()
    k = np.arange(9, dtype=float)
    plane = PointSet(np.stack(np.meshgrid(k, k, indexing="ij"), axis=-1).reshape(-1, 2),
                     [(0, 8), (0, 8)])
    d = beurling_density(plane, [2.0]).to_dict()
    assert d["scan_spacing"] > 0 and d["extrapolated"] is not None


# --- the report writer against json.dumps of jsonable -------------------------------


@dataclass
class Tagged(Record):
    label: str
    value: object
    samples: object = field(default=None, repr=False)


def reference(obj):
    return json.dumps(jsonable(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


FLOATS = st.floats() | st.sampled_from([1e308, -1e308, -0.0, 5e-324])
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), FLOATS, st.text(),
    st.sampled_from(["\x00\x1f\"\\", "é漢\U0001f600", "%s", "%%"]),
    FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
    st.complex_numbers(), st.complex_numbers().map(np.complex128),
)
ARRAYS = hnp.arrays(st.sampled_from([np.float64, np.complex128, np.int64, np.bool_]),
                    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3))
NAMES = st.text(max_size=3) | st.sampled_from(["%", "%s", "a%%b"])
KEYS = st.one_of(NAMES, st.integers(-2, 2), st.sampled_from(["1", "-1"]))


@st.composite
def row_lists(draw, cells):
    """Rows that share one set of keys, and now and then a later row that
    gains or drops a key, holds another value type or is no dict at all."""
    keys = draw(st.lists(NAMES, max_size=4, unique=True))
    rows = [{k: draw(cells) for k in keys} for _ in range(draw(st.integers(1, 4)))]
    if len(rows) > 1 and draw(st.booleans()):
        row = rows[draw(st.integers(1, len(rows) - 1))]
        change = draw(st.sampled_from(["add", "drop", "nest", "float64", "nan", "list"]))
        if change == "add":
            row[draw(NAMES)] = draw(cells)
        elif keys and change != "list":
            key = draw(st.sampled_from(keys))
            if change == "drop":
                del row[key]
            else:
                row[key] = {"nest": [1.0], "float64": np.float64(2.5), "nan": math.nan}[change]
        else:
            rows.append([row])
    return rows


CELLS = st.one_of(FLOATS, st.integers(), st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def tables(draw):
    """Tables under distinct keys in drawn order, ``%`` and non-ASCII ones
    among them, with zero to four rows; each column is finite floats (the
    writer's shortcut), mixed float, int, NaN and +-inf cells, or numpy."""
    keys = draw(st.lists(NAMES | st.sampled_from(["z", "é", "漢%s", "a"]), max_size=4,
                         unique=True))
    n = draw(st.integers(0, 4))
    columns = []
    for _ in keys:
        kind = draw(st.sampled_from(["finite", "cells", "numpy"]))
        if kind == "numpy":
            columns.append(draw(hnp.arrays(st.sampled_from([np.float64, np.int64]), n)))
        else:
            cells = st.floats(allow_nan=False, allow_infinity=False) if kind == "finite" else CELLS
            columns.append(draw(st.lists(cells, min_size=n, max_size=n)))
    return Table(keys, *columns)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4), st.lists(FLOATS, max_size=5),
        row_lists(SCALARS), row_lists(FLOATS), st.builds(Tagged, st.text(max_size=3), children, ARRAYS),
    )


VALUES = st.recursive(SCALARS | ARRAYS | tables(), containers, max_leaves=12)


@settings(max_examples=300)
@given(VALUES)
def test_writer_matches_json_dumps_of_jsonable(obj):
    assert dumps(obj) == reference(obj)


def test_writer_matches_on_colliding_and_empty_values():
    for obj in [{1: "int", "1": "str"}, {"1": "str", 1: "int"}, {}, [], (), np.zeros((2, 0)),
                [{}], [{"a": 1.0}, {"a": None}], [{"b": 1.0, "a": np.float64("nan")}] * 3,
                [{"a": 1.0, "b": math.nan}, {"a": -math.inf, "b": 1e308}],
                Tagged("t", {2: [], -1: {}}), [[1.5, float("inf")], [1e308, 1e308]]]:
        assert dumps(obj) == reference(obj)


def test_table_columns_must_match_the_keys_in_number_and_length():
    with pytest.raises(ValueError, match="one length"):
        Table(("a", "b"), [1.0, 2.0], np.zeros(3))
    with pytest.raises(ValueError, match="distinct key"):
        Table(("a", "a"), [1.0], [2.0])


class Opaque:
    pass


@given(st.lists(VALUES, max_size=4), st.data())
def test_unserializable_leftovers_raise_type_error_on_both_paths(items, data):
    bad = data.draw(st.sampled_from([Opaque(), {1, 2}, np.datetime64(0, "s"), np.array(1.0)]))
    where = data.draw(st.sampled_from(["list", "dict", "row"]))
    i = data.draw(st.integers(0, len(items)))
    if where == "list":
        obj = items[:i] + [bad] + items[i:]
    elif where == "dict":
        obj = {str(k): v for k, v in enumerate(items)} | {"bad": bad}
    else:
        obj = [{"x": 1.0}] * i + [{"x": bad}] + [{"x": 2.0}]
    for write in (dumps, reference):
        with pytest.raises(TypeError):
            write(obj)
