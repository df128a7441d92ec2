import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab.errors import ConfigError, FrameLabError
from framelab.pointset import (
    PointSet,
    beurling_1d_frame_predicate,
    beurling_ball_frame_predicate,
    beurling_density,
    densify,
    gap,
    gap_details,
    load_pointset,
    separation,
)
from support import (jittered_lattice, oracle_gap_1d, oracle_window_counts_1d, write_points_csv,
                     write_table)


def finite_sets_1d(min_size=2, max_size=40):
    return (
        st.lists(
            st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
            min_size=min_size,
            max_size=max_size,
            unique=True,
        )
        .map(sorted)
        .filter(lambda xs: min(np.diff(xs)) > 1e-6 if len(xs) > 1 else True)
    )


# --- PointSet ----------------------------------------------------------------


def test_pointset_sorts_1d_and_validates():
    ps = PointSet.from_1d([3.0, 1.0, 2.0])
    assert ps.xs.tolist() == [1.0, 2.0, 3.0]
    assert ps.dim == 1 and ps.size == 3
    assert ps.box == ((1.0, 3.0),)


@pytest.mark.parametrize(
    "points,box",
    [
        ([], [(0, 1)]),
        ([[0.0], [0.0]], [(0, 1)]),
        ([[2.0]], [(0, 1)]),
        ([[np.nan]], [(0, 1)]),
        ([[0.5]], [(1, 0)]),
        ([[0.5, 0.5]], [(0, 1)]),
    ],
)
def test_pointset_rejects_bad_input(points, box):
    with pytest.raises(ValueError):
        PointSet(points, box)


def test_pointset_io_round_trips(tmp_path):
    ps = PointSet([[0.0, 0.5], [1.0, 1.5], [2.0, 0.25]], [(0, 2), (0, 2)])
    d = ps.to_dict()
    back = PointSet.from_dict(d)
    assert np.array_equal(back.points, ps.points) and back.box == ps.box

    jpath = tmp_path / "ps.json"
    jpath.write_text(json.dumps(d))
    assert np.array_equal(load_pointset(jpath).points, ps.points)

    cpath = tmp_path / "ps.csv"
    write_points_csv(cpath, ps)
    back = load_pointset(cpath, box=ps.box)
    assert np.array_equal(back.points, ps.points)
    # box defaults to the coordinate hull when absent
    hull = PointSet.from_csv(cpath)
    assert hull.box == ((0.0, 2.0), (0.25, 1.5))


def test_pointset_json_dim_must_match_points(tmp_path):
    d = {"dim": 2, "box": [[0, 1]], "points": [[0.2], [0.7]]}
    for dim in (2, "1", True):
        with pytest.raises(ValueError, match=f"dim {dim!r} does not match 1-D points"):
            PointSet.from_dict({**d, "dim": dim})
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ConfigError, match="mismatch.json: bad point set"):
        load_pointset(path)
    # an integral float matches, and without a dim the points decide it
    assert PointSet.from_dict({**d, "dim": 1.0}).dim == 1
    del d["dim"]
    assert PointSet.from_dict(d).dim == 1


# --- separation / gap ---------------------------------------------------------


def test_separation_needs_two_points():
    with pytest.raises(FrameLabError, match="fewer than two"):
        separation(PointSet.from_1d([0.0]))


@given(finite_sets_1d())
def test_separation_1d_matches_brute_force(xs):
    ps = PointSet.from_1d(xs)
    brute = min(
        abs(a - b) for i, a in enumerate(xs) for b in xs[i + 1 :]
    )
    assert separation(ps) == pytest.approx(brute)


def test_separation_2d_matches_brute_force():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 10, size=(40, 2))
    ps = PointSet(pts, [(0, 10), (0, 10)])
    brute = min(
        float(np.linalg.norm(pts[i] - pts[j]))
        for i in range(40)
        for j in range(i + 1, 40)
    )
    assert separation(ps) == pytest.approx(brute)


@given(finite_sets_1d(), st.floats(min_value=0.0, max_value=3.0), st.floats(min_value=0.0, max_value=3.0))
def test_gap_1d_matches_dense_scan(xs, pad_lo, pad_hi):
    ps = PointSet.from_1d(xs, box=(xs[0] - pad_lo, xs[-1] + pad_hi))
    exact = gap(ps)
    sampled = oracle_gap_1d(ps)
    assert sampled <= exact + 1e-9
    assert exact <= sampled + 1e-3  # dense scan resolves the max to ~1e-3


def test_gap_details_1d_is_exact():
    ps = PointSet.from_1d([0.0, 1.0, 3.0], box=(-0.5, 3.25))
    det = gap_details(ps)
    assert det["exact"] is True and det["scan_spacing"] is None
    assert det["value"] == pytest.approx(1.0)  # half of the widest interior gap


def test_gap_2d_scan_on_integer_lattice():
    k = np.arange(4, dtype=float)
    pts = np.stack(np.meshgrid(k, k, indexing="ij"), axis=-1).reshape(-1, 2)
    ps = PointSet(pts, [(0, 3), (0, 3)])
    det = gap_details(ps)
    assert det["exact"] is False
    assert det["value"] == pytest.approx(math.sqrt(2) / 2, rel=0.05)


# --- density ------------------------------------------------------------------


def test_density_unit_lattice_exact_counts():
    ps = PointSet.from_1d(np.arange(21, dtype=float), box=(0.0, 20.0))
    rep = beurling_density(ps, [2.5])
    # closed windows of length 5: five points generically, six when aligned
    assert rep.nu_minus == (5,) and rep.nu_plus == (6,)
    assert rep.d_minus[0] == pytest.approx(1.0)
    assert rep.d_plus[0] == pytest.approx(1.2)
    assert rep.extrapolated["r"] == pytest.approx(10.0)


@given(finite_sets_1d(min_size=3), st.floats(min_value=0.05, max_value=0.45))
def test_density_1d_counts_match_window_scan(xs, r_frac):
    ps = PointSet.from_1d(xs)
    side = xs[-1] - xs[0]
    if side < 1e-3:
        return
    r = r_frac * side
    rep = beurling_density(ps, [r])
    lo, hi = oracle_window_counts_1d(ps, r)
    # the scan sees a subset of window positions: it brackets from inside
    assert rep.nu_minus[0] <= lo
    assert rep.nu_plus[0] >= hi
    # and the exact extrema are attained at some scanned-or-event position
    assert rep.nu_minus[0] >= 0 and rep.nu_plus[0] <= ps.size


def test_density_exact_extrema_attained_by_scan_on_lattice_case():
    # integer lattice: scan and event method agree exactly
    ps = PointSet.from_1d(np.arange(11, dtype=float), box=(0.0, 10.0))
    rep = beurling_density(ps, [1.5])
    lo, hi = oracle_window_counts_1d(ps, 1.5, n_centers=100001)
    assert (rep.nu_minus[0], rep.nu_plus[0]) == (lo, hi)


def test_density_rejects_oversized_window():
    ps = PointSet.from_1d([0.0, 1.0], box=(0.0, 1.0))
    with pytest.raises(FrameLabError, match="window exceeds analysis box"):
        beurling_density(ps, [0.6])


def test_density_2d_lattice():
    k = np.arange(9, dtype=float)
    pts = np.stack(np.meshgrid(k, k, indexing="ij"), axis=-1).reshape(-1, 2)
    ps = PointSet(pts, [(0, 8), (0, 8)])
    rep = beurling_density(ps, [2.0])
    # closed 4x4 windows on a unit lattice: 16 to 25 points
    assert rep.nu_minus[0] == 16 and rep.nu_plus[0] == 25
    assert rep.d_minus[0] == pytest.approx(1.0)


@given(st.integers(min_value=0, max_value=200))
def test_density_lower_bound_from_gap(seed):
    # every window of length 2r contains at least floor(r / rho) points
    ps = jittered_lattice(64, seed)
    rho = gap(ps)
    for r in (4.0, 8.0):
        rep = beurling_density(ps, [r])
        assert rep.nu_minus[0] >= math.floor(r / rho) - 1e-12


def test_density_report_csv(tmp_path):
    ps = PointSet.from_1d(np.arange(11, dtype=float), box=(0.0, 10.0))
    rep = beurling_density(ps, [1.0, 2.0])
    path = tmp_path / "density.csv"
    write_table(path, rep.table)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "r,nu_minus,nu_plus,d_minus,d_plus"
    assert len(rows) == 3


# --- predicates ---------------------------------------------------------------


def test_interval_predicate_true_and_false():
    ps = jittered_lattice(64, 0)
    pred = beurling_1d_frame_predicate(ps, a=0.8, r=8.0)
    assert pred.predicted_frame and pred.margin > 0
    assert pred.density_lower > 0.8

    pred2 = beurling_1d_frame_predicate(ps, a=1.2, r=8.0)
    assert not pred2.predicted_frame and pred2.margin < 0


def test_interval_predicate_is_strict():
    # unit lattice: d_minus at r=2.5 is exactly 1.0; a=1.0 must not pass
    ps = PointSet.from_1d(np.arange(21, dtype=float), box=(0.0, 20.0))
    pred = beurling_1d_frame_predicate(ps, a=1.0, r=2.5)
    assert not pred.predicted_frame


def test_ball_predicate():
    ps = jittered_lattice(64, 1)
    rho = gap(ps)
    ok = beurling_ball_frame_predicate(ps, r_ball=0.2)
    assert ok.product == pytest.approx(0.2 * rho)
    assert ok.predicted_frame == (0.2 * rho < 0.25)
    no = beurling_ball_frame_predicate(ps, r_ball=1.0)
    assert not no.predicted_frame


def test_predicate_input_validation():
    ps = jittered_lattice(16, 0)
    with pytest.raises(ValueError):
        beurling_1d_frame_predicate(ps, a=-1.0, r=2.0)
    with pytest.raises(ValueError):
        beurling_ball_frame_predicate(ps, r_ball=0.0)
    two_d = PointSet([[0.0, 0.0], [1.0, 1.0]], [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        beurling_1d_frame_predicate(two_d, a=0.5, r=0.25)


# --- densify ------------------------------------------------------------------


def test_densify_fills_to_target_gap():
    ps = PointSet.from_1d([0.0, 10.0], box=(0.0, 10.0))
    out = densify(ps, target_gap=0.5, sep_min=0.25)
    assert gap(out) <= 0.5 * (1 + 1e-9)
    assert set(ps.xs.tolist()) <= set(out.xs.tolist())
    assert separation(out) > 0


def test_densify_repairs_blocked_candidates():
    # both lattice candidates near each original point are rejected by
    # sep_min, leaving a hole wider than the target; the repair pass fills it
    ps = PointSet.from_1d([0.01, 2.99], box=(0.0, 3.0))
    out = densify(ps, target_gap=1.0, sep_min=1.0)
    assert gap(out) <= 1.0 * (1 + 1e-9)


def test_densify_rejects_infeasible_parameters():
    ps = PointSet.from_1d([0.0, 1.0], box=(0.0, 1.0))
    with pytest.raises(FrameLabError, match="infeasible"):
        densify(ps, target_gap=0.5, sep_min=0.75)
    with pytest.raises(FrameLabError, match="infeasible"):
        densify(ps, target_gap=0.5, sep_min=0.0)


@settings(max_examples=40)
@given(
    finite_sets_1d(min_size=2, max_size=20),
    st.floats(min_value=0.2, max_value=2.0),
    st.floats(min_value=0.05, max_value=1.0),
)
def test_densify_property(xs, target, sep_frac):
    sep = sep_frac * target
    ps = PointSet.from_1d(xs, box=(xs[0] - 1.0, xs[-1] + 1.0))
    try:
        out = densify(ps, target_gap=target, sep_min=sep)
    except FrameLabError:
        return  # honest refusal is acceptable; silent bad output is not
    assert gap(out) <= target * (1 + 1e-9)
    assert set(np.round(ps.xs, 12).tolist()) <= set(np.round(out.xs, 12).tolist())
