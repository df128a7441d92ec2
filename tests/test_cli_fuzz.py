"""Fuzz of the CLI exit-code contract over all nine commands.

Small generated configs with generated point-set, domain, bump and spectrum
files: non-finite numbers, duplicate points, zero-width boxes, degenerate and
overlapping intervals, overflowing expressions, and corrupt bytes.  ``main``
must return (never raise), with an exit code in {0, 1, 2, 3} and no traceback
on stderr; a corrupt input file is exit 2.

Sizes stay small: at most 64 points (2-D points on a coarse lattice, so
their scans stay small), ``n_per_unit`` at most 32 and two refinement levels
of at most 32.
"""

import contextlib
import io
import json
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from framelab.cli import COMMANDS, main
from framelab.domain import Domain, make_grid

NAN, INF = float("nan"), float("inf")

COORD = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0])
# JSON numbers, some of which inputs must reject: json.dumps writes the
# non-finite ones as NaN / Infinity, and 10**400 is too large for a float
NUMBER = st.one_of(COORD, st.floats(-3, 3), st.sampled_from([NAN, INF, -INF, 10**400]))
POSITIVE = st.one_of(st.floats(0.05, 2.0), st.sampled_from([0.0, -1.0, NAN, INF, 10**400]))
# CSV cells, including the spellings float() reads as non-finite
CELL = st.one_of(NUMBER.map(repr), st.sampled_from(["nan", "inf", "-inf", "x", ""]))
# never valid input: 0xff starts no UTF-8 sequence; the rest do not parse
CORRUPT = st.one_of(
    st.binary(max_size=24).map(lambda b: b"\xff" + b),
    st.sampled_from([b"{", b"abc\n", b'{"intervals": [[0', b"1,2\n3\n"]),
)
EXPRS = st.sampled_from([
    "1", "t", "2 + sin(2 * pi * t)", "t - 0.5", "abs(t)", "exp(6 * pi * i * t)", "0",
    "1 / t", "exp(800 * t)", "1e308 * 1e308", "piecewise([0, 0.5]: 1)", "sin(", "foo(t)",
])
FILES = {
    "density": ("pointset",),
    "gap": ("pointset",),
    "frame-bounds": ("domain", "pointset"),
    "mult-check": ("domain", "pointset", "spectrum"),
    "translate-check": ("domain", "pointset", "spectrum", "bump"),
    "build-generator": ("bump",),
    "reconstruct": ("domain", "pointset"),
    "union-check": ("pointset",),
    "corollary-demo": ("domain",),
}


def _csv(rows) -> bytes:
    return "".join(",".join(row) + "\n" for row in rows).encode()


@st.composite
def pointsets(draw):
    """(file name, bytes) of a point set."""
    kind = draw(st.sampled_from(["lattice", "1d", "1d", "bad", "dup", "flat", "2d", "json"]))
    if kind == "lattice":  # dense enough to be a frame on short intervals
        k = draw(st.integers(1, 64))
        spacing = draw(st.sampled_from([0.125, 0.25, 0.5]))
        return "pointset.csv", _csv([[repr((j - k // 2) * spacing)] for j in range(k)])
    if kind == "2d":
        rows = draw(st.lists(st.tuples(COORD, COORD), min_size=1, max_size=8))
        return "pointset.csv", _csv([[repr(x), repr(y)] for x, y in rows])
    if kind == "json":
        pts = draw(st.lists(st.lists(NUMBER, min_size=1, max_size=1), min_size=1, max_size=8))
        box = draw(st.lists(NUMBER, min_size=2, max_size=2))
        return "pointset.json", json.dumps({"dim": 1, "box": [box], "points": pts}).encode()
    if kind == "flat":  # every point on one line: a box with a zero-width side
        x = draw(COORD)
        ys = draw(st.lists(COORD, min_size=1, max_size=4, unique=True))
        rows = [[repr(x), repr(y)] for y in ys] if draw(st.booleans()) else [[repr(x)]]
        return "pointset.csv", _csv(rows)
    xs = draw(st.lists(st.floats(-3, 3), min_size=1, max_size=64, unique=True))
    cells = [repr(x) for x in xs]
    if kind == "dup":
        cells.append(cells[0])
    elif kind == "bad":
        cells[draw(st.integers(0, len(cells) - 1))] = draw(CELL)
    return "pointset.csv", _csv([[c] for c in cells])


@st.composite
def intervals(draw):
    """Mostly valid interval lists; else degenerate, overlapping or non-finite ones."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.lists(st.lists(NUMBER, min_size=2, max_size=2), min_size=1, max_size=3))
    ends = draw(st.lists(COORD, min_size=2, max_size=4, unique=True).map(sorted))
    return [ends[:2]] if len(ends) < 4 else [ends[:2], ends[2:]]


@st.composite
def spectra(draw, domain_intervals, n_per_unit):
    """(omega, re, im) rows: on the grid of the domain when it is valid, else anywhere."""
    try:
        nodes = make_grid(Domain(domain_intervals), n_per_unit).nodes.tolist()
    except (ValueError, OverflowError):
        nodes = draw(st.lists(COORD, min_size=1, max_size=4))
    values = st.one_of(COORD.map(repr), st.floats(-3, 3).map(repr))
    rows = [[repr(w), draw(values), draw(values)] for w in nodes]
    if rows and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))][1] = draw(CELL)
    return _csv(rows if draw(st.booleans()) else rows[: len(rows) // 2])


@st.composite
def jobs(draw):
    """(config, {file kind: (file name, bytes)}, corrupted file kind or None).

    Config values naming a file kind are replaced by the file's path."""
    command = draw(st.sampled_from(COMMANDS))
    n_per_unit = draw(st.integers(1, 32))
    dom = draw(intervals())
    files = {
        "pointset": draw(pointsets()),
        "domain": ("domain.json", json.dumps({"intervals": dom}).encode()),
        "spectrum": ("spectrum.csv", draw(spectra(dom, n_per_unit))),
        "bump": ("bump.json", json.dumps(
            {"intervals": draw(intervals()), "delta": draw(POSITIVE)}).encode()),
    }
    corrupt = draw(st.one_of(st.none(), st.sampled_from(FILES[command])))
    if corrupt is not None:
        files[corrupt] = (files[corrupt][0], draw(CORRUPT))
    generator = draw(st.sampled_from(
        [{"expr": draw(EXPRS)}, {"csv": "spectrum"}, {"bump": "bump"}]
    ))
    if corrupt == "spectrum":
        generator = {"csv": "spectrum"}
    elif corrupt == "bump":
        generator = {"bump": "bump"}
    multiplier = generator if "bump" not in generator else {"expr": draw(EXPRS)}
    inputs = {
        "density": {"pointset": "pointset"},
        "gap": {"pointset": "pointset"},
        "frame-bounds": {"domain": "domain", "pointset": "pointset"},
        "mult-check": {
            "domain": "domain", "pointset": "pointset", "multiplier": multiplier,
            "check": draw(st.sampled_from(["frame", "tight", "riesz", "bessel",
                                           "frame_sequence", "converse"])),
        },
        "translate-check": {"domain": "domain", "pointset": "pointset", "generator": generator},
        "build-generator": {"bump": "bump", "csv_out": "generator.csv"},
        "reconstruct": {"band": "domain", "delta": draw(POSITIVE), "pointset": "pointset",
                        "n_targets": draw(st.integers(1, 2))},
        "union-check": {"pointset": "pointset", "parts": [
            {"intervals": iv, "expr": draw(EXPRS)}
            for iv in draw(st.lists(intervals(), min_size=1, max_size=2))
        ]},
        "corollary-demo": {"domain": "domain", "hat_expr": draw(EXPRS)},
    }[command]
    if command in ("mult-check", "translate-check", "union-check") and draw(st.booleans()):
        inputs["sweep"] = draw(st.booleans())
    if command == "density":
        if draw(st.booleans()):
            inputs["r_values"] = draw(st.lists(POSITIVE, min_size=1, max_size=3))
        if draw(st.booleans()):
            inputs.update(a=draw(POSITIVE), r=draw(POSITIVE))
        if draw(st.booleans()):
            inputs["r_ball"] = draw(POSITIVE)
    if command == "reconstruct" and draw(st.booleans()):
        inputs["densify"] = {"target_gap": draw(st.floats(0.1, 1.0)),
                             "sep_min": draw(st.floats(0.01, 0.1))}
    lo = draw(st.integers(1, 16))
    config = {
        "command": command,
        "inputs": inputs,
        "grid": {"n_per_unit": n_per_unit, "refine": [lo, draw(st.integers(lo + 1, 32))]},
        "tolerances": {"max_iter": 200},
        "seed": draw(st.integers(0, 3)),
    }
    return config, files, corrupt


def _resolve(inputs: dict, paths: dict) -> None:
    """Replace every input that names a file kind by that file's path."""
    for key, value in inputs.items():
        if isinstance(value, dict):
            _resolve(value, paths)
        elif isinstance(value, str) and value in paths:
            inputs[key] = paths[value]


@settings(max_examples=300, derandomize=True)
@given(jobs())
def test_cli_exit_codes_hold_for_generated_inputs(job):
    config, files, corrupt = job
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        paths = {"generator.csv": str(root / "generator.csv")}
        for kind, (name, data) in files.items():
            (root / name).write_bytes(data)
            paths[kind] = str(root / name)
        _resolve(config["inputs"], paths)
        (root / "cfg.json").write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["--config", str(root / "cfg.json"), "--out", str(root / "report.json")])
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if corrupt is not None:
        assert code == 2, (corrupt, err.getvalue())
