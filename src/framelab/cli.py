"""Command-line surface: config-driven checks with JSON reports.

One logical command per process.  Configs are JSON, reports are JSON, plot
data is CSV; identical config + seed gives byte-identical reports up to the
timestamp field.  Exit codes: 0 pass/consistent, 1 inconsistency, 2 usage
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import operator
import os
import stat
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .domain import Domain, SampledFunction, grid_size, load_domain, make_grid, nodes_resolved
from .errors import (ConfigError, ExprError, FrameLabError, GridMismatchError, PhaseError,
                     input_file)
from .expr import parse_multiplier
from .framecore import (MAX_ITER, RANK_TOL, RECON_TOL, check_phases, exponential_system,
                        measure_bounds)
from .multiplication import _CHECKS as _SINGLE_CHECKS
from .multiplication import DEFAULT_LEVELS, check_converse, multiply_system, refine_check
from .multiplication import refinement_levels
from .pointset import (
    PointSet,
    beurling_1d_frame_predicate,
    beurling_ball_frame_predicate,
    beurling_density,
    densify,
    gap_details,
    load_pointset,
    separation,
)
from .records import Table, dumps, write_csv
from .translates import (
    BumpSpec,
    Generator,
    UnionPart,
    UnionSpec,
    build_bump_generator,
    classify_translates,
    load_generator_csv,
    obstruction_trend,
    oversampled_expansions,
    union_check,
    union_sweep,
)
from .translates import _check_target

__all__ = ["RunConfig", "parse_config", "parse_multiplier", "run", "main"]

_CHECK_KINDS = (*_SINGLE_CHECKS, "converse")

# size caps on what a config may ask for, checked before anything is
# allocated: nodes of any one grid (at ``grid.n_per_unit`` or at any
# ``grid.refine`` level) and ``inputs.n_targets``
MAX_GRID_NODES = 16384
MAX_TARGETS = 64

# the default ``inputs.residual_tol`` of a passing reconstruct target
RESIDUAL_TOL = 1e-8

_MULTIPLIER_INPUT = {
    "type": "object",
    "additionalProperties": False,
    "minProperties": 1,
    "maxProperties": 1,
    "properties": {"expr": {"type": "string"}, "csv": {"type": "string"}},
}

# a generator is a multiplier input that may also name a bump spec
_GENERATOR_INPUT = {
    **_MULTIPLIER_INPUT,
    "properties": {**_MULTIPLIER_INPUT["properties"], "bump": {"type": "string"}},
}

_INPUT_SCHEMAS = {
    "density": {
        "type": "object",
        "additionalProperties": False,
        "required": ["pointset"],
        "properties": {
            "pointset": {"type": "string"},
            "r_values": {
                "type": "array",
                "items": {"type": "number", "exclusiveMinimum": 0},
                "minItems": 1,
            },
            "a": {"type": "number", "exclusiveMinimum": 0},
            "r": {"type": "number", "exclusiveMinimum": 0},
            "r_ball": {"type": "number", "exclusiveMinimum": 0},
        },
    },
    "gap": {
        "type": "object",
        "additionalProperties": False,
        "required": ["pointset"],
        "properties": {"pointset": {"type": "string"}},
    },
    "frame-bounds": {
        "type": "object",
        "additionalProperties": False,
        "required": ["domain", "pointset"],
        "properties": {
            "domain": {"type": "string"},
            "pointset": {"type": "string"},
        },
    },
    "mult-check": {
        "type": "object",
        "additionalProperties": False,
        "required": ["domain", "pointset", "multiplier"],
        "properties": {
            "domain": {"type": "string"},
            "pointset": {"type": "string"},
            "multiplier": _MULTIPLIER_INPUT,
            "check": {"enum": list(_CHECK_KINDS)},
            "sweep": {"type": "boolean"},
        },
    },
    "translate-check": {
        "type": "object",
        "additionalProperties": False,
        "required": ["domain", "pointset", "generator"],
        "properties": {
            "domain": {"type": "string"},
            "pointset": {"type": "string"},
            "generator": _GENERATOR_INPUT,
            "sweep": {"type": "boolean"},
        },
    },
    "build-generator": {
        "type": "object",
        "additionalProperties": False,
        "required": ["bump", "csv_out"],
        "properties": {
            "bump": {"type": "string"},
            "csv_out": {"type": "string"},
        },
    },
    "reconstruct": {
        "type": "object",
        "additionalProperties": False,
        "required": ["band", "delta", "pointset"],
        "properties": {
            "band": {"type": "string"},
            "delta": {"type": "number", "exclusiveMinimum": 0},
            "pointset": {"type": "string"},
            "densify": {
                "type": "object",
                "additionalProperties": False,
                "required": ["target_gap", "sep_min"],
                "properties": {
                    "target_gap": {"type": "number", "exclusiveMinimum": 0},
                    "sep_min": {"type": "number", "exclusiveMinimum": 0},
                },
            },
            "n_targets": {"type": "integer", "minimum": 1, "maximum": MAX_TARGETS},
            "target_csv": {"type": "string"},
            "residual_tol": {"type": "number", "exclusiveMinimum": 0},
        },
    },
    "union-check": {
        "type": "object",
        "additionalProperties": False,
        "required": ["parts", "pointset"],
        "properties": {
            "pointset": {"type": "string"},
            "sweep": {"type": "boolean"},
            "parts": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["intervals", "expr"],
                    "properties": {
                        "intervals": {
                            "type": "array",
                            "minItems": 1,
                            "items": {
                                "type": "array",
                                "items": {"type": "number"},
                                "minItems": 2,
                                "maxItems": 2,
                            },
                        },
                        "expr": {"type": "string"},
                        "label": {"type": "string"},
                    },
                },
            },
        },
    },
    "corollary-demo": {
        "type": "object",
        "additionalProperties": False,
        "required": ["domain"],
        "properties": {
            "domain": {"type": "string"},
            "hat_expr": {"type": "string"},
        },
    },
}

COMMANDS = tuple(_INPUT_SCHEMAS)

_CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["command"],
    "properties": {
        "command": {"enum": list(COMMANDS)},
        "inputs": {"type": "object"},
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_per_unit": {"type": "integer", "minimum": 1},
                "refine": {"type": "array", "items": {"type": "integer"}},
            },
        },
        "tolerances": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rank_tol": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "recon_tol": {"type": "number", "exclusiveMinimum": 0},
                "max_iter": {"type": "integer", "minimum": 1},
            },
        },
        "seed": {"type": "integer"},
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "report": {"type": "string"},
                "format": {"enum": ["json", "csv"]},
            },
        },
    },
}


@dataclass
class RunConfig:
    """Validated run description.  The field defaults are the config defaults;
    config files and flag overrides both pass ``__post_init__``."""

    command: str
    inputs: dict = field(default_factory=dict)
    n_per_unit: int = 128
    refine: tuple = DEFAULT_LEVELS
    rank_tol: float = RANK_TOL
    recon_tol: float = RECON_TOL
    max_iter: int = MAX_ITER
    seed: int = 0
    report_path: str | None = None
    format: str = "json"

    def __post_init__(self):
        try:
            self.refine = refinement_levels(self.refine)
        except ValueError as exc:
            raise ConfigError(f"grid/refine: {exc}") from exc
        if self.seed < 0:
            raise ConfigError(f"seed: must be nonnegative, got {self.seed}")


# what each schema type admits, as Draft 2020-12 reads it: a bool is no
# number, and a float with no fractional part is an integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}

# bound keyword -> the test its value or size must pass, and that test's sign
_BOUNDS = {
    "minimum": (operator.ge, ">="),
    "exclusiveMinimum": (operator.gt, ">"),
    "maximum": (operator.le, "<="),
    "exclusiveMaximum": (operator.lt, "<"),
    "minItems": (operator.ge, ">="),
    "maxItems": (operator.le, "<="),
    "minProperties": (operator.ge, ">="),
    "maxProperties": (operator.le, "<="),
}


def _validate(value, schema: dict, path: str = ""):
    """``value`` checked against ``schema``, returned with every value the
    schema types ``integer`` as an int.

    Walks the keywords the schemas above use: type, enum, the ``_BOUNDS``,
    required, additionalProperties (false only), properties and items.  A
    node's own keywords are checked before its children, and the children in
    key or index order, so the ConfigError("<path>: <message>") raised is
    the first error in key-path order; the top level is ``<root>``.
    """
    def fail(message):
        raise ConfigError(f"{path or '<root>'}: {message}")

    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        fail(f"{value!r} is not of type {kind!r}")
    if kind == "integer":
        value = int(value)
    if "enum" in schema and value not in schema["enum"]:
        fail(f"{value!r} is not one of {schema['enum']!r}")
    props = schema.get("properties", {})
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                fail(f"required key {key!r} is missing")
        if schema.get("additionalProperties") is False:
            for key in value:
                if key not in props:
                    fail(f"unexpected key {key!r}")
    sized = isinstance(value, (list, dict))
    for key, (holds, sign) in _BOUNDS.items():
        if key in schema and not holds(len(value) if sized else value, schema[key]):
            size = f" of size {len(value)}" if sized else ""
            fail(f"{value!r}{size} is not {sign} {schema[key]!r} ({key})")
    join = (lambda k: f"{path}/{k}") if path else str
    if isinstance(value, dict) and props:
        out = dict(value)
        for key in sorted(value.keys() & props.keys()):
            out[key] = _validate(value[key], props[key], join(key))
        return out
    if isinstance(value, list) and "items" in schema:
        return [_validate(v, schema["items"], join(j)) for j, v in enumerate(value)]
    return value


def _finite(text: str) -> float:
    """A JSON number, or NaN / Infinity / -Infinity, which json accepts; only finite ones pass."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _int(text: str) -> int:
    """A JSON integer that a float can hold: a longer one overflows float arithmetic."""
    if not np.isfinite(float(text)):
        raise ValueError(f"integer of {len(text)} digits is too large for a float")
    return int(text)


def parse_config(path) -> RunConfig:
    """Load and validate a JSON run config; unknown keys and non-finite numbers are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=_finite, parse_int=_int, parse_constant=_finite)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")
    raw = _validate(raw, _CONFIG_SCHEMA)
    raw["inputs"] = _validate(raw.get("inputs", {}), _INPUT_SCHEMAS[raw["command"]], "inputs")
    # only the keys the file sets: the rest keep the RunConfig defaults
    out = raw.get("output", {})
    settings = {
        **raw.get("grid", {}),
        **raw.get("tolerances", {}),
        **{("report_path" if k == "report" else k): v for k, v in out.items()},
        **{k: raw[k] for k in ("command", "inputs", "seed") if k in raw},
    }
    return RunConfig(**settings)


def _atomic_write(path: str, fill) -> None:
    """Write through ``fill(fh)`` to a temporary file, then rename it over ``path``.

    The file keeps the mode a plain ``open(path, "w")`` leaves: that of the
    file it replaces, or 0o666 less the umask for a new one.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    tmp = os.path.join(directory, f".framelab-{os.urandom(8).hex()}")
    # created as open() creates a file, so the umask applies
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fill(fh)
        if mode is not None:
            os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_nodes(dom, cfg: RunConfig, sweep: bool = False) -> None:
    """A ConfigError naming the key when a grid of ``dom`` at ``n_per_unit``
    (or, for a sweep, at any refinement level) would pass MAX_GRID_NODES or
    have nodes that double precision cannot tell apart."""
    key, levels = ("grid/refine", cfg.refine) if sweep else ("grid/n_per_unit", [cfg.n_per_unit])
    for n_per_unit in levels:
        nodes = grid_size(dom, n_per_unit)
        if nodes > MAX_GRID_NODES:
            raise ConfigError(f"{key}: {n_per_unit} nodes per unit length make a grid of "
                              f"{nodes} nodes, above the cap of {MAX_GRID_NODES}")
        if not nodes_resolved(dom, n_per_unit):
            raise ConfigError(f"{key}: {n_per_unit} nodes per unit length space the grid "
                              f"nodes of {dom.intervals} closer than double precision resolves")


def _grid(cfg: RunConfig, dom):
    """The run's grid on ``dom``, once its size passes the cap."""
    _check_nodes(dom, cfg)
    return make_grid(dom, cfg.n_per_unit)


def _load_generator(grid, spec: dict, cfg: RunConfig):
    """Spectrum input {expr}|{csv}|{bump} -> (Generator, resample_fn|None).

    A bump spec overrides the grid: the generator lives on its dilated band.
    """
    if "expr" in spec:
        mult = parse_multiplier(spec["expr"])
        return Generator(mult.sample(grid), label="expr"), mult
    if "csv" in spec:
        return load_generator_csv(spec["csv"], grid), None
    return _bump_generator(_load_bump(spec["bump"]), cfg, "inputs/generator/bump"), None


def _load_bump(path) -> BumpSpec:
    """Bump spec file -> BumpSpec; a malformed spec is a ConfigError naming the file."""
    with input_file(path, "bump spec"), open(path, "r", encoding="utf-8") as fh:
        return BumpSpec.from_dict(json.load(fh))


def _load_frequencies(path) -> PointSet:
    """A point set read as the frequencies of an exponential system, which are 1-D."""
    ps = load_pointset(path)
    if ps.dim != 1:
        raise ConfigError(
            f"{path}: bad point set (frequencies must be 1-D, got {ps.dim}-D points)"
        )
    return ps


def _bump_generator(spec: BumpSpec, cfg: RunConfig, key: str) -> Generator:
    """The bump generator sampled on a grid over its dilated band; a bump it
    cannot build is a ConfigError naming ``key``, the input that set it."""
    grid = _grid(cfg, spec.dilated)
    try:
        return build_bump_generator(spec, grid)
    except FrameLabError as exc:
        raise ConfigError(f"{key}: {exc} (grid/n_per_unit {cfg.n_per_unit})") from exc


def _refine(cfg: RunConfig, dom, ps, phi_fn, check: str):
    """Refinement sweep of one check over the exponential system along ``ps``,
    once every level passes the grid cap; returns the sweep report and its
    (level, metric) plot."""
    _check_nodes(dom, cfg, sweep=True)
    sweep = refine_check(
        dom,
        lambda g: exponential_system(g, ps),
        phi_fn,
        check=check,
        levels=cfg.refine,
        rank_tol=cfg.rank_tol,
    )
    return sweep, Table(("level", "metric"), sweep.levels, sweep.metric_trend)


# ---------------------------------------------------------------------------
# command handlers: each returns (results dict, passed, plot Table|None)


def _separation(ps: PointSet, path: str) -> float:
    """separation(ps); a set too small to have one is a ConfigError naming the file."""
    if ps.size < 2:
        raise ConfigError(f"{path}: bad point set (separation needs at least two points, "
                          f"got {ps.size})")
    return separation(ps)


def _cmd_density(cfg: RunConfig):
    path = cfg.inputs["pointset"]
    ps = load_pointset(path)
    if "r_values" in cfg.inputs:
        r_values = list(cfg.inputs["r_values"])
    else:
        r_star = min(hi - lo for lo, hi in ps.box) / 2.0
        if r_star <= 0.0:
            raise ConfigError(f"{path}: bad point set (its box has a zero-width side, "
                              "so no density window fits)")
        r_values = [r_star / 4.0, r_star / 2.0, r_star]
    report = beurling_density(ps, r_values)
    results = {"density": report, "separation": _separation(ps, path)}
    if ("a" in cfg.inputs) != ("r" in cfg.inputs):
        raise ConfigError("inputs: the interval predicate needs both 'a' and 'r'")
    if "a" in cfg.inputs:
        if ps.dim != 1:
            raise ConfigError(f"{path}: bad point set (the interval predicate needs 1-D "
                              f"points, got {ps.dim}-D)")
        results["interval_predicate"] = beurling_1d_frame_predicate(
            ps, cfg.inputs["a"], cfg.inputs["r"])
    if "r_ball" in cfg.inputs:
        results["ball_predicate"] = beurling_ball_frame_predicate(ps, cfg.inputs["r_ball"])
    return results, True, report.table


def _cmd_gap(cfg: RunConfig):
    path = cfg.inputs["pointset"]
    ps = load_pointset(path)
    sep = _separation(ps, path)
    details = gap_details(ps)
    results = {"separation": sep, "gap": details}
    return results, True, Table(("gap", "separation"), [details["value"]], [sep])


def _cmd_frame_bounds(cfg: RunConfig):
    dom = load_domain(cfg.inputs["domain"])
    ps = _load_frequencies(cfg.inputs["pointset"])
    grid = _grid(cfg, dom)
    report = measure_bounds(exponential_system(grid, ps), cfg.rank_tol)
    return {"report": report}, True, report.table


def _cmd_mult_check(cfg: RunConfig):
    dom = load_domain(cfg.inputs["domain"])
    ps = _load_frequencies(cfg.inputs["pointset"])
    check = cfg.inputs.get("check", "frame")
    if check == "converse" and cfg.inputs.get("sweep"):
        raise ConfigError("inputs/sweep: the converse check has no refinement sweep")
    grid = _grid(cfg, dom)
    gen, phi_fn = _load_generator(grid, cfg.inputs["multiplier"], cfg)
    phi = gen.hat
    sweep = cfg.inputs.get("sweep", phi_fn is not None)
    if sweep and phi_fn is None:
        raise ConfigError("inputs/multiplier: a CSV multiplier cannot be resampled for a sweep")
    if check == "converse":
        base = exponential_system(grid, ps)
        report = check_converse(multiply_system(base, phi), phi, cfg.rank_tol)
        return {"check": report}, report.consistent, None
    if sweep:
        sweep_report, plot = _refine(cfg, dom, ps, phi_fn, check)
        return {"sweep": sweep_report}, sweep_report.consistent, plot
    report = _SINGLE_CHECKS[check](exponential_system(grid, ps), phi, rank_tol=cfg.rank_tol)
    return {"check": report}, report.consistent, None


def _cmd_translate_check(cfg: RunConfig):
    dom = load_domain(cfg.inputs["domain"])
    ps = _load_frequencies(cfg.inputs["pointset"])
    grid = _grid(cfg, dom)
    gen, hat_fn = _load_generator(grid, cfg.inputs["generator"], cfg)
    sweep = cfg.inputs.get("sweep", False)
    if sweep and hat_fn is None:
        raise ConfigError("inputs/generator: only expression generators support sweeps")
    if sweep:
        # the sweep admits its own levels; the classified grid is admitted
        # first, so that a refused grid is refused before either eigensolve
        check_phases(gen.grid, ps.xs)
        sweep_report, plot = _refine(cfg, dom, ps, hat_fn, "frame")
    report = classify_translates(gen, ps, rank_tol=cfg.rank_tol)
    if sweep:
        return {"classification": report, "sweep": sweep_report}, sweep_report.consistent, plot
    return {"classification": report}, report.consistent, None


def _cmd_build_generator(cfg: RunConfig):
    spec = _load_bump(cfg.inputs["bump"])
    gen = _bump_generator(spec, cfg, "inputs/bump")
    grid, table = gen.grid, gen.table
    _atomic_write(cfg.inputs["csv_out"], lambda fh: write_csv(fh, table))
    on_base = spec.base_domain.contains(grid.nodes)
    results = {
        "bump": spec,
        "nodes": grid.size,
        "base_nodes": int(on_base.sum()),
        "max_dev_on_base": float(np.abs(gen.hat.values[on_base] - 1.0).max()),
        "csv_out": cfg.inputs["csv_out"],
    }
    return results, True, table


def _cmd_reconstruct(cfg: RunConfig):
    if "target_csv" in cfg.inputs and "n_targets" in cfg.inputs:
        raise ConfigError("inputs/target_csv: a target file is one target, so it cannot "
                          "be combined with inputs/n_targets")
    band = load_domain(cfg.inputs["band"])
    ps = _load_frequencies(cfg.inputs["pointset"])
    if "densify" in cfg.inputs:
        d = cfg.inputs["densify"]
        if d["sep_min"] > d["target_gap"]:
            raise ConfigError(f"inputs/densify/sep_min: {d['sep_min']} exceeds "
                              f"target_gap {d['target_gap']}, so no infill can reach the gap")
        ps = densify(ps, d["target_gap"], d["sep_min"])
    gen = _bump_generator(BumpSpec(band, cfg.inputs["delta"]), cfg, "inputs/delta")
    grid = gen.grid
    inside = band.contains(grid.nodes)

    targets = []
    if "target_csv" in cfg.inputs:
        path = cfg.inputs["target_csv"]
        f_hat = load_generator_csv(path, grid, label="f").hat
        try:
            _check_target(f_hat, grid, inside)
        except FrameLabError as exc:
            raise ConfigError(f"{path}: bad target ({exc})") from exc
        targets.append(f_hat)
    else:
        rng = np.random.default_rng(cfg.seed)
        for _ in range(cfg.inputs.get("n_targets", 1)):
            vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
            targets.append(SampledFunction(grid, vals * inside))

    tol = cfg.inputs.get("residual_tol", RESIDUAL_TOL)
    expansions = oversampled_expansions(
        targets, gen, ps, band, tol=cfg.recon_tol, max_iter=cfg.max_iter, rank_tol=cfg.rank_tol,
    )
    passed = all(
        r.product_residual <= tol and r.vanish_outside <= tol and r.coeff_bound_ok
        for r in expansions
    )
    f_hat, res = targets[0], expansions[0]
    results = {
        "n_points": ps.size,
        "grid_nodes": grid.size,
        "exp_lower": res.exp_report.lower,
        "exp_upper": res.exp_report.upper,
        "residual_tol": tol,
        "targets": expansions,
        "expansion": res.table,
    }
    return results, passed, Table(("omega", "re_target", "im_target", "re_recon", "im_recon"),
                                  grid.nodes, f_hat.values.real, f_hat.values.imag,
                                  res.reconstruction.real, res.reconstruction.imag)


def _cmd_union_check(cfg: RunConfig):
    ps = _load_frequencies(cfg.inputs["pointset"])
    parts = []
    for j, p in enumerate(cfg.inputs["parts"]):
        try:
            dom = Domain(p["intervals"])
        except ValueError as exc:
            raise ConfigError(f"inputs/parts/{j}/intervals: {exc}") from exc
        parts.append(UnionPart(dom, parse_multiplier(p["expr"]), label=p.get("label", str(j))))
    spec = UnionSpec(parts, ps)
    sweep = cfg.inputs.get("sweep", False)
    _check_nodes(spec.domain, cfg, sweep)
    if sweep:
        report = union_sweep(spec, levels=cfg.refine, rank_tol=cfg.rank_tol)
        plot = Table(("level", "p_hat", "lower"), report.levels, report.p_hats, report.lowers)
        return {"sweep": report}, report.consistent, plot
    report = union_check(spec, cfg.n_per_unit, cfg.rank_tol)
    total = report.total_report
    plot = Table(("p_hat", "P_hat", "lower", "upper"),
                 [report.p_hat], [report.P_hat], [total.lower], [total.upper])
    return {"union": report}, report.consistent, plot


def _cmd_corollary_demo(cfg: RunConfig):
    dom = load_domain(cfg.inputs["domain"])
    if len(dom.intervals) != 1:
        raise ConfigError("inputs/domain: the demo needs a single-interval band")
    (a, b) = dom.intervals[0]
    center, length = (a + b) / 2.0, b - a
    hat_src = cfg.inputs.get(
        "hat_expr", f"1 - abs(2 * (t - {center!r}) / {length!r})"
    )
    hat = parse_multiplier(hat_src)
    control = parse_multiplier("1")
    _check_nodes(dom, cfg, sweep=True)
    hat_report = obstruction_trend(dom, hat, levels=cfg.refine, rank_tol=cfg.rank_tol)
    control_report = obstruction_trend(dom, control, levels=cfg.refine, rank_tol=cfg.rank_tol)
    passed = (
        hat_report.consistent
        and control_report.consistent
        and not control_report.measured_obstruction
    )
    results = {
        "hat_expr": hat.source,
        "hat": hat_report,
        "control": control_report,
    }
    plot = Table(("level", "hat_lower", "control_lower"), hat_report.levels,
                 hat_report.lower_bounds, control_report.lower_bounds)
    return results, passed, plot


_HANDLERS = {
    "density": _cmd_density,
    "gap": _cmd_gap,
    "frame-bounds": _cmd_frame_bounds,
    "mult-check": _cmd_mult_check,
    "translate-check": _cmd_translate_check,
    "build-generator": _cmd_build_generator,
    "reconstruct": _cmd_reconstruct,
    "union-check": _cmd_union_check,
    "corollary-demo": _cmd_corollary_demo,
}


def run(cfg: RunConfig) -> int:
    """Dispatch one command, write its report, and return the exit code."""
    try:
        results, passed, plot = _HANDLERS[cfg.command](cfg)
    except (ConfigError, ExprError, GridMismatchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PhaseError as exc:
        print(f"error: {cfg.inputs['pointset']}: bad point set ({exc})", file=sys.stderr)
        return 2
    except (FrameLabError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    report = {
        "command": cfg.command,
        "inputs": cfg.inputs,
        "grid": {"n_per_unit": cfg.n_per_unit, "refine": list(cfg.refine)},
        "tolerances": {
            "rank_tol": cfg.rank_tol,
            "recon_tol": cfg.recon_tol,
            "max_iter": cfg.max_iter,
        },
        "seed": cfg.seed,
        "results": results,
        "passed": bool(passed),
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    text = dumps(report)
    try:
        if cfg.report_path:
            _atomic_write(cfg.report_path, lambda fh: fh.write(text))
            if cfg.format == "csv" and plot is not None:
                base, _ = os.path.splitext(cfg.report_path)
                _atomic_write(base + ".csv", lambda fh: write_csv(fh, plot))
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="framelab",
        description="Frame-theory workbench: density, frame bounds, multiplier "
        "and translate checks on sampled frequency bands.",
    )
    parser.add_argument("--config", required=True, help="JSON run config")
    parser.add_argument("--out", help="report path (overrides config output.report)")
    parser.add_argument("--format", choices=["json", "csv"], help="report format override")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--refine", help="comma-separated refinement levels, e.g. 64,128,256")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = parse_config(args.config)
        overrides = {"report_path": args.out, "format": args.format, "seed": args.seed}
        if args.refine is not None:
            try:
                overrides["refine"] = tuple(int(v) for v in args.refine.split(","))
            except ValueError:
                raise ConfigError("--refine expects comma-separated integers")
        cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
