"""The in-tree config validator, ``cli._validate``, held to the Draft 2020-12
reference validator of ``jsonschema`` (a test dependency only) over every
command's input schema and the config schema.

Both must accept and reject the same values, and on a reject name the same
first key path (errors sorted by path, as ``jsonschema`` reports them).  The
one intended difference: the walker hands every value the schema types
``integer`` on as an int, so a config's 16.0 reaches the run as 16, where the
reference only validates and leaves the float in place.
"""

import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

from framelab.cli import _BOUNDS, _CONFIG_SCHEMA, _INPUT_SCHEMAS, _TYPES, _validate
from framelab.errors import ConfigError

SCHEMAS = {"<config>": _CONFIG_SCHEMA, **_INPUT_SCHEMAS}
HANDLED = {"type", "enum", "required", "additionalProperties", "properties", "items", *_BOUNDS}

# JSON values of every type, put anywhere a schema expects something else
JUNK_VALUES = [None, True, False, 0, 1, -1, 1.0, 2.5, -0.5, "", "x", [], [1], {}, {"k": 1}]
JUNK = st.sampled_from(JUNK_VALUES)


def subschemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from subschemas(sub)
    if "items" in schema:
        yield from subschemas(schema["items"])


def edges(schema):
    """Each bound of ``schema`` and its neighbours, as ints and as floats."""
    return [v for k in _BOUNDS if k in schema for d in (-1, -0.5, 0, 0.5, 1)
            for v in (schema[k] + d, float(schema[k] + d))]


def numbers(schema, integral):
    """Integers, integral floats and fractions, and every bound with its
    neighbours, so the exclusive bounds meet equality."""
    pool = [st.integers(-3, 70), st.integers(-3, 70).map(float),
            st.sampled_from(edges(schema) or [0])]
    if not integral:
        pool.append(st.floats(-3.0, 3.0))
    return st.one_of(*pool, st.sampled_from([0.5, -2.5, 64.5]))


@st.composite
def objects(draw, schema):
    """A dict with each required key, each optional key maybe, and sometimes a
    required key dropped or an extra key added."""
    props = schema.get("properties", {})
    if not props:
        return draw(st.dictionaries(st.sampled_from(["a", "b"]), JUNK, max_size=2))
    required = [k for k in props if k in schema.get("required", ())]
    optional = [k for k in props if k not in required]
    keys = required + [k for k in optional if draw(st.booleans())]
    if keys and draw(st.integers(0, 5)) == 0:
        keys.remove(draw(st.sampled_from(keys)))
    out = {k: draw(instances(props[k])) for k in keys}
    if draw(st.integers(0, 5)) == 0:
        out[draw(st.sampled_from(["extra", "bogus"]))] = draw(JUNK)
    return out


def well_formed(schema):
    """Values of the schema's own shape, some of them still out of bounds."""
    if "enum" in schema:
        return st.sampled_from([*schema["enum"], "not-listed"])
    kind = schema["type"]
    if kind == "object":
        return objects(schema)
    if kind == "array":
        lo, hi = schema.get("minItems", 0), schema.get("maxItems", 3)
        return st.lists(instances(schema.get("items", {"type": "number"})),
                        min_size=max(lo - 1, 0), max_size=hi + 1)
    if kind in ("number", "integer"):
        return numbers(schema, kind == "integer")
    return {"string": st.sampled_from(["", "x", "p.csv"]), "boolean": st.booleans()}[kind]


def instances(schema):
    """Mostly well-formed values for ``schema``, with junk at any depth."""
    return st.one_of(well_formed(schema), well_formed(schema), well_formed(schema), JUNK)


def reference_first_error(instance, schema):
    errors = sorted(Draft202012Validator(schema).iter_errors(instance),
                    key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    return "/".join(str(p) for p in errors[0].absolute_path) or "<root>"


def walker_result(instance, schema):
    """(first error path or None, the validated value or None)."""
    try:
        return None, _validate(instance, schema)
    except ConfigError as exc:
        return str(exc).split(": ", 1)[0], None


def integer_typed(value, schema):
    """The values at the places ``schema`` types ``integer``."""
    if schema.get("type") == "integer":
        yield value
    elif isinstance(value, dict):
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                yield from integer_typed(value[key], sub)
    elif isinstance(value, list) and "items" in schema:
        for item in value:
            yield from integer_typed(item, schema["items"])


def assert_agrees(instance, schema):
    expected = reference_first_error(instance, schema)
    path, out = walker_result(instance, schema)
    assert path == expected, (instance, path, expected)
    if expected is None:
        # the intended difference: equal values, with every integer an int
        assert out == instance
        assert all(type(v) is int for v in integer_typed(out, schema))


def test_the_walker_handles_every_keyword_the_schemas_use():
    used = {key for schema in SCHEMAS.values() for sub in subschemas(schema) for key in sub}
    assert used <= HANDLED, sorted(used - HANDLED)
    types = {sub["type"] for schema in SCHEMAS.values() for sub in subschemas(schema)
             if "type" in sub}
    assert types <= set(_TYPES)
    assert all(sub.get("additionalProperties", False) is False
               for schema in SCHEMAS.values() for sub in subschemas(schema))


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_every_subschema_on_junk_and_at_its_bounds(name):
    """Each node of each schema on its own, against every junk value and at
    every bound: a bool in a number's place, exclusive bounds at equality."""
    for sub in subschemas(SCHEMAS[name]):
        for value in [*JUNK_VALUES, *edges(sub), *sub.get("enum", ())]:
            assert_agrees(value, sub)


@settings(max_examples=300)
@given(st.sampled_from(sorted(SCHEMAS)).flatmap(
    lambda name: st.tuples(st.just(name), instances(SCHEMAS[name]))))
def test_walker_matches_draft_2020_12(case):
    name, instance = case
    assert_agrees(instance, SCHEMAS[name])


R = _INPUT_SCHEMAS["reconstruct"]
U = _INPUT_SCHEMAS["union-check"]
M = _INPUT_SCHEMAS["mult-check"]
BAND = {"band": "b.json", "delta": 0.05, "pointset": "p.csv"}
PART = {"intervals": [[0.0, 1.0]], "expr": "1"}
MULT = {"domain": "d.json", "pointset": "p.csv"}


@pytest.mark.parametrize("schema, instance, path", [
    # a bool is no number and no integer
    (R, {**BAND, "delta": True}, "delta"),
    (R, {**BAND, "n_targets": False}, "n_targets"),
    (_CONFIG_SCHEMA, {"command": "gap", "seed": True}, "seed"),
    # a float with no fractional part is an integer; any other float is not
    (R, {**BAND, "n_targets": 1.0}, None),
    (R, {**BAND, "n_targets": 1.5}, "n_targets"),
    (_CONFIG_SCHEMA, {"command": "gap", "grid": {"refine": [64.0, 128.0]}}, None),
    # an enum miss, an extra key and a missing required key
    (_CONFIG_SCHEMA, {"command": "nope"}, "command"),
    (M, {**MULT, "multiplier": {"expr": "t"}, "check": "Frame"}, "check"),
    (_CONFIG_SCHEMA, {"command": "gap", "bogus": 1}, "<root>"),
    (R, {"band": "b.json", "pointset": "p.csv"}, "<root>"),
    # minItems / maxItems
    (U, {"pointset": "p.csv", "parts": []}, "parts"),
    (U, {"pointset": "p.csv", "parts": [{**PART, "intervals": [[0.0]]}]}, "parts/0/intervals/0"),
    (U, {"pointset": "p.csv", "parts": [{**PART, "intervals": [[0.0, 1.0, 2.0]]}]},
     "parts/0/intervals/0"),
    # minProperties / maxProperties
    (M, {**MULT, "multiplier": {}}, "multiplier"),
    (M, {**MULT, "multiplier": {"expr": "t", "csv": "m.csv"}}, "multiplier"),
    # exclusive bounds at equality, inclusive bounds at equality
    (_CONFIG_SCHEMA, {"command": "gap", "tolerances": {"rank_tol": 0}}, "tolerances/rank_tol"),
    (_CONFIG_SCHEMA, {"command": "gap", "tolerances": {"rank_tol": 1.0}}, "tolerances/rank_tol"),
    (R, {**BAND, "delta": 0.0}, "delta"),
    (R, {**BAND, "n_targets": 1}, None),
    (R, {**BAND, "n_targets": 64}, None),
    (R, {**BAND, "n_targets": 0}, "n_targets"),
    (R, {**BAND, "n_targets": 65.0}, "n_targets"),
    # the first error in key-path order: a node's own error before its
    # children's, and siblings by key
    (_CONFIG_SCHEMA, {"grid": {"n_per_unit": 0}}, "<root>"),
    (_CONFIG_SCHEMA, {"command": "gap", "tolerances": {"max_iter": 0},
                      "grid": {"refine": ["x"]}}, "grid/refine/0"),
])
def test_corner_cases(schema, instance, path):
    assert reference_first_error(instance, schema) == path
    assert_agrees(instance, schema)


def test_integral_floats_come_back_as_ints():
    out = _validate({"command": "gap", "seed": 3.0, "grid": {"refine": [8.0, 16]}},
                    _CONFIG_SCHEMA)
    assert out == {"command": "gap", "seed": 3, "grid": {"refine": [8, 16]}}
    assert type(out["seed"]) is int and type(out["grid"]["refine"][0]) is int


def test_error_names_the_path_and_the_value():
    with pytest.raises(ConfigError, match=r"^inputs/n_targets: 2\.5 is not of type 'integer'"):
        _validate({**BAND, "n_targets": 2.5}, R, "inputs")
    with pytest.raises(ConfigError, match=r"^<root>: unexpected key 'bogus'"):
        _validate({"command": "gap", "bogus": 1}, _CONFIG_SCHEMA)


def test_importing_the_cli_loads_no_jsonschema():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, framelab.cli; print(sorted(m for m in sys.modules if 'jsonschema' in m))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
