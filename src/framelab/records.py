"""Reports as JSON: one scalar rule, the coercer into strict-JSON values and
the report writer built on it, and the ``Record`` base whose JSON form is
its fields: all but those declared ``repr=False`` and, while they hold
None, those whose default is None."""

from __future__ import annotations

import math
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from typing import ClassVar

import numpy as np

__all__ = ["Record", "dumps", "jsonable"]

_NOT_SCALAR = object()


def _scalar(obj):
    """The strict-JSON value of a bool, integer or real float, numpy ones
    included: non-finite floats become None.  Anything else is _NOT_SCALAR."""
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    return _NOT_SCALAR


def jsonable(obj):
    """Recursively coerce report values into strict-JSON types.

    Non-finite floats become None; an object with a ``to_dict`` becomes that
    dict, which is strict JSON already.
    """
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    v = _scalar(obj)
    if v is not _NOT_SCALAR:
        return v
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": jsonable(obj.real), "im": jsonable(obj.imag)}
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    return obj


def _atom(obj):
    """The JSON text of a string, None or scalar; None for anything else."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    v = None if obj is None else _scalar(obj)
    if v is None or isinstance(v, bool):
        return "null" if v is None else "true" if v else "false"
    if v is _NOT_SCALAR:
        return None
    return int.__repr__(v) if isinstance(v, int) else float.__repr__(v)


def _rows(rows: list, nl: str):
    """The items at indent ``nl`` of a list of non-empty dicts that share one
    set of str keys and hold only atoms, through one format string; None for
    any other list."""
    first = rows[0]
    if type(first) is not dict or not first or any(type(k) is not str for k in first):
        return None
    if any(type(row) is not dict or row.keys() != first.keys() for row in rows):
        return None
    keys = sorted(first)
    values = [row[k] for row in rows for k in keys]
    # finite floats sum to a finite value; a sum that overflows only costs
    # this shortcut
    if all(type(v) is float for v in values) and math.isfinite(sum(values)):
        atoms = list(map(float.__repr__, values))
    else:
        atoms = [_atom(v) for v in values]
        if None in atoms:
            return None
    cell = nl + "  "
    row = "{" + cell + ("," + cell).join(
        encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys) + nl + "}"
    return ("," + nl).join([row] * len(rows)) % tuple(atoms)


def _write(obj, out: list, nl: str) -> None:
    """Append the JSON text of ``jsonable(obj)`` at the indent ``nl`` to ``out``."""
    text = _atom(obj)
    if text is not None:
        out.append(text)
    elif isinstance(obj, (dict, Record)):
        pairs = obj.items() if isinstance(obj, dict) else obj._pairs()
        items = sorted({str(k): v for k, v in pairs}.items())
        if not items:
            out.append("{}")
            return
        inner = nl + "  "
        for i, (k, v) in enumerate(items):
            out.append(("{" if i == 0 else ",") + inner + encode_basestring_ascii(k) + ": ")
            _write(v, out, inner)
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        if isinstance(obj, np.ndarray):
            obj = list(obj.tolist())  # a 0-d array raises TypeError, as in jsonable
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        items = _rows(obj, inner)
        if items is not None:
            out.append("[" + inner + items + nl + "]")
            return
        for i, v in enumerate(obj):
            out.append(("[" if i == 0 else ",") + inner)
            _write(v, out, inner)
        out.append(nl + "]")
    elif isinstance(obj, (complex, np.complexfloating)):
        _write({"re": obj.real, "im": obj.imag}, out, nl)
    elif hasattr(obj, "to_dict"):
        _write(obj.to_dict(), out, nl)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps(obj) -> str:
    """The report text of ``obj``, in one coerce-and-encode walk.

    The text is byte for byte ``json.dumps(jsonable(obj), indent=2,
    sort_keys=True, allow_nan=False) + "\\n"``; what that cannot serialize
    raises TypeError here too.
    """
    out: list = []
    _write(obj, out, "\n")
    out.append("\n")
    return "".join(out)


class Record:
    """Base of the report dataclasses: a report's JSON keys are its fields,
    each under its name or its entry in ``_keys``, by two rules: a
    ``repr=False`` field (arrays, sampled functions) stays out, and so does a
    field whose default is None while it holds None.  ``to_dict`` and the
    report writer both walk ``_pairs``.
    """

    _keys: ClassVar[dict] = {}

    def _pairs(self):
        """The (key, raw value) pairs of the JSON form, by the two rules."""
        for f in fields(self):
            value = getattr(self, f.name)
            if f.repr and not (value is None and f.default is None):
                yield self._keys.get(f.name, f.name), value

    def to_dict(self) -> dict:
        return {k: jsonable(v) for k, v in self._pairs()}
