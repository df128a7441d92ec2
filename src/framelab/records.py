"""Reports as JSON: one scalar rule, the coercer into strict-JSON values and
the report writer built on it, the ``Record`` base whose JSON form is its
fields (all but those declared ``repr=False`` and, while they hold None,
those whose default is None), and the ``Table``: named columns of equal
length whose JSON form is the list of its row dicts and whose CSV form is its
keys, then its rows."""

from __future__ import annotations

import csv
import math
from dataclasses import fields
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import ClassVar

import numpy as np

__all__ = ["Record", "Table", "dumps", "jsonable", "write_csv"]

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


class Table:
    """Named columns of equal length under distinct str keys; numpy columns
    become Python scalars once, by ``tolist``.  ``rows()`` yields the CSV body."""

    def __init__(self, keys, *columns):
        self.keys = tuple(map(str, keys))
        self.columns = [c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns]
        lengths = [len(c) for c in self.columns]
        if not len(set(self.keys)) == len(self.keys) == len(lengths) or len(set(lengths)) > 1:
            raise ValueError(f"a table needs one column per distinct key, all of one length: "
                             f"got keys {self.keys} and column lengths {lengths}")

    def rows(self):
        return zip(*self.columns)


def write_csv(fh, table: Table) -> None:
    """Write ``table`` as CSV, its keys then its rows, to the text file ``fh``
    (opened with ``newline=""``)."""
    csv.writer(fh).writerows([table.keys, *table.rows()])


def jsonable(obj):
    """Recursively coerce report values into strict-JSON types.

    Non-finite floats become None; a ``Table`` becomes the list of its row
    dicts; an object with a ``to_dict`` becomes that dict, which is strict
    JSON already.
    """
    if isinstance(obj, Table):
        return [{k: jsonable(v) for k, v in zip(obj.keys, row)} for row in obj.rows()]
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


def _write(obj, out: list, nl: str) -> None:
    """Append the JSON text of ``jsonable(obj)`` at the indent ``nl`` to ``out``."""
    text = _atom(obj)
    if text is not None:
        out.append(text)
    elif isinstance(obj, Table):
        keys = sorted(obj.keys)
        columns = [obj.columns[obj.keys.index(k)] for k in keys]
        # a table of finite floats takes one format string; finite floats sum
        # to a finite value, and a sum that overflows only costs this shortcut
        if not (columns and columns[0] and all(type(v) is float for c in columns for v in c)
                and math.isfinite(sum(map(sum, columns)))):
            _write(jsonable(obj), out, nl)
            return
        inner, cell = nl + "  ", nl + "    "
        row = "{" + cell + ("," + cell).join(
            encode_basestring_ascii(k).replace("%", "%%") + ": %r" for k in keys) + inner + "}"
        values = tuple(chain.from_iterable(zip(*columns)))
        out.append("[" + inner + ("," + inner).join([row] * len(columns[0])) % values + nl + "]")
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
