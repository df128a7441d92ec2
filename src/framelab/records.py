"""Reports as JSON: one coercer into strict-JSON values, and the ``Record``
base whose JSON form is its fields."""

from __future__ import annotations

import math
from dataclasses import fields
from typing import ClassVar

import numpy as np

__all__ = ["Record", "jsonable"]


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
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": jsonable(obj.real), "im": jsonable(obj.imag)}
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    return obj


class Record:
    """Base of the report dataclasses: a report's JSON keys are its fields.

    ``to_dict`` maps every ``repr=True`` field through ``jsonable``, keyed by
    its name or by its entry in ``_keys``; ``repr=False`` fields (arrays,
    sampled functions) stay out.
    """

    _keys: ClassVar[dict] = {}

    def to_dict(self) -> dict:
        return {
            self._keys.get(f.name, f.name): jsonable(getattr(self, f.name))
            for f in fields(self)
            if f.repr
        }
