"""Compact JSON emission with 17-significant-digit floats, and the readers
that check the fields of every JSON document the program reads.

json.dumps uses repr's shortest round-trip form, whose length varies; the
file formats here pin floats to '%.17g' so every float64 round-trips and
two writers of the same data emit identical bytes.

Each reader takes a decoded value and the name to report, returns the value
in the type the program uses, and raises ValueError when the value has the
wrong JSON type: int() and float() would raise TypeError on null and accept
strings such as "5" and the booleans.  Numbers must be finite, as in strict
JSON (json.load also accepts NaN and Infinity).
"""

from __future__ import annotations

import json
import math

import numpy as np


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite float {x!r} cannot be serialized")
    return format(x, ".17g")


def dumps(obj) -> str:
    """Serialize to compact JSON; floats via format_float."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        parts = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be str, got {k!r}")
            parts.append(json.dumps(k) + ":" + dumps(v))
        return "{" + ",".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _finite(value) -> float | None:
    """value as a float if it is a finite JSON number, else None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        x = float(value)
    except OverflowError:  # an integer literal beyond the float range
        return None
    return x if math.isfinite(x) else None


def read_number(value, name: str) -> float:
    """value as a float if it is a finite JSON number, else ValueError."""
    x = _finite(value)
    if x is None:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return x


def read_int(value, name: str) -> int:
    """value as an int if it is an integral JSON number (4 or 4.0), else
    ValueError."""
    x = _finite(value)
    if x is None or not x.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def read_object(value, name: str) -> dict:
    """value if it is a JSON object, else ValueError."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {value!r}")
    return value


def read_list(value, name: str, item) -> list:
    """[item(element, "name[k]") ...] over value if it is a JSON array,
    else ValueError."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be an array, got {value!r}")
    return [item(v, f"{name}[{k}]") for k, v in enumerate(value)]


def read_array(value, name: str) -> np.ndarray:
    """A finite JSON number, or JSON arrays of them nested to equal depth,
    as a float64 ndarray; anything else raises ValueError."""
    def numeric(v):
        if isinstance(v, list):
            return all(numeric(x) for x in v)
        return _finite(v) is not None

    if not numeric(value):
        raise ValueError(f"{name} must be a number or an array of numbers")
    return np.asarray(value, dtype=np.float64)
