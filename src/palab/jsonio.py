"""Deterministic JSON serialization for experiment outputs, and the one
JSON reader for inputs.

Keys are sorted, floats carry 17 significant digits, and the byte stream
depends only on the values, so identical configs and seeds diff clean.
Timestamps never belong here; they go to the sidecar file the CLI writes.
Inputs (model and pmf files) go through ``loads``, which rejects every
number that is not finite as a float: the ``NaN`` and ``Infinity`` literals
and literals that overflow, such as ``1e400``.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .errors import ParameterError


def _fmt(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite float {value} in deterministic output")
        if value == int(value) and abs(value) < 1e16:
            return f"{value:.1f}"
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = sorted(value.items())
        inner = ",".join(f"{json.dumps(str(k))}:{_fmt(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_fmt(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__} deterministically")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ParameterError(f"non-finite number {text[:32]} in JSON input")
    return value


def _finite_int(text: str) -> int:
    """An integer literal, rejected like a float where it overflows one."""
    _finite(text)
    return int(text)


def loads(text: str) -> Any:
    """``json.loads``, with a ``ParameterError`` for any non-finite number."""
    return json.loads(text, parse_float=_finite, parse_int=_finite_int, parse_constant=_finite)


def dumps(obj: Any) -> str:
    return _fmt(obj) + "\n"


def write(path: str, obj: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
