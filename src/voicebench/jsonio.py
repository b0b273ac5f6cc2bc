"""Canonical JSON serialization for reports and fingerprints.

json.dumps writes a copy of the value with sorted keys and a two-space
indent. In the copy every float is rounded to 10 significant digits (what
%.10g prints) and a whole one below 1e10 becomes an int, numpy values
become Python ones, and a non-finite float raises ValueError. So
serialize(parse(serialize(x))) is byte-identical to serialize(x), which
is what makes reports diffable and config fingerprints stable.
"""
from __future__ import annotations

import json
import math


def format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite float {value!r}")
    return "%.10g" % value


def _rounded(value):
    if isinstance(value, float):
        value = float(format_float(value))
        return int(value) if value.is_integer() and abs(value) < 1e10 else value
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return list(map(_rounded, value))
    return value


def canonical_dumps(value) -> str:
    # numpy scalars and arrays reach `default`, which makes them Python values
    return json.dumps(_rounded(value), indent=2, sort_keys=True, ensure_ascii=False,
                      default=lambda item: _rounded(item.tolist())) + "\n"


def canonical_loads(text: str):
    return json.loads(text)
