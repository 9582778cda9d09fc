"""Deterministic JSON rendering with 17-significant-digit floats.

The standard encoder prints floats via repr; here every float goes through
'%.17g' so doubles round-trip losslessly and repeated runs emit identical
bytes.  Output stays parseable by json.loads (including the Infinity/NaN
literals the stdlib parser accepts).
"""

from __future__ import annotations

import dataclasses
import json
import math

# Version of every JSON document the package writes (CLI output and report dicts).
SCHEMA_VERSION = "1"


def as_dict(report) -> dict:
    """{schema_version, then each dataclass field of report in declaration order}, values as they are."""
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    return {"schema_version": SCHEMA_VERSION, **fields}


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return f"{x:.17g}"


def one_line(obj) -> str:
    """dumps on a single line, for the plain-text and stderr echoes."""
    return dumps(obj, indent=0).replace("\n", " ")


def dumps(obj, indent: int = 2) -> str:
    pieces = []
    _write(obj, pieces, indent, 0)
    return "".join(pieces)


def _write(obj, out: list, indent: int, level: int) -> None:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            out.append(pad_in + json.dumps(str(key)) + ": ")
            _write(val, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, val in enumerate(obj):
            out.append(pad_in)
            _write(val, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
