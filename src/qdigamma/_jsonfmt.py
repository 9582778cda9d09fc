"""Deterministic JSON rendering with 17-significant-digit floats.

The standard encoder prints floats via repr; here every float goes through
'%.17g' so doubles round-trip losslessly and repeated runs emit identical
bytes.  Output stays parseable by json.loads (including the Infinity/NaN
literals the stdlib parser accepts).
"""

from __future__ import annotations

import dataclasses
import math
from json.encoder import encode_basestring_ascii

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


# the writer of every str value and key, which json.dumps(str) calls with its default ensure_ascii
_string = encode_basestring_ascii
# the values written without a call of _write, by exact type: subclasses (numpy floats, enums) take _write's tests
_LEAVES = {float: format_float, int: str, str: _string, bool: lambda b: "true" if b else "false",
           type(None): lambda _: "null"}


def _write(obj, out: list, indent: int, level: int) -> None:
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
        out.append(_string(obj))
    elif isinstance(obj, (dict, list, tuple)):
        if not obj:
            out.append("{}" if isinstance(obj, dict) else "[]")
            return
        # the pads and separators of this container, formed once
        pad_in = "\n" + " " * (indent * (level + 1))
        sep, between, leaves = ("{" if isinstance(obj, dict) else "[") + pad_in, "," + pad_in, _LEAVES
        if isinstance(obj, dict):
            for key, val in obj.items():
                leaf = leaves.get(type(val))
                if leaf:
                    out.append(sep + _string(str(key)) + ": " + leaf(val))
                else:
                    out.append(sep + _string(str(key)) + ": ")
                    _write(val, out, indent, level + 1)
                sep = between
            out.append("\n" + " " * (indent * level) + "}")
        else:
            for val in obj:
                leaf = leaves.get(type(val))
                if leaf:
                    out.append(sep + leaf(val))
                else:
                    out.append(sep)
                    _write(val, out, indent, level + 1)
                sep = between
            out.append("\n" + " " * (indent * level) + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
