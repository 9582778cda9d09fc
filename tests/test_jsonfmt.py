"""The JSON writer against a transcription of its plain recursive form (one json.dumps per
string and key): byte for byte over every golden CLI document and the edge cases."""

from __future__ import annotations

import enum
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qdigamma import _jsonfmt

GOLDEN = Path(__file__).with_name("cli_golden.json")


def plain_write(obj, out: list, indent: int, level: int) -> None:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, float):
        out.append(_jsonfmt.format_float(obj))
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
            plain_write(val, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, val in enumerate(obj):
            out.append(pad_in)
            plain_write(val, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def plain_dumps(obj, indent: int = 2) -> str:
    pieces = []
    plain_write(obj, pieces, indent, 0)
    return "".join(pieces)


def golden_documents() -> list:
    """Every golden entry, and the JSON document of each stdout that holds one."""
    docs = []
    for entry in json.loads(GOLDEN.read_text()):
        docs.append(entry)
        try:
            docs.append(json.loads(entry["stdout"]))
        except ValueError:
            pass
    return docs


class Kind(str, enum.Enum):
    QK = "qk"


EDGES = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-320, 1.7976931348623157e308, 0.1, -2.5,
    {}, [], (), "", {"": []}, [[], {}, ()], ((1, 2.0), [3, (4.5,)]),
    [True, False, 1, 0, 1.0, 0.0, None], {"a": True, "b": 1, "c": 1.0, "d": False, "e": 0},
    {"nan": math.nan, "inf": [math.inf, -math.inf], "neg zero": -0.0},
    {"é ü 中": "ψ′ ≥ 0", "ctrl\t\n\x00\x1f": "tab\there \"quoted\" back\\slash \x7f  "},
    {1: "int key", 2.5: "float key", True: "bool key", None: "none key"},
    {"nested": {"deeper": {"deepest": [1, {"x": [math.nan, "s", None]}]}}},
    [np.float64(0.1), np.float64(math.inf), Kind.QK, {"kind": Kind.QK}],
    {Kind.QK: 1},
    "😀 \U0001f600 astral",
]


@pytest.mark.parametrize("indent", [2, 0])
def test_golden_documents_byte_for_byte(indent):
    for doc in golden_documents():
        assert _jsonfmt.dumps(doc, indent) == plain_dumps(doc, indent)


@pytest.mark.parametrize("obj", EDGES, ids=range(len(EDGES)))
def test_edge_cases_byte_for_byte(obj):
    for indent in (2, 0, 4):
        assert _jsonfmt.dumps(obj, indent) == plain_dumps(obj, indent)
    assert _jsonfmt.one_line(obj) == plain_dumps(obj, 0).replace("\n", " ")


def test_unserializable_values_raise():
    for obj in (object(), {"a": {1, 2}}, [b"bytes"], np.int64(3)):
        with pytest.raises(TypeError):
            _jsonfmt.dumps(obj)
