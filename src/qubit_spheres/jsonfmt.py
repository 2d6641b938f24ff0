"""Deterministic JSON output shared by the CLI and reports.

A CLI document is written in one pass: each record's leaves, already
written as JSON text, go between the literal parts of its layout's template,
``json.dumps(indent=2)`` of the layout split at every leaf, in one join.
"""

from __future__ import annotations

import json
from typing import NamedTuple

LEAF = "\x00"   # marks a leaf in a record skeleton
_LEAF_JSON = json.dumps(LEAF)


def sig15(x: float) -> float:
    """Round to 15 significant decimal digits; normalizes -0.0 to 0.0."""
    return float(f"{float(x):.15g}") + 0.0


def numbers(values) -> list[str]:
    """Each value as the JSON number written for it, repr(sig15(x)).

    Raises ValueError for a non-finite value, as json.dumps(allow_nan=False)
    does.  A positional "%.15g" text is that repr once an integral one gains
    ".0": 15 digits name one double, and repr writes |x| < 1e16 positionally.
    An exponent text (1e+15, a subnormal's) takes repr's own path.
    """
    text = ("%.15g " * len(values)) % tuple(values)
    if "n" in text:   # "nan", "inf" or "-inf"
        raise ValueError("Out of range float values are not JSON compliant")
    return [repr(float(s)) if "e" in s else s if "." in s else "0.0" if s == "-0" else s + ".0"
            for s in text.split()]


def template(skeleton) -> tuple[str, ...]:
    """`skeleton` as written in a document's records list, split at each LEAF:
    its literal parts, one more than its leaves."""
    text = json.dumps(skeleton, indent=2).replace("\n", "\n    ")
    return tuple(text.split(_LEAF_JSON))


def _fill(parts: tuple[str, ...], leaves) -> str:
    """The parts of a template with the leaves between them; ValueError
    unless there is one leaf fewer than parts."""
    text = [None] * (2 * len(parts) - 1)
    text[::2], text[1::2] = parts, leaves
    return "".join(text)


# A head written by json.dumps, and records that each fill their .template with .leaves.
Document = NamedTuple("Document", [("head", dict), ("records", list)])


def dumps(obj) -> str:
    """Serialize with fixed layout: insertion-ordered keys, 2-space indent."""
    if not isinstance(obj, Document):
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    text = json.dumps({**obj.head, "records": [LEAF] if obj.records else []},
                      indent=2, allow_nan=False)
    head, _, tail = text.rpartition(_LEAF_JSON)
    return head + ",\n    ".join([_fill(r.template, r.leaves) for r in obj.records]) + tail + "\n"
