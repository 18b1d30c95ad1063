"""JSON instance documents.

An instance file is a single JSON object:

    {
      "format_version": "1",
      "domain": [0, 1, 2],
      "depth": 1,
      "elements": [[[0.2, 0.1, 0.5]], [[0.6, 0.2, 0.1]], [[0.3, 0.1, 0.4]]]
    }

``elements`` holds one entry per domain coordinate; each entry lists
``depth`` triples [positive, neutral, negative].  Unknown top-level keys
are rejected.  Numbers are emitted with shortest round-tripping decimal
representations (at most 17 significant digits), so parse(emit(ms))
reproduces every float bit for bit.

Parsing is ``json.loads`` plus one vectorised check of ``elements``; a bad
table is re-checked entry by entry from its first bad entry, so errors
carry paths such as ``elements[i][k][j]``.  Emitting is ``json.dumps``.
"""

from __future__ import annotations

import json
from typing import Any

from .core import (
    DomainGrid,
    GradeSequence,
    GradeTriple,
    PfmsError,
    PictureFuzzyMultiset,
    first_invalid_point,
    real_array,
)

FORMAT_VERSION = "1"

_TOP_LEVEL_KEYS = ("format_version", "domain", "depth", "elements")


class InstanceSyntaxError(PfmsError):
    """The document is not well-formed JSON."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class SchemaError(PfmsError):
    """The document is valid JSON but not a valid instance."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


def _require_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(path, "integer too large for a float") from None


def instance_from_document(doc: Any) -> PictureFuzzyMultiset:
    """Build a multiset from an already-parsed JSON object."""
    if not isinstance(doc, dict):
        raise SchemaError("$", "top level must be a JSON object")
    for key in doc:
        if key not in _TOP_LEVEL_KEYS:
            raise SchemaError(key, "unknown field")
    for key in _TOP_LEVEL_KEYS:
        if key not in doc:
            raise SchemaError(key, "missing field")
    if doc["format_version"] != FORMAT_VERSION:
        raise SchemaError(
            "format_version",
            f"expected {FORMAT_VERSION!r}, got {doc['format_version']!r}",
        )
    domain = doc["domain"]
    if not isinstance(domain, list) or not domain:
        raise SchemaError("domain", "expected a non-empty array of numbers")
    points = [_require_number(x, f"domain[{i}]") for i, x in enumerate(domain)]
    depth = doc["depth"]
    if isinstance(depth, bool) or not isinstance(depth, int) or depth < 1:
        raise SchemaError("depth", f"expected a positive integer, got {depth!r}")
    elements = doc["elements"]
    if not isinstance(elements, list):
        raise SchemaError("elements", "expected an array")
    if len(elements) != len(points):
        raise SchemaError(
            "elements",
            f"expected {len(points)} entries to match the domain, got {len(elements)}",
        )

    try:
        grid = DomainGrid(tuple(points))
    except PfmsError as exc:
        raise type(exc)(f"domain: {exc}") from None

    values = real_array(elements)
    regular = values is not None and values.shape[1] == depth
    bad = first_invalid_point(values) if regular else 0
    for i in range(bad, len(elements)):  # raises at the first bad entry
        entry = elements[i]
        if not isinstance(entry, list) or len(entry) != depth:
            raise SchemaError(
                f"elements[{i}]", f"expected an array of {depth} triples"
            )
        levels = []
        for k, raw in enumerate(entry):
            path = f"elements[{i}][{k}]"
            if not isinstance(raw, list) or len(raw) != 3:
                raise SchemaError(path, "expected [positive, neutral, negative]")
            nums = [_require_number(v, f"{path}[{j}]") for j, v in enumerate(raw)]
            try:
                levels.append(GradeTriple(*nums))
            except PfmsError as exc:
                raise type(exc)(f"{path}: {exc}") from None
        try:
            GradeSequence(tuple(levels))
        except PfmsError as exc:
            raise type(exc)(f"elements[{i}]: {exc}") from None
    return PictureFuzzyMultiset(grid, values)


def parse_instance(text: str) -> PictureFuzzyMultiset:
    """Parse instance JSON text; errors carry positions or field paths."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceSyntaxError(exc.msg, exc.lineno, exc.colno) from None
    except RecursionError:
        raise SchemaError("$", "arrays or objects nest too deeply") from None
    return instance_from_document(doc)


def instance_document(ms: PictureFuzzyMultiset) -> dict:
    """Plain-JSON dictionary form of a multiset."""
    return {
        "format_version": FORMAT_VERSION,
        "domain": list(ms.grid.points),
        "depth": ms.depth,
        "elements": ms.values.tolist(),
    }


def emit_instance(ms: PictureFuzzyMultiset) -> str:
    """Serialise to compact JSON that round-trips floats exactly."""
    return json.dumps(instance_document(ms), separators=(",", ":"))
