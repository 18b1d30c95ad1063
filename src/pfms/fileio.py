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

Parsing is ``json.loads`` plus one type scan of ``domain`` and one
build of the multiset from ``elements``, which checks them as an array
(``core.first_invalid_point``); a bad domain or table is re-checked entry
by entry from its first bad entry, so errors carry paths such as
``domain[i]`` or ``elements[i][k][j]``.
Emitting is ``values.tolist()`` plus ``json.dumps`` with
``check_circular=False``.  The document is built afresh on every call (a
new dict, a new list of the points and ``values.tolist()``), so no
container in it can hold itself, and the encoder's cycle tracking, an
id-keyed marker put in and taken out for each of the document's lists
(about 3 * 10**5 at m = 10**5, depth 2), finds nothing.  The option only
decides whether a cycle raises ``ValueError``; it changes no output byte.

Both run with CPython's cyclic garbage collector paused.  A document of
m points holds about m * (depth + 1) lists, all freed by reference counting
when parse or emit drops the document; left on, the collector would scan
them hundreds of times on the way (about a fifth of a parse-and-emit cycle
at m = 10**5), finding nothing to free.  Parse drops the document before
the collector is switched back on, so it never sees those lists, and a
caller who had switched the collector off finds it still off.
"""

from __future__ import annotations

import gc
import json
import threading
from contextlib import contextmanager, suppress
from typing import Any, Iterator

from .core import (
    DomainGrid,
    GradeTriple,
    PfmsError,
    PictureFuzzyMultiset,
    _check_levels,
    _is_int,
    _is_real,
    _real_kinds,
    _shown,
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
    if not _is_real(value):
        raise SchemaError(path, f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(path, "integer too large for a float") from None


_pause_lock = threading.Lock()
_open_pauses = 0  # blocks inside _collector_paused, in every thread
_resume_collector = False  # the collector was on when the first one began


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Keep the cyclic collector off for the block.  Its switch is
    process-wide, so overlapping blocks in several threads share one pause:
    the first to enter switches it off, the last to leave switches it back
    on only if it was on when the first entered."""
    global _open_pauses, _resume_collector
    with _pause_lock:
        if _open_pauses == 0:
            _resume_collector = gc.isenabled()
            gc.disable()
        _open_pauses += 1
    try:
        yield
    finally:
        with _pause_lock:
            _open_pauses -= 1
            if _open_pauses == 0 and _resume_collector:
                gc.enable()


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
            f"expected {FORMAT_VERSION!r}, got {_shown(doc['format_version'])}",
        )
    domain = doc["domain"]
    if not isinstance(domain, list) or not domain:
        raise SchemaError("domain", "expected a non-empty array of numbers")
    try:  # one type scan: no bool, str or null
        points = list(map(float, domain)) if _real_kinds(domain) is not None else None
    except OverflowError:  # an int beyond the float range
        points = None
    if points is None:  # one by one, raising the first coordinate's error
        points = [_require_number(x, f"domain[{i}]") for i, x in enumerate(domain)]
    depth = doc["depth"]
    if not _is_int(depth) or depth < 1:
        raise SchemaError("depth", f"expected a positive integer, got {_shown(depth)}")
    elements = doc["elements"]
    if not isinstance(elements, list):
        raise SchemaError("elements", "expected an array")
    if len(elements) != len(points):
        raise SchemaError(
            "elements",
            f"expected {len(points)} entries to match the domain, got {len(elements)}",
        )

    try:
        grid = DomainGrid(points)
    except PfmsError as exc:
        raise type(exc)(f"domain: {exc}") from None

    with suppress(PfmsError):  # checked once; a refusal is located below, for its path
        ms = PictureFuzzyMultiset(grid, elements)
        if ms.depth == depth:
            return ms
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
            _check_levels(levels)
        except PfmsError as exc:
            raise type(exc)(f"elements[{i}]: {exc}") from None
    return PictureFuzzyMultiset(grid, values)


def parse_instance(text: str) -> PictureFuzzyMultiset:
    """Parse instance JSON text; errors carry positions or field paths."""
    with _collector_paused():
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InstanceSyntaxError(exc.msg, exc.lineno, exc.colno) from None
        except RecursionError:
            raise SchemaError("$", "arrays or objects nest too deeply") from None
        except ValueError as exc:  # an int literal over CPython's digit limit
            raise SchemaError("$", str(exc)) from None
        ms = instance_from_document(doc)
        del doc  # its lists die here, unseen by the collector
    return ms


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
    with _collector_paused():
        return json.dumps(
            instance_document(ms), separators=(",", ":"), check_circular=False
        )
