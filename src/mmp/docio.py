"""Point-set documents and canonical JSON serialization.

Documents are plain JSON objects in one of two shapes:

    {"points": [[x, y], ...]}                      uncolored
    {"red": [[x, y], ...], "blue": [[x, y], ...]}  colored

with an optional "name" string.  Serialization is canonical: keys
sorted, floats printed with 17 significant digits (exact double
round-trip), no whitespace.  Re-serializing a parsed document is
byte-stable, and every report emitted by the package uses the same
writer so identical runs produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

import numpy as np

from .matching import PointSet

__all__ = [
    "DocumentError",
    "parse_document",
    "document_of",
    "canonical_json",
    "input_digest",
    "format_float",
]


class DocumentError(ValueError):
    """Malformed point-set document."""


def format_float(x: float) -> str:
    """17-significant-digit decimal form; round-trips any double."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite number in output: {x}")
    return f"{x:.17g}"


def _emit(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"non-string key: {key!r}")
            if not first:
                out.append(",")
            first = False
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def _parse_coords(raw: Any, label: str) -> list[tuple[float, float]]:
    if not isinstance(raw, list) or not raw:
        raise DocumentError(f"'{label}' must be a non-empty array of [x, y] pairs")
    points = []
    for entry in raw:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise DocumentError(f"bad coordinate entry in '{label}': {entry!r}")
        x, y = entry
        # bool is an int subclass, but true/false are not coordinates
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in (x, y)):
            raise DocumentError(f"non-numeric coordinate in '{label}': {entry!r}")
        x, y = float(x), float(y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DocumentError(f"non-finite coordinate in '{label}': {entry!r}")
        points.append((x, y))
    return points


def parse_document(source: str | dict) -> tuple[PointSet, str | None]:
    """Parse a document (JSON text or already-loaded object) into a
    point set plus its optional name."""
    if isinstance(source, str):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"invalid JSON: {exc}") from exc
    else:
        doc = source
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise DocumentError("'name' must be a string")

    has_points = "points" in doc
    has_colors = "red" in doc or "blue" in doc
    if has_points and has_colors:
        raise DocumentError("use either 'points' or 'red'/'blue', not both")
    if has_points:
        coords = _parse_coords(doc["points"], "points")
        if len(coords) % 2 != 0:
            raise DocumentError(f"'points' must have even length, got {len(coords)}")
        try:
            return PointSet.uncolored(coords), name
        except ValueError as exc:
            raise DocumentError(str(exc)) from exc
    if has_colors:
        if "red" not in doc or "blue" not in doc:
            raise DocumentError("colored documents need both 'red' and 'blue'")
        red = _parse_coords(doc["red"], "red")
        blue = _parse_coords(doc["blue"], "blue")
        if len(red) != len(blue):
            raise DocumentError(
                f"color imbalance: {len(red)} red vs {len(blue)} blue"
            )
        try:
            return PointSet.colored(red, blue), name
        except ValueError as exc:
            raise DocumentError(str(exc)) from exc
    raise DocumentError("document needs 'points' or 'red'/'blue' arrays")


def document_of(ps: PointSet, name: str | None = None) -> dict:
    """The JSON document for a point set."""
    doc: dict[str, Any] = {}
    if name is not None:
        doc["name"] = name
    if ps.colors is None:
        doc["points"] = [[p.x, p.y] for p in ps.points]
    else:
        from .matching import Color

        doc["red"] = [[p.x, p.y] for p, c in zip(ps.points, ps.colors) if c is Color.RED]
        doc["blue"] = [[p.x, p.y] for p, c in zip(ps.points, ps.colors) if c is Color.BLUE]
    return doc


def input_digest(ps: PointSet, name: str | None = None) -> str:
    """SHA-256 over the canonical serialization of the document."""
    payload = canonical_json(document_of(ps, name))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
