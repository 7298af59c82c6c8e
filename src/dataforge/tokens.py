"""Object-token grammars: scanning, parsing and rendering.

Two source grammars appear in QA text:

* bracket form ``<category>[field, ...]`` — the field list is either
  ``camera, coords...`` or bare ``coords...`` with 2 (center) or 4 (box)
  coordinates. The camera field may be a canonical name (``CAM_BACK``) or a
  raw per-dataset id (``c6``) awaiting resolution.
* angle form ``<classid, CAMERA_NAME, x, y>`` — a center reference whose
  first field is a class id, not a category; parsed with category "object".

The unified output grammar is the bracket form with a canonical camera name
and 3-decimal coordinates in [0, 100]. A category holds no ``<``, ``>``,
``[``, ``]`` or newline; the scanner strips it, and a blank one is malformed.
A category written into a token must read back as itself (``is_category``).

A bracket body in the canonical spelling (an optional camera name or raw id,
then 2 or 4 ASCII numbers, separated by exactly ``", "``) is read in one
match. Every other spelling is read field by field, which gives the same
result on a canonical body; only that reader reports errors.
"""

from __future__ import annotations

import re
from typing import Callable

from .core import (
    BBoxNorm,
    BBoxPx,
    CameraId,
    Geometry,
    ObjectRef,
    PointNorm,
    PointPx,
    _CAMERAS,
    frozen_value,
)
from .errors import DataforgeError

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_NUMBER_RE = re.compile(r"-?(?:\d+\.\d*|\.\d+|\d+)")
# A coordinate as emitted by the unified renderer: 3 decimals, no sign.
_NORM_STYLE_RE = re.compile(r"\d{1,3}\.\d{3}")
# The canonical bracket body: an optional camera field, then 2 or 4 ASCII
# coordinates, all in the renderer's style (group ``norm``) or not (``px``).
_ASCII_NUMBER = r"-?(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)"
_ASCII_NORM = r"[0-9]{1,3}\.[0-9]{3}"
_CANONICAL_BODY_RE = re.compile(
    rf"(?:(?P<cam>{_IDENT}), )?"
    rf"(?:(?P<norm>{_ASCII_NORM}, {_ASCII_NORM}(?:, {_ASCII_NORM}, {_ASCII_NORM})?)"
    rf"|(?P<px>{_ASCII_NUMBER}, {_ASCII_NUMBER}(?:, {_ASCII_NUMBER}, {_ASCII_NUMBER})?))")

# One character of a category, or of a bracket token's field list.
_FIELD_CHAR = r"[^<>\[\]\n]"
_CATEGORY_RE = re.compile(f"{_FIELD_CHAR}+")

BRACKET_TOKEN_RE = re.compile(rf"<(?P<cat>{_FIELD_CHAR}+?)>\[(?P<body>{_FIELD_CHAR}*?)\]")
ANGLE_TOKEN_RE = re.compile(
    rf"<\s*(?P<cls>{_IDENT})\s*,\s*(?P<cam>{_IDENT})\s*,\s*"
    rf"(?P<x>-?(?:\d+\.\d*|\.\d+|\d+))\s*,\s*(?P<y>-?(?:\d+\.\d*|\.\d+|\d+))\s*>"
)
# Either token form. "<" is the first character of both and appears nowhere
# else in either, so two matches can only overlap by starting at the same "<".
_TOKEN_RE = re.compile(f"{BRACKET_TOKEN_RE.pattern}|{ANGLE_TOKEN_RE.pattern}")


def is_category(name: str) -> bool:
    """True if ``<name>[...]`` scans back with category ``name``: not blank,
    no surrounding whitespace, and no ``<``, ``>``, ``[``, ``]`` or newline."""
    return name == name.strip() and _CATEGORY_RE.fullmatch(name) is not None


# Category used when the source grammar carries no category name (angle form
# class ids are opaque).
PLACEHOLDER_CATEGORY = "object"


@frozen_value
class TokenMatch:
    """One candidate token found in text: its span plus parse outcome."""

    start: int
    end: int
    text: str
    ref: ObjectRef | None = None
    error: str | None = None


def _parse_bracket(cat: str, body: str) -> tuple[ObjectRef | None, str | None]:
    """Returns (ref, None) on success, (None, error) for a malformed token,
    and (None, None) when the bracket text is not an object token at all
    (e.g. the format-instruction template, whose fields are all symbolic)."""
    category = cat.strip()
    m = _CANONICAL_BODY_RE.fullmatch(body)
    if m is None or not category:
        return _parse_fields(category, body)
    head, norm = m.group("cam", "norm")
    camera = _CAMERAS.get(head)
    raw_camera = head if camera is None else None
    values = [float(c) for c in (norm or m.group("px")).split(", ")]
    geometry = _geometry(values, norm is not None and raw_camera is None)
    return ObjectRef(category, camera, geometry, raw_camera), None


def _parse_fields(category: str, body: str) -> tuple[ObjectRef | None, str | None]:
    """``_parse_bracket`` field by field, for any spelling of the body."""
    parts = [p.strip() for p in body.split(",")] if body.strip() else []
    if not any(_NUMBER_RE.fullmatch(p) for p in parts):
        return None, None
    if not category:
        return None, "empty category"

    camera, raw_camera, coords = None, None, parts
    if not _NUMBER_RE.fullmatch(parts[0]):
        head, *coords = parts
        camera = _CAMERAS.get(head)
        if camera is None and not re.fullmatch(_IDENT, head):
            return None, f"unrecognized camera field {head!r}"
        raw_camera = head if camera is None else None

    if len(coords) not in (2, 4):
        return None, f"expected 2 or 4 coordinates, got {len(coords)}"
    for c in coords:
        if not _NUMBER_RE.fullmatch(c):
            return None, f"bad coordinate {c!r}"

    values = [float(c) for c in coords]
    norm_style = raw_camera is None and all(_NORM_STYLE_RE.fullmatch(c) for c in coords)
    return ObjectRef(category, camera, _geometry(values, norm_style), raw_camera), None


def _geometry(values: list[float], norm_style: bool) -> Geometry:
    """A box for 4 values, a center for 2; normalized if they are written in
    the renderer's style and none exceeds 100."""
    normalized = norm_style and max(values) <= 100.0
    if len(values) == 4:
        return BBoxNorm(*values) if normalized else BBoxPx(*values)
    return PointNorm(*values) if normalized else PointPx(*values)


def _parse_angle(cam: str, x: str, y: str) -> tuple[ObjectRef | None, str | None]:
    camera = _CAMERAS.get(cam)
    if camera is None:
        return None, f"unknown camera name {cam!r}"
    return ObjectRef(PLACEHOLDER_CATEGORY, camera, PointPx(float(x), float(y))), None


def scan_tokens(text: str) -> list[TokenMatch]:
    """Find every object token in ``text``, in order of appearance.

    Candidates that match a token shape but fail to parse are returned with
    ``error`` set so callers can report them at the right position.
    """
    if "<" not in text:
        return []  # both token forms start with "<"
    out: list[TokenMatch] = []
    for m in _TOKEN_RE.finditer(text):
        cat, body = m.group("cat", "body")
        if cat is not None:
            ref, err = _parse_bracket(cat, body)
            if ref is not None or err is not None:
                out.append(TokenMatch(*m.span(), m.group(), ref, err))
                continue
            # Bracketed text, but not an object token: an angle token may
            # still start at the same "<".
            m = ANGLE_TOKEN_RE.match(text, m.start())
            if m is None:
                continue
        ref, err = _parse_angle(*m.group("cam", "x", "y"))
        out.append(TokenMatch(*m.span(), m.group(), ref, err))
    return out


def parse_token(token: str) -> ObjectRef:
    """Parse a string that is exactly one object token.

    Raises:
        DataforgeError: if the string is not a single well-formed token.
    """
    matches = scan_tokens(token)
    if len(matches) != 1 or matches[0].text != token.strip():
        raise DataforgeError(f"malformed object token at 0: {token!r}")
    m = matches[0]
    if m.ref is None:
        raise DataforgeError(f"malformed object token at {m.start}: {token!r}")
    return m.ref


def render_token(category: str, camera: CameraId | None, geometry: Geometry) -> str:
    """Render normalized geometry in the unified grammar, each coordinate
    with exactly three decimals; pixel geometry raises ValueError."""
    camera_part = f"{camera._value_}, " if camera is not None else ""
    if isinstance(geometry, BBoxNorm):
        return (f"<{category}>[{camera_part}{geometry.x_min:.3f}, {geometry.y_min:.3f}, "
                f"{geometry.x_max:.3f}, {geometry.y_max:.3f}]")
    if isinstance(geometry, PointNorm):
        return f"<{category}>[{camera_part}{geometry.x_center:.3f}, {geometry.y_center:.3f}]"
    raise ValueError(f"cannot render pixel-space geometry: {geometry!r}")


def sub_tokens(text: str, repl: Callable[[TokenMatch], str]) -> str:
    """``text`` with each token ``scan_tokens`` finds replaced by
    ``repl(match)``; malformed tokens reach ``repl`` too, with ``error`` set."""
    pieces: list[str] = []
    cursor = 0
    for match in scan_tokens(text):
        pieces.append(text[cursor:match.start])
        pieces.append(repl(match))
        cursor = match.end
    if not pieces:
        return text
    pieces.append(text[cursor:])
    return "".join(pieces)
