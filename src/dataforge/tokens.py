"""Object-token grammars: scanning, parsing and rendering.

Two source grammars appear in QA text:

* bracket form ``<category>[field, ...]`` — the field list is either
  ``camera, coords...`` or bare ``coords...`` with 2 (center) or 4 (box)
  coordinates. The camera field may be a canonical name (``CAM_BACK``) or a
  raw per-dataset id (``c6``) awaiting resolution.
* angle form ``<classid, CAMERA_NAME, x, y>`` — a center reference whose
  first field is a class id, not a category; parsed with category "object".

The unified output grammar is the bracket form with a canonical camera name
and 3-decimal coordinates in [0, 100].
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import (
    BBoxNorm,
    BBoxPx,
    CameraId,
    ObjectRef,
    PointNorm,
    PointPx,
)
from .errors import TokenGrammarError

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_NUMBER_RE = re.compile(r"-?(?:\d+\.\d*|\.\d+|\d+)")
# A coordinate as emitted by the unified renderer: 3 decimals, no sign.
_NORM_STYLE_RE = re.compile(r"\d{1,3}\.\d{3}")

BRACKET_TOKEN_RE = re.compile(r"<(?P<cat>[^<>\[\]\n]+?)>\[(?P<body>[^<>\[\]\n]*?)\]")
ANGLE_TOKEN_RE = re.compile(
    rf"<\s*(?P<cls>{_IDENT})\s*,\s*(?P<cam>{_IDENT})\s*,\s*"
    rf"(?P<x>-?(?:\d+\.\d*|\.\d+|\d+))\s*,\s*(?P<y>-?(?:\d+\.\d*|\.\d+|\d+))\s*>"
)

_CAMERA_NAMES = {c.value for c in CameraId}

# Category used when the source grammar carries no category name (angle form
# class ids are opaque).
PLACEHOLDER_CATEGORY = "object"


@dataclass(frozen=True)
class TokenMatch:
    """One candidate token found in text: its span plus parse outcome."""

    start: int
    end: int
    text: str
    ref: ObjectRef | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.ref is not None


def _parse_bracket(text: str, cat: str, body: str) -> tuple[ObjectRef | None, str | None]:
    """Returns (ref, None) on success, (None, error) for a malformed token,
    and (None, None) when the bracket text is not an object token at all
    (e.g. the format-instruction template, whose fields are all symbolic)."""
    parts = [p.strip() for p in body.split(",")] if body.strip() else []
    if not any(_NUMBER_RE.fullmatch(p) for p in parts):
        return None, None

    camera: CameraId | None = None
    raw_camera: str | None = None
    if _NUMBER_RE.fullmatch(parts[0]):
        coords = parts
    else:
        head = parts[0]
        coords = parts[1:]
        if head in _CAMERA_NAMES:
            camera = CameraId(head)
        elif re.fullmatch(_IDENT, head):
            raw_camera = head
        else:
            return None, f"unrecognized camera field {head!r}"

    if len(coords) not in (2, 4):
        return None, f"expected 2 or 4 coordinates, got {len(coords)}"
    for c in coords:
        if not _NUMBER_RE.fullmatch(c):
            return None, f"bad coordinate {c!r}"

    values = [float(c) for c in coords]
    normalized = (
        raw_camera is None
        and all(_NORM_STYLE_RE.fullmatch(c) for c in coords)
        and all(v <= 100.0 for v in values)
    )
    if len(values) == 4:
        geometry = BBoxNorm(*values) if normalized else BBoxPx(*values)
    else:
        geometry = PointNorm(*values) if normalized else PointPx(*values)
    return ObjectRef(cat.strip(), camera, geometry, text, raw_camera), None


def _parse_angle(text: str, cam: str, x: str, y: str) -> tuple[ObjectRef | None, str | None]:
    if cam not in _CAMERA_NAMES:
        return None, f"unknown camera name {cam!r}"
    geometry = PointPx(float(x), float(y))
    return ObjectRef(PLACEHOLDER_CATEGORY, CameraId(cam), geometry, text), None


def scan_tokens(text: str) -> list[TokenMatch]:
    """Find every object token in ``text``, in order of appearance.

    Candidates that match a token shape but fail to parse are returned with
    ``error`` set so callers can report them at the right position.
    """
    candidates: list[tuple[int, int, TokenMatch]] = []
    for m in BRACKET_TOKEN_RE.finditer(text):
        ref, err = _parse_bracket(m.group(0), m.group("cat"), m.group("body"))
        if ref is None and err is None:
            continue  # bracketed text, but not an object token
        candidates.append((m.start(), -m.end(),
                           TokenMatch(m.start(), m.end(), m.group(0), ref, err)))
    for m in ANGLE_TOKEN_RE.finditer(text):
        ref, err = _parse_angle(m.group(0), m.group("cam"), m.group("x"), m.group("y"))
        candidates.append((m.start(), -m.end(),
                           TokenMatch(m.start(), m.end(), m.group(0), ref, err)))

    candidates.sort(key=lambda t: (t[0], t[1]))
    out: list[TokenMatch] = []
    last_end = -1
    for start, _neg_end, match in candidates:
        if start < last_end:
            continue  # nested inside an earlier, longer match
        out.append(match)
        last_end = match.end
    return out


def scan_object_refs(text: str) -> list[ObjectRef]:
    """Successfully parsed object references only; grammar errors are skipped."""
    return [m.ref for m in scan_tokens(text) if m.ref is not None]


def parse_token(token: str) -> ObjectRef:
    """Parse a string that is exactly one object token.

    Raises:
        TokenGrammarError: if the string is not a single well-formed token.
    """
    matches = scan_tokens(token)
    if len(matches) != 1 or matches[0].text != token.strip():
        raise TokenGrammarError(token, 0)
    m = matches[0]
    if m.ref is None:
        raise TokenGrammarError(token, m.start)
    return m.ref


def render_box_token(category: str, camera: CameraId | None, box: BBoxNorm) -> str:
    camera_part = f"{camera.value}, " if camera is not None else ""
    return f"<{category}>[{camera_part}{box.render()}]"


def render_center_token(category: str, camera: CameraId | None, point: PointNorm) -> str:
    camera_part = f"{camera.value}, " if camera is not None else ""
    return f"<{category}>[{camera_part}{point.render()}]"


def render_object_ref(ref: ObjectRef) -> str:
    """Render a normalized ObjectRef in the unified grammar."""
    if isinstance(ref.geometry, BBoxNorm):
        return render_box_token(ref.category, ref.camera, ref.geometry)
    if isinstance(ref.geometry, PointNorm):
        return render_center_token(ref.category, ref.camera, ref.geometry)
    raise ValueError(f"cannot render pixel-space geometry: {ref.geometry!r}")


def replace_spans(text: str, replacements: list[tuple[int, int, str]]) -> str:
    """Apply non-overlapping (start, end, new_text) replacements to text."""
    pieces: list[str] = []
    cursor = 0
    for start, end, new in sorted(replacements, key=lambda r: r[0]):
        if start < cursor:
            raise ValueError("overlapping replacement spans")
        pieces.append(text[cursor:start])
        pieces.append(new)
        cursor = end
    pieces.append(text[cursor:])
    return "".join(pieces)


__all__ = [
    "TokenMatch",
    "scan_tokens",
    "scan_object_refs",
    "parse_token",
    "render_box_token",
    "render_center_token",
    "render_object_ref",
    "replace_spans",
    "PLACEHOLDER_CATEGORY",
]
