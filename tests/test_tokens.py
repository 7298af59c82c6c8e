import random
import re
from decimal import ROUND_HALF_UP, Decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dataforge.core import BBoxNorm, BBoxPx, CameraId, ObjectRef, PointNorm, PointPx
from dataforge.errors import DataforgeError
from dataforge.standardize import _norm_component
from dataforge.tokens import (
    _TOKEN_RE,
    ANGLE_TOKEN_RE,
    PLACEHOLDER_CATEGORY,
    TokenMatch,
    parse_token,
    render_token,
    scan_tokens,
    sub_tokens,
)

from helpers import exactly, object_refs


def test_parse_raw_camera_id_box():
    ref = parse_token("<car>[c6, 139, 343, 1511, 900]")
    assert ref.category == "car"
    assert ref.camera is None
    assert ref.raw_camera == "c6"
    assert ref.geometry == BBoxPx(139, 343, 1511, 900)
    assert not ref.is_normalized


def test_parse_unified_box():
    ref = parse_token("<car>[CAM_BACK_RIGHT, 8.688, 38.111, 94.438, 100.000]")
    assert ref.camera is CameraId.CAM_BACK_RIGHT
    assert ref.geometry == BBoxNorm(8.688, 38.111, 94.438, 100.0)
    assert ref.is_normalized


def test_parse_unified_center():
    ref = parse_token("<pedestrian>[CAM_FRONT, 12.000, 99.999]")
    assert ref.geometry == PointNorm(12.0, 99.999)
    assert ref.is_normalized


def test_parse_angle_form_center():
    # first field is a class id, not a category
    ref = parse_token("<c6, CAM_BACK, 1088.3, 497.5>")
    assert ref.category == "object"
    assert ref.camera is CameraId.CAM_BACK
    assert ref.geometry == PointPx(1088.3, 497.5)


def test_parse_bare_tokens():
    assert parse_token("<cone>[800, 450]").geometry == PointPx(800, 450)
    ref = parse_token("<cone>[12.000, 45.500]")
    assert ref.geometry == PointNorm(12.0, 45.5)
    assert ref.camera is None and ref.raw_camera is None


def test_camera_named_pixel_coords_stay_pixel():
    # canonical camera but not 3-decimal style: still raw pixels
    ref = parse_token("<car>[CAM_FRONT, 139, 343, 1511, 900]")
    assert ref.camera is CameraId.CAM_FRONT
    assert ref.geometry == BBoxPx(139, 343, 1511, 900)


def test_values_above_100_never_classify_normalized():
    ref = parse_token("<car>[CAM_FRONT, 139.000, 343.000, 511.000, 900.000]")
    assert isinstance(ref.geometry, BBoxPx)


def test_category_with_space():
    ref = parse_token("<traffic cone>[CAM_FRONT, 1.000, 2.000]")
    assert ref.category == "traffic cone"


def test_scan_finds_tokens_in_order_with_spans():
    text = ("First <car>[c1, 1, 2, 3, 4] then <c2, CAM_BACK, 10.5, 20.5> "
            "and <bus>[CAM_FRONT, 1.000, 2.000, 3.000, 4.000].")
    matches = scan_tokens(text)
    assert [m.text for m in matches] == [
        "<car>[c1, 1, 2, 3, 4]",
        "<c2, CAM_BACK, 10.5, 20.5>",
        "<bus>[CAM_FRONT, 1.000, 2.000, 3.000, 4.000]",
    ]
    for m in matches:
        assert text[m.start:m.end] == m.text
        assert m.ref is not None


def test_scan_ignores_non_token_brackets():
    # symbolic fields (format-instruction template), prose, empty brackets
    assert scan_tokens("Objects are referred to as <category>[CAMERA, x_min, "
                       "y_min, x_max, y_max] with coordinates from 0 to 100.") == []
    assert scan_tokens("turn <left> at [the sign]") == []
    assert scan_tokens("empty <x>[] here") == []


def test_scan_reports_malformed_candidates():
    matches = scan_tokens("bad one: <car>[CAM_FRONT, 1, 2, 3]")
    assert len(matches) == 1
    assert matches[0].ref is None
    assert "2 or 4" in matches[0].error
    matches = scan_tokens("<car>[c1, 12..5, 3, 4, 5]")
    assert len(matches) == 1 and matches[0].ref is None
    # a blank category would render as "<>[...]", which no longer scans
    matches = scan_tokens("<  >[10, 20, 30, 40]")
    assert len(matches) == 1 and matches[0].error == "empty category"


def test_scan_object_refs_skips_errors():
    text = "<car>[CAM_FRONT, 1, 2, 3] and <bus>[CAM_BACK, 1, 2, 3, 4]"
    refs = object_refs(text)
    assert len(refs) == 1 and refs[0].category == "bus"


def test_parse_token_rejects_non_tokens():
    for bad in ["no token here", "<car>[CAM_FRONT, 1, 2, 3]",
                "<a>[1, 2] <b>[3, 4]", "x <a>[1, 2]"]:
        with pytest.raises(DataforgeError,
                           match=exactly(f"malformed object token at 0: {bad!r}")):
            parse_token(bad)
    # A malformed token after leading space is reported at its offset.
    bad = " <car>[CAM_FRONT, 1, 2, 3]"
    with pytest.raises(DataforgeError,
                       match=exactly(f"malformed object token at 1: {bad!r}")):
        parse_token(bad)


def test_render_parse_closure():
    rng = random.Random(123)
    cams = list(CameraId) + [None]
    for _ in range(500):
        category = rng.choice(["car", "bus", "traffic cone"])
        camera = rng.choice(cams)
        if rng.random() < 0.5:
            a, b = sorted(rng.randrange(0, 100_001) for _ in range(2))
            c, d = sorted(rng.randrange(0, 100_001) for _ in range(2))
            geom = BBoxNorm(a / 1000, c / 1000, b / 1000, d / 1000)
            text = render_token(category, camera, geom)
        else:
            geom = PointNorm(rng.randrange(0, 100_001) / 1000,
                             rng.randrange(0, 100_001) / 1000)
            text = render_token(category, camera, geom)
        ref = parse_token(text)
        assert ref.category == category
        assert ref.camera is camera
        assert ref.geometry == geom
        assert ref.is_normalized
        assert render_token(ref.category, ref.camera, ref.geometry) == text


def test_render_token_requires_normalized():
    with pytest.raises(ValueError):
        render_token("car", CameraId.CAM_FRONT, BBoxPx(1, 2, 3, 4))


def test_sub_tokens_replaces_both_forms_with_text_of_another_length():
    text = "A <car>[c6, 139, 343, 1511, 900] and <cls3, CAM_FRONT, 5, 6> here."
    seen = []

    def repl(match):
        seen.append((match.start, match.end, match.text))
        return "X" if match.text.startswith("<car>") else "<a much longer token>"

    assert sub_tokens(text, repl) == "A X and <a much longer token> here."
    assert seen == [(2, 32, "<car>[c6, 139, 343, 1511, 900]"),
                    (37, 60, "<cls3, CAM_FRONT, 5, 6>")]


def test_sub_tokens_passes_malformed_tokens_with_error():
    matches = []

    def repl(match):
        matches.append(match)
        return "?"

    assert sub_tokens("see <car>[CAM_FRONT, 1, 2, 3] now", repl) == "see ? now"
    assert [(m.ref, m.error) for m in matches] == [
        (None, "expected 2 or 4 coordinates, got 3")]


def test_sub_tokens_without_tokens_returns_text():
    def repl(match):
        raise AssertionError("no token to replace")

    for text in ("", "plain text", "a <b> and [1, 2] apart"):
        assert sub_tokens(text, repl) == text


# --------------------------------------------------- reference token reader

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_NUMBER_RE = re.compile(r"-?(?:\d+\.\d*|\.\d+|\d+)")
_NORM_STYLE_RE = re.compile(r"\d{1,3}\.\d{3}")
_CAMERA_NAMES = {c.value for c in CameraId}


def _reference_parse_bracket(cat, body):
    """``_parse_bracket`` as it was before it read the canonical body in one
    match: every body field by field. Kept as the reference the one-match
    reader must equal."""
    parts = [p.strip() for p in body.split(",")] if body.strip() else []
    if not any(_NUMBER_RE.fullmatch(p) for p in parts):
        return None, None
    category = cat.strip()
    if not category:
        return None, "empty category"

    camera = None
    raw_camera = None
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
    return ObjectRef(category, camera, geometry, raw_camera), None


def _reference_parse_angle(cam, x, y):
    if cam not in _CAMERA_NAMES:
        return None, f"unknown camera name {cam!r}"
    return ObjectRef(PLACEHOLDER_CATEGORY, CameraId(cam), PointPx(float(x), float(y))), None


def _reference_scan(text):
    """``scan_tokens`` built on the reference readers."""
    out = []
    for m in _TOKEN_RE.finditer(text):
        if m.group("cat") is not None:
            ref, err = _reference_parse_bracket(m.group("cat"), m.group("body"))
            if ref is not None or err is not None:
                out.append(TokenMatch(m.start(), m.end(), m.group(0), ref, err))
                continue
            m = ANGLE_TOKEN_RE.match(text, m.start())
            if m is None:
                continue
        ref, err = _reference_parse_angle(m.group("cam"), m.group("x"), m.group("y"))
        out.append(TokenMatch(m.start(), m.end(), m.group(0), ref, err))
    return out


_FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_norm_text = st.integers(0, 100_001).map(lambda n: f"{n / 1000:.3f}")
_coordinate = st.one_of(
    _norm_text,
    st.integers(-20, 5000).map(str),
    st.floats(-10, 2000, allow_nan=False).map(lambda x: f"{x:.1f}"),
    st.floats(0, 100, allow_nan=False).map(lambda x: f"{x:.2f}"),
    _norm_text.map(lambda s: s.translate(_FULLWIDTH)),
    _norm_text.map(lambda s: s.translate(_ARABIC_INDIC)),
    st.tuples(st.sampled_from("-+"), _norm_text).map("".join),
    st.sampled_from(["100.000", "100.001", "1000.000", "0.000", "-0", "-0.000", "+5",
                     "1.", ".5", "-.5", "007", "12..5", "x_min"]))
_camera_field = st.sampled_from(
    [c.value for c in CameraId] + [f"c{i}" for i in range(1, 8)]
    + ["CAM_TOP", "car", "_x", "cam-1", "CAM FRONT", "１"])
_separator = st.sampled_from([", "] * 6 + [" , ", ",", ",\t", ", \u00a0", ",\u3000", ",  "])


@st.composite
def _bracket_token(draw):
    """A bracket token in the canonical spelling or a near miss of it."""
    fields = [draw(_coordinate) for _ in range(draw(st.sampled_from([1, 2, 2, 3, 4, 4, 5])))]
    if draw(st.booleans()):
        fields.insert(0, draw(_camera_field))
    body = draw(_separator).join(fields)
    if draw(st.integers(0, 9)) == 0:
        body = draw(st.sampled_from([" ", "\u2003", "\t"])) + body
    if draw(st.integers(0, 9)) == 0:
        body += draw(st.sampled_from([" ", "\u00a0"]))
    category = draw(st.sampled_from(["car", "traffic cone", " car ", "  ", "\u3000"]))
    return f"<{category}>[{body}]"


_INSTRUCTION = ("Objects are referred to as <category>[CAMERA, x_min, y_min, x_max, "
                "y_max] with coordinates from 0 to 100.")
_token_text = st.lists(st.one_of(
    _bracket_token(), _bracket_token(),
    st.sampled_from([_INSTRUCTION, " and ", "? ", "<c3, CAM_BACK, 10.5, 20.5>",
                     "<c3, CAM_TOP, 1, 2>", "<", "[1, 2]"])),
    max_size=5).map("".join)


@settings(derandomize=True, deadline=None, max_examples=1500)
@given(_token_text)
@example("<car>[c6, 1.000, 2.000]")  # a raw id keeps the token in pixels
@example("<car>[CAM_FRONT, 100.000, 100.001]")
@example("<car>[1.50, 2.25]")
@example("<car>[１.０００, 2.000]")
@example("<car>[12, 3, 4]")
@example("<car>[-0.000, 1.000] <car>[+5, 6]")
@example("<car>[CAM_FRONT, 1.000, 2.000, 3.000]")
@example("<car>[CAM_FRONT, 1.000, 2.000, 3.000, 4.000, 5.000]")
@example("<  >[CAM_FRONT, 1.000, 2.000]")
def test_scan_tokens_equals_the_field_by_field_reference(text):
    assert scan_tokens(text) == _reference_scan(text)


_geometry_value = st.one_of(st.integers(0, 100_000).map(lambda n: n / 1000),
                            st.floats(-1e6, 1e6, allow_nan=False), st.just(-0.0))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from(["car", "traffic cone"]), st.sampled_from([*CameraId, None]),
       st.one_of(st.builds(BBoxNorm, *[_geometry_value] * 4),
                 st.builds(PointNorm, *[_geometry_value] * 2)))
def test_render_token_equals_the_geometry_render(category, camera, geometry):
    camera_part = f"{camera.value}, " if camera is not None else ""
    coordinates = ", ".join(f"{v:.3f}" for v in geometry.as_tuple())
    assert (render_token(category, camera, geometry)
            == f"<{category}>[{camera_part}{coordinates}]")


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.one_of(st.floats(0, 1e5, allow_nan=False), st.integers(0, 10**5),
                 st.sampled_from([-0, -0.0, 0.0, 1088.3, 0.0005, 2.5e-4])),
       st.one_of(st.integers(1, 10**6), st.floats(1e-3, 1e6, allow_nan=False),
                 st.sampled_from([1600, 1600.0, 900, 7, 3.3])))
def test_norm_component_equals_the_decimal_expression(value, size):
    scaled = Decimal(repr(float(value))) * 100 / Decimal(repr(float(size)))
    want = float(scaled.quantize(Decimal("0.001"), ROUND_HALF_UP)) + 0.0
    assert repr(_norm_component(value, size)) == repr(want)
