import random

import pytest

from dataforge.core import BBoxNorm, BBoxPx, CameraId, PointNorm, PointPx
from dataforge.errors import TokenGrammarError
from dataforge.tokens import (
    parse_token,
    render_token,
    replace_spans,
    scan_object_refs,
    scan_tokens,
)


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
        assert m.ok


def test_scan_ignores_non_token_brackets():
    # symbolic fields (format-instruction template), prose, empty brackets
    assert scan_tokens("Objects are referred to as <category>[CAMERA, x_min, "
                       "y_min, x_max, y_max] with coordinates from 0 to 100.") == []
    assert scan_tokens("turn <left> at [the sign]") == []
    assert scan_tokens("empty <x>[] here") == []


def test_scan_reports_malformed_candidates():
    matches = scan_tokens("bad one: <car>[CAM_FRONT, 1, 2, 3]")
    assert len(matches) == 1
    assert not matches[0].ok
    assert "2 or 4" in matches[0].error
    matches = scan_tokens("<car>[c1, 12..5, 3, 4, 5]")
    assert len(matches) == 1 and not matches[0].ok
    # a blank category would render as "<>[...]", which no longer scans
    matches = scan_tokens("<  >[10, 20, 30, 40]")
    assert len(matches) == 1 and matches[0].error == "empty category"


def test_scan_object_refs_skips_errors():
    text = "<car>[CAM_FRONT, 1, 2, 3] and <bus>[CAM_BACK, 1, 2, 3, 4]"
    refs = scan_object_refs(text)
    assert len(refs) == 1 and refs[0].category == "bus"


def test_parse_token_rejects_non_tokens():
    for bad in ["no token here", "<car>[CAM_FRONT, 1, 2, 3]",
                "<a>[1, 2] <b>[3, 4]", "x <a>[1, 2]"]:
        with pytest.raises(TokenGrammarError):
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


def test_replace_spans():
    text = "aa XX bb YY cc"
    out = replace_spans(text, [(3, 5, "1"), (9, 11, "2222")])
    assert out == "aa 1 bb 2222 cc"
    assert replace_spans(text, []) == text
    with pytest.raises(ValueError):
        replace_spans(text, [(3, 6, "1"), (5, 8, "2")])
