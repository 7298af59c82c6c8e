import random

import pytest

from dataforge.core import (
    BBoxNorm,
    BBoxPx,
    CameraId,
    DatasetId,
    PointPx,
    QAPair,
    QAStyle,
    Sample,
    image_ref,
    map_camera_id,
    sample_to_json,
)
from dataforge.errors import DataforgeError
from dataforge.standardize import (
    BOX_INSTRUCTION,
    CENTER_INSTRUCTION,
    append_format_instruction,
    denormalize_bbox,
    normalize_bbox,
    normalize_point,
    rewrite_object_token,
    standardize_sample,
)
from dataforge.tokens import parse_token

from helpers import exactly, late_token_sample, random_mixed_sample, surround_media


NUSC_FRAME = image_ref(CameraId.CAM_BACK_RIGHT, 1600, 900, "f.jpg")


# --- coordinate normalization ------------------------------------------------

def test_normalize_bbox_reference_values():
    # independently: 139*100/1600 = 8.6875 -> 8.688 (half up)
    #                343*100/900  = 38.1111... -> 38.111
    #                1511*100/1600 = 94.4375 -> 94.438
    #                900*100/900  = 100.000
    out = normalize_bbox(BBoxPx(139, 343, 1511, 900), 1600, 900)
    assert out == BBoxNorm(8.688, 38.111, 94.438, 100.0)


def test_normalize_bbox_quarters():
    # 400/1600 = 25%, 225/900 = 25%, 800/1600 = 50%, 450/900 = 50%
    out = normalize_bbox(BBoxPx(400, 225, 800, 450), 1600, 900)
    assert out == BBoxNorm(25.0, 25.0, 50.0, 50.0)


def test_normalize_full_frame_box():
    assert normalize_bbox(BBoxPx(0, 0, 640, 480), 640, 480) == BBoxNorm(0, 0, 100, 100)


def test_normalize_rejects_out_of_bounds():
    with pytest.raises(DataforgeError,
                       match=exactly("box (0, 0, 1601, 900) exceeds 1600x900 image")):
        normalize_bbox(BBoxPx(0, 0, 1601, 900), 1600, 900)
    with pytest.raises(DataforgeError,
                       match=exactly("box (-1, 0, 10, 10) exceeds 1600x900 image")):
        normalize_bbox(BBoxPx(-1, 0, 10, 10), 1600, 900)
    with pytest.raises(DataforgeError,
                       match=exactly("box (20, 0, 10, 10) exceeds 1600x900 image")):
        normalize_bbox(BBoxPx(20, 0, 10, 10), 1600, 900)  # inverted


def test_rounding_half_up_at_boundary():
    # 0.008 px on a 1600-wide frame is exactly 0.0005 normalized
    assert normalize_point(PointPx(0.008, 0), 1600, 900).x_center == 0.001


def test_denormalize_identity_corners():
    assert denormalize_bbox(BBoxNorm(0, 0, 100, 100), 777, 333) == BBoxPx(0, 0, 777, 333)


def test_denormalize_degenerate_center_box():
    out = denormalize_bbox(BBoxNorm(50, 50, 50, 50), 1600, 900)
    assert out == BBoxPx(800, 450, 800, 450)


def test_denormalize_recovers_reference_pixels():
    out = denormalize_bbox(BBoxNorm(8.688, 38.111, 94.438, 100.0), 1600, 900)
    for got, want, size in zip(out.as_tuple(), (139, 343, 1511, 900),
                               (1600, 900, 1600, 900)):
        assert abs(got - want) <= size * 0.0005


def test_round_trip_error_bound():
    rng = random.Random(4242)
    for _ in range(1000):
        width = rng.randrange(32, 4000)
        height = rng.randrange(32, 4000)
        x1 = rng.uniform(0, width)
        x2 = rng.uniform(x1, width)
        y1 = rng.uniform(0, height)
        y2 = rng.uniform(y1, height)
        box = BBoxPx(x1, y1, x2, y2)
        back = denormalize_bbox(normalize_bbox(box, width, height), width, height)
        for got, want, size in zip(back.as_tuple(), box.as_tuple(),
                                   (width, height, width, height)):
            assert abs(got - want) <= size * 0.0005


# --- camera id mapping ---------------------------------------------------------

def test_default_nuinstruct_map():
    assert map_camera_id("c6", DatasetId.NUINSTRUCT) is CameraId.CAM_BACK_RIGHT
    assert map_camera_id("c1", DatasetId.NUINSTRUCT) is CameraId.CAM_FRONT
    with pytest.raises(DataforgeError, match=exactly("unknown camera id: 'c9'")):
        map_camera_id("c9", DatasetId.NUINSTRUCT)


def test_raw_camera_ids_only_for_nuinstruct():
    for dataset in DatasetId:
        if dataset is not DatasetId.NUINSTRUCT:
            with pytest.raises(DataforgeError, match=exactly("unknown camera id: 'c1'")):
                map_camera_id("c1", dataset)
    s = Sample("drivelm/1", DatasetId.DRIVELM, surround_media(1600, 900),
               (QAPair("Q?", "<car>[c1, 1, 2, 3, 4]"),))
    with pytest.raises(DataforgeError, match=exactly(
            "sample drivelm/1: <car>[c1, 1, 2, 3, 4]: unknown camera id: 'c1'")):
        standardize_sample(s)


# --- token rewriting -----------------------------------------------------------

def test_rewrite_reference_token():
    out = rewrite_object_token("<car>[c6, 139, 343, 1511, 900]",
                               DatasetId.NUINSTRUCT, NUSC_FRAME)
    assert out == "<car>[CAM_BACK_RIGHT, 8.688, 38.111, 94.438, 100.000]"


def test_rewrite_angle_form_center():
    frame = image_ref(CameraId.CAM_BACK, 1600, 900, "f.jpg")
    out = rewrite_object_token("<c6, CAM_BACK, 1088.3, 497.5>",
                               DatasetId.DRIVELM, frame)
    # 1088.3*100/1600 = 68.01875 -> 68.019; 497.5*100/900 = 55.2777... -> 55.278
    assert out == "<object>[CAM_BACK, 68.019, 55.278]"


def test_rewrite_unified_token_is_identity():
    token = "<car>[CAM_BACK_RIGHT, 8.688, 38.111, 94.438, 100.000]"
    assert rewrite_object_token(token, DatasetId.NUINSTRUCT, NUSC_FRAME) == token


def test_rewrite_bare_pixel_token_stays_bare():
    frame = image_ref(CameraId.FRONT_ONLY, 1600, 900, "f.jpg")
    out = rewrite_object_token("<cone>[800, 450]", DatasetId.CODA_LM, frame)
    assert out == "<cone>[50.000, 50.000]"


def test_rewrite_output_parses_back():
    rng = random.Random(9)
    for _ in range(200):
        x1, y1 = rng.randrange(0, 800), rng.randrange(0, 450)
        x2, y2 = rng.randrange(x1, 1601), rng.randrange(y1, 901)
        raw = f"<car>[c3, {x1}, {y1}, {x2}, {y2}]"
        out = rewrite_object_token(raw, DatasetId.NUINSTRUCT, NUSC_FRAME)
        ref = parse_token(out)
        assert ref.is_normalized
        assert ref.camera is CameraId.CAM_FRONT_RIGHT


# --- instruction appending -----------------------------------------------------

def test_append_instruction_once():
    q = "Where is the car?"
    out = append_format_instruction(q, BOX_INSTRUCTION)
    assert out == ("Where is the car? Objects are referred to as "
                   "<category>[CAMERA, x_min, y_min, x_max, y_max] "
                   "with coordinates from 0 to 100.")
    assert append_format_instruction(out, BOX_INSTRUCTION) == out


def test_append_instruction_empty_question():
    assert append_format_instruction("", BOX_INSTRUCTION) == BOX_INSTRUCTION


# --- whole-sample standardization ---------------------------------------------

def _nusc_sample(*qa):
    return Sample("nuinstruct/000001", DatasetId.NUINSTRUCT,
                  surround_media(1600, 900), tuple(qa),
                  frozenset({"perception"}))


def test_standardize_sample_reference_string():
    s = _nusc_sample(QAPair("What is the status of the car?",
                            "The <car>[c6, 139, 343, 1511, 900] is parked."))
    out = standardize_sample(s)
    assert out.qa[0].answer == \
        "The <car>[CAM_BACK_RIGHT, 8.688, 38.111, 94.438, 100.000] is parked."
    assert out.qa[0].question.endswith(BOX_INSTRUCTION)


def test_standardize_sample_without_tokens_is_identity():
    s = _nusc_sample(QAPair("How many lanes?", "3"))
    assert standardize_sample(s) == s


def test_standardize_reports_all_failures():
    s = _nusc_sample(
        QAPair("Q1?", "ok <car>[c1, 1, 2, 3, 4] bad <car>[c1, 1, 2, 3]"),
        QAPair("Q2?", "unknown camera <car>[c9, 1, 2, 3, 4]"),
    )
    # Both failures, in text order, joined by "; "; the good token is absent.
    with pytest.raises(DataforgeError, match=exactly(
            "sample nuinstruct/000001: "
            "<car>[c1, 1, 2, 3]: expected 2 or 4 coordinates, got 3; "
            "<car>[c9, 1, 2, 3, 4]: unknown camera id: 'c9'")):
        standardize_sample(s)


def test_standardize_center_instruction():
    s = _nusc_sample(QAPair("Locate it.", "<c1, CAM_FRONT, 800.0, 450.0>"))
    out = standardize_sample(s)
    assert out.qa[0].question.endswith(CENTER_INSTRUCTION)
    assert out.qa[0].answer == "<object>[CAM_FRONT, 50.000, 50.000]"


def test_standardize_box_wins_over_center():
    s = _nusc_sample(QAPair(
        "Both forms.",
        "<car>[c1, 1, 2, 3, 4] and <c1, CAM_FRONT, 800.0, 450.0>"))
    out = standardize_sample(s)
    assert out.qa[0].question.endswith(BOX_INSTRUCTION)


def test_standardize_rewrites_mc_options():
    s = _nusc_sample(QAPair(
        "Pick.", "A",
        style=QAStyle.MULTIPLE_CHOICE,
        options=(("A", "the <car>[c6, 139, 343, 1511, 900]"), ("B", "none")),
    ))
    out = standardize_sample(s)
    assert out.qa[0].options[0][1] == \
        "the <car>[CAM_BACK_RIGHT, 8.688, 38.111, 94.438, 100.000]"


def test_standardize_mixed_resolution_bare_token_fails():
    media = (image_ref(CameraId.CAM_FRONT, 1600, 900, "a.jpg"),
             image_ref(CameraId.CAM_BACK, 1920, 1080, "b.jpg"))
    s = Sample("x/1", DatasetId.GENERIC, media,
               (QAPair("Q?", "<car>[10, 10, 20, 20]"),))
    with pytest.raises(DataforgeError, match=exactly(
            "sample x/1: <car>[10, 10, 20, 20]: "
            "camera-less token over media of mixed resolutions")):
        standardize_sample(s)


def test_standardize_preserves_order_and_metadata():
    rng = random.Random(17)
    s = random_mixed_sample(rng, 1)
    out = standardize_sample(s)
    assert out.id == s.id and out.dataset == s.dataset
    assert out.media == s.media and out.task_tags == s.task_tags
    assert len(out.qa) == len(s.qa)
    assert [q.provenance for q in out.qa] == [q.provenance for q in s.qa]


def test_standardize_idempotent_on_random_samples():
    rng = random.Random(31)
    for i in range(200):
        s = random_mixed_sample(rng, i)
        once = standardize_sample(s)
        twice = standardize_sample(once)
        assert sample_to_json(once) == sample_to_json(twice)


def test_standardize_names_tokens_after_token_free_texts_in_text_order():
    with pytest.raises(DataforgeError, match=exactly(
            "sample generic/1: <x>[1, 2, 3]: expected 2 or 4 coordinates, got 3; "
            "<car>[CAM_BACK, 1, 2, 700, 4]: box (1.0, 2.0, 700.0, 4.0) exceeds 640x480 "
            "image; <bus>[10, 20, 30, 40]: camera-less token over media of mixed "
            "resolutions; <cone>[c9, 1, 2]: unknown camera id: 'c9'")):
        standardize_sample(late_token_sample())
