import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dataforge.core import (
    BBoxPx,
    CameraId,
    MediaKind,
    MediaRef,
    NUSCENES_CAMERAS,
    Provenance,
    image_ref,
    validate_sample,
)
from dataforge.errors import DataforgeError, SchemaError
from dataforge.perceptgen import (
    DetectedObject,
    DetectionAnnotation,
    GroundingSpec,
    _mid,
    annotation_from_dict,
    build_grounding_sample,
)

from helpers import exactly, object_refs

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "grounding.json").read_text())


def _qa(anns, spec, seed):
    """The one QA ``build_grounding_sample`` generates over ``anns``."""
    return build_grounding_sample("generic/t", anns, spec, random.Random(seed)).qa[0]


def _ann(cam, *objs, frames=1, width=1600, height=900):
    kind = MediaKind.VIDEO if frames > 1 else MediaKind.IMAGE
    media = MediaRef(kind, cam, frames, width, height, f"v/{cam.value.lower()}.jpg")
    return DetectionAnnotation(media, tuple(objs))


SINGLE = DetectionAnnotation(
    image_ref(CameraId.FRONT_ONLY, 1280, 720, "img/0001.jpg"),
    (DetectedObject("car", BBoxPx(100, 200, 300, 400)),
     DetectedObject("truck", BBoxPx(640, 0, 1280, 720)),
     DetectedObject("car", BBoxPx(0, 0, 128, 72)),
     DetectedObject("pedestrian", BBoxPx(500, 300, 560, 480)),
     DetectedObject("car", BBoxPx(1000, 600, 1200, 700))))

MULTI = [
    _ann(CameraId.CAM_BACK, DetectedObject("car", BBoxPx(139, 343, 1511, 900))),
    _ann(CameraId.CAM_FRONT, DetectedObject("car", BBoxPx(0, 0, 800, 450)),
         DetectedObject("cone", BBoxPx(700, 700, 800, 800))),
    _ann(CameraId.CAM_BACK_LEFT, DetectedObject("car", BBoxPx(400, 225, 800, 450))),
]

VIDEO = [
    _ann(cam,
         DetectedObject("car", BBoxPx(100 * i, 90 * i, 100 * i + 200, 90 * i + 180),
                        frame_index=4 if i % 2 == 0 else 2),
         frames=5)
    for i, cam in enumerate(NUSCENES_CAMERAS)
]


def test_single_image_golden_box():
    qa = _qa([SINGLE], GroundingSpec(representation="box"), 13)
    assert qa.question == GOLDEN["single_box"]["question"]
    assert qa.answer == GOLDEN["single_box"]["answer"]
    assert qa.provenance is Provenance.GENERATED_PERCEPTION


def test_single_image_golden_center():
    qa = _qa([SINGLE], GroundingSpec(representation="center"), 13)
    assert qa.answer == GOLDEN["single_center"]["answer"]


def test_multiview_golden():
    spec = GroundingSpec(representation="box", with_camera_prefix=True)
    qa = _qa(MULTI, spec, 2)
    assert qa.question == GOLDEN["multiview_box"]["question"]
    assert qa.answer == GOLDEN["multiview_box"]["answer"]


def test_video_golden():
    spec = GroundingSpec(representation="box", with_camera_prefix=True,
                         frames_per_view=5)
    qa = _qa(VIDEO, spec, 3)
    assert qa.question == GOLDEN["video_box"]["question"]
    assert qa.answer == GOLDEN["video_box"]["answer"]


def test_full_frame_box_normalizes_to_corners():
    ann = _ann(CameraId.CAM_FRONT, DetectedObject("car", BBoxPx(0, 0, 1600, 900)))
    qa = _qa([ann], GroundingSpec(representation="box"), 0)
    assert "[0.000, 0.000, 100.000, 100.000]" in qa.answer


def _round3(value: Fraction) -> str:
    scaled = value * 1000
    n = scaled.numerator // scaled.denominator
    if (scaled - n) >= Fraction(1, 2):
        n += 1
    return f"{n // 1000}.{n % 1000:03d}"


def test_single_image_matches_filter_and_normalize_oracle():
    rng = random.Random(321)
    for _ in range(100):
        width, height = rng.choice([(1280, 720), (1600, 900), (640, 480)])
        objs = []
        for _ in range(rng.randrange(1, 8)):
            cat = rng.choice(["car", "truck", "pedestrian"])
            x1 = rng.randrange(0, width - 10)
            y1 = rng.randrange(0, height - 10)
            x2 = rng.randrange(x1, width)
            y2 = rng.randrange(y1, height)
            objs.append(DetectedObject(cat, BBoxPx(x1, y1, x2, y2)))
        ann = DetectionAnnotation(
            image_ref(CameraId.FRONT_ONLY, width, height, "x.jpg"), tuple(objs))
        seed = rng.randrange(1 << 30)
        qa = _qa([ann], GroundingSpec(representation="box"), seed)
        # oracle: replicate the seeded category pick, then filter + normalize
        # with independent Fraction arithmetic
        category = random.Random(seed).choice(sorted({o.category for o in objs}))
        expected = []
        for o in objs:
            if o.category != category:
                continue
            coords = [
                _round3(Fraction(o.box.x_min) * 100 / width),
                _round3(Fraction(o.box.y_min) * 100 / height),
                _round3(Fraction(o.box.x_max) * 100 / width),
                _round3(Fraction(o.box.y_max) * 100 / height),
            ]
            expected.append(f"<{category}>[{', '.join(coords)}]")
        assert qa.answer == "Detected objects: " + ", ".join(expected)


def test_multiview_order_matches_stable_sort_oracle():
    rng = random.Random(77)
    cams = list(NUSCENES_CAMERAS)
    for _ in range(50):
        anns = []
        chosen = rng.sample(cams, rng.randrange(2, 7))
        for cam in chosen:
            objs = tuple(
                DetectedObject("car", BBoxPx(10 * k, 10 * k, 10 * k + 5, 10 * k + 5))
                for k in range(rng.randrange(0, 4)))
            anns.append(_ann(cam, *objs))
        if not any(a.objects for a in anns):
            continue
        qa = _qa(anns, GroundingSpec(representation="box", with_camera_prefix=True), 5)
        refs = object_refs(qa.answer)
        ranks = [cams.index(r.camera) for r in refs]
        assert ranks == sorted(ranks)
        # every annotated car appears exactly once
        total = sum(len(a.objects) for a in anns)
        assert len(refs) == total


def test_tokens_only_from_populated_camera():
    anns = [_ann(cam) for cam in NUSCENES_CAMERAS[:5]]
    anns.append(_ann(CameraId.CAM_BACK_RIGHT,
                     DetectedObject("car", BBoxPx(0, 0, 10, 10))))
    qa = _qa(anns, GroundingSpec(representation="box", with_camera_prefix=True), 1)
    refs = object_refs(qa.answer)
    assert [r.camera for r in refs] == [CameraId.CAM_BACK_RIGHT]


def test_emitted_coordinates_are_normalized():
    spec = GroundingSpec(with_camera_prefix=True)
    for seed in range(50):
        qa = _qa(MULTI, spec, seed)
        refs = object_refs(qa.answer)
        assert refs and all(r.is_normalized for r in refs)


def test_category_choice_uniform_over_present():
    counts = Counter()
    for seed in range(9_000):
        qa = _qa([SINGLE], GroundingSpec(representation="box"), seed)
        counts[qa.question] += 1
    # three categories, n=9000 -> p=1/3, sigma = sqrt(n p (1-p)) ~ 44.7
    for q, c in counts.items():
        assert abs(c - 3000) < 3 * math.sqrt(9000 * (1 / 3) * (2 / 3)), counts


def test_representation_flip_is_balanced():
    boxes = 0
    for seed in range(2_000):
        qa = _qa([SINGLE], GroundingSpec(), seed)
        refs = object_refs(qa.answer)
        boxes += all(len(r.geometry.as_tuple()) == 4 for r in refs)
    assert abs(boxes - 1000) < 3 * math.sqrt(2000 * 0.25)


def test_empty_annotation_errors():
    empty = _ann(CameraId.CAM_FRONT)
    with pytest.raises(DataforgeError, match=exactly("annotation has no objects")):
        _qa([empty], GroundingSpec(), 0)
    with pytest.raises(DataforgeError, match=exactly("no objects to ground")):
        _qa([empty], GroundingSpec(with_camera_prefix=True), 0)


def test_video_with_no_keyframe_objects_is_empty():
    anns = [_ann(cam, DetectedObject("car", BBoxPx(0, 0, 5, 5), frame_index=0),
                 frames=5)
            for cam in NUSCENES_CAMERAS]
    spec = GroundingSpec(with_camera_prefix=True, frames_per_view=5)
    with pytest.raises(DataforgeError, match=exactly("no objects to ground")):
        _qa(anns, spec, 0)


def test_frame_count_mismatch():
    anns = [_ann(cam, DetectedObject("car", BBoxPx(0, 0, 5, 5), frame_index=3),
                 frames=4 if cam is CameraId.CAM_BACK else 5)
            for cam in NUSCENES_CAMERAS]
    spec = GroundingSpec(with_camera_prefix=True, frames_per_view=5)
    with pytest.raises(DataforgeError, match=exactly(
            "CAM_BACK: expected 5-frame video, got video with 4")):
        _qa(anns, spec, 0)


def test_mixed_resolution_rejected():
    anns = [_ann(CameraId.CAM_FRONT, DetectedObject("car", BBoxPx(0, 0, 5, 5))),
            _ann(CameraId.CAM_BACK, DetectedObject("car", BBoxPx(0, 0, 5, 5)),
                 width=1920, height=1080)]
    with pytest.raises(DataforgeError, match=exactly(
            "camera views disagree on resolution; per-camera handling not configured")):
        _qa(anns, GroundingSpec(with_camera_prefix=True), 0)


def test_multiview_requires_camera_prefix():
    with pytest.raises(DataforgeError, match=exactly(
            "multi-view grounding requires camera-prefixed tokens")):
        _qa(MULTI, GroundingSpec(with_camera_prefix=False), 0)


def test_non_surround_camera_rejected():
    anns = [_ann(CameraId.FRONT_ONLY, DetectedObject("car", BBoxPx(0, 0, 5, 5)))]
    with pytest.raises(DataforgeError, match=exactly("FRONT_ONLY is not a surround camera")):
        _qa(anns, GroundingSpec(with_camera_prefix=True), 0)


def test_annotation_invariants():
    media = image_ref(CameraId.CAM_FRONT, 100, 100, "x.jpg")
    with pytest.raises(ValueError):
        DetectionAnnotation(media, (DetectedObject("car", BBoxPx(0, 0, 101, 50)),))
    with pytest.raises(ValueError):
        DetectionAnnotation(media, (DetectedObject("car", BBoxPx(0, 0, 5, 5),
                                                   frame_index=1),))


_coordinate = st.floats(0, sys.float_info.max) | st.just(-0.0)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(_coordinate, _coordinate)
@example(1e308, 1.5e308)
@example(sys.float_info.max, sys.float_info.max)
@example(-0.0, -0.0)
@example(5e-324, 5e-324)
def test_a_center_is_the_halved_sum_wherever_the_sum_is_finite(a, b):
    mid = _mid(a, b)
    if math.isfinite(a + b):
        assert mid.hex() == ((a + b) / 2).hex()
    else:
        assert min(a, b) <= mid <= max(a, b)


def test_annotation_from_dict():
    ann = annotation_from_dict({
        "camera": "CAM_FRONT", "width": 1600, "height": 900, "uri": "a.jpg",
        "frames": 5,
        "objects": [{"category": "car", "bbox": [1, 2, 3, 4], "frame_index": 4}],
    }, "annotations[0]")
    assert ann.media.kind is MediaKind.VIDEO
    assert ann.objects[0].frame_index == 4
    with pytest.raises(SchemaError):
        annotation_from_dict({"camera": "CAM_FRONT"}, "annotations[0]")
    with pytest.raises(SchemaError):
        annotation_from_dict({"camera": "CAM_FRONT", "width": 100, "height": 100,
                              "uri": "a.jpg",
                              "objects": [{"category": "car", "bbox": [0, 0, 200, 200]}]},
                             "annotations[0]")


def test_build_grounding_sample_is_valid():
    spec = GroundingSpec(representation="box", with_camera_prefix=True)
    s = build_grounding_sample("generic/scene-1", MULTI, spec, random.Random(4))
    assert validate_sample(s) == []
    assert s.task_tags == {"perception"}
    assert [m.camera for m in s.media] == [
        CameraId.CAM_FRONT, CameraId.CAM_BACK, CameraId.CAM_BACK_LEFT]
