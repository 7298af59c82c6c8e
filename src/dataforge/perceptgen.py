"""Synthesize grounding QA from detection annotations.

Covers three layouts: one image, six surround views, and six surround videos
where the question targets the final (key) frame. Answers list every
annotated object of one seeded-uniformly chosen category as normalized
coordinate tokens; multi-view answers prefix each token with its camera name
and group tokens by camera rank, then annotation order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Sequence

from .core import (
    BBoxPx,
    CAMERA_RANK,
    CameraId,
    DatasetId,
    MediaKind,
    MediaRef,
    NUSCENES_CAMERAS,
    PointPx,
    Provenance,
    QAPair,
    QAStyle,
    Sample,
    _CAMERAS,
    _member,
    json_bool,
    json_int,
    json_key,
    json_list,
    json_number,
    json_object,
    json_str,
    pixel_inside,
)
from .errors import DataforgeError, SchemaError
from .standardize import normalize_bbox, normalize_point
from .tokens import is_category, render_token

SINGLE_IMAGE_TEMPLATE = "Detect all {category} in the image."
MULTIVIEW_TEMPLATE = "Detect all {category} across the camera views."
VIDEO_TEMPLATE = "Detect all {category} in the last frame of each view."
ANSWER_LEAD_IN = "Detected objects: "


@dataclass(frozen=True)
class DetectedObject:
    category: str
    box: BBoxPx
    frame_index: int = 0


@dataclass(frozen=True)
class DetectionAnnotation:
    media: MediaRef
    objects: tuple[DetectedObject, ...]

    def __post_init__(self) -> None:
        for obj in self.objects:
            if not 0 <= obj.frame_index < self.media.frame_count:
                raise ValueError(
                    f"frame_index {obj.frame_index} outside media with "
                    f"{self.media.frame_count} frame(s)")
            if not pixel_inside(obj.box, self.media.width, self.media.height):
                raise ValueError(f"box {obj.box.as_tuple()} exceeds media bounds "
                                 f"{self.media.width}x{self.media.height}")


@dataclass(frozen=True)
class GroundingSpec:
    representation: str | None = None  # box | center | None -> coin flip per QA
    with_camera_prefix: bool = False
    frames_per_view: int = 1

    def __post_init__(self) -> None:
        if self.representation not in (None, "box", "center"):
            raise ValueError(f"unknown representation {self.representation!r}")
        if self.frames_per_view < 1:
            raise ValueError("frames_per_view must be >= 1")


def _pick_category(objects: Sequence[DetectedObject], rng: random.Random) -> str:
    return rng.choice(sorted({o.category for o in objects}))


def _pick_representation(spec: GroundingSpec, rng: random.Random) -> str:
    if spec.representation is not None:
        return spec.representation
    return "center" if rng.random() < 0.5 else "box"


def _token(obj: DetectedObject, media: MediaRef, representation: str,
           camera: CameraId | None) -> str:
    b = obj.box
    if representation == "box":
        norm = normalize_bbox(b, media.width, media.height)
    else:
        center = PointPx((b.x_min + b.x_max) / 2, (b.y_min + b.y_max) / 2)
        norm = normalize_point(center, media.width, media.height)
    return render_token(obj.category, camera, norm)


def _answer(tokens: Sequence[str]) -> str:
    return ANSWER_LEAD_IN + ", ".join(tokens)


def gen_single_image_grounding(ann: DetectionAnnotation, spec: GroundingSpec,
                               rng: random.Random) -> QAPair:
    if not ann.objects:
        raise DataforgeError("annotation has no objects")
    category = _pick_category(ann.objects, rng)
    representation = _pick_representation(spec, rng)
    camera = ann.media.camera if spec.with_camera_prefix else None
    tokens = [_token(o, ann.media, representation, camera)
              for o in ann.objects if o.category == category]
    return QAPair(SINGLE_IMAGE_TEMPLATE.format(category=category),
                  _answer(tokens), QAStyle.OPEN, Provenance.GENERATED_PERCEPTION)


def _check_multiview(anns: Sequence[DetectionAnnotation],
                     spec: GroundingSpec) -> None:
    if not spec.with_camera_prefix:
        raise ValueError("multi-view grounding requires camera-prefixed tokens")
    for ann in anns:
        if ann.media.camera not in NUSCENES_CAMERAS:
            raise ValueError(f"{ann.media.camera} is not a surround camera")
    if len({(a.media.width, a.media.height) for a in anns}) > 1:
        raise DataforgeError(
            "camera views disagree on resolution; per-camera handling not configured")


def _multiview_qa(anns: Sequence[DetectionAnnotation], spec: GroundingSpec,
                  rng: random.Random, template: str,
                  keyframe_only: bool) -> QAPair:
    ordered = sorted(anns, key=lambda a: CAMERA_RANK[a.media.camera])
    pool: list[tuple[DetectionAnnotation, DetectedObject]] = []
    for ann in ordered:
        for obj in ann.objects:
            if keyframe_only and obj.frame_index != ann.media.frame_count - 1:
                continue
            pool.append((ann, obj))
    if not pool:
        raise DataforgeError("no objects to ground")
    category = rng.choice(sorted({o.category for _, o in pool}))
    representation = _pick_representation(spec, rng)
    tokens = [_token(obj, ann.media, representation, ann.media.camera)
              for ann, obj in pool if obj.category == category]
    return QAPair(template.format(category=category), _answer(tokens),
                  QAStyle.OPEN, Provenance.GENERATED_PERCEPTION)


def gen_multiview_grounding(anns: Sequence[DetectionAnnotation],
                            spec: GroundingSpec,
                            rng: random.Random) -> QAPair:
    _check_multiview(anns, spec)
    return _multiview_qa(anns, spec, rng, MULTIVIEW_TEMPLATE, keyframe_only=False)


def gen_multiview_video_grounding(anns: Sequence[DetectionAnnotation],
                                  spec: GroundingSpec,
                                  rng: random.Random) -> QAPair:
    _check_multiview(anns, spec)
    for ann in anns:
        if ann.media.kind is not MediaKind.VIDEO \
                or ann.media.frame_count != spec.frames_per_view:
            raise DataforgeError(
                f"{ann.media.camera}: expected {spec.frames_per_view}-frame "
                f"video, got {ann.media.kind} with {ann.media.frame_count}")
    return _multiview_qa(anns, spec, rng, VIDEO_TEMPLATE, keyframe_only=True)


def build_grounding_sample(sample_id: str,
                           anns: Sequence[DetectionAnnotation],
                           spec: GroundingSpec,
                           rng: random.Random) -> Sample:
    """Wrap one generated grounding QA with its media into a Sample."""
    if len(anns) == 1 and not spec.with_camera_prefix:
        qa = gen_single_image_grounding(anns[0], spec, rng)
    elif all(a.media.kind is MediaKind.VIDEO for a in anns):
        qa = gen_multiview_video_grounding(anns, spec, rng)
    else:
        qa = gen_multiview_grounding(anns, spec, rng)
    media = tuple(a.media for a in sorted(
        anns, key=lambda a: CAMERA_RANK[a.media.camera]))
    return Sample(sample_id, DatasetId.GENERIC, media, (qa,), frozenset({"perception"}))


# ---------------------------------------------------------------------------
# JSON source schema (docs/source-schemas.md)
# ---------------------------------------------------------------------------

def _box(o: dict[str, Any], path: str) -> BBoxPx:
    raw = json_key(o, "bbox", path)
    if not (isinstance(raw, list) and len(raw) == 4):
        raise SchemaError(f"bbox must be four numbers, got {raw!r}", path=path)
    return BBoxPx(*(json_number(v, "bbox coordinate", path) for v in raw))


def annotation_from_dict(d: dict[str, Any],
                         path: str = "annotation") -> DetectionAnnotation:
    """One annotated view; every field must have its documented JSON type."""
    json_object(d, "annotation", path)
    frames = json_int(json_key(d, "frames", default=1), "frames", path)
    camera = _member(_CAMERAS, CameraId, json_key(d, "camera", path), path)
    width = json_int(json_key(d, "width", path), "width", path)
    height = json_int(json_key(d, "height", path), "height", path)
    uri = json_str(json_key(d, "uri", path), "uri", path)
    objects = []
    for k, o in enumerate(json_list(json_key(d, "objects", path), "objects", path)):
        where = f"{path}.objects[{k}]"
        json_object(o, "object", where)
        category = json_str(json_key(o, "category", where), "category", where)
        if not is_category(category):
            raise SchemaError("category must be non-blank, with no surrounding whitespace, "
                              f"'<', '>', '[', ']' or newline, got {category!r}", path=where)
        box = _box(o, where)
        frame_index = json_int(json_key(o, "frame_index", default=0), "frame_index", where)
        objects.append(DetectedObject(category, box, frame_index))
    try:
        kind = MediaKind.VIDEO if frames > 1 else MediaKind.IMAGE
        media = MediaRef(kind, camera, frames, width, height, uri)
        return DetectionAnnotation(media, tuple(objects))
    except ValueError as exc:
        raise SchemaError(f"bad detection annotation: {exc}", path=path) from None


def grounding_record_from_dict(
        rec: Any, idx: int) -> tuple[str, GroundingSpec, list[DetectionAnnotation]]:
    """One gen-perception input record: its id, spec and annotated views.
    Every error names record ``idx``."""
    try:
        json_object(rec, "record")
        sample_id = json_str(json_key(rec, "id", "id"), "id", "id")
        spec = GroundingSpec(
            rec.get("representation"),
            json_bool(json_key(rec, "with_camera_prefix", default=False),
                      "with_camera_prefix", "with_camera_prefix"),
            json_int(json_key(rec, "frames_per_view", default=1),
                     "frames_per_view", "frames_per_view", minimum=1))
        raw = json_list(json_key(rec, "annotations", "annotations"), "annotations",
                        "annotations")
        if not raw:
            raise SchemaError("annotations must not be empty", path="annotations")
        anns = [annotation_from_dict(a, f"annotations[{k}]") for k, a in enumerate(raw)]
    except SchemaError as exc:
        raise SchemaError(exc.reason, record_index=idx, path=exc.path) from None
    except ValueError as exc:  # GroundingSpec: an unknown representation
        raise SchemaError(str(exc), record_index=idx) from None
    return sample_id, spec, anns
