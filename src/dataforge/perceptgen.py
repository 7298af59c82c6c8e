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


def _token(obj: DetectedObject, media: MediaRef, representation: str,
           camera: CameraId | None) -> str:
    b = obj.box
    if representation == "box":
        norm = normalize_bbox(b, media.width, media.height)
    else:
        center = PointPx((b.x_min + b.x_max) / 2, (b.y_min + b.y_max) / 2)
        norm = normalize_point(center, media.width, media.height)
    return render_token(obj.category, camera, norm)


def build_grounding_sample(sample_id: str,
                           anns: Sequence[DetectionAnnotation],
                           spec: GroundingSpec,
                           rng: random.Random) -> Sample:
    """Generate one grounding QA over ``anns`` and wrap it with its media.

    One view without ``with_camera_prefix`` asks the single-image question.
    Any other record needs the prefix and surround views of one size; when
    every view is a video, each has ``frames_per_view`` frames and only
    objects on its last frame count. The category is drawn from the objects
    in camera-rank order, then the representation if ``spec`` leaves it open.
    """
    keyframe_only = False
    if len(anns) == 1 and not spec.with_camera_prefix:
        template, nothing = SINGLE_IMAGE_TEMPLATE, "annotation has no objects"
    else:
        if not spec.with_camera_prefix:
            raise DataforgeError("multi-view grounding requires camera-prefixed tokens")
        for ann in anns:
            if ann.media.camera not in NUSCENES_CAMERAS:
                raise DataforgeError(f"{ann.media.camera} is not a surround camera")
        if len({(a.media.width, a.media.height) for a in anns}) > 1:
            raise DataforgeError(
                "camera views disagree on resolution; per-camera handling not configured")
        keyframe_only = all(a.media.kind is MediaKind.VIDEO for a in anns)
        for ann in anns:
            if keyframe_only and ann.media.frame_count != spec.frames_per_view:
                raise DataforgeError(
                    f"{ann.media.camera}: expected {spec.frames_per_view}-frame "
                    f"video, got video with {ann.media.frame_count}")
        template = VIDEO_TEMPLATE if keyframe_only else MULTIVIEW_TEMPLATE
        nothing = "no objects to ground"
    ordered = sorted(anns, key=lambda a: CAMERA_RANK[a.media.camera])
    pool = [(ann, obj) for ann in ordered for obj in ann.objects
            if not keyframe_only or obj.frame_index == ann.media.frame_count - 1]
    if not pool:
        raise DataforgeError(nothing)
    category = rng.choice(sorted({obj.category for _, obj in pool}))
    representation = spec.representation or ("center" if rng.random() < 0.5 else "box")
    tokens = [_token(obj, ann.media, representation,
                     ann.media.camera if spec.with_camera_prefix else None)
              for ann, obj in pool if obj.category == category]
    qa = QAPair(template.format(category=category), ANSWER_LEAD_IN + ", ".join(tokens),
                QAStyle.OPEN, Provenance.GENERATED_PERCEPTION)
    return Sample(sample_id, DatasetId.GENERIC, tuple(a.media for a in ordered), (qa,),
                  frozenset({"perception"}))


# ---------------------------------------------------------------------------
# JSON source schema (docs/source-schemas.md)
# ---------------------------------------------------------------------------

def _box(o: dict[str, Any], path: str) -> BBoxPx:
    raw = json_key(o, "bbox", path)
    if not (isinstance(raw, list) and len(raw) == 4):
        raise SchemaError(f"bbox must be four numbers, got {raw!r}", path=path)
    return BBoxPx(*(json_number(v, "bbox coordinate", path) for v in raw))


def annotation_from_dict(d: dict[str, Any], path: str) -> DetectionAnnotation:
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
        rec: dict[str, Any]) -> tuple[str, GroundingSpec, list[DetectionAnnotation]]:
    """One gen-perception input record: its id, spec and annotated views."""
    sample_id = json_str(json_key(rec, "id", "id"), "id", "id")
    with_camera_prefix = json_bool(json_key(rec, "with_camera_prefix", default=False),
                                   "with_camera_prefix", "with_camera_prefix")
    frames_per_view = json_int(json_key(rec, "frames_per_view", default=1),
                               "frames_per_view", "frames_per_view", minimum=1)
    representation = json_key(rec, "representation", default=None)
    if representation not in (None, "box", "center"):
        raise SchemaError('representation must be "box" or "center", '
                          f"got {representation!r}", path="representation")
    spec = GroundingSpec(representation, with_camera_prefix, frames_per_view)
    raw = json_list(json_key(rec, "annotations", "annotations"), "annotations",
                    "annotations")
    if not raw:
        raise SchemaError("annotations must not be empty", path="annotations")
    anns = [annotation_from_dict(a, f"annotations[{k}]") for k, a in enumerate(raw)]
    return sample_id, spec, anns
