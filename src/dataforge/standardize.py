"""Rewrite object tokens into the unified grammar.

Coordinates are normalized to [0, 100] and quantized half up to three
decimals, NuInstruct's raw camera ids are resolved to canonical names, and a
fixed formatting instruction is appended to questions that reference objects.
All operations are pure.
"""

from __future__ import annotations

from dataclasses import replace
from decimal import ROUND_HALF_UP, Decimal
from typing import Callable

from . import tokens as tok
from .core import (
    BBoxNorm,
    BBoxPx,
    CameraId,
    DatasetId,
    MediaRef,
    NUSCENES_CAMERAS,
    ObjectRef,
    PointNorm,
    PointPx,
    QAPair,
    Sample,
    media_sizes,
)
from .errors import (
    BoundsError,
    DataforgeError,
    MixedResolutionError,
    SampleError,
    UnknownCameraId,
)

_QUANTUM = Decimal("0.001")


def _norm_component(value: float, size: float) -> float:
    # Decimal(repr(...)) treats the value as its decimal literal, so 1088.3
    # normalizes like the number printed in the source annotation, not like
    # its binary expansion. Adding 0.0 turns the -0.0 of a "-0" coordinate
    # into 0.0: "-0.000" would read as an un-normalized token.
    scaled = Decimal(repr(float(value))) * 100 / Decimal(repr(float(size)))
    return float(scaled.quantize(_QUANTUM, ROUND_HALF_UP)) + 0.0


def normalize_bbox(box: BBoxPx, width: float, height: float) -> BBoxNorm:
    """Scale a pixel box to [0, 100] per axis, rounded to 3 decimals."""
    if not (0 <= box.x_min <= box.x_max <= width
            and 0 <= box.y_min <= box.y_max <= height):
        raise BoundsError(f"box {box.as_tuple()} exceeds {width}x{height} image")
    return BBoxNorm(
        _norm_component(box.x_min, width),
        _norm_component(box.y_min, height),
        _norm_component(box.x_max, width),
        _norm_component(box.y_max, height),
    )


def denormalize_bbox(box: BBoxNorm, width: float, height: float) -> BBoxPx:
    return BBoxPx(
        box.x_min * width / 100,
        box.y_min * height / 100,
        box.x_max * width / 100,
        box.y_max * height / 100,
    )


def normalize_point(point: PointPx, width: float, height: float) -> PointNorm:
    if not (0 <= point.x_center <= width and 0 <= point.y_center <= height):
        raise BoundsError(f"point {point.as_tuple()} exceeds {width}x{height} image")
    return PointNorm(
        _norm_component(point.x_center, width),
        _norm_component(point.y_center, height),
    )


# The only raw camera ids in any source: NuInstruct numbers its surround
# views c1..c6, for its view keys and its QA tokens alike. Every other dataset
# names cameras canonically.
_RAW_CAMERA_IDS: dict[tuple[DatasetId, str], CameraId] = {
    (DatasetId.NUINSTRUCT, f"c{i}"): camera
    for i, camera in enumerate(NUSCENES_CAMERAS, start=1)
}


def map_camera_id(raw: str, dataset: DatasetId) -> CameraId:
    """Resolve a raw camera id of ``dataset``; raises UnknownCameraId."""
    try:
        return _RAW_CAMERA_IDS[dataset, raw]
    except KeyError:
        raise UnknownCameraId(raw) from None


BOX_INSTRUCTION = (
    "Objects are referred to as <category>[CAMERA, x_min, y_min, x_max, y_max] "
    "with coordinates from 0 to 100.")
CENTER_INSTRUCTION = (
    "Objects are referred to as <category>[CAMERA, x_center, y_center] "
    "with coordinates from 0 to 100.")


def append_format_instruction(question: str, instruction: str) -> str:
    """Append the instruction once; re-applying is a no-op."""
    if question.endswith(instruction):
        return question
    sep = "" if (not question or question.endswith((" ", "\n", "\t"))) else " "
    return question + sep + instruction


def _render_normalized(ref: ObjectRef, camera: CameraId | None,
                       width: float, height: float) -> str:
    if isinstance(ref.geometry, BBoxPx):
        norm = normalize_bbox(ref.geometry, width, height)
    else:  # PointPx
        norm = normalize_point(ref.geometry, width, height)
    return tok.render_token(ref.category, camera, norm)


def _rewrite_ref(ref: ObjectRef, dataset: DatasetId,
                 dims_for: Callable[[CameraId | None], tuple[float, float]]) -> str:
    """Resolve a pixel-space token's camera, then normalize it to the
    (width, height) that ``dims_for`` gives for that camera."""
    camera = ref.camera
    if camera is None and ref.raw_camera is not None:
        camera = map_camera_id(ref.raw_camera, dataset)
    width, height = dims_for(camera)
    return _render_normalized(ref, camera, width, height)


def rewrite_object_token(raw_token: str, dataset: DatasetId, media: MediaRef) -> str:
    """Rewrite one token into the unified grammar; normalized input passes
    through unchanged."""
    ref = tok.parse_token(raw_token)
    if ref.is_normalized:
        return raw_token
    return _rewrite_ref(ref, dataset, lambda _camera: (media.width, media.height))


def standardize_sample(sample: Sample) -> Sample:
    """Rewrite every object token in the sample and append format instructions.

    A question gets ``BOX_INSTRUCTION`` if it or its answer holds a box token,
    else ``CENTER_INSTRUCTION`` if either holds a center; options do not count.

    Raises:
        SampleError: aggregating every token that could not be rewritten.
    """
    sizes, uniform = media_sizes(sample)
    failures: list[str] = []

    def dims_for(camera: CameraId | None) -> tuple[int, int]:
        if camera is not None:
            if camera not in sizes:
                raise DataforgeError(f"camera {camera} not present in sample media")
            return sizes[camera]
        if uniform is None:
            raise MixedResolutionError("camera-less token over media of mixed resolutions")
        return uniform

    def rewrite_text(text: str, shapes: set[type]) -> str:
        """``text`` with its tokens rewritten; adds each token's geometry type
        to ``shapes``."""
        replacements: list[tuple[int, int, str]] = []
        for match in tok.scan_tokens(text):
            ref = match.ref
            if ref is None:
                failures.append(f"{match.text}: {match.error}")
                continue
            shapes.add(type(ref.geometry))
            if ref.is_normalized:
                continue
            try:
                new = _rewrite_ref(ref, sample.dataset, dims_for)
            except DataforgeError as exc:
                failures.append(f"{match.text}: {exc}")
                continue
            if new != match.text:
                replacements.append((match.start, match.end, new))
        return tok.replace_spans(text, replacements) if replacements else text

    new_qa: list[QAPair] = []
    for qa in sample.qa:
        shapes: set[type] = set()
        question = rewrite_text(qa.question, shapes)
        answer = rewrite_text(qa.answer, shapes)
        options = qa.options
        if options is not None:
            options = tuple((label, rewrite_text(text, set())) for label, text in options)
        if BBoxPx in shapes or BBoxNorm in shapes:
            question = append_format_instruction(question, BOX_INSTRUCTION)
        elif shapes:
            question = append_format_instruction(question, CENTER_INSTRUCTION)
        new_qa.append(QAPair(question, answer, qa.style, qa.provenance, options))

    if failures:
        raise SampleError(sample.id, failures)
    return replace(sample, qa=tuple(new_qa))
