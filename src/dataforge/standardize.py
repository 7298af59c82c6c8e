"""Rewrite object tokens into the unified grammar.

Coordinates are normalized to [0, 100] and quantized half up to three
decimals, NuInstruct's raw camera ids are resolved to canonical names, and a
fixed formatting instruction is appended to questions that reference objects.
All operations are pure.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal
from functools import lru_cache

from . import tokens as tok
from .core import (
    BBoxNorm,
    BBoxPx,
    CameraId,
    DatasetId,
    MediaRef,
    ObjectRef,
    PointNorm,
    PointPx,
    QAPair,
    Sample,
    media_sizes,
    pixel_inside,
    resolve_token_size,
)
from .errors import DataforgeError

_QUANTUM = Decimal("0.001")


@lru_cache(maxsize=256)  # sizes come from the input: the cache stays bounded
def _divisor(size: float) -> Decimal:
    return Decimal(repr(float(size)))


def _norm_component(value: float, size: float) -> float:
    # Decimal(repr(...)) treats the value as its decimal literal, so 1088.3
    # normalizes like the number printed in the source annotation, not like
    # its binary expansion. Adding 0.0 turns the -0.0 of a "-0" coordinate
    # into 0.0: "-0.000" would read as an un-normalized token.
    scaled = Decimal(repr(float(value))) * 100 / _divisor(size)
    return float(scaled.quantize(_QUANTUM, ROUND_HALF_UP)) + 0.0


def normalize_bbox(box: BBoxPx, width: float, height: float) -> BBoxNorm:
    """Scale a pixel box to [0, 100] per axis, rounded to 3 decimals."""
    if not pixel_inside(box, width, height):
        raise DataforgeError(f"box {box.as_tuple()} exceeds {width}x{height} image")
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
    if not pixel_inside(point, width, height):
        raise DataforgeError(f"point {point.as_tuple()} exceeds {width}x{height} image")
    return PointNorm(
        _norm_component(point.x_center, width),
        _norm_component(point.y_center, height),
    )


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


def rewrite_object_token(raw_token: str, dataset: DatasetId, media: MediaRef) -> str:
    """Rewrite one token into the unified grammar against the size of
    ``media``, whatever camera the token names; normalized input passes
    through unchanged."""
    ref = tok.parse_token(raw_token)
    if ref.is_normalized:
        return raw_token
    size = (media.width, media.height)
    camera, (width, height) = resolve_token_size(
        ref, dataset, dict.fromkeys(CameraId, size), size)
    return _render_normalized(ref, camera, width, height)


def standardize_sample(sample: Sample) -> Sample:
    """Rewrite every object token in the sample and append format instructions.

    A question gets ``BOX_INSTRUCTION`` if it or its answer holds a box token,
    else ``CENTER_INSTRUCTION`` if either holds a center; options do not count.

    Raises:
        DataforgeError: naming the sample and every token that could not be rewritten.
    """
    sizes = None  # media_sizes(sample), once a token needs it
    failures: list[str] = []

    def rewrite_text(text: str, shapes: set[type]) -> str:
        """``text`` with its tokens rewritten; adds each token's geometry type
        to ``shapes``."""
        def rewrite(match: tok.TokenMatch) -> str:
            nonlocal sizes
            ref = match.ref
            if ref is None:
                failures.append(f"{match.text}: {match.error}")
                return match.text
            shapes.add(type(ref.geometry))
            if ref.is_normalized:
                return match.text
            sizes = sizes or media_sizes(sample)
            try:
                camera, (width, height) = resolve_token_size(ref, sample.dataset, *sizes)
                return _render_normalized(ref, camera, width, height)
            except DataforgeError as exc:
                failures.append(f"{match.text}: {exc}")
                return match.text

        return tok.sub_tokens(text, rewrite)

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
        raise DataforgeError(f"sample {sample.id}: {'; '.join(failures)}")
    return Sample(sample.id, sample.dataset, sample.media, tuple(new_qa), sample.task_tags)
