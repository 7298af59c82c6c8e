"""Rewrite object tokens into the unified grammar.

Coordinates are normalized to [0, 100] with half-up rounding at three
decimals, raw per-dataset camera ids are resolved to canonical names, and a
fixed formatting instruction is appended to questions that reference objects.
All operations are pure; samples can be standardized in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import ROUND_HALF_EVEN, ROUND_HALF_UP, Decimal
from typing import Any, Mapping

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
)
from .errors import (
    BoundsError,
    DataforgeError,
    SampleError,
    SchemaError,
    UnknownCameraId,
)

_ROUNDING_MODES = {"half_up": ROUND_HALF_UP, "half_even": ROUND_HALF_EVEN}
_QUANTUM = Decimal("0.001")


def _norm_component(value: float, size: float, rounding: str = "half_up") -> float:
    # Decimal(repr(...)) treats the value as its decimal literal, so 1088.3
    # normalizes like the number printed in the source annotation, not like
    # its binary expansion.
    scaled = Decimal(repr(float(value))) * 100 / Decimal(repr(float(size)))
    return float(scaled.quantize(_QUANTUM, rounding=_ROUNDING_MODES[rounding]))


def normalize_bbox(box: BBoxPx, width: float, height: float,
                   rounding: str = "half_up") -> BBoxNorm:
    """Scale a pixel box to [0, 100] per axis, rounded to 3 decimals."""
    if not (0 <= box.x_min <= box.x_max <= width
            and 0 <= box.y_min <= box.y_max <= height):
        raise BoundsError(f"box {box.as_tuple()} exceeds {width}x{height} image")
    return BBoxNorm(
        _norm_component(box.x_min, width, rounding),
        _norm_component(box.y_min, height, rounding),
        _norm_component(box.x_max, width, rounding),
        _norm_component(box.y_max, height, rounding),
    )


def denormalize_bbox(box: BBoxNorm, width: float, height: float) -> BBoxPx:
    return BBoxPx(
        box.x_min * width / 100,
        box.y_min * height / 100,
        box.x_max * width / 100,
        box.y_max * height / 100,
    )


def normalize_point(point: PointPx, width: float, height: float,
                    rounding: str = "half_up") -> PointNorm:
    if not (0 <= point.x_center <= width and 0 <= point.y_center <= height):
        raise BoundsError(f"point {point.as_tuple()} exceeds {width}x{height} image")
    return PointNorm(
        _norm_component(point.x_center, width, rounding),
        _norm_component(point.y_center, height, rounding),
    )


@dataclass(frozen=True)
class CameraIdMap:
    """Ordered raw-id → camera mapping for one dataset."""

    dataset: DatasetId
    entries: tuple[tuple[str, CameraId], ...]

    def __post_init__(self) -> None:
        raws = [raw for raw, _ in self.entries]
        if len(set(raws)) != len(raws):
            raise ValueError(f"duplicate raw camera ids in {self.dataset} map")
        if self.dataset is DatasetId.NUINSTRUCT:
            if dict(self.entries).get("c6") is not CameraId.CAM_BACK_RIGHT:
                raise ValueError("NuInstruct camera map must send 'c6' to CAM_BACK_RIGHT")

    def get(self, raw: str) -> CameraId | None:
        for key, camera in self.entries:
            if key == raw:
                return camera
        return None


def default_camera_map(dataset: DatasetId) -> CameraIdMap:
    """Per-dataset default: c1..c6 in surround order for NuInstruct, identity
    over canonical names everywhere else."""
    if dataset is DatasetId.NUINSTRUCT:
        entries = tuple((f"c{i + 1}", cam) for i, cam in enumerate(NUSCENES_CAMERAS))
        return CameraIdMap(dataset, entries)
    return CameraIdMap(dataset, tuple((c.value, c) for c in CameraId))


def map_camera_id(raw: str, camera_map: CameraIdMap) -> CameraId:
    camera = camera_map.get(raw)
    if camera is None:
        raise UnknownCameraId(raw)
    return camera


@dataclass(frozen=True)
class FormatInstruction:
    representation: str  # "box" | "center"
    text: str


BOX_INSTRUCTION = FormatInstruction(
    "box",
    "Objects are referred to as <category>[CAMERA, x_min, y_min, x_max, y_max] "
    "with coordinates from 0 to 100.",
)
CENTER_INSTRUCTION = FormatInstruction(
    "center",
    "Objects are referred to as <category>[CAMERA, x_center, y_center] "
    "with coordinates from 0 to 100.",
)


def append_format_instruction(question: str, instr: FormatInstruction) -> str:
    """Append the instruction once; re-applying is a no-op."""
    if question.endswith(instr.text):
        return question
    sep = "" if (not question or question.endswith((" ", "\n", "\t"))) else " "
    return question + sep + instr.text


@dataclass(frozen=True)
class StandardizeConfig:
    camera_maps: tuple[CameraIdMap, ...] = ()
    rounding: str = "half_up"
    box_instruction: FormatInstruction = BOX_INSTRUCTION
    center_instruction: FormatInstruction = CENTER_INSTRUCTION
    append_instructions: bool = True

    def __post_init__(self) -> None:
        if self.rounding not in _ROUNDING_MODES:
            raise ValueError(f"unknown rounding mode {self.rounding!r}")

    def map_for(self, dataset: DatasetId) -> CameraIdMap:
        for m in self.camera_maps:
            if m.dataset is dataset:
                return m
        return default_camera_map(dataset)

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "StandardizeConfig":
        try:
            maps = []
            for ds_name, entries in (d.get("camera_maps") or {}).items():
                dataset = DatasetId(ds_name)
                maps.append(CameraIdMap(
                    dataset,
                    tuple((raw, CameraId(name)) for raw, name in entries.items()),
                ))
            instr = d.get("instructions") or {}
            box = (FormatInstruction("box", instr["box"])
                   if "box" in instr else BOX_INSTRUCTION)
            center = (FormatInstruction("center", instr["center"])
                      if "center" in instr else CENTER_INSTRUCTION)
            return cls(
                camera_maps=tuple(maps),
                rounding=d.get("rounding", "half_up"),
                box_instruction=box,
                center_instruction=center,
                append_instructions=bool(d.get("append_instructions", True)),
            )
        except (ValueError, TypeError, AttributeError) as exc:
            raise SchemaError(f"bad standardize config: {exc}") from None


def _render_normalized(ref: ObjectRef, camera: CameraId | None,
                       width: float, height: float, rounding: str) -> str:
    if isinstance(ref.geometry, BBoxPx):
        norm = normalize_bbox(ref.geometry, width, height, rounding)
        return tok.render_box_token(ref.category, camera, norm)
    assert isinstance(ref.geometry, PointPx)
    norm = normalize_point(ref.geometry, width, height, rounding)
    return tok.render_center_token(ref.category, camera, norm)


def rewrite_object_token(raw_token: str, dataset: DatasetId, media: MediaRef,
                         camera_map: CameraIdMap | None = None,
                         rounding: str = "half_up") -> str:
    """Rewrite one token into the unified grammar; normalized input passes
    through unchanged."""
    ref = tok.parse_token(raw_token)
    if ref.is_normalized:
        return raw_token
    camera = ref.camera
    if camera is None and ref.raw_camera is not None:
        if camera_map is None:
            camera_map = default_camera_map(dataset)
        camera = map_camera_id(ref.raw_camera, camera_map)
    return _render_normalized(ref, camera, media.width, media.height, rounding)


def _uniform_dims(sample: Sample) -> tuple[int, int] | None:
    dims = {(m.width, m.height) for m in sample.media}
    return next(iter(dims)) if len(dims) == 1 else None


def standardize_sample(sample: Sample, cfg: StandardizeConfig | None = None) -> Sample:
    """Rewrite every object token in the sample and append format instructions.

    Raises:
        SampleError: aggregating every token that could not be rewritten.
    """
    cfg = cfg or StandardizeConfig()
    camera_map = cfg.map_for(sample.dataset)
    media_by_camera: dict[CameraId, MediaRef] = {}
    for m in sample.media:
        media_by_camera.setdefault(m.camera, m)
    uniform = _uniform_dims(sample)
    failures: list[str] = []

    def dims_for(camera: CameraId | None, token_text: str) -> tuple[float, float] | None:
        if camera is not None:
            m = media_by_camera.get(camera)
            if m is None:
                failures.append(
                    f"{token_text}: camera {camera} not present in sample media")
                return None
            return (m.width, m.height)
        if uniform is not None:
            return uniform
        failures.append(
            f"{token_text}: camera-less token over media of mixed resolutions")
        return None

    def rewrite_text(text: str) -> str:
        replacements: list[tuple[int, int, str]] = []
        for match in tok.scan_tokens(text):
            if match.ref is None:
                failures.append(f"{match.text}: {match.error}")
                continue
            ref = match.ref
            if ref.is_normalized:
                continue
            try:
                camera = ref.camera
                if camera is None and ref.raw_camera is not None:
                    camera = map_camera_id(ref.raw_camera, camera_map)
            except DataforgeError as exc:
                failures.append(f"{match.text}: {exc}")
                continue
            dims = dims_for(camera, match.text)
            if dims is None:
                continue
            try:
                new = _render_normalized(ref, camera, dims[0], dims[1], cfg.rounding)
            except DataforgeError as exc:
                failures.append(f"{match.text}: {exc}")
                continue
            if new != match.text:
                replacements.append((match.start, match.end, new))
        return tok.replace_spans(text, replacements) if replacements else text

    def pick_instruction(question: str, answer: str) -> FormatInstruction | None:
        has_box = has_center = False
        for ref in tok.scan_object_refs(question) + tok.scan_object_refs(answer):
            if isinstance(ref.geometry, (BBoxNorm, BBoxPx)):
                has_box = True
            else:
                has_center = True
        if has_box:
            return cfg.box_instruction
        if has_center:
            return cfg.center_instruction
        return None

    new_qa: list[QAPair] = []
    for qa in sample.qa:
        question = rewrite_text(qa.question)
        answer = rewrite_text(qa.answer)
        options = qa.options
        if options is not None:
            options = tuple((label, rewrite_text(text)) for label, text in options)
        if cfg.append_instructions:
            instr = pick_instruction(question, answer)
            if instr is not None:
                question = append_format_instruction(question, instr)
        new_qa.append(QAPair(question, answer, qa.style, qa.provenance, options))

    if failures:
        raise SampleError(sample.id, failures)
    return replace(sample, qa=tuple(new_qa))
