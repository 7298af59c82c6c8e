"""Domain types shared by all pipeline stages, plus structural validation.

Everything here is an immutable value object. The canonical on-disk form is
JSON Lines with one sample per line (see ``sample_to_dict`` for the key
order). The decoders take parsed JSON: ``sample_from_dict`` and its helpers
accept ``dict`` objects, not arbitrary mappings.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, TextIO

from .errors import SchemaError


class DatasetId(Enum):
    CODA_LM = "coda_lm"
    MAPLM = "maplm"
    DRIVELM = "drivelm"
    LINGOQA = "lingoqa"
    OMNIDRIVE = "omnidrive"
    NUINSTRUCT = "nuinstruct"
    GENERIC = "generic"

    def __str__(self) -> str:
        return self.value


class CameraId(Enum):
    CAM_FRONT = "CAM_FRONT"
    CAM_FRONT_LEFT = "CAM_FRONT_LEFT"
    CAM_FRONT_RIGHT = "CAM_FRONT_RIGHT"
    CAM_BACK = "CAM_BACK"
    CAM_BACK_LEFT = "CAM_BACK_LEFT"
    CAM_BACK_RIGHT = "CAM_BACK_RIGHT"
    FRONT_ONLY = "FRONT_ONLY"
    LIDAR_BEV = "LIDAR_BEV"

    def __str__(self) -> str:
        return self.value


# Fixed ordering of the six surround cameras; used wherever answers or media
# must be grouped deterministically by view.
NUSCENES_CAMERAS: tuple[CameraId, ...] = (
    CameraId.CAM_FRONT,
    CameraId.CAM_FRONT_LEFT,
    CameraId.CAM_FRONT_RIGHT,
    CameraId.CAM_BACK,
    CameraId.CAM_BACK_LEFT,
    CameraId.CAM_BACK_RIGHT,
)

# Media order for every camera; CameraId lists the surround views first, in
# NUSCENES_CAMERAS order.
CAMERA_RANK: dict[CameraId, int] = {c: i for i, c in enumerate(CameraId)}


class MediaKind(Enum):
    IMAGE = "image"
    VIDEO = "video"

    def __str__(self) -> str:
        return self.value


class QAStyle(Enum):
    OPEN = "open"
    MULTIPLE_CHOICE = "multiple_choice"

    def __str__(self) -> str:
        return self.value


class Provenance(Enum):
    ORIGINAL = "original"
    PARAPHRASE = "paraphrase"
    MC_TRANSFORM = "mc_transform"
    GENERATED_PERCEPTION = "generated_perception"

    def __str__(self) -> str:
        return self.value


def fmt3(value: float) -> str:
    """Render a normalized coordinate with exactly three decimals."""
    return f"{value:.3f}"


@dataclass(frozen=True, slots=True)
class BBoxPx:
    """Axis-aligned box in pixel units, (x_min, y_min, x_max, y_max)."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


@dataclass(frozen=True, slots=True)
class BBoxNorm:
    """Axis-aligned box with coordinates normalized to [0, 100]."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)

    def render(self) -> str:
        return ", ".join(fmt3(v) for v in self.as_tuple())


@dataclass(frozen=True, slots=True)
class PointPx:
    """Region center in pixel units."""

    x_center: float
    y_center: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.x_center, self.y_center)


@dataclass(frozen=True, slots=True)
class PointNorm:
    """Region center with coordinates normalized to [0, 100]."""

    x_center: float
    y_center: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.x_center, self.y_center)

    def render(self) -> str:
        return ", ".join(fmt3(v) for v in self.as_tuple())


Geometry = BBoxPx | BBoxNorm | PointPx | PointNorm


@dataclass(frozen=True, slots=True)
class ObjectRef:
    """A referenced scene object, parsed out of an embedded QA token.

    ``camera`` is None while the source token carries an unresolved raw camera
    id (kept in ``raw_camera``); standardization resolves it. ``source_tag``
    holds the original token text verbatim.
    """

    category: str
    camera: CameraId | None
    geometry: Geometry
    source_tag: str
    raw_camera: str | None = None

    @property
    def is_normalized(self) -> bool:
        return isinstance(self.geometry, (BBoxNorm, PointNorm))


@dataclass(frozen=True, slots=True)
class MediaRef:
    """Metadata for one visual input; no pixel data is ever loaded."""

    kind: MediaKind
    camera: CameraId
    frame_count: int
    width: int
    height: int
    uri: str

    def __post_init__(self) -> None:
        if self.kind is MediaKind.IMAGE and self.frame_count != 1:
            raise ValueError(f"image media must have frame_count 1, got {self.frame_count}")
        if self.frame_count < 1 or self.width < 1 or self.height < 1:
            for name in ("frame_count", "width", "height"):
                value = getattr(self, name)
                if value < 1:
                    raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def image_ref(camera: CameraId, width: int, height: int, uri: str) -> MediaRef:
    return MediaRef(MediaKind.IMAGE, camera, 1, width, height, uri)


def video_ref(camera: CameraId, frames: int, width: int, height: int, uri: str) -> MediaRef:
    return MediaRef(MediaKind.VIDEO, camera, frames, width, height, uri)


@dataclass(frozen=True, slots=True)
class QAPair:
    question: str
    answer: str
    style: QAStyle = QAStyle.OPEN
    provenance: Provenance = Provenance.ORIGINAL
    options: tuple[tuple[str, str], ...] | None = None


@dataclass(frozen=True, slots=True)
class Sample:
    """One training/eval record: media references plus a QA conversation."""

    id: str
    dataset: DatasetId
    media: tuple[MediaRef, ...]
    qa: tuple[QAPair, ...]
    task_tags: frozenset[str] = frozenset()


@dataclass(frozen=True, slots=True)
class Violation:
    field: str
    rule: str
    detail: str


def validate_sample(sample: Sample) -> list[Violation]:
    """Check every structural invariant; an empty list means the sample is valid.

    Violations are data, not errors: the input is never mutated and malformed
    content never raises.
    """
    from . import tokens  # deferred: tokens depends on the types above

    out: list[Violation] = []

    if not sample.id:
        out.append(Violation("id", "non_empty", "sample id is empty"))
    if not sample.media:
        out.append(Violation("media", "non_empty", "sample carries no media"))

    sizes, uniform = media_sizes(sample)

    for j, qa in enumerate(sample.qa):
        if qa.style is QAStyle.MULTIPLE_CHOICE:
            if not qa.options:
                out.append(Violation(f"qa[{j}].options", "mc_options_present",
                                     "multiple_choice question has no options"))
            else:
                labels = [label for label, _ in qa.options]
                if len(set(labels)) != len(labels):
                    out.append(Violation(f"qa[{j}].options", "mc_labels_unique",
                                         f"duplicate option labels: {labels}"))
                if qa.answer not in labels:
                    out.append(Violation(f"qa[{j}].answer", "mc_answer_is_label",
                                         f"answer {qa.answer!r} is not an option label"))
        for field_name, text in (("question", qa.question), ("answer", qa.answer)):
            for match in tokens.scan_tokens(text):
                where = f"qa[{j}].{field_name}"
                if match.ref is None:
                    out.append(Violation(where, "token_grammar",
                                         f"malformed token {match.text!r}: {match.error}"))
                    continue
                out.extend(_check_object_ref(match.ref, where, sizes, uniform))

    return out


def media_sizes(sample: Sample) -> tuple[dict[CameraId, tuple[int, int]],
                                         tuple[int, int] | None]:
    """Each camera's (width, height), taken from its first media, and the one
    size every media shares (None if the sizes differ)."""
    sizes: dict[CameraId, tuple[int, int]] = {}
    for m in sample.media:
        sizes.setdefault(m.camera, (m.width, m.height))
    shared = {(m.width, m.height) for m in sample.media}
    return sizes, (next(iter(shared)) if len(shared) == 1 else None)


def _check_object_ref(ref: ObjectRef, where: str,
                      sizes: Mapping[CameraId, tuple[int, int]],
                      uniform: tuple[int, int] | None) -> list[Violation]:
    out: list[Violation] = []
    geom = ref.geometry

    if ref.camera is not None and ref.camera not in sizes:
        out.append(Violation(where, "token_camera_in_media",
                             f"token {ref.source_tag!r} references camera "
                             f"{ref.camera} absent from media"))

    if isinstance(geom, (BBoxNorm, BBoxPx)):
        if geom.x_min > geom.x_max or geom.y_min > geom.y_max:
            out.append(Violation(where, "bbox_ordering",
                                 f"{type(geom).__name__} in {ref.source_tag!r} has "
                                 f"x_min > x_max or y_min > y_max"))
    if isinstance(geom, (BBoxNorm, PointNorm)):
        values = geom.as_tuple()
        if any(v < 0.0 or v > 100.0 for v in values):
            out.append(Violation(where, "norm_range",
                                 f"normalized coordinates outside [0, 100] in {ref.source_tag!r}"))
    else:
        # Pixel geometry is bounds-checked against the owning media when that
        # media can be identified (resolved camera, or uniform dims).
        wh = uniform if ref.camera is None else sizes.get(ref.camera)
        if wh is not None:
            w, h = wh
            xs = (geom.x_min, geom.x_max) if isinstance(geom, BBoxPx) else (geom.x_center,)
            ys = (geom.y_min, geom.y_max) if isinstance(geom, BBoxPx) else (geom.y_center,)
            if any(x < 0 or x > w for x in xs) or any(y < 0 or y > h for y in ys):
                out.append(Violation(where, "pixel_bounds",
                                     f"pixel geometry in {ref.source_tag!r} exceeds "
                                     f"{w}x{h} image"))
    return out


# ---------------------------------------------------------------------------
# Serialization. Key order is part of the manifest contract and must not
# change: samples round-trip byte-identically through read/write.
# ---------------------------------------------------------------------------

def media_to_dict(m: MediaRef) -> dict[str, Any]:
    return {
        "kind": m.kind.value,
        "camera": m.camera.value,
        "frame_count": m.frame_count,
        "width": m.width,
        "height": m.height,
        "uri": m.uri,
    }


def qa_to_dict(qa: QAPair) -> dict[str, Any]:
    d: dict[str, Any] = {
        "question": qa.question,
        "answer": qa.answer,
        "style": qa.style.value,
        "provenance": qa.provenance.value,
    }
    if qa.options is not None:
        d["options"] = [[label, text] for label, text in qa.options]
    return d


def sample_to_dict(s: Sample) -> dict[str, Any]:
    return {
        "id": s.id,
        "dataset": s.dataset.value,
        "media": [media_to_dict(m) for m in s.media],
        "qa": [qa_to_dict(q) for q in s.qa],
        "task_tags": sorted(s.task_tags),
    }


# Shared by the manifest and prompt-row writers; json.dumps would build a new
# JSONEncoder on every call.
encode_json = json.JSONEncoder(ensure_ascii=False).encode


def sample_to_json(s: Sample) -> str:
    return encode_json(sample_to_dict(s))


# {value: member} for each enum the decoders read.
_DATASETS = {m.value: m for m in DatasetId}
_CAMERAS = {m.value: m for m in CameraId}
_MEDIA_KINDS = {m.value: m for m in MediaKind}
_STYLES = {m.value: m for m in QAStyle}
_PROVENANCES = {m.value: m for m in Provenance}


def _member(table: dict[str, Any], enum: type[Enum], value: Any, path: str) -> Any:
    """``table[value]``; anything else fails with the text ``enum(value)`` gives."""
    try:
        return table[value]
    except (KeyError, TypeError):  # TypeError: unhashable value such as [1]
        raise SchemaError(f"{value!r} is not a valid {enum.__name__}", path=path) from None


# ---------------------------------------------------------------------------
# Readers for decoded JSON values, shared by every input format. Each returns
# the value if it has the named kind and otherwise raises
# SchemaError("<name> must be <what>, got <value!r>") at ``path``. The loop
# that owns a record adds its index or line to the error. A bool is never a
# number. No reader takes **kwargs: the manifest decoder would pay for them.
# ---------------------------------------------------------------------------

_MISSING: Any = object()


def json_key(d: dict[str, Any], key: str, path: str | None = None,
             default: Any = _MISSING) -> Any:
    """``d[key]``; when the key is absent, ``default`` if one is given."""
    try:
        return d[key]
    except KeyError:
        if default is not _MISSING:
            return default
        raise SchemaError(f"missing key {key!r}", path=path) from None


def _wrong(name: str, what: str, value: Any, path: str | None) -> SchemaError:
    return SchemaError(f"{name} must be {what}, got {value!r}", path=path)


def json_int(value: Any, name: str, path: str | None = None, *,
             minimum: int | None = None) -> int:
    """``value`` if it is a JSON integer, and at least ``minimum`` if given."""
    if type(value) is int and (minimum is None or value >= minimum):
        return value
    raise _wrong(name, "an integer" if minimum is None else f"an integer >= {minimum}",
                 value, path)


def json_number(value: Any, name: str, path: str | None = None, *,
                minimum: float = -math.inf, maximum: float = math.inf) -> float:
    """``value`` as a float if it is a finite JSON number in [minimum, maximum].
    NaN, +-inf and an integer too large for a float fail."""
    if type(value) is float or type(value) is int:
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number) and minimum <= number <= maximum:
            return number
    bounded = minimum != -math.inf or maximum != math.inf
    raise _wrong(name, f"a number in [{minimum}, {maximum}]" if bounded else "a number",
                 value, path)


def json_bool(value: Any, name: str, path: str | None = None) -> bool:
    if value is True or value is False:
        return value
    raise _wrong(name, "true or false", value, path)


def json_str(value: Any, name: str, path: str | None = None) -> str:
    if type(value) is str:
        return value
    raise _wrong(name, "a string", value, path)


def json_list(value: Any, name: str, path: str | None = None) -> list[Any]:
    if type(value) is list:
        return value
    raise _wrong(name, "a list", value, path)


def json_object(value: Any, name: str, path: str | None = None) -> dict[str, Any]:
    if type(value) is dict:
        return value
    raise _wrong(name, "an object", value, path)


def media_from_dict(d: dict[str, Any], path: str = "media") -> MediaRef:
    if not isinstance(d, dict):
        raise SchemaError("media entry must be an object", path=path)
    kind = _member(_MEDIA_KINDS, MediaKind, json_key(d, "kind", path), path)
    camera = _member(_CAMERAS, CameraId, json_key(d, "camera", path), path)
    frame_count = json_int(json_key(d, "frame_count", path), "frame_count", path)
    width = json_int(json_key(d, "width", path), "width", path)
    height = json_int(json_key(d, "height", path), "height", path)
    uri = json_key(d, "uri", path)
    if not isinstance(uri, str):
        raise SchemaError("uri must be a string", path=path)
    try:
        return MediaRef(kind, camera, frame_count, width, height, uri)
    except ValueError as exc:
        raise SchemaError(str(exc), path=path) from None


def qa_from_dict(d: dict[str, Any], path: str = "qa") -> QAPair:
    if not isinstance(d, dict):
        raise SchemaError("qa entry must be an object", path=path)
    question = json_key(d, "question", path)
    answer = json_key(d, "answer", path)
    if not isinstance(question, str) or not isinstance(answer, str):
        raise SchemaError("question/answer must be strings", path=path)
    style = _member(_STYLES, QAStyle, d.get("style", "open"), path)
    provenance = _member(_PROVENANCES, Provenance, d.get("provenance", "original"), path)
    options = None
    raw = d.get("options")
    if raw is not None:
        if not isinstance(raw, list):
            raise SchemaError("options must be a list", path=path)
        pairs = []
        for item in raw:
            if not (isinstance(item, (list, tuple)) and len(item) == 2
                    and all(isinstance(x, str) for x in item)):
                raise SchemaError(f"option entries must be [label, text], got {item!r}",
                                  path=path)
            pairs.append((item[0], item[1]))
        options = tuple(pairs)
    return QAPair(question, answer, style, provenance, options)


def sample_from_dict(d: dict[str, Any], path: str = "sample") -> Sample:
    if not isinstance(d, dict):
        raise SchemaError("sample must be an object", path=path)
    sid = json_key(d, "id", path)
    if not isinstance(sid, str):
        raise SchemaError("id must be a string", path=path)
    dataset = _member(_DATASETS, DatasetId, json_key(d, "dataset", path), path)
    media_raw = json_key(d, "media", path)
    qa_raw = json_key(d, "qa", path)
    if not isinstance(media_raw, list) or not isinstance(qa_raw, list):
        raise SchemaError("media and qa must be lists", path=path)
    media = tuple(media_from_dict(m, f"{path}.media[{i}]") for i, m in enumerate(media_raw))
    qa = tuple(qa_from_dict(q, f"{path}.qa[{i}]") for i, q in enumerate(qa_raw))
    tags_raw = d.get("task_tags", [])
    if not isinstance(tags_raw, list) or not all(isinstance(t, str) for t in tags_raw):
        raise SchemaError("task_tags must be a list of strings", path=path)
    return Sample(sid, dataset, media, qa, frozenset(tags_raw))


def decode_json(text: str, line: int | None = None) -> Any:
    """``json.loads`` with every failure a SchemaError naming ``line``, or
    else the line a JSONDecodeError reports. Besides JSONDecodeError,
    ``json.loads`` raises a plain ValueError for an integer literal over
    Python's int-string limit (4300 digits), which knows no line."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}",
                          line=exc.lineno if line is None else line) from None
    except ValueError as exc:
        raise SchemaError(f"invalid JSON: {exc}", line=line) from None


def sample_from_json(line: str) -> Sample:
    """One manifest line; errors name no line, which the reader adds."""
    try:
        payload = json.loads(line)
    except ValueError as exc:  # see decode_json
        raise SchemaError(f"invalid JSON: {getattr(exc, 'msg', exc)}") from None
    return sample_from_dict(payload)


def assert_unique_ids(samples: Iterable[Sample]) -> None:
    seen: set[str] = set()
    for s in samples:
        if s.id in seen:
            raise SchemaError(f"duplicate sample id {s.id!r}")
        seen.add(s.id)


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[TextIO]:
    """Open ``path`` for UTF-8 text with ``\\n`` line ends, replacing it only
    once the block completes.

    The text goes to a temp file next to ``path`` (parent directories are
    created) and is moved onto ``path`` with ``os.replace``. If the block
    raises, the temp file is deleted and ``path`` keeps its old content, or
    stays absent, so a crash never leaves a short file behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
