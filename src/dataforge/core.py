"""Domain types shared by all pipeline stages, plus structural validation.

Everything here is an immutable value object, declared with ``frozen_value``:
a frozen, slotted class, not a dataclass (``replace``, ``fields`` and ``asdict``
do not apply; assigning a field raises AttributeError). Only its ``__init__``
(one slot store per field: every manifest line builds several) and its field
tuple are generated per class; the rest lives once, on ``_FrozenValue``. The
canonical on-disk form is JSON Lines, one sample per line (``sample_to_json``
fixes the key order). ``sample_from_dict`` takes a decoded ``dict``, not a mapping.
"""

from __future__ import annotations

import errno
import json
import math
import os
import sys
from contextlib import contextmanager
from enum import Enum
from itertools import takewhile
from json.encoder import encode_basestring
from json.scanner import make_scanner
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, TextIO

from .errors import DataforgeError, SchemaError


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


class QAStyle(Enum):
    OPEN = "open"
    MULTIPLE_CHOICE = "multiple_choice"


class Provenance(Enum):
    ORIGINAL = "original"
    PARAPHRASE = "paraphrase"
    MC_TRANSFORM = "mc_transform"
    GENERATED_PERCEPTION = "generated_perception"


class _FrozenValue:
    """The methods every frozen_value class shares, over its own ``_fields`` tuple."""
    __slots__ = ()
    def __eq__(self, o):
        return self._fields() == o._fields() if o.__class__ is self.__class__ else NotImplemented
    def __hash__(self): return hash(self._fields())
    def __reduce__(self): return self.__class__, self._fields()
    def __setattr__(self, name, value): raise AttributeError(f"cannot assign to field {name!r}")
    def __delattr__(self, name): raise AttributeError(f"cannot delete field {name!r}")
    def __repr__(self):
        shown = ", ".join([f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields())])
        return f"{self.__class__.__qualname__}({shown})"


# The rest of a frozen_value class, made by one ``exec`` per class.
_METHODS = """\
def __init__(self, {params}):
    {body}
def _fields(self): return ({mine})
"""


def frozen_value(cls: type) -> type:
    """``cls`` rebuilt once as a frozen, slotted ``_FrozenValue`` with a frozen
    dataclass's methods, error texts and docstring, without the dataclass module's
    import and build cost, which every CLI call would pay. Only ``__init__``, which
    stores each field through its slot descriptor, and ``_fields`` are made per
    class. Raises TypeError for a ClassVar or InitVar annotation or ``field(...)`` default."""
    ns = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    fields = ns.get("__annotations__", {})  # name: annotation
    names = tuple(fields)
    defaults = {name: ns.pop(name) for name in names if name in ns}
    kinds = {str(a).split("[")[0].split(".")[-1].strip(" '>") for a in fields.values()}
    if {"ClassVar", "InitVar"} & kinds or any(  # "typing.ClassVar[int]", "<class 'x.InitVar'>"
            type(default).__module__.startswith("dataclass") for default in defaults.values()):
        raise TypeError(f"frozen_value takes plain fields only: {cls.__name__}")
    body = [f"_set_{n}(self, {n})" for n in names]
    body += ["self.__post_init__()"] if hasattr(cls, "__post_init__") else []
    env = {f"_default_{n}": value for n, value in defaults.items()}
    exec(_METHODS.format(
        params=", ".join(f"{n}=_default_{n}" if n in defaults else n for n in names),
        body="\n    ".join(body), mine="".join(f"self.{n}," for n in names)), env, methods := {})
    for method in methods.values():
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
    methods["__init__"].__annotations__ = fields | {"return": None}
    if not cls.__doc__:  # the signature; a class annotation is shown by its name
        ns["__doc__"] = cls.__name__ + "(" + ", ".join(
            f"{n}: {a.__qualname__ if isinstance(a, type) else repr(a)}"
            + (f" = {defaults[n]!r}" if n in defaults else "") for n, a in fields.items()) + ")"
    ns |= methods | {"__slots__": names, "__match_args__": names, "__qualname__": cls.__qualname__}
    made = type(cls)(cls.__name__, (_FrozenValue, *cls.__bases__), ns)
    env |= {f"_set_{n}": getattr(made, n).__set__ for n in names}
    return made


@frozen_value
class BBoxPx:
    """Axis-aligned box in pixel units, (x_min, y_min, x_max, y_max)."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


@frozen_value
class BBoxNorm:
    """Axis-aligned box with coordinates normalized to [0, 100]."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


@frozen_value
class PointPx:
    """Region center in pixel units."""

    x_center: float
    y_center: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.x_center, self.y_center)


@frozen_value
class PointNorm:
    """Region center with coordinates normalized to [0, 100]."""

    x_center: float
    y_center: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.x_center, self.y_center)


Geometry = BBoxPx | BBoxNorm | PointPx | PointNorm


@frozen_value
class ObjectRef:
    """A referenced scene object, parsed out of an embedded QA token.

    ``camera`` is None while the source token carries an unresolved raw camera
    id (kept in ``raw_camera``); standardization resolves it.
    """

    category: str
    camera: CameraId | None
    geometry: Geometry
    raw_camera: str | None = None

    @property
    def is_normalized(self) -> bool:
        return isinstance(self.geometry, (BBoxNorm, PointNorm))


@frozen_value
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


@frozen_value
class QAPair:
    question: str
    answer: str
    style: QAStyle = QAStyle.OPEN
    provenance: Provenance = Provenance.ORIGINAL
    options: tuple[tuple[str, str], ...] | None = None


@frozen_value
class Sample:
    """One training/eval record: media references plus a QA conversation."""

    id: str
    dataset: DatasetId
    media: tuple[MediaRef, ...]
    qa: tuple[QAPair, ...]
    task_tags: frozenset[str] = frozenset()


@frozen_value
class Violation:
    field: str
    rule: str
    detail: str


# The only raw camera ids in any source: NuInstruct numbers its surround
# views c1..c6, for its view keys and its QA tokens alike. Every other dataset
# names cameras canonically.
_RAW_CAMERA_IDS: dict[tuple[DatasetId, str], CameraId] = {
    (DatasetId.NUINSTRUCT, f"c{i}"): camera
    for i, camera in enumerate(NUSCENES_CAMERAS, start=1)
}


def map_camera_id(raw: str, dataset: DatasetId) -> CameraId:
    """Resolve a raw camera id of ``dataset``; raises DataforgeError."""
    try:
        return _RAW_CAMERA_IDS[dataset, raw]
    except KeyError:
        raise DataforgeError(f"unknown camera id: {raw!r}") from None


def media_sizes(sample: Sample) -> tuple[dict[str, tuple[int, int]],
                                         tuple[int, int] | None]:
    """Each camera's (width, height) by camera value, from its first media,
    and the one size every media shares (None if the sizes differ)."""
    sizes: dict[str, tuple[int, int]] = {}
    for m in sample.media:
        sizes.setdefault(m.camera._value_, (m.width, m.height))
    shared = {(m.width, m.height) for m in sample.media}
    return sizes, (next(iter(shared)) if len(shared) == 1 else None)


def resolve_token_size(ref: ObjectRef, dataset: DatasetId,
                       sizes: Mapping[str, tuple[int, int]],
                       uniform: tuple[int, int] | None
                       ) -> tuple[CameraId | None, tuple[int, int]]:
    """The camera a token names, a raw id resolved for ``dataset``, and the
    (width, height) its coordinates are read against: that camera's entry in
    ``sizes``, or ``uniform`` for a camera-less token (both as ``media_sizes``
    gives them). Raises DataforgeError if there is no such camera or size."""
    camera = ref.camera
    if camera is None and ref.raw_camera is not None:
        camera = map_camera_id(ref.raw_camera, dataset)
    if camera is not None:
        if camera._value_ not in sizes:
            raise DataforgeError(f"camera {camera} not present in sample media")
        return camera, sizes[camera._value_]
    if uniform is None:
        raise DataforgeError("camera-less token over media of mixed resolutions")
    return None, uniform


_MAX_SIDE = sys.float_info.max


def pixel_inside(geometry: BBoxPx | PointPx, width: float, height: float) -> bool:
    """True if pixel geometry lies in a ``width`` x ``height`` image, edges
    included; a box must also have x_min <= x_max and y_min <= y_max. Nothing
    lies in an image with a side above the largest float, which no coordinate
    can be normalized against."""
    if isinstance(geometry, BBoxPx):
        return (0 <= geometry.x_min <= geometry.x_max <= width <= _MAX_SIDE
                and 0 <= geometry.y_min <= geometry.y_max <= height <= _MAX_SIDE)
    return (0 <= geometry.x_center <= width <= _MAX_SIDE
            and 0 <= geometry.y_center <= height <= _MAX_SIDE)


def validate_sample(sample: Sample) -> list[Violation]:
    """Check every structural invariant; an empty list means the sample is valid.

    Tokens are checked in every text ``standardize_sample`` rewrites
    (question, answer and each option text), against the media each token
    resolves to, so a valid sample always standardizes; an option label may
    hold no token at all. Violations are data, not errors: the input is never
    mutated and malformed content never raises.
    """
    from . import tokens  # deferred: tokens depends on the types above

    out: list[Violation] = []

    if not sample.id:
        out.append(Violation("id", "non_empty", "sample id is empty"))
    if not sample.media:
        out.append(Violation("media", "non_empty", "sample carries no media"))
    if not sample.qa:
        out.append(Violation("qa", "non_empty", "sample carries no QA"))

    sizes = None  # media_sizes(sample), once a token needs it

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
        texts = [("question", qa.question), ("answer", qa.answer)]
        if qa.options:
            texts += [(f"options[{k}]", text) for k, (_, text) in enumerate(qa.options)]
            # standardize never rewrites a label, so a token there would no
            # longer match the rewritten answer
            out.extend(Violation(f"qa[{j}].options[{k}]", "mc_label_token",
                                 f"option label {label!r} holds an object token")
                       for k, (label, _) in enumerate(qa.options)
                       if tokens.scan_tokens(label))
        for field_name, text in texts:
            where = f"qa[{j}].{field_name}"
            for match in tokens.scan_tokens(text):
                if match.ref is None:
                    out.append(Violation(where, "token_grammar",
                                         f"malformed token {match.text!r}: {match.error}"))
                    continue
                sizes = sizes or media_sizes(sample)
                out.extend(_check_object_ref(match.ref, match.text, where, sample.dataset,
                                             *sizes))

    return out


def _check_object_ref(ref: ObjectRef, text: str, where: str, dataset: DatasetId,
                      sizes: Mapping[str, tuple[int, int]],
                      uniform: tuple[int, int] | None) -> list[Violation]:
    """The first rule one token, written as ``text``, breaks, if any."""
    geom = ref.geometry
    if isinstance(geom, (BBoxNorm, BBoxPx)) and (geom.x_min > geom.x_max
                                                 or geom.y_min > geom.y_max):
        return [Violation(where, "bbox_ordering", f"{type(geom).__name__} in "
                          f"{text!r} has x_min > x_max or y_min > y_max")]
    if ref.is_normalized and ref.camera is None:
        return []  # in [0, 100] already; standardize leaves it as it is
    try:
        _, (w, h) = resolve_token_size(ref, dataset, sizes, uniform)
    except DataforgeError as exc:
        return [Violation(where, "token_camera_in_media", f"token {text!r}: {exc}")]
    if ref.is_normalized or pixel_inside(geom, w, h):
        return []
    return [Violation(where, "pixel_bounds",
                      f"pixel geometry in {text!r} exceeds {w}x{h} image")]


# ---------------------------------------------------------------------------
# Serialization. Key order is part of the manifest contract and must not
# change: samples round-trip byte-identically through read/write. A line is
# the text json.JSONEncoder(ensure_ascii=False) gives, built directly: strings
# through its escaper, encode_basestring; enum values (``_value_`` skips the
# ``value`` property) as literal text, since none needs escaping.
# ---------------------------------------------------------------------------

def _media_json(m: MediaRef) -> str:
    return (f'{{"kind": "{m.kind._value_}", "camera": "{m.camera._value_}", '
            f'"frame_count": {m.frame_count!r}, "width": {m.width!r}, '
            f'"height": {m.height!r}, "uri": {encode_basestring(m.uri)}}}')


def _qa_json(qa: QAPair) -> str:
    head = (f'{{"question": {encode_basestring(qa.question)}, '
            f'"answer": {encode_basestring(qa.answer)}, "style": "{qa.style._value_}", '
            f'"provenance": "{qa.provenance._value_}"')
    if qa.options is None:
        return head + "}"
    options = ", ".join([f"[{encode_basestring(label)}, {encode_basestring(text)}]"
                         for label, text in qa.options])
    return f'{head}, "options": [{options}]}}'


def sample_to_json(s: Sample) -> str:
    """One manifest line, without its line end; task_tags are sorted."""
    return (f'{{"id": {encode_basestring(s.id)}, "dataset": "{s.dataset._value_}", '
            f'"media": [{", ".join(map(_media_json, s.media))}], '
            f'"qa": [{", ".join(map(_qa_json, s.qa))}], '
            f'"task_tags": [{", ".join(map(encode_basestring, sorted(s.task_tags)))}]}}')


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
# that owns a record places the error in it with ``SchemaError.at``. A bool
# is never a number. No reader takes **kwargs: the manifest decoder would pay
# for them.
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


def _fault(reason: str, d: dict[str, Any], *keys: str,
           path: str | None = None) -> SchemaError:
    """``missing key '<key>'`` for the first of ``keys`` that ``d`` lacks, else
    ``reason``."""
    missing = [key for key in keys if key not in d]
    return SchemaError(f"missing key {missing[0]!r}" if missing else reason, path=path)


def sample_from_dict(d: dict[str, Any]) -> Sample:
    """The sample a decoded manifest line or generic record describes.

    Each field is checked once, in this order: id, dataset, media, qa, then
    each media entry, each QA entry and task_tags. The first fault raises its
    SchemaError; an entry's fault names ``sample.media[i]`` or
    ``sample.qa[i]``, built only then. Absent style/provenance/options/task_tags
    take their defaults; unknown keys are ignored."""
    if type(d) is not dict:
        raise SchemaError("sample must be an object", path="sample")
    sid = d.get("id")
    if type(sid) is not str:
        raise _fault("id must be a string", d, "id", path="sample")
    try:
        dataset = _DATASETS[d["dataset"]]
    except (KeyError, TypeError):  # TypeError: an unhashable value such as [1]
        raise _fault(f"{d.get('dataset')!r} is not a valid DatasetId", d, "dataset",
                     path="sample") from None
    media_raw, qa_raw = d.get("media"), d.get("qa")
    if type(media_raw) is not list or type(qa_raw) is not list:
        raise _fault("media and qa must be lists", d, "media", "qa", path="sample")

    media: list[MediaRef] = []
    try:
        for m in media_raw:
            if type(m) is not dict:
                raise SchemaError("media entry must be an object")
            try:
                kind = _MEDIA_KINDS[m["kind"]]
            except (KeyError, TypeError):
                raise _fault(f"{m.get('kind')!r} is not a valid MediaKind", m,
                             "kind") from None
            try:
                camera = _CAMERAS[m["camera"]]
            except (KeyError, TypeError):
                raise _fault(f"{m.get('camera')!r} is not a valid CameraId", m,
                             "camera") from None
            n, w, h, uri = m.get("frame_count"), m.get("width"), m.get("height"), m.get("uri")
            if type(n) is not int:
                raise _fault(f"frame_count must be an integer, got {n!r}", m, "frame_count")
            if type(w) is not int:
                raise _fault(f"width must be an integer, got {w!r}", m, "width")
            if type(h) is not int:
                raise _fault(f"height must be an integer, got {h!r}", m, "height")
            if type(uri) is not str:
                raise _fault("uri must be a string", m, "uri")
            media.append(MediaRef(kind, camera, n, w, h, uri))
    except (SchemaError, ValueError) as exc:  # ValueError: a MediaRef rule
        raise SchemaError(str(exc), path=f"sample.media[{len(media)}]") from None

    qa: list[QAPair] = []
    try:
        for q in qa_raw:
            if type(q) is not dict:
                raise SchemaError("qa entry must be an object")
            question, answer = q.get("question"), q.get("answer")
            if type(question) is not str or type(answer) is not str:
                raise _fault("question/answer must be strings", q, "question", "answer")
            try:
                style = _STYLES[q.get("style", "open")]
            except (KeyError, TypeError):
                raise SchemaError(f"{q['style']!r} is not a valid QAStyle") from None
            try:
                provenance = _PROVENANCES[q.get("provenance", "original")]
            except (KeyError, TypeError):
                raise SchemaError(f"{q['provenance']!r} is not a valid Provenance") from None
            options = q.get("options")
            if options is not None:
                if type(options) is not list:
                    raise SchemaError("options must be a list")
                for item in options:
                    if (type(item) is not list or len(item) != 2
                            or type(item[0]) is not str or type(item[1]) is not str):
                        raise SchemaError(f"option entries must be [label, text], got {item!r}")
                options = tuple([(label, text) for label, text in options])
            qa.append(QAPair(question, answer, style, provenance, options))
    except SchemaError as exc:
        raise SchemaError(str(exc), path=f"sample.qa[{len(qa)}]") from None

    tags = d.get("task_tags", [])
    if type(tags) is not list:
        raise SchemaError("task_tags must be a list of strings", path="sample")
    for tag in tags:
        if type(tag) is not str:
            raise SchemaError("task_tags must be a list of strings", path="sample")
    return Sample(sid, dataset, tuple(media), tuple(qa), frozenset(tags))


def decode_json(text: str) -> Any:
    """``json.loads`` with every failure a SchemaError: a syntax fault names
    the line JSONDecodeError reports. ``json.loads`` also raises a plain
    ValueError for an integer literal over Python's int-string limit (4300
    digits) and RecursionError for nesting deeper than the recursion limit;
    neither knows a line."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    except ValueError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply") from None


# One JSON value decoded from an offset, in C, as ``json.loads`` decodes it.
_scan_value = make_scanner(json.JSONDecoder())


def decode_line(line: str) -> Any:
    """The JSON value of one JSONL line, its "\\n" end not counted. The C
    scanner reads it; if that raises or stops short of the line's end,
    ``decode_json`` decodes the line again, so a fault (and any whitespace
    around the value) reads as ``decode_json`` reads it."""
    text = line.rstrip("\n")
    try:
        value, end = _scan_value(text, 0)
    except Exception:  # StopIteration, RecursionError, the int-digit ValueError
        end = -1
    return value if end == len(text) else decode_json(line)


def sample_from_json(line: str) -> Sample:
    """One manifest line; the manifest reader puts its own line number on
    a fault."""
    return sample_from_dict(decode_line(line))


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
    stays absent, so a crash never leaves a short file behind; the parent
    directories this call made are removed again, deepest first, while they
    are empty. So are those it made before a ``mkdir`` that fails.
    """
    text = os.fspath(path) or "."
    if os.path.basename(text) in ("", ".", ".."):  # "/", "sub/", "..": a directory
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), text)
    path = Path(text)
    created = list(takewhile(lambda d: not d.exists(), path.parents))  # deepest first
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except BaseException:
        for directory in created:
            try:
                directory.rmdir()
            except FileNotFoundError:  # never made: a mkdir failed before it
                continue
            except OSError:  # something else was put there meanwhile
                break
        raise


def write_json(path: str | Path, payload: Any) -> None:
    """Write ``payload`` to ``path`` through ``atomic_writer`` as JSON indented
    by 2, non-ASCII kept as text, with a final newline."""
    with atomic_writer(path) as fh:
        fh.write(json.dumps(payload, ensure_ascii=False, indent=2) + "\n")
