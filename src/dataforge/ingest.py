"""Parse per-dataset source annotation files into canonical samples.

Each dataset keeps its native annotation style (field names, token grammar);
the adapters here translate those into Samples without touching token text —
coordinate/token rewriting belongs to standardize. Also hosts the LiDAR
bird's-eye-view rasterizer (the only user of numpy, imported there so that no
CLI call pays for it) and JSONL manifest I/O.

``stages`` builds a source's records in shares, decoding one record at a
time with ``_array_items`` and checking it with ``_checked``; on any fault it
falls back to ``build_samples``, which reads the text whole and so names the
fault a whole-file read meets first.

Source schemas are documented in docs/source-schemas.md with one fixture each.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence, TextIO

from .core import (
    CAMERA_RANK,
    CameraId,
    DatasetId,
    MediaKind,
    MediaRef,
    NUSCENES_CAMERAS,
    Provenance,
    QAPair,
    QAStyle,
    Sample,
    _CAMERAS,
    _member,
    _scan_value,
    assert_unique_ids,
    atomic_writer,
    decode_json,
    image_ref,
    json_int,
    json_key,
    json_list,
    json_object,
    json_str,
    map_camera_id,
    sample_from_dict,
    sample_from_json,
    sample_to_json,
    validate_sample,
    video_ref,
)
from .errors import DataforgeError, SchemaError

if TYPE_CHECKING:
    import numpy as np


# ---------------------------------------------------------------------------
# Record field helpers. build_samples adds the record index to their errors.
# ---------------------------------------------------------------------------

def _req(rec: dict[str, Any], key: str, read: Callable[..., Any] = json_str) -> Any:
    """``rec[key]``, checked by the core reader ``read``."""
    return read(json_key(rec, key, key), key, key)


def _tags(rec: dict[str, Any], key: str = "tags") -> frozenset[str]:
    raw = rec.get(key, [])
    if isinstance(raw, str):
        raw = [raw]
    if not isinstance(raw, list) or not all(isinstance(t, str) for t in raw):
        raise SchemaError("tags must be a string or list of strings", path=key)
    return frozenset(raw)


def _qa_list(entries: Any, path: str,
             q_key: str = "question", a_key: str = "answer") -> list[QAPair]:
    out = []
    for k, entry in enumerate(json_list(entries, path, path)):
        where = f"{path}[{k}]"
        json_object(entry, "QA entry", where)
        out.append(QAPair(json_str(json_key(entry, q_key, where), q_key, where),
                          json_str(json_key(entry, a_key, where), a_key, where)))
    return out


# ---------------------------------------------------------------------------
# Per-dataset adapters (source record -> Sample)
# ---------------------------------------------------------------------------

def _parse_coda_lm(rec: dict[str, Any]) -> Sample:
    sid = _req(rec, "id")
    img = _req(rec, "image", json_object)
    media = (image_ref(CameraId.FRONT_ONLY, _req(img, "width", json_int),
                       _req(img, "height", json_int), _req(img, "path")),)
    qa = _qa_list(_req(rec, "qa", json_list), "qa")
    return Sample(f"coda_lm/{sid}", DatasetId.CODA_LM, media, tuple(qa), _tags(rec, "task"))


def _parse_maplm(rec: dict[str, Any]) -> Sample:
    sid = _req(rec, "frame_id")
    media = (image_ref(CameraId.FRONT_ONLY, _req(rec, "width", json_int),
                       _req(rec, "height", json_int), _req(rec, "image")),)
    qa = []
    for k, pair in enumerate(_req(rec, "qa_pairs", json_list)):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(x, str) for x in pair)):
            raise SchemaError("qa_pairs entries must be [question, answer]",
                              path=f"qa_pairs[{k}]")
        qa.append(QAPair(pair[0], pair[1]))
    return Sample(f"maplm/{sid}", DatasetId.MAPLM, media, tuple(qa), _tags(rec))


def _parse_lingoqa(rec: dict[str, Any]) -> Sample:
    sid = _req(rec, "segment_id")
    vid = _req(rec, "video", json_object)
    media = (video_ref(CameraId.FRONT_ONLY, _req(vid, "frames", json_int),
                       _req(vid, "width", json_int), _req(vid, "height", json_int),
                       _req(vid, "path")),)
    qa = (QAPair(_req(rec, "question"), _req(rec, "answer")),)
    return Sample(f"lingoqa/{sid}", DatasetId.LINGOQA, media, qa, _tags(rec))


def _surround_images(images: dict[str, Any], width: int, height: int,
                     path: str) -> tuple[MediaRef, ...]:
    media = []
    for name, uri in images.items():
        camera = _member(_CAMERAS, CameraId, name, path)
        media.append(image_ref(camera, width, height,
                               json_str(uri, "image path", f"{path}.{name}")))
    media.sort(key=lambda m: CAMERA_RANK[m.camera])
    return tuple(media)


def _parse_drivelm(rec: dict[str, Any]) -> Sample:
    sid = _req(rec, "scene_id")
    media = _surround_images(_req(rec, "images", json_object), _req(rec, "width", json_int),
                             _req(rec, "height", json_int), "images")
    sections = _req(rec, "qa", json_object)
    qa: list[QAPair] = []
    for section, entries in sections.items():
        qa.extend(_qa_list(entries, f"qa.{section}", q_key="q", a_key="a"))
    return Sample(f"drivelm/{sid}", DatasetId.DRIVELM, media, tuple(qa),
                  frozenset(sections))


def _parse_omnidrive(rec: dict[str, Any]) -> Sample:
    sid = _req(rec, "token")
    width = _req(rec, "width", json_int)
    height = _req(rec, "height", json_int)
    cameras = _req(rec, "cameras", json_list)
    if len(cameras) != 6 or not all(isinstance(c, str) for c in cameras):
        raise SchemaError("cameras must list six image paths in surround order",
                          path="cameras")
    media = tuple(image_ref(cam, width, height, uri)
                  for cam, uri in zip(NUSCENES_CAMERAS, cameras))
    qa = _qa_list(_req(rec, "conversation", json_list), "conversation")
    return Sample(f"omnidrive/{sid}", DatasetId.OMNIDRIVE, media, tuple(qa), _tags(rec))


def _parse_nuinstruct(rec: dict[str, Any]) -> Sample:
    sid = _req(rec, "sample_id")
    width = _req(rec, "width", json_int)
    height = _req(rec, "height", json_int)
    media = []
    for raw_id, uri in _req(rec, "views", json_object).items():
        try:
            camera = map_camera_id(raw_id, DatasetId.NUINSTRUCT)
        except DataforgeError:
            raise SchemaError(f"unknown view id {raw_id!r}", path="views") from None
        media.append(image_ref(camera, width, height,
                               json_str(uri, "view path", f"views.{raw_id}")))
    media.sort(key=lambda m: CAMERA_RANK[m.camera])
    qas_raw = _req(rec, "qas", json_list)
    qa = _qa_list(qas_raw, "qas")
    tags = frozenset(e["task"] for e in qas_raw if isinstance(e.get("task"), str))
    return Sample(f"nuinstruct/{sid}", DatasetId.NUINSTRUCT, tuple(media), tuple(qa), tags)


def _parse_generic(rec: dict[str, Any]) -> Sample:
    s = sample_from_dict(rec)
    sid = s.id if s.id.startswith("generic/") else f"generic/{s.id}"
    return Sample(sid, DatasetId.GENERIC, s.media, s.qa, s.task_tags)


_ADAPTERS: dict[DatasetId, Callable[[dict[str, Any]], Sample]] = {
    DatasetId.CODA_LM: _parse_coda_lm,
    DatasetId.MAPLM: _parse_maplm,
    DatasetId.DRIVELM: _parse_drivelm,
    DatasetId.LINGOQA: _parse_lingoqa,
    DatasetId.OMNIDRIVE: _parse_omnidrive,
    DatasetId.NUINSTRUCT: _parse_nuinstruct,
    DatasetId.GENERIC: _parse_generic,
}


_skip_space = re.compile(r"[ \t\n\r]*").match  # JSON whitespace


def _array_items(text: str) -> Iterator[Any]:
    """Each element of the JSON array ``text``, decoded one at a time.
    Raises, though not always as ``json.loads`` would, on any text that it
    would not read as one array."""
    end = _skip_space(text, 0).end()
    if text[end:end + 1] != "[":
        raise ValueError("not an array")
    end = _skip_space(text, end + 1).end()
    if text[end:end + 1] == "]":
        end = _skip_space(text, end + 1).end()
    else:
        while True:
            item, end = _scan_value(text, end)
            yield item
            end = _skip_space(text, end).end()
            glue = text[end:end + 1]
            end = _skip_space(text, end + 1).end()
            if glue == "]":
                break
            if glue != ",":
                raise ValueError("no separator")
    if end != len(text):
        raise ValueError("extra data")


def _checked(build: Callable[[dict[str, Any]], Sample], rec: Any, idx: int) -> Sample:
    """``build(rec)``, validated; a fault raises SchemaError naming record ``idx``."""
    try:
        sample = build(json_object(rec, "record"))
    except SchemaError as exc:
        raise exc.at(record_index=idx) from None
    except (DataforgeError, ValueError) as exc:  # ValueError: a MediaRef rule
        raise SchemaError(str(exc), record_index=idx) from None
    violations = validate_sample(sample)
    if violations:
        v = violations[0]
        raise SchemaError(f"invalid sample ({v.rule}): {v.detail}",
                          record_index=idx, path=v.field)
    return sample


def build_samples(text: str, build: Callable[[dict[str, Any]], Sample]) -> list[Sample]:
    """The sample ``build`` makes from each record of the JSON array
    ``text``, each checked with ``validate_sample``.

    All-or-nothing: the first fault raises SchemaError naming its record;
    invalid JSON anywhere in ``text`` comes before any record's fault, since
    the text is decoded whole before the first record is built.
    """
    data = decode_json(text)
    if type(data) is not list:
        raise SchemaError("input must be a JSON array")
    return [_checked(build, rec, idx) for idx, rec in enumerate(data)]


def parse_source(adapter: DatasetId, payload: str) -> list[Sample]:
    """Parse one source annotation file, a JSON array of records, through
    ``build_samples`` with ``adapter``; no id may repeat."""
    samples = build_samples(payload, _ADAPTERS[adapter])
    assert_unique_ids(samples)
    return samples


# ---------------------------------------------------------------------------
# LiDAR bird's-eye-view rasterization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LidarPoint:
    x: float
    y: float
    z: float
    intensity: float = 0.0

    def __post_init__(self) -> None:
        for v in (self.x, self.y, self.z, self.intensity):
            if not math.isfinite(v):
                raise ValueError(f"non-finite lidar point component: {v!r}")


@dataclass(frozen=True)
class BevGridConfig:
    x_range: float = 50.0
    y_range: float = 50.0
    cell_size: float = 0.25
    mode: str = "occupancy"  # occupancy | max_intensity

    def __post_init__(self) -> None:
        if self.cell_size <= 0 or self.x_range <= 0 or self.y_range <= 0:
            raise ValueError("ranges and cell_size must be positive")
        if self.mode not in ("occupancy", "max_intensity"):
            raise ValueError(f"unknown BEV mode {self.mode!r}")

    @property
    def dims(self) -> tuple[int, int]:
        """(rows, cols) = (y cells, x cells)."""
        return (math.ceil(2 * self.y_range / self.cell_size),
                math.ceil(2 * self.x_range / self.cell_size))


def project_lidar_bev(points: Sequence[LidarPoint],
                      cfg: BevGridConfig = BevGridConfig(),
                      uri: str = "lidar/bev") -> tuple[np.ndarray, MediaRef]:
    """Rasterize ego-frame points onto a top-down grid.

    Cell (row, col) covers y ∈ [row·s − y_range, (row+1)·s − y_range) and the
    analogous x slab; the ego origin lands in the central cell. Values are in
    [0, 1]: occupancy flags or per-cell max intensity.
    """
    import numpy as np

    rows, cols = cfg.dims
    raster = np.zeros((rows, cols), dtype=np.float64)
    media = MediaRef(MediaKind.IMAGE, CameraId.LIDAR_BEV, 1, cols, rows, uri)
    if not points:
        return raster, media

    xs = np.array([p.x for p in points])
    ys = np.array([p.y for p in points])
    ix = np.floor((xs + cfg.x_range) / cfg.cell_size).astype(np.int64)
    iy = np.floor((ys + cfg.y_range) / cfg.cell_size).astype(np.int64)
    keep = (ix >= 0) & (ix < cols) & (iy >= 0) & (iy < rows)
    if cfg.mode == "occupancy":
        raster[iy[keep], ix[keep]] = 1.0
    else:
        intensity = np.array([p.intensity for p in points])
        np.maximum.at(raster, (iy[keep], ix[keep]), intensity[keep])
    return raster, media


# ---------------------------------------------------------------------------
# Manifest I/O
# ---------------------------------------------------------------------------

def write_manifest(samples: Iterable[Sample], path: str | Path) -> None:
    """Write samples as JSONL sorted by id; identical inputs (any order)
    produce byte-identical files. The file is replaced atomically."""
    ordered = sorted(samples, key=lambda s: s.id)
    assert_unique_ids(ordered)
    with atomic_writer(path) as fh:
        for s in ordered:
            fh.write(sample_to_json(s))
            fh.write("\n")


def decode_manifest(fh: TextIO) -> Iterator[Sample]:
    """Yield the samples of the manifest text ``fh`` in order, decoding one
    line at a time, with lines numbered from 1; ``fh`` is closed at the end.

    A manifest is sorted by id with no id twice, as ``write_manifest`` writes
    it. Each id must be strictly greater than the one before; otherwise, as
    for a line that does not decode, iteration raises SchemaError naming the
    line.
    """
    previous = None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                raise SchemaError("blank manifest line", line=lineno)
            try:
                sample = sample_from_json(line)
            except SchemaError as exc:
                raise exc.at(line=lineno) from None
            if previous is not None and sample.id <= previous:
                if sample.id == previous:
                    raise SchemaError(f"duplicate sample id {sample.id!r}",
                                      line=lineno)
                raise SchemaError(f"manifest not sorted by id: {sample.id!r} "
                                  f"follows {previous!r}", line=lineno)
            previous = sample.id
            yield sample


def read_manifest(path: str | Path) -> list[Sample]:
    """Every sample of a manifest, checked by ``decode_manifest``."""
    return list(decode_manifest(open(path, "r", encoding="utf-8")))
