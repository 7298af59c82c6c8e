import io
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dataforge import stages
from dataforge.core import (CameraId, DatasetId, MediaKind, decode_json, sample_from_dict,
                            sample_to_json)
from dataforge.errors import SchemaError
from dataforge.ingest import (
    _ADAPTERS,
    BevGridConfig,
    LidarPoint,
    build_samples,
    decode_manifest,
    parse_source,
    project_lidar_bev,
    read_manifest,
    write_manifest,
)

from helpers import object_refs, plain_sample, random_mixed_sample


# --- adapters ------------------------------------------------------------------

CODA_RECORD = {
    "id": "0001",
    "image": {"path": "images/0001.jpg", "width": 1280, "height": 720},
    "qa": [{"question": "Describe the hazards ahead.",
            "answer": "A <cone>[640.0, 360.0] blocks the lane."}],
    "task": "general_perception",
}

MAPLM_RECORD = {
    "frame_id": "FR1",
    "image": "frames/fr1.jpg", "width": 1024, "height": 576,
    "qa_pairs": [["How many lanes are there?", "4"],
                 ["Is there a crosswalk?", "Yes"]],
    "tags": ["lane_counting"],
}

LINGO_RECORD = {
    "segment_id": "seg-9",
    "video": {"path": "clips/seg-9.mp4", "frames": 5, "width": 1280, "height": 720},
    "question": "What should the driver do?",
    "answer": "Brake gently for the pedestrian.",
    "tags": ["action"],
}

DRIVELM_RECORD = {
    "scene_id": "scene-1",
    "width": 1600, "height": 900,
    "images": {"CAM_FRONT": "a.jpg", "CAM_BACK": "b.jpg"},
    "qa": {"perception": [{"q": "What is <c6, CAM_BACK, 1088.3, 497.5>?",
                           "a": "A parked truck."}],
           "planning": [{"q": "Safe to turn?", "a": "Yes"}]},
}

OMNI_RECORD = {
    "token": "tok-1",
    "width": 1600, "height": 900,
    "cameras": ["f.jpg", "fl.jpg", "fr.jpg", "b.jpg", "bl.jpg", "br.jpg"],
    "conversation": [{"question": "Plan the next maneuver.",
                      "answer": "Keep lane at current speed."}],
    "tags": ["planning"],
}

NUINSTRUCT_RECORD = {
    "sample_id": "42",
    "width": 1600, "height": 900,
    "views": {"c1": "v1.jpg", "c2": "v2.jpg", "c3": "v3.jpg",
              "c4": "v4.jpg", "c5": "v5.jpg", "c6": "v6.jpg"},
    "qas": [{"question": "What is the status of the car?",
             "answer": "The <car>[c6, 139, 343, 1511, 900] is parked.",
             "task": "perception"}],
}


def test_empty_array_yields_empty_list():
    for ds in DatasetId:
        assert parse_source(ds, "[]") == []


def test_coda_lm_adapter():
    [s] = parse_source(DatasetId.CODA_LM, json.dumps([CODA_RECORD]))
    assert s.id == "coda_lm/0001"
    assert s.dataset is DatasetId.CODA_LM
    assert s.media[0].camera is CameraId.FRONT_ONLY
    assert s.task_tags == {"general_perception"}


def test_maplm_adapter():
    [s] = parse_source(DatasetId.MAPLM, json.dumps([MAPLM_RECORD]))
    assert s.id == "maplm/FR1"
    assert len(s.qa) == 2
    assert s.qa[0].question == "How many lanes are there?"


def test_lingoqa_adapter_builds_video_media():
    [s] = parse_source(DatasetId.LINGOQA, json.dumps([LINGO_RECORD]))
    m = s.media[0]
    assert m.kind is MediaKind.VIDEO and m.frame_count == 5
    assert m.camera is CameraId.FRONT_ONLY


def test_drivelm_adapter_preserves_angle_token():
    [s] = parse_source(DatasetId.DRIVELM, json.dumps([DRIVELM_RECORD]))
    assert s.id == "drivelm/scene-1"
    assert s.task_tags == {"perception", "planning"}
    assert [m.camera for m in s.media] == [CameraId.CAM_FRONT, CameraId.CAM_BACK]
    [ref] = object_refs(s.qa[0].question)
    assert ref.camera is CameraId.CAM_BACK
    assert ref.geometry.as_tuple() == (1088.3, 497.5)
    assert not ref.is_normalized


def test_nuinstruct_adapter_preserves_raw_token():
    [s] = parse_source(DatasetId.NUINSTRUCT, json.dumps([NUINSTRUCT_RECORD]))
    assert s.id == "nuinstruct/42"
    assert len(s.media) == 6
    [ref] = object_refs(s.qa[0].answer)
    assert ref.raw_camera == "c6"
    assert ref.camera is None
    assert ref.geometry.as_tuple() == (139, 343, 1511, 900)


def test_omnidrive_adapter_orders_cameras():
    [s] = parse_source(DatasetId.OMNIDRIVE, json.dumps([OMNI_RECORD]))
    assert [m.camera for m in s.media] == [
        CameraId.CAM_FRONT, CameraId.CAM_FRONT_LEFT, CameraId.CAM_FRONT_RIGHT,
        CameraId.CAM_BACK, CameraId.CAM_BACK_LEFT, CameraId.CAM_BACK_RIGHT,
    ]


def test_generic_adapter_round_trips_canonical_records():
    rng = random.Random(0)
    s = random_mixed_sample(rng, 7)
    rec = json.loads(sample_to_json(s))
    [out] = parse_source(DatasetId.GENERIC, json.dumps([rec]))
    assert out.id == f"generic/{s.id}"
    assert out.qa == s.qa and out.media == s.media


def test_malformed_record_is_all_or_nothing():
    bad = dict(CODA_RECORD, id="0002")
    del bad["image"]
    payload = json.dumps([CODA_RECORD, bad])
    with pytest.raises(SchemaError) as exc_info:
        parse_source(DatasetId.CODA_LM, payload)
    assert exc_info.value.record_index == 1
    assert exc_info.value.path == "image"


def test_duplicate_source_ids_rejected():
    with pytest.raises(SchemaError):
        parse_source(DatasetId.CODA_LM, json.dumps([CODA_RECORD, CODA_RECORD]))


def test_unknown_camera_name_rejected():
    rec = dict(DRIVELM_RECORD, images={"CAM_TOP": "x.jpg"})
    with pytest.raises(SchemaError) as exc_info:
        parse_source(DatasetId.DRIVELM, json.dumps([rec]))
    assert "CAM_TOP" in exc_info.value.reason


def test_invalid_token_geometry_rejected_at_ingest():
    # out-of-frame pixel box -> validate_sample violation -> SchemaError
    rec = dict(NUINSTRUCT_RECORD)
    rec = json.loads(json.dumps(rec))
    rec["qas"] = [{"question": "Q?", "answer": "<car>[c6, 0, 0, 2000, 900]",
                   "task": "perception"}]
    with pytest.raises(SchemaError) as exc_info:
        parse_source(DatasetId.NUINSTRUCT, json.dumps([rec]))
    assert "pixel" in exc_info.value.reason


def test_blank_token_category_rejected_at_ingest():
    rec = json.loads(json.dumps(NUINSTRUCT_RECORD))
    rec["qas"] = [{"question": "Q?", "answer": "<  >[c6, 10, 20, 30, 40]",
                   "task": "perception"}]
    with pytest.raises(SchemaError) as exc_info:
        parse_source(DatasetId.NUINSTRUCT, json.dumps([rec]))
    assert "(token_grammar)" in exc_info.value.reason
    assert "empty category" in exc_info.value.reason


def test_adapter_fuzz_never_partial(tmp_path):
    # structurally valid records parse; any single mutation that breaks the
    # schema raises SchemaError rather than producing partial output
    rng = random.Random(2024)
    for _ in range(50):
        rec = json.loads(json.dumps(MAPLM_RECORD))
        rec["frame_id"] = f"F{rng.randrange(10_000)}"
        victim = rng.choice(["frame_id", "image", "width", "qa_pairs"])
        del rec[victim]
        with pytest.raises(SchemaError):
            parse_source(DatasetId.MAPLM, json.dumps([rec]))


# --- the streaming source reader ------------------------------------------------

def _one_share(text, build):
    """The rows of the one-share reader, which decodes a record at a time."""
    return stages._rows([(build, text)], 0, 1)


def _whole_text_rows(text, build):
    """The rows of the reference reader, which decodes the whole array."""
    return sorted((s.id, sample_to_json(s) + "\n") for s in build_samples(text, build))


def _build_coda(rec):
    if "raise" in rec:
        raise LookupError("a fault no reader catches")
    return _ADAPTERS[DatasetId.CODA_LM](rec)


def _outcome(read, text):
    try:
        return read(text, _build_coda)
    except Exception as exc:
        return type(exc), str(exc)


_MISSING_IMAGE = {k: v for k, v in CODA_RECORD.items() if k != "image"}
_OFF_FRAME = dict(CODA_RECORD, qa=[{"question": "Where?", "answer": "<cone>[5000.0, 1.0]"}])
_GOOD = st.integers(0, 99).map(
    lambda i: json.dumps(dict(CODA_RECORD, id=f"{i:04d}"), indent=1))
_RECORD_FAULTS = st.sampled_from([
    json.dumps(_MISSING_IMAGE),                      # a build fault
    json.dumps(_OFF_FRAME),                          # a validation fault
    json.dumps({"raise": 1}),                        # a fault build_samples does not map
    "7", '"text"', "null", "[1, 2]",                 # not an object
])
_BAD_JSON = st.sampled_from([
    "1" * 5000,                                      # over the int-string limit
    json.dumps(CODA_RECORD).replace('"0001"', "9" * 5000, 1),
    "[" * 3000 + "]" * 3000,                         # nested too deeply
    "{", '{"id": "1",}', "tru", "NaN", "'x'",
])
_ELEMENTS = st.integers(0, 19).flatmap(
    lambda k: _GOOD if k < 12 else _RECORD_FAULTS if k < 19 else _BAD_JSON)
_SPACE = st.text(st.sampled_from(" \t\n\r"), max_size=3)


@st.composite
def _mutated_arrays(draw):
    items = draw(st.lists(_ELEMENTS, max_size=5))
    body = ",".join(draw(_SPACE) + item + draw(_SPACE) for item in items)
    if draw(st.integers(0, 7)) == 7:
        body += ","  # trailing comma
    text = f"{draw(_SPACE)}[{body}{draw(_SPACE)}]{draw(_SPACE)}"
    mutation = draw(st.sampled_from(["none"] * 4 + ["bom", "bare", "cut", "extra", "space"]))
    if mutation == "bom":
        text = "\ufeff" + text
    elif mutation == "bare":
        text = items[0] if items else "{}"
    elif mutation == "cut":
        text = text[:draw(st.integers(0, len(text)))]
    elif mutation == "extra":
        text += draw(st.sampled_from(["x", "[]", "]", ",", "0", " {}"]))
    elif mutation == "space":  # not JSON whitespace, anywhere
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(["\x0c", "\u00a0", "\v"])) + text[at:]
    return text


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_mutated_arrays())
@example("[]")
@example(" \t\n\r[ \n]\r\n")
@example("[,]")
@example(json.dumps([CODA_RECORD]) + "\n")
@example("\ufeff" + json.dumps([CODA_RECORD]))
@example(json.dumps([_MISSING_IMAGE])[:-1] + ", {]")
@example("[" + "[" * 3000 + "]" * 3000 + "]")
@example(f"[{json.dumps(_OFF_FRAME)}, {'1' * 5000}]")
@example("[] x")
def test_streaming_reader_agrees_with_the_whole_text_loop(text):
    # The one-share reader faults exactly where the whole-text loop faults,
    # and builds the same rows where it does not; which fault to name is left
    # to the whole-text loop, which ingest runs after any share fault.
    got, want = _outcome(_one_share, text), _outcome(_whole_text_rows, text)
    assert got == want if isinstance(want, list) else not isinstance(got, list)


@pytest.mark.parametrize("early", [_OFF_FRAME, _MISSING_IMAGE, 7])
def test_invalid_json_late_in_the_array_beats_an_early_bad_record(early):
    text = "[\n" + json.dumps(early) + ",\n" + json.dumps(CODA_RECORD) + ",\n{]\n"
    with pytest.raises(SchemaError) as exc_info:
        parse_source(DatasetId.CODA_LM, text)
    assert str(exc_info.value) == (
        "invalid JSON: Expecting property name enclosed in double quotes (line 4)")


def test_the_one_share_reader_holds_one_decoded_record_at_a_time():
    # Records are decoded one at a time, so the one-share reader peaks little
    # above the rows it returns; decoding the whole array before building the
    # first sample peaked at about 1.7 times them.
    text = json.dumps([
        dict(CODA_RECORD, id=f"{i:05d}",
             qa=[{"question": f"What should the driver watch for near cone {i}?",
                  "answer": f"A <cone>[{i % 1200}.0, 360.0] blocks lane {i % 4}."},
                 {"question": "Is the road wet?", "answer": "No."}])
        for i in range(2000)])
    build = _ADAPTERS[DatasetId.CODA_LM]
    stages._rows([(build, json.dumps([CODA_RECORD]))], 0, 1)  # warm-up: first-call caches
    tracemalloc.start()
    try:
        rows = stages._rows([(build, text)], 0, 1)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == 2000
    assert peak <= 1.25 * retained, (peak, retained)


# --- LiDAR BEV -------------------------------------------------------------------

def brute_force_bev(points, cfg):
    rows = math.ceil(2 * cfg.y_range / cfg.cell_size)
    cols = math.ceil(2 * cfg.x_range / cfg.cell_size)
    grid = [[0.0] * cols for _ in range(rows)]
    for p in points:
        col = math.floor((p.x + cfg.x_range) / cfg.cell_size)
        row = math.floor((p.y + cfg.y_range) / cfg.cell_size)
        if 0 <= col < cols and 0 <= row < rows:
            if cfg.mode == "occupancy":
                grid[row][col] = 1.0
            else:
                grid[row][col] = max(grid[row][col], p.intensity)
    return grid


def test_origin_point_lights_central_cell():
    raster, media = project_lidar_bev([LidarPoint(0, 0, 0, 1.0)])
    assert raster.shape == (400, 400)
    assert media.camera is CameraId.LIDAR_BEV
    assert media.width == 400 and media.height == 400
    assert raster[200, 200] == 1.0
    assert np.count_nonzero(raster) == 1


def test_out_of_range_point_leaves_raster_empty():
    cfg = BevGridConfig()
    raster, _ = project_lidar_bev([LidarPoint(cfg.x_range + 1.0, 0, 0)], cfg)
    assert not raster.any()


def test_empty_cloud_gives_zero_raster():
    raster, _ = project_lidar_bev([])
    assert raster.shape == (400, 400) and not raster.any()


def test_bev_matches_brute_force_both_modes():
    rng = random.Random(77)
    for mode in ("occupancy", "max_intensity"):
        cfg = BevGridConfig(x_range=5.0, y_range=4.0, cell_size=0.5, mode=mode)
        for _ in range(50):
            points = [LidarPoint(rng.uniform(-7, 7), rng.uniform(-6, 6),
                                 rng.uniform(-2, 2), rng.random())
                      for _ in range(100)]
            raster, _ = project_lidar_bev(points, cfg)
            expected = np.array(brute_force_bev(points, cfg))
            assert raster.shape == expected.shape
            assert np.array_equal(raster, expected)


def test_bev_translation_consistency():
    cfg = BevGridConfig(x_range=5.0, y_range=5.0, cell_size=0.5)
    rng = random.Random(11)
    points = [LidarPoint(rng.uniform(-4, 4), rng.uniform(-4, 4), 0.0)
              for _ in range(40)]
    base, _ = project_lidar_bev(points, cfg)
    shifted = [LidarPoint(p.x + cfg.cell_size, p.y, p.z) for p in points]
    moved, _ = project_lidar_bev(shifted, cfg)
    assert np.array_equal(moved[:, 1:], base[:, :-1])


def test_lidar_point_rejects_non_finite():
    with pytest.raises(ValueError):
        LidarPoint(float("nan"), 0, 0)
    with pytest.raises(ValueError):
        LidarPoint(0, float("inf"), 0)


def test_bev_config_validation():
    with pytest.raises(ValueError):
        BevGridConfig(cell_size=0)
    with pytest.raises(ValueError):
        BevGridConfig(mode="histogram")


# --- manifest I/O ----------------------------------------------------------------

def test_manifest_round_trip(tmp_path):
    rng = random.Random(555)
    samples = [random_mixed_sample(rng, i) for i in range(20)]
    path = tmp_path / "m.jsonl"
    write_manifest(samples, path)
    assert read_manifest(path) == sorted(samples, key=lambda s: s.id)


def test_manifest_write_sorts_and_is_deterministic(tmp_path):
    rng = random.Random(556)
    samples = [random_mixed_sample(rng, i) for i in range(12)]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_manifest(samples, a)
    rng2 = random.Random(8)
    shuffled = samples[:]
    rng2.shuffle(shuffled)
    write_manifest(shuffled, b)
    assert a.read_bytes() == b.read_bytes()


def test_manifest_second_write_is_byte_identical(tmp_path):
    rng = random.Random(557)
    samples = [random_mixed_sample(rng, i) for i in range(5)]
    path = tmp_path / "m.jsonl"
    write_manifest(samples, path)
    first = path.read_bytes()
    write_manifest(read_manifest(path), path)
    assert path.read_bytes() == first


def test_truncated_line_names_line_number(tmp_path):
    rng = random.Random(558)
    samples = [random_mixed_sample(rng, i) for i in range(3)]
    path = tmp_path / "m.jsonl"
    write_manifest(samples, path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    lines[-1] = lines[-1][: len(lines[-1]) // 2]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as exc_info:
        read_manifest(path)
    assert exc_info.value.line == 3


def test_duplicate_ids_rejected_on_write(tmp_path):
    rng = random.Random(559)
    s = random_mixed_sample(rng, 1)
    with pytest.raises(SchemaError):
        write_manifest([s, s], tmp_path / "m.jsonl")


_LINE = sample_to_json(plain_sample(3))


@pytest.mark.parametrize("line", [
    _LINE + "\r",
    _LINE + " ",
    "\ufeff" + _LINE,
    _LINE.replace('"width": 1280', '"width": ' + "1" * 5000),
    _LINE.replace('"id": ', '"deep": ' + "[" * 3000 + "]" * 3000 + ', "id": '),
    _LINE.replace('"width": 1280', '"width": NaN'),
    _LINE.replace('"planning"', "NaN"),
    _LINE + " " + _LINE,
    _LINE,
], ids=["cr", "space", "bom", "digits", "deep", "nan-width", "nan-tag", "two-values",
        "plain"])
def test_a_manifest_line_decodes_as_the_whole_line_decoder_reads_it(line):
    # Lines decode through the C scanner; on any fault, or a line it does not
    # read to the end, the line is decoded whole, so value and text agree.
    try:
        want = [sample_from_dict(decode_json(line))]
    except SchemaError as exc:
        want = str(exc.at(line=1))
    try:
        got = list(decode_manifest(io.StringIO(line + "\n", newline="")))
    except SchemaError as exc:
        got = str(exc)
    assert got == want
