import json
import math
import random

import numpy as np
import pytest

from dataforge.core import CameraId, DatasetId, MediaKind, sample_to_json
from dataforge.errors import SchemaError
from dataforge.ingest import (
    BevGridConfig,
    LidarPoint,
    parse_source,
    project_lidar_bev,
    read_manifest,
    write_manifest,
)
from dataforge.tokens import scan_object_refs

from helpers import random_mixed_sample


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
        assert parse_source(ds, b"[]") == []


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
    [ref] = scan_object_refs(s.qa[0].question)
    assert ref.camera is CameraId.CAM_BACK
    assert ref.geometry.as_tuple() == (1088.3, 497.5)
    assert not ref.is_normalized


def test_nuinstruct_adapter_preserves_raw_token():
    [s] = parse_source(DatasetId.NUINSTRUCT, json.dumps([NUINSTRUCT_RECORD]))
    assert s.id == "nuinstruct/42"
    assert len(s.media) == 6
    [ref] = scan_object_refs(s.qa[0].answer)
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


def test_invalid_utf8_bytes_is_schema_error():
    with pytest.raises(SchemaError) as exc_info:
        parse_source(DatasetId.CODA_LM, b'[{"id": "\xff"}]')
    assert "not valid UTF-8" in exc_info.value.reason


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
