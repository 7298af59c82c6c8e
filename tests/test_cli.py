import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

import dataforge

from dataforge.cli import main
from dataforge.core import atomic_writer, encode_json, sample_to_json
from dataforge.ingest import read_manifest, write_manifest
from dataforge.tokens import scan_object_refs

from helpers import plain_sample

NUINSTRUCT_SOURCE = [{
    "sample_id": "42",
    "width": 1600, "height": 900,
    "views": {"c1": "v1.jpg", "c2": "v2.jpg", "c3": "v3.jpg",
              "c4": "v4.jpg", "c5": "v5.jpg", "c6": "v6.jpg"},
    "qas": [{"question": "What is the status of the car?",
             "answer": "The <car>[c6, 139, 343, 1511, 900] is parked.",
             "task": "perception"}],
}]


def _coda_source(n=4):
    return [{
        "id": f"{i:04d}",
        "image": {"path": f"images/{i:04d}.jpg", "width": 1280, "height": 720},
        "qa": [{"question": "Describe the hazards ahead.",
                "answer": f"A cone blocks lane {i}."}],
        "task": "general_perception",
    } for i in range(n)]


def _maplm_source(n=3):
    return [{
        "frame_id": f"FR{i}",
        "image": f"frames/fr{i}.jpg", "width": 1024, "height": 576,
        "qa_pairs": [["How many lanes are there?", str(2 + i)]],
        "tags": ["lane_counting"],
    } for i in range(n)]


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "nuinstruct.json").write_text(json.dumps(NUINSTRUCT_SOURCE))
    (tmp_path / "coda.json").write_text(json.dumps(_coda_source()))
    (tmp_path / "maplm.json").write_text(json.dumps(_maplm_source()))
    return tmp_path


def _run(*argv):
    return main([str(a) for a in argv])


# -------------------------------------------------------------------- ingest

def test_ingest_single_adapter(workdir, capsys):
    out = workdir / "raw.jsonl"
    assert _run("ingest", "--adapter", "nuinstruct",
                "--in", workdir / "nuinstruct.json", "--out", out) == 0
    samples = read_manifest(out)
    assert [s.id for s in samples] == ["nuinstruct/42"]
    assert "1 samples" in capsys.readouterr().out


def test_ingest_from_config_sources(workdir, capsys):
    config = workdir / "config.json"
    config.write_text(json.dumps({
        "seed": 0,
        "sources": {"coda_lm": str(workdir / "coda.json"),
                    "maplm": str(workdir / "maplm.json")},
    }))
    out = workdir / "merged.jsonl"
    assert _run("ingest", "--config", config, "--out", out) == 0
    samples = read_manifest(out)
    assert len(samples) == 7
    assert {s.dataset.value for s in samples} == {"coda_lm", "maplm"}


def test_ingest_requires_a_source(workdir, capsys):
    assert _run("ingest", "--out", workdir / "x.jsonl") == 2
    assert "nothing to ingest" in capsys.readouterr().err


def test_ingest_adapter_without_in_is_config_error(workdir, capsys):
    assert _run("ingest", "--adapter", "coda_lm",
                "--out", workdir / "x.jsonl") == 2


def test_ingest_bad_source_is_data_error(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text(json.dumps([{"id": "1"}]))  # missing required fields
    assert _run("ingest", "--adapter", "coda_lm", "--in", bad,
                "--out", workdir / "x.jsonl") == 1
    assert "record 0" in capsys.readouterr().err


def test_missing_input_file_is_io_error(workdir, capsys):
    assert _run("ingest", "--adapter", "coda_lm",
                "--in", workdir / "nope.json", "--out", workdir / "x.jsonl") == 2


# --------------------------------------------------------------- standardize

def test_standardize_rewrites_reference_token(workdir):
    raw = workdir / "raw.jsonl"
    std = workdir / "std.jsonl"
    _run("ingest", "--adapter", "nuinstruct", "--in", workdir / "nuinstruct.json",
         "--out", raw)
    assert _run("standardize", "--in", raw, "--out", std) == 0
    text = std.read_text(encoding="utf-8")
    assert "<car>[CAM_BACK_RIGHT, 8.688, 38.111, 94.438, 100.000]" in text


def test_standardize_is_idempotent_byte_level(workdir):
    raw = workdir / "raw.jsonl"
    std1 = workdir / "std1.jsonl"
    std2 = workdir / "std2.jsonl"
    _run("ingest", "--adapter", "nuinstruct", "--in", workdir / "nuinstruct.json",
         "--out", raw)
    _run("standardize", "--in", raw, "--out", std1)
    assert _run("standardize", "--in", std1, "--out", std2) == 0
    assert std1.read_bytes() == std2.read_bytes()


def test_standardize_reports_bad_tokens_with_sample_id(workdir, capsys):
    source = [dict(NUINSTRUCT_SOURCE[0])]
    source[0] = dict(source[0],
                     qas=[{"question": "Where is it?",
                           "answer": "At <car>[c9, 1, 2, 3, 4].",
                           "task": "perception"}])
    (workdir / "badcam.json").write_text(json.dumps(source))
    raw = workdir / "raw.jsonl"
    _run("ingest", "--adapter", "nuinstruct", "--in", workdir / "badcam.json",
         "--out", raw)
    rc = _run("standardize", "--in", raw, "--out", workdir / "std.jsonl")
    assert rc == 1
    err = capsys.readouterr().err
    assert "nuinstruct/42" in err
    assert not (workdir / "std.jsonl").exists()


def test_standardize_nuinstruct_token_gets_its_views_camera(workdir):
    answer = " ".join(f"<car>[c{k}, 10, 20, 30, 40]" for k in range(1, 7))
    source = [dict(NUINSTRUCT_SOURCE[0],
                   qas=[{"question": "Where are the cars?", "answer": answer}])]
    (workdir / "six.json").write_text(json.dumps(source))
    raw = workdir / "raw.jsonl"
    std = workdir / "std.jsonl"
    assert _run("ingest", "--adapter", "nuinstruct", "--in", workdir / "six.json",
                "--out", raw) == 0
    assert _run("standardize", "--in", raw, "--out", std) == 0
    [ingested] = read_manifest(raw)
    view_camera = {m.uri: m.camera for m in ingested.media}
    [out] = read_manifest(std)
    cameras = [ref.camera for ref in scan_object_refs(out.qa[0].answer)]
    assert cameras == [view_camera[f"v{k}.jpg"] for k in range(1, 7)]
    assert len(set(cameras)) == 6


# ------------------------------------------------------------------- augment

def _ingest_coda(workdir):
    raw = workdir / "coda.jsonl"
    _run("ingest", "--adapter", "coda_lm", "--in", workdir / "coda.json",
         "--out", raw)
    return raw


def test_augment_expansion_factor(workdir, capsys):
    raw = _ingest_coda(workdir)
    out = workdir / "aug.jsonl"
    assert _run("augment", "--seed", 7, "--offline", "--in", raw,
                "--out", out) == 0
    samples = read_manifest(out)
    assert len(samples) == 20  # x5 for this dataset's policy
    originals = [s for s in samples if "#aug" not in s.id]
    assert len(originals) == 4


def test_augment_deterministic_across_runs(workdir):
    raw = _ingest_coda(workdir)
    outs = []
    for name in ("a", "b"):
        out = workdir / f"aug_{name}.jsonl"
        assert _run("augment", "--seed", 7, "--offline",
                    "--in", raw, "--out", out) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_augment_rejects_jobs_flag(workdir, capsys):
    raw = _ingest_coda(workdir)
    with pytest.raises(SystemExit) as exc:
        _run("augment", "--jobs", 2, "--offline", "--in", raw,
             "--out", workdir / "aug.jsonl")
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err
    assert not (workdir / "aug.jsonl").exists()


def test_augment_seed_changes_output(workdir):
    raw = _ingest_coda(workdir)
    out1 = workdir / "aug1.jsonl"
    out2 = workdir / "aug2.jsonl"
    _run("augment", "--seed", 7, "--offline", "--in", raw, "--out", out1)
    _run("augment", "--seed", 8, "--offline", "--in", raw, "--out", out2)
    assert out1.read_bytes() != out2.read_bytes()


def test_augment_refuses_its_own_output(workdir, capsys):
    raw = _ingest_coda(workdir)
    out = workdir / "aug.jsonl"
    _run("augment", "--seed", 7, "--offline", "--in", raw, "--out", out)
    rc = _run("augment", "--seed", 7, "--offline", "--in", out,
              "--out", workdir / "again.jsonl")
    assert rc == 1
    assert "#aug" in capsys.readouterr().err


def test_augment_flag_position_irrelevant(workdir):
    raw = _ingest_coda(workdir)
    out1 = workdir / "p1.jsonl"
    out2 = workdir / "p2.jsonl"
    assert _run("--seed", 7, "--offline", "augment", "--in", raw,
                "--out", out1) == 0
    assert _run("augment", "--in", raw, "--out", out2, "--seed", 7,
                "--offline") == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_offline_env_var(workdir, monkeypatch):
    raw = _ingest_coda(workdir)
    out_flag = workdir / "flag.jsonl"
    out_env = workdir / "env.jsonl"
    _run("augment", "--seed", 7, "--offline", "--in", raw, "--out", out_flag)
    monkeypatch.setenv("DATAFORGE_OFFLINE", "1")
    assert _run("augment", "--seed", 7, "--in", raw, "--out", out_env) == 0
    assert out_flag.read_bytes() == out_env.read_bytes()


def test_augment_custom_factors_via_config(workdir):
    raw = _ingest_coda(workdir)
    config = workdir / "config.json"
    config.write_text(json.dumps(
        {"seed": 7, "augment": {"factors": {"coda_lm": 3}, "mc_fraction": 0.0}}))
    out = workdir / "aug.jsonl"
    assert _run("augment", "--config", config, "--offline", "--in", raw,
                "--out", out) == 0
    samples = read_manifest(out)
    assert len(samples) == 12
    assert all(qa.style.value == "open" for s in samples for qa in s.qa)


# ------------------------------------------------------------ gen-perception

def test_gen_perception_deterministic(workdir):
    spec = [{
        "id": "percept/0001",
        "annotations": [{
            "camera": "FRONT_ONLY", "width": 1280, "height": 720,
            "uri": "img/1.jpg",
            "objects": [
                {"category": "car", "bbox": [100, 100, 400, 300]},
                {"category": "pedestrian", "bbox": [500, 200, 560, 380]},
            ],
        }],
    }]
    (workdir / "percept.json").write_text(json.dumps(spec))
    out1 = workdir / "p1.jsonl"
    out2 = workdir / "p2.jsonl"
    assert _run("gen-perception", "--seed", 3, "--in", workdir / "percept.json",
                "--out", out1) == 0
    assert _run("gen-perception", "--seed", 3, "--in", workdir / "percept.json",
                "--out", out2) == 0
    assert out1.read_bytes() == out2.read_bytes()
    (sample,) = read_manifest(out1)
    assert sample.qa[0].question.startswith("Detect all ")
    assert sample.qa[0].answer.startswith("Detected objects: ")


def test_gen_perception_bad_record(workdir, capsys):
    (workdir / "percept.json").write_text(json.dumps([{"id": "x"}]))
    assert _run("gen-perception", "--in", workdir / "percept.json",
                "--out", workdir / "p.jsonl") == 1


def test_gen_perception_duplicate_id(workdir, capsys):
    record = {
        "id": "percept/dup",
        "annotations": [{
            "camera": "FRONT_ONLY", "width": 1280, "height": 720,
            "uri": "img/1.jpg",
            "objects": [{"category": "car", "bbox": [100, 100, 400, 300]}],
        }],
    }
    (workdir / "percept.json").write_text(json.dumps([record, record]))
    out = workdir / "p.jsonl"
    assert _run("gen-perception", "--in", workdir / "percept.json",
                "--out", out) == 1
    assert "duplicate sample id" in capsys.readouterr().err
    assert not out.exists()


_FRONT_VIEW = {"camera": "FRONT_ONLY", "width": 1280, "height": 720,
               "uri": "img/1.jpg",
               "objects": [{"category": "car", "bbox": [100, 100, 400, 300]}]}


def _with_object(**fields):
    obj = dict(_FRONT_VIEW["objects"][0], **fields)
    return {"id": "p", "annotations": [dict(_FRONT_VIEW, objects=[obj])]}


@pytest.mark.parametrize("record,error", [
    ({"id": "p", "with_camera_prefix": True, "annotations": [_FRONT_VIEW]},
     "FRONT_ONLY is not a surround camera (record 0)"),
    ({"id": "p", "annotations": [dict(_FRONT_VIEW, camera="CAM_FRONT"),
                                 dict(_FRONT_VIEW, camera="CAM_BACK")]},
     "multi-view grounding requires camera-prefixed tokens (record 0)"),
    ({"id": "p", "annotations": []},
     "annotations must not be empty (record 0, at annotations)"),
    ({"id": "p", "with_camera_prefix": "false", "annotations": [_FRONT_VIEW]},
     "with_camera_prefix must be true or false, got 'false' "
     "(record 0, at with_camera_prefix)"),
    ({"id": "p", "frames_per_view": 1.9, "annotations": [_FRONT_VIEW]},
     "frames_per_view must be an integer >= 1, got 1.9 (record 0, at frames_per_view)"),
    ({"id": "p", "annotations": [dict(_FRONT_VIEW, width=100.7)]},
     "width must be an integer, got 100.7 (record 0, at annotations[0])"),
    ({"id": "p", "annotations": [dict(_FRONT_VIEW, height=True)]},
     "height must be an integer, got True (record 0, at annotations[0])"),
    ({"id": "p", "annotations": [dict(_FRONT_VIEW, frames="1")]},
     "frames must be an integer, got '1' (record 0, at annotations[0])"),
    ({"id": "p", "annotations": [dict(_FRONT_VIEW, uri=7)]},
     "uri must be a string, got 7 (record 0, at annotations[0])"),
    (_with_object(frame_index=0.0),
     "frame_index must be an integer, got 0.0 "
     "(record 0, at annotations[0].objects[0])"),
    (_with_object(category=["car"]),
     "category must be a string, got ['car'] "
     "(record 0, at annotations[0].objects[0])"),
    (_with_object(bbox=[100, 100, "400", 300]),
     "bbox coordinate must be a number, got '400' "
     "(record 0, at annotations[0].objects[0])"),
    (_with_object(bbox=[True, 100, 400, 300]),
     "bbox coordinate must be a number, got True "
     "(record 0, at annotations[0].objects[0])"),
    ({"id": 7, "annotations": [_FRONT_VIEW]},
     "id must be a string, got 7 (record 0, at id)"),
], ids=["front_only_prefixed", "two_views_unprefixed", "no_annotations",
        "prefix_string", "frames_per_view_float", "width_float", "height_bool",
        "frames_string", "uri_int", "frame_index_float", "category_list",
        "bbox_string", "bbox_bool", "id_int"])
def test_gen_perception_bad_record_is_one_error_line(workdir, capsys, record, error):
    (workdir / "percept.json").write_text(json.dumps([record]))
    out = workdir / "p.jsonl"
    assert _run("gen-perception", "--offline", "--in", workdir / "percept.json",
                "--out", out) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
    assert not out.exists()


@pytest.mark.parametrize("category", ["", "a>b", " car "],
                         ids=["empty", "angle_bracket", "padded"])
def test_gen_perception_rejects_category_a_token_cannot_read_back(workdir, capsys,
                                                                 category):
    (workdir / "percept.json").write_text(json.dumps([_with_object(category=category)]))
    out = workdir / "p.jsonl"
    assert _run("gen-perception", "--in", workdir / "percept.json", "--out", out) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: category must be non-blank, with no surrounding whitespace, "
        f"'<', '>', '[', ']' or newline, got {category!r} "
        "(record 0, at annotations[0].objects[0])"]
    assert not out.exists()


# ------------------------------------------------------------- build-prompts

def test_build_prompts_rows_and_budget(workdir):
    raw = workdir / "raw.jsonl"
    _run("ingest", "--adapter", "nuinstruct", "--in", workdir / "nuinstruct.json",
         "--out", raw)
    out = workdir / "prompts.jsonl"
    assert _run("build-prompts", "--in", raw, "--out", out) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 1
    row = rows[0]
    assert row["id"] == "nuinstruct/42"
    assert row["visual_tokens"] == 6 * 729
    assert row["placeholders"] == ["<image>"] * 6
    assert row["fits"] is True
    assert "View 1 (CAM_FRONT):" in row["prompt"]


def test_build_prompts_flags_overflow(workdir):
    cameras = ("CAM_FRONT", "CAM_FRONT_LEFT", "CAM_FRONT_RIGHT",
               "CAM_BACK", "CAM_BACK_LEFT", "CAM_BACK_RIGHT")
    twelve_views = {
        "id": "twelve", "dataset": "generic",
        "media": [{"kind": "image", "camera": cam, "uri": f"{cam}-{k}.jpg",
                   "width": 1600, "height": 900, "frame_count": 1}
                  for k in range(2) for cam in cameras],
        "qa": [{"question": "What next?", "answer": "Proceed."}],
        "task_tags": ["planning"],
    }
    (workdir / "generic.json").write_text(json.dumps([twelve_views]))
    raw = workdir / "raw.jsonl"
    assert _run("ingest", "--adapter", "generic", "--in", workdir / "generic.json",
                "--out", raw) == 0
    out = workdir / "prompts.jsonl"
    assert _run("build-prompts", "--in", raw, "--out", out) == 0
    (row,) = [json.loads(line) for line in out.read_text().splitlines()]
    assert row["visual_tokens"] == 12 * 729 == 8748
    assert row["fits"] is False
    assert row["limit"] == 8192


def _one_media_manifest(path, **media):
    line = {"id": "generic/1", "dataset": "generic",
            "media": [dict({"kind": "image", "camera": "FRONT_ONLY", "frame_count": 1,
                            "width": 64, "height": 48, "uri": "a.jpg"}, **media)],
            "qa": [{"question": "Where is it?", "answer": "<car>[0, 0, 0, 0]",
                    "style": "open", "provenance": "original"}],
            "task_tags": []}
    path.write_text(json.dumps(line) + "\n")


@pytest.mark.parametrize("command,media,error", [
    ("standardize", {"width": 0, "height": 0},
     "width must be an integer >= 1, got 0 (at sample.media[0], line 1)"),
    ("build-prompts", {"kind": "video", "frame_count": -40},
     "frame_count must be an integer >= 1, got -40 (at sample.media[0], line 1)"),
], ids=["standardize_zero_width", "build_prompts_negative_frames"])
def test_manifest_media_sizes_must_be_positive(workdir, capsys, command, media, error):
    manifest = workdir / "m.jsonl"
    _one_media_manifest(manifest, **media)
    out = workdir / "out.jsonl"
    assert _run(command, "--in", manifest, "--out", out) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
    assert not out.exists()


def test_ingest_zero_width_is_one_error_line(workdir, capsys):
    records = _coda_source(2)
    records[1]["image"]["width"] = 0
    (workdir / "coda0.json").write_text(json.dumps(records))
    out = workdir / "raw.jsonl"
    assert _run("ingest", "--adapter", "coda_lm", "--in", workdir / "coda0.json",
                "--out", out) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: width must be an integer >= 1, got 0 (record 1)"]
    assert not out.exists()


# ----------------------------------------------------------- plan-curriculum

def test_plan_curriculum_emits_four_plans(workdir, capsys):
    assert _run("plan-curriculum", "--out", workdir) == 0
    plans = sorted((workdir / "plans").glob("stage*.json"))
    assert [p.name for p in plans] == ["stage1.json", "stage2.json",
                                       "stage3.json", "stage4.json"]
    stage4 = json.loads(plans[3].read_text())
    assert sum(e["count"] for e in stage4["mix"]) == 1_515_631
    out = capsys.readouterr().out
    assert "stage 4: 1515631 samples" in out


def test_plan_curriculum_custom_registry(workdir, capsys):
    config = workdir / "config.json"
    config.write_text(json.dumps({
        "seed": 0,
        "registry": {"LCS-558K": 558000, "DriveLM": 1, "OmniDrive": 1,
                     "NuInstruct": 1, "CODA-LM": 1, "MAPLM": 1, "LingoQA": 1},
    }))
    rc = _run("plan-curriculum", "--config", config, "--out", workdir)
    assert rc == 1  # stage-4 total of 6 is far outside the expected band
    assert "stage 4" in capsys.readouterr().err


def test_plan_curriculum_missing_registry_entry(workdir, capsys):
    config = workdir / "config.json"
    config.write_text(json.dumps({"seed": 0, "registry": {"LCS-558K": 558000}}))
    assert _run("plan-curriculum", "--config", config, "--out", workdir) == 1


# ------------------------------------------------------------------ evaluate

def _write_preds(path):
    records = [
        {"sample_id": "a/1", "task": "classification",
         "predicted": "red", "gold": "Red"},
        {"sample_id": "a/2", "task": "classification",
         "predicted": "go", "gold": "stop"},
        {"sample_id": "a/3", "task": "regression", "predicted": 4, "gold": 6},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def test_evaluate_writes_report(workdir, capsys):
    preds = workdir / "preds.jsonl"
    _write_preds(preds)
    report_path = workdir / "report.json"
    assert _run("evaluate", "--in", preds, "--dataset", "coda_lm",
                "--out", report_path) == 0
    report = json.loads(report_path.read_text())
    assert report["dataset"] == "coda_lm"
    assert report["entries"]["accuracy"] == {"value": 0.5, "n_samples": 2}
    assert report["entries"]["mae"] == {"value": 2.0, "n_samples": 1}
    assert "accuracy: 0.500000 (n=2)" in capsys.readouterr().out


def test_evaluate_reports_line_numbers(workdir, capsys):
    preds = workdir / "preds.jsonl"
    good = {"sample_id": "a/1", "task": "classification",
            "predicted": "x", "gold": "x"}
    preds.write_text(json.dumps(good) + "\n" + "{broken\n")
    assert _run("evaluate", "--in", preds, "--dataset", "coda_lm") == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["3", '"text"', "[1, 2]", "null"])
def test_evaluate_non_object_record_is_data_error(workdir, capsys, line):
    preds = workdir / "preds.jsonl"
    preds.write_text(line + "\n")
    assert _run("evaluate", "--in", preds, "--dataset", "coda_lm") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: record must be a JSON object")
    assert "line 1" in err[0]


def test_evaluate_nan_regression_is_data_error(workdir, capsys):
    preds = workdir / "preds.jsonl"
    preds.write_text('{"sample_id": "a/1", "task": "regression", '
                     '"predicted": NaN, "gold": 6}\n')
    assert _run("evaluate", "--in", preds, "--dataset", "coda_lm") == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: predicted must be a number, got nan")
    assert "mae" not in captured.out


_HUGE = 10 ** 400  # 401 digits, beyond float range


@pytest.mark.parametrize("record", [
    {"task": "regression", "predicted": _HUGE, "gold": 6},
    {"task": "detection", "predicted": [{"bbox": [0, 0, 10, 10],
                                         "confidence": _HUGE}],
     "gold": [{"bbox": [0, 0, 10, 10]}]},
    {"task": "detection", "predicted": [],
     "gold": [{"bbox": [0, 0, 10, _HUGE]}]},
    {"task": "grounding", "predicted": [{"point": [-_HUGE, 10]}], "gold": []},
], ids=["regression", "confidence", "bbox", "point"])
def test_evaluate_number_beyond_float_is_data_error(workdir, capsys, record):
    preds = workdir / "preds.jsonl"
    preds.write_text(json.dumps({"sample_id": "a/1", **record}) + "\n")
    assert _run("evaluate", "--in", preds, "--dataset", "coda_lm") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ")


# json.loads raises a plain ValueError, not a JSONDecodeError, for an integer
# literal over Python's int-string limit (4300 digits).
_DIGITS = "9" * 5000


@pytest.mark.parametrize("command,text,code,where", [
    ("ingest", f'[{{"id": {_DIGITS}}}]', 1, None),
    ("gen-perception", f'[{{"frames_per_view": {_DIGITS}}}]', 1, None),
    ("evaluate", '{"sample_id": "a/1", "task": "regression", "predicted": 1, "gold": 1}\n'
     f'{{"sample_id": "a/2", "task": "regression", "predicted": {_DIGITS}, "gold": 1}}\n',
     1, "line 2"),
    ("stats", f'{{"id": {_DIGITS}}}\n', 1, "line 1"),  # the manifest reader
    ("config", f'{{"seed": {_DIGITS}}}', 2, "config"),
], ids=["ingest", "gen-perception", "evaluate", "manifest", "config"])
def test_huge_integer_literal_is_one_error_line(workdir, capsys, command, text,
                                                code, where):
    path = workdir / "input.json"
    path.write_text(text)
    argv = {"ingest": ["ingest", "--adapter", "coda_lm", "--in", path],
            "gen-perception": ["gen-perception", "--in", path],
            "evaluate": ["evaluate", "--dataset", "coda_lm", "--in", path],
            "stats": ["stats", "--in", path],
            "config": ["stats", "--config", path, "--in", path]}[command]
    assert _run(*argv, "--out", workdir / "out") == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "integer string conversion" in err[0]
    assert where is None or where in err[0]


@pytest.mark.parametrize("command,code", [
    ("ingest", 1), ("manifest", 1), ("evaluate", 1), ("gen-perception", 1),
    ("config", 2),
])
def test_invalid_utf8_is_one_error_line(workdir, capsys, command, code):
    path = workdir / "input.json"
    path.write_bytes(b'[{"id": "\xff"}]\n')
    argv = {"ingest": ["ingest", "--adapter", "coda_lm", "--in", path],
            "manifest": ["stats", "--in", path],
            "evaluate": ["evaluate", "--dataset", "coda_lm", "--in", path],
            "gen-perception": ["gen-perception", "--in", path],
            "config": ["stats", "--config", path, "--in", path]}[command]
    assert _run(*argv, "--out", workdir / "out") == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "not valid UTF-8" in err
    assert not (workdir / "out").exists()


def test_evaluate_reports_skipped_detection_records(workdir, capsys):
    preds = workdir / "preds.jsonl"
    records = [{"sample_id": f"d/{i}", "task": "detection",
                "predicted": [{"bbox": [0, 0, 10, 10], "confidence": 0.5}],
                "gold": []} for i in range(2)]
    preds.write_text("".join(json.dumps(r) + "\n" for r in records))
    report_path = workdir / "report.json"
    assert _run("evaluate", "--in", preds, "--dataset", "coda_lm",
                "--out", report_path) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "detection: 2 record(s) skipped (no ground truth)"]
    assert json.loads(report_path.read_text()) == {"dataset": "coda_lm",
                                                   "entries": {}}
    # one scored record and one skipped: the report counts only the scored
    records[0]["gold"] = [{"bbox": [0, 0, 10, 10]}]
    preds.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert _run("evaluate", "--in", preds, "--dataset", "coda_lm") == 0
    captured = capsys.readouterr()
    assert captured.out == "detection_ap: 1.000000 (n=1)\n"
    assert captured.err == "detection: 1 record(s) skipped (no ground truth)\n"


@pytest.mark.parametrize("record", [
    {"task": "regression", "predicted": True, "gold": False},
    {"task": "detection", "predicted": [{"bbox": [0, 0, 10, 10],
                                         "confidence": True}],
     "gold": [{"bbox": [0, 0, 10, 10]}]},
    {"task": "detection", "predicted": [],
     "gold": [{"bbox": [0, 0, True, 10]}]},
    {"task": "grounding", "predicted": [{"point": [False, 10]}], "gold": []},
], ids=["regression", "confidence", "bbox", "point"])
def test_evaluate_bool_is_not_a_number(workdir, capsys, record):
    preds = workdir / "preds.jsonl"
    preds.write_text(json.dumps({"sample_id": "a/1", **record}) + "\n")
    assert _run("evaluate", "--in", preds, "--dataset", "coda_lm") == 1
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("record,error", [
    ({"sample_id": 5, "task": "classification", "predicted": "a", "gold": "a"},
     "sample_id must be a string, got 5 (line 2)"),
    ({"sample_id": "g/1", "task": "grounding",
      "predicted": [{"point": [1, 2], "camera": "BOGUS"}], "gold": []},
     "'BOGUS' is not a valid CameraId (at predicted[0], line 2)"),
    ({"sample_id": "d/1", "task": "detection", "predicted": [],
      "gold": [{"bbox": [0, 0, 150, 10]}]},
     "bbox coordinate must be a number in [0, 100], got 150 (at gold[0].bbox, line 2)"),
], ids=["sample_id_int", "camera_bogus", "bbox_over_100"])
def test_evaluate_bad_record_names_its_line(workdir, capsys, record, error):
    preds = workdir / "preds.jsonl"
    good = {"sample_id": "a/1", "task": "classification", "predicted": "x", "gold": "x"}
    preds.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
    assert _run("evaluate", "--in", preds, "--dataset", "coda_lm") == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {error}"]
    assert captured.out == ""


def test_evaluate_empty_caption_scores_zero(workdir, capsys):
    preds = workdir / "preds.jsonl"
    preds.write_text("".join(json.dumps(
        {"sample_id": f"c/{i}", "task": "caption", "predicted": predicted,
         "gold": "a parked car"}) + "\n"
        for i, predicted in enumerate(["", "a parked car"])))
    assert _run("evaluate", "--in", preds, "--dataset", "coda_lm") == 0
    assert "bleu: 0.500000 (n=2)" in capsys.readouterr().out


# --------------------------------------------------------------------- stats

def test_stats_sections(workdir, capsys):
    raw = _ingest_coda(workdir)
    out = workdir / "aug.jsonl"
    _run("augment", "--seed", 7, "--offline", "--in", raw, "--out", out)
    stats_path = workdir / "stats.json"
    assert _run("stats", "--in", out, "--out", stats_path) == 0
    stats = json.loads(stats_path.read_text())
    assert stats["samples"] == 20
    assert stats["by_dataset"] == {"coda_lm": 20}
    assert stats["by_modality"] == {"single_image": 20}
    assert stats["by_provenance"]["original"] == 4
    assert sum(stats["by_provenance"].values()) == stats["qa_pairs"]
    text = capsys.readouterr().out
    assert "samples: 20" in text
    assert "by_dataset.coda_lm: 20" in text


# ----------------------------------------------------------- manifest order

def _write_lines(path, samples):
    path.write_text("".join(sample_to_json(s) + "\n" for s in samples),
                    encoding="utf-8")


@pytest.mark.parametrize("command", ["standardize", "augment", "build-prompts",
                                     "stats"])
@pytest.mark.parametrize("ids,error", [
    ((0, 2, 1), "manifest not sorted by id: 'lingoqa/000001' follows "
                "'lingoqa/000002' (line 3)"),
    ((0, 1, 1), "duplicate sample id 'lingoqa/000001' (line 3)"),
], ids=["unsorted", "duplicate"])
def test_manifest_readers_reject_unsorted_or_duplicate_ids(workdir, capsys,
                                                           command, ids, error):
    manifest = workdir / "m.jsonl"
    _write_lines(manifest, [plain_sample(i) for i in ids])
    out = workdir / "out.json"
    assert _run(command, "--offline", "--in", manifest, "--out", out) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
    assert not out.exists()


def test_build_prompts_missing_input_creates_nothing(workdir, capsys):
    out = workdir / "new" / "prompts.jsonl"
    assert _run("build-prompts", "--in", workdir / "missing.jsonl", "--out", out) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not (workdir / "new").exists()


# ------------------------------------------------------------ process state

@pytest.mark.parametrize("argv,code", [
    (["plan-curriculum", "--out", "{dir}"], 0),
    (["stats", "--in", "{dir}/m.jsonl"], 1),
    (["stats", "--in", "{dir}/missing.jsonl"], 2),
], ids=["exit0", "exit1", "exit2"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
def test_main_restores_gc_state(workdir, capsys, argv, code, enabled):
    _write_lines(workdir / "m.jsonl", [plain_sample(1), plain_sample(0)])
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert _run(*[a.format(dir=workdir) for a in argv]) == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


def test_importing_the_cli_does_not_import_numpy():
    src = str(Path(dataforge.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, dataforge.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True, timeout=60,
        env={"PYTHONPATH": src})
    assert result.stdout.strip() == "False"


# ------------------------------------------------------------- config errors

def test_missing_config_file(workdir, capsys):
    assert _run("stats", "--config", workdir / "nope.json",
                "--in", workdir / "x.jsonl") == 2
    assert "cannot read config" in capsys.readouterr().err


def test_malformed_config_file(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text("{not json")
    assert _run("stats", "--config", bad, "--in", workdir / "x.jsonl") == 2


def test_config_bad_seed(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text(json.dumps({"seed": "zero"}))
    assert _run("stats", "--config", bad, "--in", workdir / "x.jsonl") == 2
    assert "seed" in capsys.readouterr().err


def test_config_unknown_key_exits_two(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text(json.dumps({"seeed": 3}))
    assert _run("stats", "--config", bad, "--in", workdir / "x.jsonl") == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: unknown config key(s): seeed"]


@pytest.mark.parametrize("config,error", [
    ({"promptkit": {"limit": 100}}, "unknown config key(s): promptkit"),
    ({"metrics": {"iou_threshold": 0.7}}, "unknown config key(s): metrics"),
    ({"offline": "false"}, "offline must be true or false, got 'false'"),
    ({"augment": {"factorz": {"coda_lm": 2}}}, "unknown augment key(s): factorz"),
    ({"sources": []}, "sources must be an object, got []"),
    ({"sources": {"coda": "c.json"}}, "'coda' is not a valid DatasetId (at sources)"),
    ({"out_dir": 3}, "out_dir must be a string, got 3"),
    ({"augment": {"rewriter_url": 5}}, "augment rewriter_url must be a string, got 5"),
    ({"augment": {"rewriter_url": "not a url"}},
     "augment rewriter_url must be an http(s) URL, got 'not a url'"),
    ({"augment": {"rewriter_url": "ftp://h/x"}},
     "augment rewriter_url must be an http(s) URL, got 'ftp://h/x'"),
    ({"augment": {"rewriter_url": "http://a b/x"}},
     "augment rewriter_url must be an http(s) URL, got 'http://a b/x'"),
    ({"augment": {"rewriter_url": "http://h:99999/x"}},
     "augment rewriter_url must be an http(s) URL, got 'http://h:99999/x'"),
], ids=["promptkit", "metrics", "offline_string", "augment_typo", "sources_list",
        "sources_unknown_dataset", "out_dir_int", "rewriter_url_int",
        "rewriter_url_not_url", "rewriter_url_ftp", "rewriter_url_space",
        "rewriter_url_port"])
def test_config_error_exits_two(workdir, capsys, config, error):
    bad = workdir / "bad.json"
    bad.write_text(json.dumps(config))
    assert _run("stats", "--config", bad, "--in", workdir / "x.jsonl") == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]


@pytest.mark.parametrize("augment,error", [
    ({"mc_fraction": 7}, "augment mc_fraction must be a number in [0, 1], got 7"),
    ({"mc_fraction": True},
     "augment mc_fraction must be a number in [0, 1], got True"),
    ({"mc_fraction": "0.5"},
     "augment mc_fraction must be a number in [0, 1], got '0.5'"),
    ({"factors": {"coda_lm": 0}},
     "augment factor for coda_lm must be an integer >= 1, got 0"),
    ({"factors": {"coda_lm": 2.7}},
     "augment factor for coda_lm must be an integer >= 1, got 2.7"),
    ({"factors": {"coda_lm": True}},
     "augment factor for coda_lm must be an integer >= 1, got True"),
], ids=["fraction_7", "fraction_true", "fraction_string", "factor_0",
        "factor_2.7", "factor_true"])
def test_augment_config_numbers_exit_two(workdir, capsys, augment, error):
    raw = _ingest_coda(workdir)
    capsys.readouterr()
    bad = workdir / "bad.json"
    bad.write_text(json.dumps({"augment": augment}))
    out = workdir / "aug.jsonl"
    assert _run("augment", "--config", bad, "--offline", "--in", raw,
                "--out", out) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
    assert not out.exists()


def test_augment_config_numbers_at_their_bounds(workdir, capsys):
    raw = _ingest_coda(workdir)
    good = workdir / "good.json"
    good.write_text(json.dumps({"augment": {"factors": {"coda_lm": 1},
                                            "mc_fraction": 0}}))
    out = workdir / "aug.jsonl"
    assert _run("augment", "--config", good, "--offline", "--in", raw,
                "--out", out) == 0
    assert read_manifest(out) == read_manifest(raw)


@pytest.mark.parametrize("count", [2.7, True, "12", 0, -5],
                         ids=["float", "bool", "string", "zero", "negative"])
def test_registry_count_must_be_positive_integer(workdir, capsys, count):
    bad = workdir / "bad.json"
    bad.write_text(json.dumps({"registry": {"CODA-LM": count}}))
    assert _run("plan-curriculum", "--config", bad, "--out", workdir) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: registry count for CODA-LM must be an integer >= 1, got {count!r}"]
    assert not (workdir / "plans").exists()


def test_config_standardize_section_exits_two(workdir, capsys):
    raw = workdir / "raw.jsonl"
    assert _run("ingest", "--adapter", "nuinstruct",
                "--in", workdir / "nuinstruct.json", "--out", raw) == 0
    capsys.readouterr()
    bad = workdir / "bad.json"
    bad.write_text(json.dumps({"standardize": {"rounding": "half_even"}}))
    assert _run("standardize", "--config", bad, "--in", raw,
                "--out", workdir / "std.jsonl") == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: unknown config key(s): standardize"]
    assert not (workdir / "std.jsonl").exists()


def test_unknown_subcommand_exits_two(workdir):
    with pytest.raises(SystemExit) as exc:
        _run("no-such-command")
    assert exc.value.code == 2


# ------------------------------------------------------------- atomic writes

def _temp_files(root):
    return sorted(p.name for p in root.rglob("*.tmp"))


def test_atomic_writer_keeps_old_file_on_error(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_writer(target) as fh:
            fh.write("new, but cut short")
            raise RuntimeError("crash mid-write")
    assert target.read_text() == "old\n"
    with pytest.raises(RuntimeError):
        with atomic_writer(tmp_path / "sub" / "absent.txt") as fh:
            fh.write("partial")
            raise RuntimeError("crash mid-write")
    assert not (tmp_path / "sub" / "absent.txt").exists()
    assert _temp_files(tmp_path) == []


def test_write_manifest_crash_keeps_previous_manifest(workdir, monkeypatch):
    raw = _ingest_coda(workdir)
    before = raw.read_bytes()
    calls = []

    def encode_then_crash(sample):
        calls.append(sample.id)
        if len(calls) == 2:
            raise RuntimeError("crash mid-write")
        return sample_to_json(sample)

    monkeypatch.setattr("dataforge.ingest.sample_to_json", encode_then_crash)
    with pytest.raises(RuntimeError):
        write_manifest(read_manifest(raw)[:1] + [plain_sample(1)], raw)
    assert raw.read_bytes() == before
    assert _temp_files(workdir) == []


def test_build_prompts_crash_keeps_previous_output(workdir, monkeypatch, capsys):
    raw = _ingest_coda(workdir)
    out = workdir / "prompts.jsonl"
    assert _run("build-prompts", "--in", raw, "--out", out) == 0
    before = out.read_bytes()
    rows = []

    def encode_then_fail(row):
        rows.append(row)
        if len(rows) == 2:
            raise OSError("disk full")
        return encode_json(row)

    monkeypatch.setattr("dataforge.cli.encode_json", encode_then_fail)
    capsys.readouterr()
    assert _run("build-prompts", "--in", raw, "--out", out) == 2
    assert capsys.readouterr().err.splitlines() == ["error: disk full"]
    assert out.read_bytes() == before
    assert _temp_files(workdir) == []


@pytest.mark.parametrize("command", ["stats", "plan-curriculum"])
def test_failed_replace_keeps_previous_output(workdir, monkeypatch, capsys, command):
    if command == "stats":
        argv = ["stats", "--in", _ingest_coda(workdir), "--out", workdir / "stats.json"]
        target = workdir / "stats.json"
    else:
        argv = ["plan-curriculum", "--out", workdir]
        target = workdir / "plans" / "stage1.json"
    assert _run(*argv) == 0
    target.write_bytes(b"previous\n")

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr("os.replace", refuse)
    capsys.readouterr()
    assert _run(*argv) == 2
    assert capsys.readouterr().err.splitlines() == ["error: replace refused"]
    assert target.read_bytes() == b"previous\n"
    assert _temp_files(workdir) == []
