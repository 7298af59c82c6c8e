import functools
import gc
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import dataforge

from dataforge.cli import main
from dataforge import cli, remote, stages
from dataforge.core import (DatasetId, Provenance, QAPair, Sample, atomic_writer,
                            sample_to_json)
from dataforge.ingest import read_manifest, write_manifest
from dataforge.tokens import scan_object_refs

from helpers import plain_sample, raw_reply_server, surround_media

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


def _generic_record(qa, media=(("FRONT_ONLY", 1600, 900),)):
    return {"id": "g1", "dataset": "generic",
            "media": [{"kind": "image", "camera": camera, "frame_count": 1,
                       "width": width, "height": height, "uri": f"{camera}.jpg"}
                      for camera, width, height in media],
            "qa": qa}


def _choice(option):
    return [{"question": "Which one?", "answer": "A", "style": "multiple_choice",
             "options": [["A", option], ["B", "None of them."]]}]


# Each record has no QA or holds a token standardize cannot rewrite; ingest
# checks every text standardize rewrites, against the media it would use.
@pytest.mark.parametrize("record,where,error", [
    (_generic_record([{"question": "Where?", "answer": "<car>[c6, 1, 2, 3, 4]"}]),
     "qa[0].answer", "unknown camera id: 'c6'"),
    (_generic_record(_choice("<car>[FRONT_ONLY, 1, 2, 3]")),
     "qa[0].options[0]", "expected 2 or 4 coordinates, got 3"),
    (_generic_record(_choice("<bus>[CAM_BACK, 500, 500]")),
     "qa[0].options[0]", "camera CAM_BACK not present in sample media"),
    (_generic_record([{"question": "Where?", "answer": "<car>[0, 0]"}],
                     media=(("CAM_FRONT", 1600, 900), ("CAM_BACK", 1280, 720))),
     "qa[0].answer", "camera-less token over media of mixed resolutions"),
    (_generic_record(_choice("<car>[FRONT_ONLY, 0, 0, 1601, 900]")),
     "qa[0].options[0]", "exceeds 1600x900 image"),
    (_generic_record([]), "qa", "sample carries no QA"),
    (_generic_record([{"question": "Which one?", "answer": "<car>[1, 2]",
                       "style": "multiple_choice",
                       "options": [["<car>[1, 2]", "A car."], ["B", "A bus."]]}]),
     "qa[0].options[0]", "option label '<car>[1, 2]' holds an object token"),
], ids=["raw_id_outside_nuinstruct", "malformed_option", "option_camera_absent",
        "camera_less_over_mixed_sizes", "option_box_out_of_bounds", "no_qa",
        "token_in_option_label"])
def test_ingest_rejects_what_standardize_cannot_rewrite(workdir, capsys, record,
                                                        where, error):
    good = dict(_generic_record([{"question": "Where?", "answer": "<car>[0, 0]"}]),
                id="g0")
    (workdir / "generic.json").write_text(json.dumps([good, record]))
    out = workdir / "raw.jsonl"
    assert _run("ingest", "--adapter", "generic", "--in", workdir / "generic.json",
                "--out", out) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: invalid sample (")
    assert error in line
    assert line.endswith(f"(record 1, at {where})")
    assert not out.exists()


def test_ingest_generic_decoder_fault_is_one_error_line(workdir, capsys):
    record = _generic_record([{"question": "Where?", "answer": "Ahead."}])
    record["media"][0]["uri"] = 5
    (workdir / "generic.json").write_text(json.dumps([record]))
    out = workdir / "raw.jsonl"
    assert _run("ingest", "--adapter", "generic", "--in", workdir / "generic.json",
                "--out", out) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: uri must be a string (record 0, at sample.media[0])"]
    assert not out.exists()


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
    source = [dict(NUINSTRUCT_SOURCE[0],
                   qas=[{"question": "Where is it?",
                         "answer": "At <car>[c9, 1, 2, 3, 4].",
                         "task": "perception"}])]
    (workdir / "badcam.json").write_text(json.dumps(source))
    refused = workdir / "refused.jsonl"
    assert _run("ingest", "--adapter", "nuinstruct", "--in", workdir / "badcam.json",
                "--out", refused) == 1
    assert "unknown camera id: 'c9'" in capsys.readouterr().err
    assert not refused.exists()
    # A manifest written by other means still reaches standardize's own check.
    raw = workdir / "raw.jsonl"
    sample = Sample("nuinstruct/42", DatasetId.NUINSTRUCT, surround_media(1600, 900),
                    (QAPair("Where is it?", "At <car>[c9, 1, 2, 3, 4]."),),
                    frozenset({"perception"}))
    raw.write_text(sample_to_json(sample) + "\n", encoding="utf-8")
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
    capsys.readouterr()
    rc = _run("augment", "--seed", 7, "--offline", "--in", out,
              "--out", workdir / "again.jsonl")
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: sample coda_lm/0000#aug1 is already an expansion copy; "
        "augment refuses to re-expand its own output"]
    assert not (workdir / "again.jsonl").exists()


def test_augment_refuses_non_original_qa(workdir, capsys):
    manifest = workdir / "m.jsonl"
    paraphrased = replace(plain_sample(1), qa=(
        QAPair("Could you tell me what to do?", "Yield.", provenance=Provenance.PARAPHRASE),))
    _write_lines(manifest, [plain_sample(0), paraphrased])
    out = workdir / "aug.jsonl"
    assert _run("augment", "--offline", "--in", manifest, "--out", out) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: sample lingoqa/000001 carries paraphrase QA; "
        "augment only accepts original data"]
    assert not out.exists()


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


@pytest.mark.parametrize("reply", [
    b"HELLO\r\n\r\n",
    b'HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{"text": ',
], ids=["bad_status_line", "truncated_body"])
def test_augment_falls_back_when_rewriter_reply_is_not_http(workdir, monkeypatch,
                                                           capsys, reply):
    raw = _ingest_coda(workdir)
    offline = workdir / "offline.jsonl"
    assert _run("augment", "--seed", 7, "--offline", "--in", raw,
                "--out", offline) == 0
    monkeypatch.delenv("DATAFORGE_OFFLINE", raising=False)
    # the same client with its backoff sleeps skipped
    monkeypatch.setattr(remote, "RemoteTextClient", functools.partial(
        remote.RemoteTextClient, sleep=lambda s: None))
    with raw_reply_server(reply) as (url, bodies):
        config = workdir / "config.json"
        config.write_text(json.dumps({"augment": {"rewriter_url": url}}))
        out = workdir / "online.jsonl"
        capsys.readouterr()
        assert _run("augment", "--seed", 7, "--config", config, "--in", raw,
                    "--out", out) == 0
    assert capsys.readouterr().err == ""
    assert len(bodies) == 3 * remote.BREAKER_FAILURES  # 3 tries per call
    assert out.read_bytes() == offline.read_bytes()


def test_augment_falls_back_when_rewriter_reply_is_nested_too_deeply(workdir, monkeypatch,
                                                                    capsys):
    raw = _ingest_coda(workdir)
    offline = workdir / "offline.jsonl"
    assert _run("augment", "--seed", 7, "--offline", "--in", raw,
                "--out", offline) == 0
    monkeypatch.delenv("DATAFORGE_OFFLINE", raising=False)
    body = b"[" * 5000 + b"]" * 5000
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
    with raw_reply_server(reply) as (url, bodies):
        config = workdir / "config.json"
        config.write_text(json.dumps({"augment": {"rewriter_url": url}}))
        out = workdir / "online.jsonl"
        capsys.readouterr()
        assert _run("augment", "--seed", 7, "--config", config, "--in", raw,
                    "--out", out) == 0
    assert capsys.readouterr().err == ""
    # a reply that is not JSON is no transport failure: no retry, no breaker
    assert len(bodies) > remote.BREAKER_FAILURES
    assert out.read_bytes() == offline.read_bytes()


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
    ({"id": "p", "frames_per_view": 0, "annotations": [_FRONT_VIEW]},
     "frames_per_view must be an integer >= 1, got 0 (record 0, at frames_per_view)"),
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
    ({"id": "p", "annotations": [dict(_FRONT_VIEW, objects=[{"category": "car"}])]},
     "missing key 'bbox' (record 0, at annotations[0].objects[0])"),
    ({"id": 7, "annotations": [_FRONT_VIEW]},
     "id must be a string, got 7 (record 0, at id)"),
    ({"id": "", "annotations": [_FRONT_VIEW]},
     "invalid sample (non_empty): sample id is empty (record 0, at id)"),
    ({"id": "p", "annotations": [dict(_FRONT_VIEW, objects=[])]},
     "annotation has no objects (record 0)"),
    ({"id": "p", "with_camera_prefix": True,
      "annotations": [dict(_FRONT_VIEW, camera="CAM_FRONT"),
                      dict(_FRONT_VIEW, camera="CAM_BACK", width=1600, height=900)]},
     "camera views disagree on resolution; per-camera handling not configured "
     "(record 0)"),
    ({"id": "p", "with_camera_prefix": True, "frames_per_view": 4,
      "annotations": [dict(_FRONT_VIEW, camera="CAM_FRONT", frames=3)]},
     "CAM_FRONT: expected 4-frame video, got video with 3 (record 0)"),
    ({"id": "p", "representation": 5, "annotations": [_FRONT_VIEW]},
     'representation must be "box" or "center", got 5 (record 0, at representation)'),
    ({"id": "p", "representation": "polygon", "annotations": [_FRONT_VIEW]},
     'representation must be "box" or "center", got \'polygon\' '
     "(record 0, at representation)"),
], ids=["front_only_prefixed", "two_views_unprefixed", "no_annotations",
        "prefix_string", "frames_per_view_float", "frames_per_view_zero",
        "width_float", "height_bool",
        "frames_string", "uri_int", "frame_index_float", "category_list",
        "bbox_string", "bbox_bool", "bbox_missing", "id_int", "id_empty", "no_objects",
        "mixed_view_sizes", "frame_count", "representation_int",
        "representation_polygon"])
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


def _car(x0, y0, x1, y1, frame_index):
    return {"category": "car", "bbox": [x0, y0, x1, y1], "frame_index": frame_index}


@pytest.mark.parametrize("record,question,answer", [
    ({"id": "p", "representation": "box", "with_camera_prefix": True,
      "annotations": [
          {"camera": "CAM_FRONT", "width": 1600, "height": 900, "uri": "f.jpg",
           "objects": [_car(0, 0, 800, 450, 0)]},
          {"camera": "CAM_BACK", "width": 1600, "height": 900, "uri": "b.mp4",
           "frames": 3,
           "objects": [_car(160, 90, 320, 180, 0), _car(800, 450, 1600, 900, 2)]}]},
     "Detect all car across the camera views.",
     "Detected objects: <car>[CAM_FRONT, 0.000, 0.000, 50.000, 50.000], "
     "<car>[CAM_BACK, 10.000, 10.000, 20.000, 20.000], "
     "<car>[CAM_BACK, 50.000, 50.000, 100.000, 100.000]"),
    ({"id": "p", "representation": "box",
      "annotations": [
          {"camera": "FRONT_ONLY", "width": 1280, "height": 720, "uri": "v.mp4",
           "frames": 5,
           "objects": [_car(0, 0, 640, 360, 0), _car(128, 72, 256, 144, 4)]}]},
     "Detect all car in the image.",
     "Detected objects: <car>[0.000, 0.000, 50.000, 50.000], "
     "<car>[10.000, 10.000, 20.000, 20.000]"),
], ids=["image_and_video_prefixed", "one_video_unprefixed"])
def test_gen_perception_video_rules_need_every_view_a_video(workdir, record, question,
                                                           answer):
    """The frame check and the key-frame filter apply only when every view is
    a video: otherwise a video's frames_per_view mismatch is no error and
    objects on every frame count."""
    (workdir / "percept.json").write_text(json.dumps([record]))
    out = workdir / "p.jsonl"
    assert _run("gen-perception", "--offline", "--in", workdir / "percept.json",
                "--out", out) == 0
    (sample,) = read_manifest(out)
    assert (sample.qa[0].question, sample.qa[0].answer) == (question, answer)


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


def test_build_prompts_sample_without_qa_is_one_error_line(workdir, capsys):
    manifest = workdir / "m.jsonl"
    _write_lines(manifest, [plain_sample(0), replace(plain_sample(1), qa=())])
    out = workdir / "prompts.jsonl"
    assert _run("build-prompts", "--in", manifest, "--out", out) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: sample {plain_sample(1).id} has no QA to prompt"]
    assert not out.exists()


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
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "stage 1: 558000 samples", "stage 2: 3143000 samples",
        "stage 3: 2906000 samples", "stage 4: 1515631 samples",
        f"wrote 4 plans under {workdir / 'plans'}"]
    assert err == ""


def test_plan_curriculum_empty_out_is_current_directory(workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    assert _run("plan-curriculum", "--out", "") == 0
    assert sorted(p.name for p in (workdir / "plans").iterdir()) == [
        "stage1.json", "stage2.json", "stage3.json", "stage4.json"]
    assert not (workdir / "out").exists()
    assert capsys.readouterr().out.splitlines()[-1] == "wrote 4 plans under plans"


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


@pytest.mark.parametrize("blank", ["", "  \t"])
def test_evaluate_blank_line_names_its_line(workdir, capsys, blank):
    preds = workdir / "preds.jsonl"
    _write_preds(preds)
    lines = preds.read_text().splitlines()
    preds.write_text("\n".join(lines[:2] + [blank] + lines[2:]) + "\n")
    assert _run("evaluate", "--in", preds, "--dataset", "coda_lm") == 1
    captured = capsys.readouterr()
    assert captured.err == "error: blank line in predictions file (line 3)\n"
    assert captured.out == ""


def test_evaluate_caption_with_empty_gold_names_its_line(workdir, capsys):
    preds = workdir / "preds.jsonl"
    good = {"sample_id": "a/1", "task": "caption", "predicted": "a car", "gold": "a car"}
    empty = dict(good, sample_id="a/2", gold="  ")
    preds.write_text(json.dumps(good) + "\n" + json.dumps(empty) + "\n")
    assert _run("evaluate", "--in", preds, "--dataset", "coda_lm") == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: reference has no tokens (at gold, line 2)"]
    assert captured.out == ""


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


@pytest.mark.parametrize("depth", [sys.getrecursionlimit(), 100_000])
@pytest.mark.parametrize("command,code,error", [
    ("ingest", 1, "invalid JSON: nested too deeply"),
    ("manifest", 1, "invalid JSON: nested too deeply (line 1)"),
    ("evaluate", 1, "invalid JSON: nested too deeply (line 1)"),
    ("gen-perception", 1, "invalid JSON: nested too deeply"),
    ("config", 2, "config {path}: invalid JSON: nested too deeply"),
], ids=["ingest", "manifest", "evaluate", "gen-perception", "config"])
def test_deep_nesting_is_one_error_line(workdir, capsys, command, code, error, depth):
    path = workdir / "input.json"
    path.write_text("[" * depth + "]" * depth + "\n")
    argv = {"ingest": ["ingest", "--adapter", "coda_lm", "--in", path],
            "manifest": ["stats", "--in", path],
            "evaluate": ["evaluate", "--dataset", "coda_lm", "--in", path],
            "gen-perception": ["gen-perception", "--in", path],
            "config": ["stats", "--config", path, "--in", path]}[command]
    assert _run(*argv, "--out", workdir / "out") == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [f"error: {error.format(path=path)}"]
    assert not (workdir / "out").exists()


def test_input_that_is_not_an_array_names_no_reader(workdir, capsys):
    path = workdir / "input.json"
    for text in ("{}", "7", ' "[]" ', "null\n"):
        path.write_text(text)
        for argv in (["ingest", "--adapter", "coda_lm"], ["gen-perception"]):
            assert _run(*argv, "--in", path, "--out", workdir / "out") == 1
            assert capsys.readouterr().err.splitlines() == [
                "error: input must be a JSON array"]


@pytest.mark.parametrize("command", ["ingest", "standardize", "build-prompts"])
def test_lone_surrogate_is_one_error_line(workdir, capsys, command):
    # "\ud800" is a valid JSON escape, but the text it decodes to has no
    # UTF-8 form, so the first write of it fails
    if command == "ingest":
        text = json.dumps(_coda_source(1))
        question = "Describe the hazards ahead."
        argv = ["ingest", "--adapter", "coda_lm"]
    else:
        text = sample_to_json(plain_sample(0)) + "\n"
        question = "What should the driver do next?"
        argv = [command]
    path = workdir / "input.json"
    path.write_text(text.replace(question, "what \\ud800?"))
    out = workdir / "out.jsonl"
    assert _run(*argv, "--in", path, "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: text cannot be written as UTF-8: ")
    assert "surrogates not allowed" in err[0]
    assert not out.exists()
    assert _temp_files(workdir) == []


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
    ({"sample_id": "d/1", "task": "detection", "predicted": [{"confidence": 0.5}],
      "gold": []},
     "missing key 'bbox' (at predicted[0], line 2)"),
    ({"sample_id": "d/1", "task": "detection",
      "predicted": [{"bbox": [0, 0, 10, 10]}], "gold": []},
     "missing key 'confidence' (at predicted[0], line 2)"),
    ({"sample_id": "d/1", "task": "detection", "predicted": [], "gold": [{}]},
     "missing key 'bbox' (at gold[0], line 2)"),
    ({"sample_id": "g/1", "task": "grounding",
      "predicted": [{"camera": "CAM_FRONT"}], "gold": []},
     "missing key 'point' (at predicted[0], line 2)"),
    ({"sample_id": "d/1", "task": "detection",
      "predicted": [{"bbox": 5, "confidence": 0.5}], "gold": []},
     "bbox must be [x_min, y_min, x_max, y_max], got 5 (at predicted[0].bbox, line 2)"),
    ({"sample_id": "g/1", "task": "grounding", "predicted": [{"point": "x"}], "gold": []},
     "point must be [x, y], got 'x' (at predicted[0], line 2)"),
], ids=["sample_id_int", "camera_bogus", "bbox_over_100", "predicted_bbox_missing",
        "confidence_missing", "gold_bbox_missing", "point_missing", "bbox_not_list",
        "point_not_list"])
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
    # augment and build-prompts stream their output, so each opens its input first
    for command in ("build-prompts", "augment"):
        out = workdir / "new" / "out.jsonl"
        assert _run(command, "--in", workdir / "missing.jsonl", "--out", out) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not (workdir / "new").exists()


def _coda_samples(n):
    return [replace(plain_sample(i, DatasetId.CODA_LM), qa=(
        QAPair("What happens next?", f"Yield to car {i}."),)) for i in range(n)]


@pytest.mark.parametrize("fault,error", [
    ("copy", "sample coda_lm/001498#aug1 is already an expansion copy; "
             "augment refuses to re-expand its own output"),
    ("bad line", "invalid JSON: Expecting property name enclosed in double quotes "
                 "(line 1500)"),
], ids=["copy", "bad_line"])
def test_augment_fault_after_the_first_block_leaves_no_file(workdir, capsys, fault,
                                                            error):
    samples = _coda_samples(1600)
    lines = [sample_to_json(s) for s in samples]
    if fault == "copy":
        lines[1499] = sample_to_json(replace(samples[1498], id="coda_lm/001498#aug1"))
    else:
        lines[1499] = "{"
    manifest = workdir / "m.jsonl"
    manifest.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    out = workdir / "aug" / "aug.jsonl"
    assert _run("augment", "--offline", "--in", manifest, "--out", out) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]
    assert not (workdir / "aug").exists()  # the first pass fails before any output


def test_augment_reports_the_first_fault_in_file_order(workdir, capsys):
    # A refused sample at line 2 is reported, not the malformed line 3 after it.
    samples = _coda_samples(2)
    copy = replace(samples[0], id="coda_lm/000000#aug1")
    manifest = workdir / "m.jsonl"
    manifest.write_text(f"{sample_to_json(samples[0])}\n{sample_to_json(copy)}\n{{\n",
                        encoding="utf-8")
    out = workdir / "aug.jsonl"
    assert _run("augment", "--offline", "--in", manifest, "--out", out) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: sample coda_lm/000000#aug1 is already an expansion copy; "
        "augment refuses to re-expand its own output"]
    assert not out.exists()


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
    ({"augment": {"factors": {"coda_lm": 3}}}, "unknown augment key(s): factors"),
    ({"augment": {"mc_fraction": 0.0}}, "unknown augment key(s): mc_fraction"),
    ({"registry": {"LCS-558K": 558000}}, "unknown config key(s): registry"),
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
], ids=["promptkit", "metrics", "offline_string", "augment_typo", "augment_factors",
        "augment_mc_fraction", "registry", "sources_list",
        "sources_unknown_dataset", "out_dir_int", "rewriter_url_int",
        "rewriter_url_not_url", "rewriter_url_ftp", "rewriter_url_space",
        "rewriter_url_port"])
def test_config_error_exits_two(workdir, capsys, config, error):
    bad = workdir / "bad.json"
    bad.write_text(json.dumps(config))
    assert _run("stats", "--config", bad, "--in", workdir / "x.jsonl") == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]


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
    assert not (tmp_path / "sub").exists()
    assert _temp_files(tmp_path) == []


_MANIFEST_WRITERS = ["ingest", "standardize", "augment", "gen-perception", "build-prompts"]


@pytest.mark.parametrize("command,out", [
    *((c, o) for c in _MANIFEST_WRITERS + ["evaluate", "stats"]
      for o in (".", "/", "sub/", "sub/..")),
    *((c, "") for c in _MANIFEST_WRITERS + ["evaluate", "stats"]),
])
def test_out_naming_a_directory_is_one_error_line(workdir, monkeypatch, capsys,
                                                  command, out):
    raw = _ingest_coda(workdir)
    _write_preds(workdir / "preds.jsonl")
    (workdir / "percept.json").write_text(json.dumps([{
        "id": "percept/0001",
        "annotations": [{"camera": "FRONT_ONLY", "width": 1280, "height": 720,
                         "uri": "img/1.jpg",
                         "objects": [{"category": "car", "bbox": [1, 1, 40, 30]}]}],
    }]))
    argv = {"ingest": ["ingest", "--adapter", "coda_lm", "--in", workdir / "coda.json"],
            "gen-perception": ["gen-perception", "--in", workdir / "percept.json"],
            "evaluate": ["evaluate", "--dataset", "coda_lm",
                         "--in", workdir / "preds.jsonl"],
            }.get(command, [command, "--in", raw])
    monkeypatch.chdir(workdir)
    capsys.readouterr()
    assert _run(*argv, "--offline", "--out", out) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"error: [Errno 21] Is a directory: '{out or '.'}'"]
    assert _temp_files(workdir) == []
    assert not (workdir / "sub").exists()


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
    prompt_row = stages._prompt_row

    def encode_then_fail(sample_id, report):
        rows.append(sample_id)
        if len(rows) == 2:
            raise OSError("disk full")
        return prompt_row(sample_id, report)

    monkeypatch.setattr(stages, "_prompt_row", encode_then_fail)
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
