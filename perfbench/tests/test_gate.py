"""The gate flags an output with one byte changed."""

import json

from gate import check_outputs, writer_of
from workloads import Workload


def _workload() -> Workload:
    return Workload(
        name="tiny", seed=0,
        stages=[("augment", ["augment", "--in", "{in}/std.jsonl",
                             "--out", "{out}/aug.jsonl"]),
                ("stats", ["stats", "--in", "{out}/aug.jsonl",
                           "--out", "{out}/stats.json"])],
        outputs={"aug.jsonl": "aug.jsonl", "stats.json": "stats.json"},
        expect={"aug_samples": 2, "aug_qa": 2, "by_dataset": {"coda_lm": 2}},
        sizes={})


def _write_outputs(out):
    (out / "aug.jsonl").write_text('{"id": "a"}\n{"id": "b"}\n', encoding="utf-8")
    stats = {"samples": 2, "qa_pairs": 2, "by_dataset": {"coda_lm": 2},
             "by_modality": {"single_image": 2}, "by_provenance": {"original": 2},
             "by_style": {"open": 2}}
    (out / "stats.json").write_text(json.dumps(stats), encoding="utf-8")


def test_clean_outputs_pass(tmp_path):
    _write_outputs(tmp_path)
    digests, problems = check_outputs(_workload(), tmp_path, None)
    assert problems == {}
    assert check_outputs(_workload(), tmp_path, digests)[1] == {}


def test_one_corrupted_byte_is_flagged(tmp_path):
    wl = _workload()
    _write_outputs(tmp_path)
    reference, _ = check_outputs(wl, tmp_path, None)
    data = bytearray((tmp_path / "aug.jsonl").read_bytes())
    data[8] ^= 0x01  # "a" -> "`": same length, same line count
    (tmp_path / "aug.jsonl").write_bytes(bytes(data))
    digests, problems = check_outputs(wl, tmp_path, reference)
    assert list(problems) == ["aug.jsonl"]
    assert "sha256" in problems["aug.jsonl"][0]
    assert digests["stats.json"] == reference["stats.json"]
    assert writer_of(wl)["aug.jsonl"] == "augment"


def test_structure_is_checked_without_reference(tmp_path):
    _write_outputs(tmp_path)
    (tmp_path / "aug.jsonl").write_text('{"id": "a"}\n', encoding="utf-8")
    _, problems = check_outputs(_workload(), tmp_path, None)
    assert problems == {"aug.jsonl": ["lines: got 1, want 2"]}
