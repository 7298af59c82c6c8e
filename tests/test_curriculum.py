import json
from pathlib import Path

import pytest

from dataforge.curriculum import stage_plans, write_stage_plans

GOLDEN_DIR = Path(__file__).parent / "golden" / "plans"

# Hand-computed totals the plans must reproduce.
STAGE3_TOTAL = 1_500_000 + 760_000 + 501_000 + 145_000
STAGE4_TOTAL = 376_181 + 374_329 + 71_842 + 184_480 + 94_970 + 413_829

FROZEN_STAGE = {"vision_encoder": "frozen", "projector": "trainable", "llm": "frozen"}
ALL_TRAINABLE = {"vision_encoder": "trainable", "projector": "trainable",
                 "llm": "trainable"}


def _plan(stage):
    return stage_plans()[stage - 1]


def _total(plan):
    return sum(entry["count"] for entry in plan["mix"])


def test_hand_arithmetic_oracles():
    assert STAGE3_TOTAL == 2_906_000
    assert STAGE4_TOTAL == 1_515_631


def test_stage1_contract():
    plan = _plan(1)
    assert plan["flags"] == FROZEN_STAGE
    assert plan["lr_projector"] == 1e-3
    assert plan["batch_size"] == 512
    assert plan["mix"] == [{"name": "LCS-558K", "modality": "single_image", "count": 558_000}]
    assert _total(plan) == 558_000


def test_stage2_contract():
    plan = _plan(2)
    assert plan["lr_vision"] == 2e-6
    assert plan["lr_projector"] == 1e-5
    assert plan["lr_llm"] == 1e-5
    assert plan["batch_size"] == 256
    counts = {e["modality"]: e["count"] for e in plan["mix"]}
    assert counts == {"single_image": 3_000_000, "language": 143_000}
    assert _total(plan) == 3_143_000


def test_stage3_contract():
    plan = _plan(3)
    counts = {e["modality"]: e["count"] for e in plan["mix"]}
    assert counts == {
        "single_image": 1_500_000,
        "multi_image": 760_000,
        "single_video": 501_000,
        "multi_video": 145_000,
    }
    assert _total(plan) == STAGE3_TOTAL
    assert plan["batch_size"] == 256


def test_stage4_contract():
    plan = _plan(4)
    assert [e["name"] for e in plan["mix"]] == ["DriveLM", "OmniDrive", "NuInstruct",
                                                "CODA-LM", "MAPLM", "LingoQA"]
    assert _total(plan) == STAGE4_TOTAL
    by_name = {e["name"]: e["count"] for e in plan["mix"]}
    assert by_name["DriveLM"] == 376_181
    assert by_name["LingoQA"] == 413_829


def test_only_stage1_freezes_anything(tmp_path):
    plans = stage_plans()
    assert plans[0]["flags"] == FROZEN_STAGE
    assert [p["flags"] for p in plans[1:]] == [ALL_TRAINABLE] * 3
    written = [json.loads(p.read_text(encoding="utf-8"))["flags"]
               for p in write_stage_plans(tmp_path, plans)]
    assert "frozen" in written[0].values()
    assert all(set(flags.values()) == {"trainable"} for flags in written[1:])


def test_sequence_length_everywhere(tmp_path):
    written = [json.loads(p.read_text(encoding="utf-8"))
               for p in write_stage_plans(tmp_path, stage_plans())]
    assert [(d["sequence_length"], d["epochs"]) for d in written] == [(8192, 1)] * 4


def test_stage_numbers_ascend():
    assert [p["stage"] for p in stage_plans()] == [1, 2, 3, 4]


# -------------------------------------------------------------- invariants

def test_every_shipped_mix_entry_has_a_positive_count():
    entries = [entry for plan in stage_plans() for entry in plan["mix"]]
    assert len(entries) >= 4
    assert all(type(entry["count"]) is int and entry["count"] > 0 for entry in entries)


def test_stage_plans_are_new_objects_on_each_call():
    want = json.dumps(stage_plans())
    plans = stage_plans()
    plans[0]["mix"][0]["count"] = 0
    for plan in plans:
        plan["flags"]["llm"] = "frozen"
    assert json.dumps(stage_plans()) == want


# ---------------------------------------------------------- serialization

def test_stage1_json_golden(tmp_path):
    expected = """\
{
  "stage": 1,
  "mix": [
    {
      "name": "LCS-558K",
      "modality": "single_image",
      "count": 558000
    }
  ],
  "flags": {
    "vision_encoder": "frozen",
    "projector": "trainable",
    "llm": "frozen"
  },
  "lr_vision": 0.0,
  "lr_projector": 0.001,
  "lr_llm": 0.0,
  "batch_size": 512,
  "epochs": 1,
  "sequence_length": 8192
}
"""
    (path,) = write_stage_plans(tmp_path, [_plan(1)])
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("stage", [2, 3, 4])
def test_stage_json_golden(tmp_path, stage):
    (path,) = write_stage_plans(tmp_path, [_plan(stage)])
    assert path.read_bytes() == (GOLDEN_DIR / f"stage{stage}.json").read_bytes()


def test_write_stage_plans_layout(tmp_path):
    paths = write_stage_plans(tmp_path, stage_plans())
    assert [p.name for p in paths] == [
        "stage1.json", "stage2.json", "stage3.json", "stage4.json"]
    assert all(p.parent.name == "plans" for p in paths)
    loaded = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    assert [d["stage"] for d in loaded] == [1, 2, 3, 4]
    assert all(d["sequence_length"] == 8192 for d in loaded)
    assert sum(e["count"] for e in loaded[3]["mix"]) == STAGE4_TOTAL


def test_write_stage_plans_byte_identical(tmp_path):
    first = write_stage_plans(tmp_path / "a", stage_plans())
    second = write_stage_plans(tmp_path / "b", stage_plans())
    for p1, p2 in zip(first, second):
        assert p1.read_bytes() == p2.read_bytes()
