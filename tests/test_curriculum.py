import json
from pathlib import Path

import pytest

from dataforge.curriculum import (
    ComponentFlag,
    DataMixEntry,
    Modality,
    Trainability,
    build_all_plans,
    build_stage_plan,
    write_stage_plans,
)

GOLDEN_DIR = Path(__file__).parent / "golden" / "plans"

# Hand-computed totals the plans must reproduce.
STAGE3_TOTAL = 1_500_000 + 760_000 + 501_000 + 145_000
STAGE4_TOTAL = 376_181 + 374_329 + 71_842 + 184_480 + 94_970 + 413_829


def test_hand_arithmetic_oracles():
    assert STAGE3_TOTAL == 2_906_000
    assert STAGE4_TOTAL == 1_515_631


def test_stage1_contract():
    plan = build_stage_plan(1)
    assert plan.flags == ComponentFlag(
        Trainability.FROZEN, Trainability.TRAINABLE, Trainability.FROZEN)
    assert plan.lr_projector == 1e-3
    assert plan.batch_size == 512
    assert plan.mix == (DataMixEntry("LCS-558K", Modality.SINGLE_IMAGE, 558_000),)
    assert plan.total_samples == 558_000


def test_stage2_contract():
    plan = build_stage_plan(2)
    assert plan.lr_vision == 2e-6
    assert plan.lr_projector == 1e-5
    assert plan.lr_llm == 1e-5
    assert plan.batch_size == 256
    counts = {e.modality: e.count for e in plan.mix}
    assert counts == {Modality.SINGLE_IMAGE: 3_000_000, Modality.LANGUAGE: 143_000}
    assert plan.total_samples == 3_143_000


def test_stage3_contract():
    plan = build_stage_plan(3)
    counts = {e.modality: e.count for e in plan.mix}
    assert counts == {
        Modality.SINGLE_IMAGE: 1_500_000,
        Modality.MULTI_IMAGE: 760_000,
        Modality.SINGLE_VIDEO: 501_000,
        Modality.MULTI_VIDEO: 145_000,
    }
    assert plan.total_samples == STAGE3_TOTAL
    assert plan.batch_size == 256


def test_stage4_contract():
    plan = build_stage_plan(4)
    assert [e.name for e in plan.mix] == ["DriveLM", "OmniDrive", "NuInstruct",
                                          "CODA-LM", "MAPLM", "LingoQA"]
    assert plan.total_samples == STAGE4_TOTAL
    by_name = {e.name: e.count for e in plan.mix}
    assert by_name["DriveLM"] == 376_181
    assert by_name["LingoQA"] == 413_829


def test_only_stage1_freezes_anything(tmp_path):
    plans = build_all_plans()
    trainable = ComponentFlag(Trainability.TRAINABLE, Trainability.TRAINABLE,
                              Trainability.TRAINABLE)
    assert plans[0].flags != trainable
    assert [p.flags for p in plans[1:]] == [trainable] * 3
    written = [json.loads(p.read_text(encoding="utf-8"))["flags"]
               for p in write_stage_plans(tmp_path, plans)]
    assert "frozen" in written[0].values()
    assert all(set(flags.values()) == {"trainable"} for flags in written[1:])


def test_sequence_length_everywhere(tmp_path):
    written = [json.loads(p.read_text(encoding="utf-8"))
               for p in write_stage_plans(tmp_path, build_all_plans())]
    assert [(d["sequence_length"], d["epochs"]) for d in written] == [(8192, 1)] * 4


def test_stage_numbers_ascend():
    assert [p.stage for p in build_all_plans()] == [1, 2, 3, 4]


def test_bad_stage_rejected():
    with pytest.raises(ValueError):
        build_stage_plan(0)
    with pytest.raises(ValueError):
        build_stage_plan(5)


# -------------------------------------------------------------- invariants

def test_every_shipped_mix_entry_has_a_positive_count():
    entries = [entry for plan in build_all_plans() for entry in plan.mix]
    assert len(entries) >= 4
    assert all(type(entry.count) is int and entry.count > 0 for entry in entries)


def test_plans_are_pure():
    assert build_stage_plan(4) == build_stage_plan(4)
    assert build_all_plans() == build_all_plans()


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
    (path,) = write_stage_plans(tmp_path, [build_stage_plan(1)])
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("stage", [2, 3, 4])
def test_stage_json_golden(tmp_path, stage):
    (path,) = write_stage_plans(tmp_path, [build_stage_plan(stage)])
    assert path.read_bytes() == (GOLDEN_DIR / f"stage{stage}.json").read_bytes()


def test_write_stage_plans_layout(tmp_path):
    paths = write_stage_plans(tmp_path, build_all_plans())
    assert [p.name for p in paths] == [
        "stage1.json", "stage2.json", "stage3.json", "stage4.json"]
    assert all(p.parent.name == "plans" for p in paths)
    loaded = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    assert [d["stage"] for d in loaded] == [1, 2, 3, 4]
    assert all(d["sequence_length"] == 8192 for d in loaded)
    assert sum(e["count"] for e in loaded[3]["mix"]) == STAGE4_TOTAL


def test_write_stage_plans_byte_identical(tmp_path):
    first = write_stage_plans(tmp_path / "a", build_all_plans())
    second = write_stage_plans(tmp_path / "b", build_all_plans())
    for p1, p2 in zip(first, second):
        assert p1.read_bytes() == p2.read_bytes()
