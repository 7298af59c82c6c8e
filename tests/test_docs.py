"""The examples in docs/source-schemas.md run as documented."""

import json
from pathlib import Path

import pytest

from dataforge.cli import main
from dataforge.promptkit import SEQUENCE_LIMIT

DOC = Path(__file__).resolve().parent.parent / "docs" / "source-schemas.md"

ADAPTERS = ("coda_lm", "maplm", "lingoqa", "drivelm", "omnidrive", "nuinstruct")


def _block(heading):
    """The text of the first ```json block under the `heading` line."""
    section = DOC.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return section.split("```json\n", 1)[1].split("\n```", 1)[0] + "\n"


def _json_block(heading):
    return json.loads(_block(heading))


def test_documented_config_plans_documented_stage1(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_json_block("## Pipeline config (`--config`)")))
    assert main(["plan-curriculum", "--config", str(config),
                 "--out", str(tmp_path)]) == 0
    written = json.loads((tmp_path / "plans" / "stage1.json").read_text())
    assert written == _json_block("## Stage plans (`plan-curriculum`)")


def _standardized(tmp_path, adapter):
    """The manifest of the documented ``adapter`` record after ingest and
    standardize."""
    source, raw, std = (tmp_path / n for n in ("source.json", "raw.jsonl", "std.jsonl"))
    source.write_text(json.dumps([_json_block(f"### {adapter}")]))
    assert main(["ingest", "--adapter", adapter, "--in", str(source),
                 "--out", str(raw)]) == 0
    assert main(["standardize", "--in", str(raw), "--out", str(std)]) == 0
    return std


@pytest.mark.parametrize("adapter", ADAPTERS)
def test_documented_source_example_runs_through_prompts(tmp_path, adapter):
    prompts = tmp_path / "prompts.jsonl"
    assert main(["build-prompts", "--in", str(_standardized(tmp_path, adapter)),
                 "--out", str(prompts)]) == 0
    assert len(prompts.read_text().splitlines()) == 1


def test_documented_prompt_row_has_the_written_keys(tmp_path):
    prompts = tmp_path / "prompts.jsonl"
    assert main(["build-prompts", "--in", str(_standardized(tmp_path, "coda_lm")),
                 "--out", str(prompts)]) == 0
    written = json.loads(prompts.read_text(encoding="utf-8"))
    documented = _json_block("## Prompt rows (`build-prompts`)")
    assert list(documented) == list(written)
    assert documented["limit"] == SEQUENCE_LIMIT


def test_documented_stats_payload_is_written(tmp_path):
    aug, stats = tmp_path / "aug.jsonl", tmp_path / "stats.json"
    assert main(["augment", "--offline", "--in", str(_standardized(tmp_path, "coda_lm")),
                 "--out", str(aug)]) == 0
    assert main(["stats", "--in", str(aug), "--out", str(stats)]) == 0
    assert stats.read_text(encoding="utf-8") == _block("## Stats payload (`stats`)")


def test_documented_perception_example_runs(tmp_path):
    source = tmp_path / "annotations.json"
    source.write_text(json.dumps(
        [_json_block("## Perception annotation input (`gen-perception`)")]))
    out = tmp_path / "grounding.jsonl"
    assert main(["gen-perception", "--in", str(source), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1


def test_documented_predictions_example_evaluates(tmp_path, capsys):
    preds = tmp_path / "preds.jsonl"
    preds.write_text(_block("## Predictions file (`evaluate`)"), encoding="utf-8")
    assert main(["evaluate", "--in", str(preds), "--dataset", "coda_lm"]) == 0
    scored = {line.split(":")[0] for line in capsys.readouterr().out.splitlines()}
    assert scored == {"accuracy", "bleu", "mae", "detection_ap", "center_match"}
