"""The examples in docs/source-schemas.md run as documented."""

import functools
import json
from pathlib import Path

import pytest

from dataforge import remote
from dataforge.cli import main
from dataforge.core import DatasetId, QAPair, Sample
from dataforge.ingest import write_manifest
from dataforge.promptkit import SEQUENCE_LIMIT

from helpers import raw_reply_server, single_view_media

DOC = Path(__file__).resolve().parent.parent / "docs" / "source-schemas.md"
README = DOC.parent.parent / "README.md"

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


def test_documented_breaker_stops_a_dead_rewriter_after_three_calls(tmp_path, monkeypatch):
    assert "three failed calls in a row" in " ".join(README.read_text().split())
    monkeypatch.delenv("DATAFORGE_OFFLINE", raising=False)
    monkeypatch.setattr(remote, "RemoteTextClient", functools.partial(
        remote.RemoteTextClient, sleep=lambda s: None))
    std = _standardized(tmp_path, "coda_lm")
    with raw_reply_server(b"HELLO\r\n\r\n") as (url, bodies):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"augment": {"rewriter_url": url}}))
        assert main(["augment", "--config", str(config), "--in", str(std),
                     "--out", str(tmp_path / "aug.jsonl")]) == 0
    assert len(bodies) == 9  # three calls of three tries; the later copies call none


def test_documented_pool_offers_the_first_64_distinct_answers(tmp_path):
    assert "64 distinct answers" in DOC.read_text(encoding="utf-8")
    # 100 distinct answers in manifest order, then the same again: only the
    # first 64 are ever offered as distractors.
    samples = [Sample(f"p/{i:04d}", DatasetId.CODA_LM, single_view_media(),
                      (QAPair("What is ahead?", f"answer {i % 100}"),), frozenset({"hazards"}))
               for i in range(400)]
    manifest, aug = tmp_path / "m.jsonl", tmp_path / "aug.jsonl"
    write_manifest(samples, manifest)
    assert main(["augment", "--offline", "--in", str(manifest), "--out", str(aug)]) == 0
    offered = {text for line in aug.read_text(encoding="utf-8").splitlines()
               for qa in json.loads(line)["qa"] if "options" in qa
               for label, text in qa["options"] if label != qa["answer"]}
    assert offered == {f"answer {i}" for i in range(64)}
