"""The examples in docs/source-schemas.md run as documented."""

import json
from pathlib import Path

from dataforge.cli import load_config, main
from dataforge.curriculum import DEFAULT_REGISTRY

DOC = Path(__file__).resolve().parent.parent / "docs" / "source-schemas.md"


def _json_block(heading):
    """The first ```json block under the `## heading` section."""
    section = DOC.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("\n```", 1)[0])


def test_documented_config_plans_documented_stage1(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_json_block("Pipeline config (`--config`)")))
    assert load_config(config).registry == DEFAULT_REGISTRY
    assert main(["plan-curriculum", "--config", str(config),
                 "--out", str(tmp_path)]) == 0
    written = json.loads((tmp_path / "plans" / "stage1.json").read_text())
    assert written == _json_block("Stage plans (`plan-curriculum`)")
