"""The outputs of the three benchmark chains at seed 0 are byte for byte the
ones the benchmark expects: evaluate's report on eval-mix, so a scoring change
that moves one float bit fails here and not only in a benchmark run; every
output of surround-mix's six stages, which build and encode every value type;
and every output of c10-coda's five stages, whose 40k paraphrased copies pin
each seeded stream, synonym draw and prompt row of the paper's stage-4 recipe.
The workload generator and the expected digests are read from
``perfbench/``, never written."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from dataforge import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    """``perfbench/workloads.py``, loaded under a name of its own."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["eval-mix", "surround-mix", "c10-coda"])
def test_the_benchmark_chain_at_seed_0_gives_the_benchmark_digests(tmp_path, capsys,
                                                                    monkeypatch, name):
    in_dir, out_dir = tmp_path / "in", tmp_path / "out"
    out_dir.mkdir()
    workload = _workloads().generate(name, 0, in_dir)
    monkeypatch.chdir(in_dir)  # as the benchmark runs each stage
    for stage, argv in workload.stages:
        rc = cli.main([arg.replace("{in}", str(in_dir)).replace("{out}", str(out_dir))
                       for arg in argv])
        assert (stage, rc, capsys.readouterr().err) == (stage, 0, "")
    expected = json.loads((BENCH / "expected_sha256.json").read_text(encoding="utf-8"))
    assert {output: hashlib.sha256((out_dir / file).read_bytes()).hexdigest()
            for output, file in workload.outputs.items()} == expected[name]
