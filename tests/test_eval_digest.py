"""evaluate's report on the benchmark's eval-mix file is byte for byte the one
the benchmark expects, so a scoring change that moves one float bit fails
here and not only in a benchmark run. The workload generator and the
expected digests are read from ``perfbench/``, never written."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

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


def test_evaluate_on_eval_mix_seed_0_gives_the_benchmark_digest(tmp_path, capsys):
    in_dir, out_dir = tmp_path / "in", tmp_path / "out"
    out_dir.mkdir()
    workload = _workloads().generate("eval-mix", 0, in_dir)
    [(stage, argv)] = workload.stages
    assert stage == "evaluate"
    rc = cli.main([arg.replace("{in}", str(in_dir)).replace("{out}", str(out_dir))
                   for arg in argv])
    assert (rc, capsys.readouterr().err) == (0, "")
    expected = json.loads((BENCH / "expected_sha256.json").read_text(encoding="utf-8"))
    assert {name: hashlib.sha256((out_dir / file).read_bytes()).hexdigest()
            for name, file in workload.outputs.items()} == expected["eval-mix"]
