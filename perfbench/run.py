#!/usr/bin/env python3
"""dataforge benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload c10-coda --seed 0 --seconds 40 --trace 0

Generates the workload's inputs from the seed, then for ``--seconds`` runs
the workload's stage chain through ``dataforge.cli.main`` in fresh child
processes (one chain per child, default ``--jobs``, ``--offline``), timing
each stage from outside, and checks every output's bytes. The gated times
are scaled to reference host speed by probes each child runs during and
between stages (calibrate.py). ``--trace 1``
instead runs one untraced and one traced chain and reports the per-layer
numbers from the traced one. The last line of standard output is one JSON
object: ``correct``, ``attempted``/``failed`` stage calls and ``metrics``.
Everything it writes goes under ``.perfbench_work/`` in the checkout.
See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import scaled
from gate import check_outputs, load_expected, writer_of
from workloads import GENERATORS, Workload, generate

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5      # import-only children per run, on top of one per chain
MIN_CHAINS = 3         # a run compares its chains and takes their median
RUN_LIMIT_S = 165      # children still running this long after start are killed
STAGES = ("ingest", "standardize", "augment", "gen_perception",
          "build_prompts", "stats", "evaluate")

# Per-layer metrics of the traced run. TIMED: summed self seconds; COUNTED:
# call counts; RATIOS: name -> (numerator counter, base counter).
TIMED = (
    "ingest.parse_source", "ingest.read_manifest", "ingest.write_manifest",
    "core.sample_from_json", "core.sample_from_dict", "core.sample_to_json",
    "core.validate_sample", "tokens.scan_tokens",
    "standardize.standardize_sample", "augment.expand_dataset",
    "augment.local_paraphrase", "promptkit.assemble_prompt",
    "promptkit.check_budget", "perceptgen.annotation_from_dict",
    "perceptgen.build_grounding_sample", "metrics.record_from_dict",
    "metrics.evaluate_records", "metrics.average_precision", "metrics.bleu",
    "metrics.center_match_score",
)
COUNTED = (
    "core.sample_from_json", "core.validate_sample", "core.assert_unique_ids",
    "tokens.scan_tokens", "standardize.standardize_sample",
    "augment.SeededRng.stream", "augment.to_multiple_choice",
    "promptkit.assemble_prompt", "promptkit.check_budget",
    "perceptgen.build_grounding_sample", "metrics.average_precision",
)
COUNTERS = {  # metric -> tracer counter
    "ingest.write_manifest.bytes": "ingest.write_manifest.bytes",
    "standardize.tokens_rewritten": "standardize._render_normalized.calls",
    "augment.mc_converted": "augment.mc_converted",
    "augment.mc_pool_too_small": "augment.to_multiple_choice.raised.PoolTooSmall",
    "promptkit.over_budget": "promptkit.over_budget",
    "metrics.ap_detections": "metrics.ap_detections",
}
RATIOS = {
    "standardize.changed_ratio": ("standardize.changed",
                                  "standardize.standardize_sample.calls"),
    "augment.mc_converted_ratio": ("augment.mc_converted",
                                   "augment.to_multiple_choice.calls"),
    "promptkit.assemble_per_prompt": ("promptkit.assemble_prompt.calls",
                                      "promptkit.check_budget.calls"),
}


class Runner:
    """Spawns the children of one run and keeps their reports."""

    def __init__(self, root: Path, work: Path, workload: Workload) -> None:
        self.root = root
        self.work = work
        self.workload = workload
        self.in_dir = work / "inputs"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.spawned = 0
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def spawn(self, spec: dict) -> dict:
        """Run one child on ``spec``; return its report with its set-up time.

        ``setup_s`` is the wall time from the parent's spawn until the child's
        ``import dataforge.cli`` returned; ``setup_scaled_s`` is that time at
        reference host speed, by the probes the child ran right after.
        """
        self.spawned += 1
        tag = f"child-{self.spawned}"
        spec = dict(spec, src=str(self.root / "src"),
                    result=str(self.work / f"{tag}.json"))
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        err_path = self.work / f"{tag}.stderr"
        with err_path.open("wb") as err:
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                cwd=self.in_dir, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
                timeout=max(1.0, self.deadline - started))
        if proc.returncode != 0:
            raise RuntimeError(f"benchmark child exited {proc.returncode}: "
                               + err_path.read_text(errors="replace")[-2000:])
        report = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
        report["setup_s"] = report["imported_at"] - started
        report["setup_scaled_s"] = scaled(report["setup_s"],
                                          report["setup_probes_s"])
        return report

    def chain(self, index: int, trace_run_id: str | None = None) -> dict:
        """Run the stage chain once in a fresh child."""
        out_dir = self.work / f"chain-{index}"
        out_dir.mkdir(parents=True, exist_ok=True)
        fill = {"in": str(self.in_dir), "out": str(out_dir)}
        stages = [[name, [a.format(**fill) for a in argv]]
                  for name, argv in self.workload.stages]
        spec: dict = {"stages": stages}
        if trace_run_id is not None:
            spec["trace"] = {"run_id": trace_run_id,
                             "spans": str(self.work / "spans.jsonl.gz")}
        report = self.spawn(spec)
        for stage in report["stages"]:
            stage["scaled_s"] = scaled(stage["seconds"], stage["probes_s"])
        return {"out_dir": out_dir, "setup_s": report["setup_s"],
                "setup_scaled_s": report["setup_scaled_s"],
                "stages": report["stages"],
                "pipeline_s": sum(s["seconds"] for s in report["stages"]),
                "pipeline_scaled_s": sum(s["scaled_s"] for s in report["stages"]),
                "maxrss_mib": report["maxrss_kib"] / 1024,
                "numpy": report["numpy"], "layers": report.get("layers")}


def gate_chains(workload: Workload, chains: list[dict],
                expected: dict[str, str] | None) -> tuple[int, int, list[str]]:
    """Check each chain's outputs; return (attempted, failed, problems).

    A stage call fails if it returns non-zero, raises, or writes an output
    that is missing, has the wrong structure, or differs from the expected
    digest (the stored one for the default seed, else the first chain's).
    """
    writers = writer_of(workload)
    attempted = failed = 0
    notes: list[str] = []
    reference = expected
    for k, chain in enumerate(chains):
        digests, problems = check_outputs(workload, chain["out_dir"], reference)
        chain["sha256"] = digests
        if reference is None:
            reference = digests
        bad = {writers[name] for name in problems}
        for name, found in problems.items():
            notes += [f"chain {k}: {name}: {p}" for p in found]
        for stage in chain["stages"]:
            attempted += 1
            if stage["rc"] != 0 or stage["error"]:
                bad.add(stage["stage"])
                notes.append(f"chain {k}: {stage['stage']}: rc={stage['rc']} "
                             f"error={stage['error']}")
            if stage["stage"] in bad:
                failed += 1
    return attempted, failed, notes


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setups: list[dict], chains: list[dict]) -> tuple[dict, dict]:
    """(contract metrics, other medians) over one run's children.

    The gated times are scaled to reference host speed (see calibrate.py);
    the wall times are reported beside them.
    """
    def median(key: str, children: list[dict] = chains) -> float:
        return statistics.median(c[key] for c in children)

    metrics = {
        "setup_s": _metric(median("setup_scaled_s", setups), "s"),
        "pipeline_scaled_s": _metric(median("pipeline_scaled_s"), "s"),
        "peak_rss_mb": _metric(median("maxrss_mib"), "MiB"),
    }
    other = {"setup_wall_s": _metric(median("setup_s", setups), "s"),
             "pipeline_s": _metric(median("pipeline_s"), "s")}
    for k, stage in enumerate(chains[0]["stages"]):
        for key, suffix in (("scaled_s", "_scaled_s"), ("seconds", "_s")):
            other[stage["stage"] + suffix] = _metric(
                statistics.median(c["stages"][k][key] for c in chains), "s")
    return metrics, other


def per_layer(layers: dict, overhead_s: float) -> tuple[dict, dict]:
    """(per-layer metrics, base of each ratio) from a traced chain's summary."""
    self_s, counters = layers["self_s"], layers["counters"]
    m = {}
    for name in TIMED:
        m[f"{name}.s"] = _metric(self_s.get(name, 0.0), "s")
    for name in COUNTED:
        m[f"{name}.calls"] = _metric(counters.get(f"{name}.calls", 0), "count")
    for metric, counter in COUNTERS.items():
        unit = "bytes" if metric.endswith(".bytes") else "count"
        m[metric] = _metric(counters.get(counter, 0), unit)
    bases = {}
    for metric, (num, base) in RATIOS.items():
        n, d = counters.get(num, 0), counters.get(base, 0)
        m[metric] = _metric(n / d if d else 0.0, "ratio")
        bases[metric] = f"{n} {num} / {d} {base}"
    for stage in STAGES:
        m[f"cli.{stage}.self_s"] = _metric(self_s.get(f"cli.{stage}", 0.0), "s")
    m["trace.overhead_s"] = _metric(overhead_s, "s")
    m["trace.spans"] = _metric(layers["spans"], "count")
    return m, bases


def environment(workload: Workload, numpy_version: str | None) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform(),
            "workload": workload.name, "seed": workload.seed,
            "sizes": workload.sizes}


def run(args: argparse.Namespace) -> int:
    root = Path.cwd()
    if not (root / "src" / "dataforge" / "cli.py").is_file():
        print("error: run from the root of a dataforge checkout "
              "(src/dataforge/cli.py not found)", file=sys.stderr)
        return 2
    base = root / ".perfbench_work"
    work = base / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = base / "results"
    shutil.rmtree(work, ignore_errors=True)
    results.mkdir(parents=True, exist_ok=True)
    workload = generate(args.workload, args.seed, work / "inputs")
    runner = Runner(root, work, workload)

    start = time.monotonic()
    setups = [runner.spawn({"stages": []}) for _ in range(SETUP_SAMPLES)]
    chains: list[dict] = []
    if args.trace:
        chains.append(runner.chain(0))
        chains.append(runner.chain(1, trace_run_id=work.name))
    else:
        chains_start = time.monotonic()
        while True:
            chains.append(runner.chain(len(chains)))
            now = time.monotonic()
            per_chain = (now - chains_start) / len(chains)
            if len(chains) >= MIN_CHAINS and now - start + per_chain > args.seconds:
                break
    setups = [{k: c[k] for k in ("setup_s", "setup_scaled_s")}
              for c in setups + chains]

    attempted, failed, notes = gate_chains(
        workload, chains, load_expected(workload.name, workload.seed))
    # The traced chain is slower and holds its spans in memory, so the
    # end-to-end numbers come from the untraced chains only.
    untraced = chains[:1] if args.trace else chains
    metrics, stage_medians = end_to_end(setups, untraced)
    bases: dict[str, str] = {}
    if args.trace:
        overhead = chains[1]["pipeline_s"] - chains[0]["pipeline_s"]
        layer_metrics, bases = per_layer(chains[1]["layers"], overhead)
        shutil.move(work / "spans.jsonl.gz",
                    results / f"{work.name}.spans.jsonl.gz")
    env = environment(workload, chains[0]["numpy"])

    record = {"env": env, "seconds": args.seconds, "trace": args.trace,
              "setup_samples_s": setups, "chains": [
                  {k: (str(v) if isinstance(v, Path) else v)
                   for k, v in c.items()} for c in chains],
              "metrics": metrics, "stage_medians": stage_medians,
              "attempted": attempted, "failed": failed, "problems": notes}
    if args.trace:
        record["per_layer"] = layer_metrics
        record["ratio_bases"] = bases
    (results / f"{work.name}.json").write_text(json.dumps(record, indent=1),
                                              encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)

    print(f"env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"workload={workload.name} seed={workload.seed} sizes={workload.sizes}")
    print(f"children: {len(setups)} set-ups, {len(chains)} chains")
    for name, m in {**metrics, **stage_medians}.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"error_rate: {failed / attempted:.6g} ratio ({failed}/{attempted} stage calls)")
    if args.trace:
        for name, m in layer_metrics.items():
            extra = f"  ({bases[name]})" if name in bases else ""
            print(f"{name}: {m['value']:.6g} {m['unit']}{extra}")
    for note in notes:
        print(f"problem: {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": layer_metrics if args.trace else metrics}))
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
