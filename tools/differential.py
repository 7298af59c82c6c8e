#!/usr/bin/env python3
"""Same-bytes check of this tree against another checkout.

Usage (from anywhere):

    python3 tools/differential.py PARENT_TREE --seed N [--workload W]

For each benchmark workload (all of them, or only ``W``) it writes the
inputs with ``perfbench/workloads.generate`` for seed ``N``, then runs the
workload's stage chain with ``python -m dataforge.cli`` twice: once with
``PARENT_TREE/src`` on ``PYTHONPATH`` and once with this tree's ``src``. As in
the benchmark, each stage runs in the input directory; both chains write to
the same relative output directory, one after the other, so their
``wrote ...`` lines can be compared as text. It compares each stage's exit
code, stdout and stderr, then the sha256 of every file the chain wrote.

Each workload is checked in two passes: with every usable CPU, and with
each stage pinned to one CPU (``os.sched_setaffinity`` in the child only),
so the stages' one-range and one-share paths are compared too. At the first
difference, or at a stage that fails on both trees, it prints what it found
and exits 1; otherwise it exits 0. A tree without ``src/dataforge`` exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE / "perfbench"))

from workloads import GENERATORS, generate  # noqa: E402


def _run_chain(tree: Path, stages: list[tuple[str, list[str]]], in_dir: Path,
               cpu: int | None) -> tuple[list[tuple[str, int, str, str]], dict[str, str]]:
    """Each stage's (name, exit code, stdout, stderr), then the sha256 of
    every file the chain wrote, by its path under the output directory. Each
    stage runs on ``cpu`` alone, or on every usable CPU if it is None. The
    output directory is removed afterwards."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    pin = None if cpu is None else partial(os.sched_setaffinity, 0, {cpu})
    out_dir = in_dir.parent / "out"
    results = []
    for name, argv in stages:
        args = [a.replace("{in}", ".").replace("{out}", "../out") for a in argv]
        proc = subprocess.run([sys.executable, "-m", "dataforge.cli", *args],
                              cwd=in_dir, env=env, capture_output=True, text=True,
                              preexec_fn=pin)
        results.append((name, proc.returncode, proc.stdout, proc.stderr))
    digests = {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out_dir.rglob("*")) if p.is_file()}
    shutil.rmtree(out_dir, ignore_errors=True)
    return results, digests


def _first_difference(parent: tuple, change: tuple) -> str | None:
    (parent_stages, parent_files), (change_stages, change_files) = parent, change
    for (name, *old), (_, *new) in zip(parent_stages, change_stages):
        for what, a, b in zip(("exit code", "stdout", "stderr"), old, new):
            if a != b:
                return f"stage {name}: {what} differs\n  parent: {a!r}\n  change: {b!r}"
        if old[0] != 0:
            return f"stage {name}: exits {old[0]} on both trees\n  stderr: {old[2]!r}"
    for path in sorted(parent_files.keys() | change_files.keys()):
        a, b = parent_files.get(path), change_files.get(path)
        if a != b:
            return f"output {path}: sha256 differs\n  parent: {a}\n  change: {b}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_tree", type=Path, metavar="PARENT_TREE")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=sorted(GENERATORS))
    args = parser.parse_args()
    trees = {"parent": args.parent_tree.resolve(), "change": HERE}
    for side, tree in trees.items():
        if not (tree / "src" / "dataforge").is_dir():
            print(f"error: {side} tree {tree} has no src/dataforge", file=sys.stderr)
            return 2
    passes = {"all CPUs": None, "one CPU": min(os.sched_getaffinity(0))}
    for name in [args.workload] if args.workload else list(GENERATORS):
        with tempfile.TemporaryDirectory(prefix="differential-") as tmp:
            root = Path(tmp)
            workload = generate(name, args.seed, root / "in")
            for label, cpu in passes.items():
                runs = {side: _run_chain(tree, workload.stages, root / "in", cpu)
                        for side, tree in trees.items()}
                difference = _first_difference(runs["parent"], runs["change"])
                if difference is not None:
                    print(f"{name} seed {args.seed} ({label}): {difference}")
                    return 1
                stages, files = runs["change"]
                print(f"{name} seed {args.seed} ({label}): {len(stages)} stages and "
                      f"{len(files)} outputs, no difference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
