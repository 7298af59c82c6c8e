#!/usr/bin/env python3
"""Same-bytes check of this tree against another checkout.

Usage (from anywhere):

    python3 tools/differential.py PARENT_TREE --seed N [--workload W] [--python PATH]...
                                  [--width N]...

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
so the stages' one-range and one-share paths are compared too. Each
``--width N`` (repeatable) adds a pass in which each child's
``os.sched_getaffinity`` reports N CPUs: the child alone is patched, and no
real affinity changes, so the split paths of N ranges and shares run at full
scale on a machine with fewer CPUs. This tree's chain in every pass after the
first is also compared with its chain in the first. Each ``--python PATH``
(repeatable) adds a check to each pass: this tree's chain run by that
interpreter against this tree's chain run by the interpreter running this
script.

Each pass also runs each ``ingest`` and ``gen-perception`` stage of a chain
once more, on its source with one bad record (``{}``) appended: the last
configured source for an ingest run from ``--config``. That run must fail on
both sides with the same exit code, stdout and stderr, and write no file, so
the stage's fallback to its one-process read is compared at full scale too.

At the first difference, at a chain stage that fails on both sides, or at a
faulty-source run that does not fail or writes a file, it prints what it
found and exits 1; otherwise it exits 0. A tree without ``src/dataforge``
exits 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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

# Runs dataforge.cli as ``-m`` does, with os.sched_getaffinity reporting
# argv[1] CPUs in this process only.
_WIDTH = """\
import os, runpy, sys
width = int(sys.argv.pop(1))
os.sched_getaffinity = lambda pid: set(range(width))
runpy.run_module("dataforge.cli", run_name="__main__", alter_sys=True)
"""


def _run_chain(python: str, tree: Path, stages: list[tuple[str, list[str]]], in_dir: Path,
               cpu: int | None, width: int | None = None
               ) -> tuple[list[tuple[str, int, str, str]], dict[str, str]]:
    """Each stage's (name, exit code, stdout, stderr) under the interpreter
    ``python``, then the sha256 of every file the chain wrote, by its path
    under the output directory. Each stage runs on ``cpu`` alone, or on every
    usable CPU if it is None; with a ``width``, it sees that many CPUs. The
    output directory is removed afterwards."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    pin = None if cpu is None else partial(os.sched_setaffinity, 0, {cpu})
    run = ["-m", "dataforge.cli"] if width is None else ["-c", _WIDTH, str(width)]
    out_dir = in_dir.parent / "out"
    results = []
    for name, argv in stages:
        args = [a.replace("{in}", ".").replace("{out}", "../out") for a in argv]
        proc = subprocess.run([python, *run, *args],
                              cwd=in_dir, env=env, capture_output=True, text=True,
                              preexec_fn=pin)
        results.append((name, proc.returncode, proc.stdout, proc.stderr))
    digests = {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out_dir.rglob("*")) if p.is_file()}
    shutil.rmtree(out_dir, ignore_errors=True)
    return results, digests


def _first_difference(side: str, other: tuple, change: tuple,
                      faulty: bool = False) -> str | None:
    """The first difference between the chain run ``other``, labelled
    ``side``, and this tree's run ``change``; None if they agree. A stage
    must exit 0, or, on a ``faulty`` source, not 0 and write no file."""
    (other_stages, other_files), (change_stages, change_files) = other, change
    for (name, *old), (_, *new) in zip(other_stages, change_stages):
        for what, a, b in zip(("exit code", "stdout", "stderr"), old, new):
            if a != b:
                return f"stage {name}: {what} differs\n  {side}: {a!r}\n  change: {b!r}"
        if (old[0] != 0) != faulty:
            return f"stage {name}: exits {old[0]} on both sides\n  stderr: {old[2]!r}"
    for path in sorted(other_files.keys() | change_files.keys()):
        a, b = other_files.get(path), change_files.get(path)
        if faulty:
            return f"output {path}: written on a faulty source\n  {side}: {a}\n  change: {b}"
        if a != b:
            return f"output {path}: sha256 differs\n  {side}: {a}\n  change: {b}"
    return None


def _faulty_runs(stages: list[tuple[str, list[str]]], in_dir: Path, faulty_dir: Path
                 ) -> list[tuple[str, list[tuple[str, list[str]]]]]:
    """A copy of ``in_dir`` at ``faulty_dir`` with a bad record appended to the
    source of each ingest and gen-perception stage of ``stages``; each such
    stage as a one-stage chain, with its label."""
    shutil.copytree(in_dir, faulty_dir)
    runs = []
    for name, argv in stages:
        if name not in ("ingest", "gen_perception"):
            continue
        args = [a.replace("{in}/", "") for a in argv]
        if "--in" in args:
            source = args[args.index("--in") + 1]
        else:  # ingest from --config: its last source
            config = json.loads((in_dir / args[args.index("--config") + 1]).read_text())
            source = list(config["sources"].values())[-1]
        path = faulty_dir / source
        path.write_text(path.read_text(encoding="utf-8").rstrip()[:-1] + ", {}]",
                        encoding="utf-8")
        runs.append((f"{name} on a faulty source", [(name, argv)]))
    return runs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_tree", type=Path, metavar="PARENT_TREE")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=sorted(GENERATORS))
    parser.add_argument("--python", action="append", default=[], metavar="PATH",
                        help="also compare this tree's chain under this interpreter")
    parser.add_argument("--width", action="append", default=[], type=int, metavar="N",
                        help="add a pass in which each child sees N CPUs")
    args = parser.parse_args()
    if any(width < 1 for width in args.width):
        parser.error("--width must be at least 1")
    trees = {"parent": args.parent_tree.resolve(), "change": HERE}
    for side, tree in trees.items():
        if not (tree / "src" / "dataforge").is_dir():
            print(f"error: {side} tree {tree} has no src/dataforge", file=sys.stderr)
            return 2
    # Each side the change is compared with: (label, interpreter, tree).
    others = [("parent", sys.executable, trees["parent"])] + [
        (f"python {python}", python, HERE) for python in args.python]
    # Each pass: (label, pinned CPU, width).
    passes = [("all CPUs", None, None), ("one CPU", min(os.sched_getaffinity(0)), None)]
    passes += [(f"width {width}", None, width) for width in args.width]
    for name in [args.workload] if args.workload else list(GENERATORS):
        with tempfile.TemporaryDirectory(prefix="differential-") as tmp:
            root = Path(tmp)
            workload = generate(name, args.seed, root / "in")
            # Each run: (label, stages, input directory, faulty).
            runs = [("chain", workload.stages, root / "in", False)] + [
                (run_label, stages, root / "faulty", True) for run_label, stages
                in _faulty_runs(workload.stages, root / "in", root / "faulty")]
            first: dict[str, tuple] = {}
            for label, cpu, width in passes:
                for run_label, stages, in_dir, faulty in runs:
                    change = _run_chain(sys.executable, HERE, stages, in_dir, cpu, width)
                    for side, python, tree in others:
                        other = _run_chain(python, tree, stages, in_dir, cpu, width)
                        difference = _first_difference(side, other, change, faulty)
                        if difference is not None:
                            print(f"{name} seed {args.seed} ({label}, {side}, {run_label}): "
                                  f"{difference}")
                            return 1
                    first_label, first_change = first.setdefault(run_label, (label, change))
                    difference = _first_difference(f"change, {first_label}", first_change,
                                                   change, faulty)
                    if difference is not None:
                        print(f"{name} seed {args.seed} ({label}, change, {run_label}): "
                              f"{difference}")
                        return 1
                    ran, files = change
                    print(f"{name} seed {args.seed} ({label}): {run_label}, {len(ran)} "
                          f"stages and {len(files)} outputs, no difference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
