#!/usr/bin/env python3
"""Peak memory of each stage of a benchmark chain, each in a fresh process.

Usage (from anywhere):

    python3 tools/stage_peaks.py --seed N [--workload W] [--tree TREE]

For each benchmark workload (all of them, or only ``W``) it writes the
inputs with ``perfbench/workloads.generate`` for seed ``N``, then runs the
workload's stages in order, each as its own ``python`` process with
``TREE/src`` (default: this checkout's) on ``PYTHONPATH``, in the input
directory as the benchmark runs them. Each process runs one stage through
``dataforge.cli.main`` and then reads its own ``VmHWM`` (peak resident set)
from ``/proc/self/status``; a first process only imports ``dataforge.cli``,
for the floor. A process's ``VmHWM`` starts afresh at ``exec``, unlike the
``ru_maxrss`` of a child, which on Linux keeps the high-water mark of the
process that spawned it. Range workers forked by a manifest stage are
processes of their own and are not counted. Prints one line per stage:
name, exit code and ``VmHWM`` in MiB. Exits 1 if a stage exits non-zero.
Linux only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE / "perfbench"))

from workloads import GENERATORS, generate  # noqa: E402

# Runs one stage (or, with no arguments, only the import) and prints
# "<exit code> <VmHWM in kB>" as its last line of standard output.
_CHILD = """\
import sys
from dataforge.cli import main
rc = main(sys.argv[1:]) if sys.argv[1:] else 0
with open("/proc/self/status", encoding="ascii") as fh:
    kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(rc, kib)
"""


def _peak(tree: Path, argv: list[str], cwd: Path) -> tuple[int, float]:
    """(exit code, VmHWM in MiB) of one fresh process running ``argv``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:1]} ended with status {proc.returncode}:\n"
                           f"{proc.stderr}")
    rc, kib = proc.stdout.splitlines()[-1].split()
    return int(rc), int(kib) / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=sorted(GENERATORS))
    parser.add_argument("--tree", type=Path, default=HERE,
                        help="checkout whose src/ runs (default: this one)")
    args = parser.parse_args()
    tree = args.tree.resolve()
    if not (tree / "src" / "dataforge").is_dir():
        print(f"error: {tree} has no src/dataforge", file=sys.stderr)
        return 2
    failed = False
    for name in [args.workload] if args.workload else list(GENERATORS):
        with tempfile.TemporaryDirectory(prefix="stage-peaks-") as tmp:
            in_dir = Path(tmp) / "in"
            workload = generate(name, args.seed, in_dir)
            print(f"{name} seed {args.seed} ({tree}):")
            rows = [("(import only)", [])] + [
                (stage, [a.replace("{in}", ".").replace("{out}", "../out") for a in argv])
                for stage, argv in workload.stages]
            for stage, argv in rows:
                rc, mib = _peak(tree, argv, in_dir)
                failed |= rc != 0
                print(f"  {stage:<16} exit {rc}  VmHWM {mib:6.1f} MiB")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
