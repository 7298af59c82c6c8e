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
from ``/proc/self/status`` and its own CPU time (user plus system, from
``getrusage(RUSAGE_SELF)``); a first process only imports ``dataforge.cli``,
for the floor of both, which is start-up with the bytecode pinned. A
process's ``VmHWM`` starts afresh at ``exec``, unlike the ``ru_maxrss`` of a
child, which on Linux keeps the high-water mark of the process that spawned
it. The workers a stage forks to split its work are processes of their own,
so after the stage the process also reads
``getrusage(RUSAGE_CHILDREN).ru_maxrss``: the peak resident set of the
largest worker it waited for (0 if it forked none). Prints one line per
stage: name, exit code, CPU time in ms, ``VmHWM`` and the workers' peak in
MiB. Exits 1 if a stage exits non-zero. Linux only.

Every child reads its bytecode from one temporary ``PYTHONPYCACHEPREFIX``
and writes none, so no reading depends on a ``__pycache__`` some other run
left in the tree (compiling a module costs time and memory). Before the
first child, one process fills that prefix: it imports every ``dataforge``
module with bytecode writing on, which compiles ``TREE/src`` and the
standard-library modules they load (a prefix hides their ``__pycache__``).
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
# "<exit code> <VmHWM in kB> <workers' ru_maxrss in kB> <own CPU s>" as its
# last line of standard output.
_CHILD = """\
import resource, sys
from dataforge.cli import main
rc = main(sys.argv[1:]) if sys.argv[1:] else 0
own = resource.getrusage(resource.RUSAGE_SELF)
with open("/proc/self/status", encoding="utf-8") as fh:  # "ascii" would load a module
    kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(rc, kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
      own.ru_utime + own.ru_stime)
"""

# Fills the bytecode prefix: imports every module of the package.
_COMPILE = """\
import importlib, pkgutil
import dataforge
for module in pkgutil.iter_modules(dataforge.__path__, "dataforge."):
    importlib.import_module(module.name)
"""


def _pinned_env(tree: Path, prefix: str) -> dict[str, str]:
    """The environment of every child: ``TREE/src`` on the path, its
    bytecode read from ``prefix``, which ``_COMPILE`` fills first."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONPYCACHEPREFIX=prefix)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    subprocess.run([sys.executable, "-c", _COMPILE], env=env, check=True)
    return dict(env, PYTHONDONTWRITEBYTECODE="1")


def _peak(env: dict[str, str], argv: list[str],
          cwd: Path) -> tuple[int, float, float, float]:
    """(exit code, VmHWM in MiB, workers' peak in MiB, own CPU time in s) of
    one fresh process running ``argv``."""
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:1]} ended with status {proc.returncode}:\n"
                           f"{proc.stderr}")
    rc, kib, workers_kib, cpu_s = proc.stdout.splitlines()[-1].split()
    return int(rc), int(kib) / 1024, int(workers_kib) / 1024, float(cpu_s)


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
            env = _pinned_env(tree, str(Path(tmp) / "pycache"))
            workload = generate(name, args.seed, in_dir)
            print(f"{name} seed {args.seed} ({tree}):")
            rows = [("(import only)", [])] + [
                (stage, [a.replace("{in}", ".").replace("{out}", "../out") for a in argv])
                for stage, argv in workload.stages]
            for stage, argv in rows:
                rc, mib, workers_mib, cpu_s = _peak(env, argv, in_dir)
                failed |= rc != 0
                print(f"  {stage:<16} exit {rc}  CPU {cpu_s * 1000:7.1f} ms  "
                      f"VmHWM {mib:6.1f} MiB  workers {workers_mib:6.1f} MiB")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
