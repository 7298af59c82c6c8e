#!/usr/bin/env python3
"""Start-up time of two checkouts: spawn to ``import dataforge.cli`` returned.

Usage (from anywhere):

    python3 tools/startup.py TREE_A TREE_B [--pairs N]

Every CLI call pays this start-up (perfbench's ``setup_s`` holds it), and a
change that moves an import in or out of ``dataforge.cli``'s import graph
shows here first, without the benchmark's stage chains. Each sample is one
child ``python -c "import dataforge.cli; ..."`` run by the interpreter
running this script, with ``TREE/src`` on ``PYTHONPATH`` and
``PYTHONDONTWRITEBYTECODE=1``; it is the ``time.monotonic_ns`` span from just
before the spawn to the child's reading just after the import returns (one
system-wide clock). So each child compiles ``dataforge`` from source, as a
checkout with no ``__pycache__`` does, and a tree whose ``src/dataforge``
holds a ``__pycache__`` is refused (exit 2), as is a tree without
``src/dataforge``: bytecode left by some earlier run would make that side
look faster.

One unrecorded child per tree runs first, to warm the file cache. Then N
pairs (default 21) run one after the other, one child at a time, and each
pair alternates which tree goes first. It prints one line per pair, then
each side's median and quartiles (``statistics.quantiles``, inclusive) in
ms, the pairs each side won (ties count for neither), and last one JSON
line with every sample. Linux only: ``time.monotonic_ns`` reads
``CLOCK_MONOTONIC`` there, one clock for every process.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The child prints the clock once the import has returned.
_CHILD = "import dataforge.cli; import time; print(time.monotonic_ns())"


def _startup_ms(tree: Path) -> float:
    """One child's spawn-to-import time for ``tree``, in ms."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.monotonic_ns()
    out = subprocess.run([sys.executable, "-c", _CHILD], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return (int(out.split()[-1]) - start) / 1e6


def _summary(samples: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": round(median, 2), "q1": round(q1, 2), "q3": round(q3, 2)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree_a", type=Path)
    ap.add_argument("tree_b", type=Path)
    ap.add_argument("--pairs", type=int, default=21)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    trees = [args.tree_a.resolve(), args.tree_b.resolve()]
    for tree in trees:
        package = tree / "src" / "dataforge"
        if not package.is_dir():
            print(f"error: {tree} has no src/dataforge", file=sys.stderr)
            return 2
        if (package / "__pycache__").exists():
            print(f"error: {package / '__pycache__'} exists; remove it first",
                  file=sys.stderr)
            return 2
    for tree in trees:
        _startup_ms(tree)
    runs: list[list[float]] = [[], []]
    for pair in range(args.pairs):
        for side in (0, 1) if pair % 2 == 0 else (1, 0):
            runs[side].append(_startup_ms(trees[side]))
        print(f"pair {pair}: A {runs[0][-1]:.1f} ms, B {runs[1][-1]:.1f} ms", flush=True)
    won = [sum(x < y for x, y in zip(runs[side], runs[1 - side])) for side in (0, 1)]
    result = {}
    for side, name in enumerate("AB"):
        stats = _summary(runs[side])
        print(f"{name} {trees[side]}: median {stats['median']} ms "
              f"(quartiles {stats['q1']}-{stats['q3']}), won {won[side]}/{args.pairs}")
        result[name] = {"tree": str(trees[side]), **stats, "won": won[side],
                        "ms": [round(x, 2) for x in runs[side]]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
