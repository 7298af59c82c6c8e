#!/usr/bin/env python3
"""Record the expected output digests for the default seed.

Usage (from the root of a checkout): python3 perfbench/record_expected.py

Runs every workload's chain twice at the default seed, requires the two runs
to agree and to pass the structural checks, and writes their sha256 digests
to perfbench/expected_sha256.json. Re-record only for a change that is meant
to alter output bytes, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from gate import DEFAULT_SEED, EXPECTED_FILE, check_outputs
from run import Runner
from workloads import GENERATORS, generate


def main() -> int:
    root = Path.cwd()
    expected = {}
    for name in sorted(GENERATORS):
        work = root / ".perfbench_work" / f"record-{name}"
        shutil.rmtree(work, ignore_errors=True)
        runner = Runner(root, work, generate(name, DEFAULT_SEED, work / "inputs"))
        digests = []
        for k in range(2):
            chain = runner.chain(k)
            failed = [s for s in chain["stages"] if s["rc"] != 0 or s["error"]]
            got, problems = check_outputs(runner.workload, chain["out_dir"], None)
            if failed or problems:
                print(f"{name}: {failed or problems}", file=sys.stderr)
                return 1
            digests.append(got)
        if digests[0] != digests[1]:
            print(f"{name}: two runs disagree: {digests}", file=sys.stderr)
            return 1
        expected[name] = digests[0]
        shutil.rmtree(work, ignore_errors=True)
        print(f"{name}: {len(digests[0])} outputs")
    EXPECTED_FILE.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
