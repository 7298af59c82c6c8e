"""Output gate: every output's sha256 plus structural checks.

For the default seed the expected digests are stored in
``expected_sha256.json``; for any other seed a run compares each chain with
the run's first chain. Structural checks hold for every seed: line counts
from the generated inputs and the augment factors, prompt lines = samples,
and stats/report totals = the generated counts.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from workloads import Workload

DEFAULT_SEED = 0
EXPECTED_FILE = Path(__file__).with_name("expected_sha256.json")


def load_expected(workload: str, seed: int) -> dict[str, str] | None:
    """The stored digests for ``workload`` at the default seed, else None."""
    if seed != DEFAULT_SEED or not EXPECTED_FILE.is_file():
        return None
    return json.loads(EXPECTED_FILE.read_text(encoding="utf-8")).get(workload)


def writer_of(workload: Workload) -> dict[str, str]:
    """Output name -> the stage whose ``--out`` writes it."""
    out = {}
    for stage, argv in workload.stages:
        target = argv[argv.index("--out") + 1]
        out[Path(target).name] = stage
    return out


def _lines(data: bytes) -> int:
    return data.count(b"\n")


def _structure(name: str, data: bytes, expect: dict[str, Any]) -> list[str]:
    problems = []

    def want(what: str, got: Any, wanted: Any) -> None:
        if got != wanted:
            problems.append(f"{what}: got {got!r}, want {wanted!r}")

    if name in ("raw.jsonl", "std.jsonl"):
        want("lines", _lines(data), expect["raw_samples"])
    elif name in ("aug.jsonl", "prompts.jsonl"):
        want("lines", _lines(data), expect["aug_samples"])
    elif name == "grounding.jsonl":
        want("lines", _lines(data), expect["grounding_samples"])
    elif name == "stats.json":
        stats = json.loads(data)
        want("samples", stats["samples"], expect["aug_samples"])
        want("qa_pairs", stats["qa_pairs"], expect["aug_qa"])
        want("by_dataset", stats["by_dataset"], expect["by_dataset"])
        for section in ("by_provenance", "by_style"):
            want(f"sum({section})", sum(stats[section].values()), expect["aug_qa"])
        want("sum(by_modality)", sum(stats["by_modality"].values()),
             expect["aug_samples"])
    elif name == "report.json":
        entries = json.loads(data)["entries"]
        want("n_samples", {k: v["n_samples"] for k, v in entries.items()},
             expect["report_n"])
    return problems


def check_outputs(workload: Workload, out_dir: Path,
                  reference: dict[str, str] | None
                  ) -> tuple[dict[str, str | None], dict[str, list[str]]]:
    """Hash every output under ``out_dir`` and check it.

    Returns (digest per output, problems per output); an output with no
    problems is absent from the second dict. ``reference`` is the digest per
    output that each must equal, or None to check structure only.
    """
    digests: dict[str, str | None] = {}
    problems: dict[str, list[str]] = {}
    for name, filename in workload.outputs.items():
        path = out_dir / filename
        if not path.is_file():
            digests[name] = None
            problems[name] = ["missing"]
            continue
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        digests[name] = digest
        found = []
        if reference is not None and reference.get(name) != digest:
            found.append(f"sha256 {digest[:12]} != reference "
                         f"{str(reference.get(name))[:12]}")
        try:
            found += _structure(name, data, workload.expect)
        except (ValueError, KeyError, TypeError) as exc:
            found.append(f"unreadable: {type(exc).__name__}: {exc}")
        if found:
            problems[name] = found
    return digests, problems
