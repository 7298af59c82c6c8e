"""Command-line pipeline driver.

One binary, subcommand per pipeline step, a single JSON config file as the
source of truth, and flag overrides for the common knobs. Every run is a pure
function of (inputs, config.seed): no step reads the clock or the environment
for entropy.

Exit codes: 0 success, 1 data violation (bad records, grammar failures,
provenance refusals), 2 config or I/O trouble.

A subcommand runs with the cyclic garbage collector paused: a stage holds
tens of thousands of samples and creates no reference cycles, so the collector
would only re-walk a growing heap. Reference counting still frees everything.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Sequence
from urllib.parse import urlsplit

from .augment import DEFAULT_FACTORS, ExpansionPolicy, Rewriter, SeededRng, expand_dataset
from .core import (
    DatasetId,
    MediaKind,
    Provenance,
    Sample,
    _DATASETS,
    _member,
    atomic_writer,
    decode_json,
    encode_json,
    json_bool,
    json_int,
    json_number,
    json_object,
    json_str,
    validate_sample,
)
from .curriculum import DEFAULT_EXPECTATIONS, build_all_plans, validate_plan_totals, write_stage_plans
from .errors import DataforgeError, ProvenanceError, SchemaError
from .ingest import iter_manifest, parse_source, read_manifest, write_manifest
from .metrics import evaluate_records, record_from_dict, report_to_dict
from .perceptgen import build_grounding_sample, grounding_record_from_dict
from .promptkit import SEQUENCE_LIMIT, check_budget
from .standardize import standardize_sample

OFFLINE_ENV = "DATAFORGE_OFFLINE"


class ConfigError(DataforgeError):
    """The pipeline config file is missing, unreadable, or malformed."""


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    offline: bool = False
    out_dir: Path = Path("out")
    sources: dict[DatasetId, Path] = field(default_factory=dict)
    factors: dict[DatasetId, int] | None = None
    mc_fraction: float = 0.2
    rewriter_url: str | None = None
    registry: dict[str, int] | None = None

    def __post_init__(self) -> None:
        if self.seed.bit_length() > 64:
            raise ConfigError("seed must fit in 64 bits")


_CONFIG_KEYS = frozenset({"seed", "offline", "out_dir", "sources", "augment",
                          "registry"})
_AUGMENT_KEYS = frozenset({"factors", "mc_fraction", "rewriter_url"})


def _check_keys(data: Any, allowed: frozenset[str], section: str) -> dict[str, Any]:
    json_object(data, section)
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown {section} key(s): {', '.join(unknown)}")
    return data


def _rewriter_url(value: Any) -> str:
    """An http(s) URL that urllib can POST to: http.client rejects spaces and
    control characters with an error no retry handles."""
    url = json_str(value, "augment rewriter_url")
    try:
        parts = urlsplit(url)
        valid = (parts.scheme in ("http", "https") and parts.hostname is not None
                 and parts.port != 0 and url.isprintable() and " " not in url)
    except ValueError:  # an unclosed IPv6 bracket, a port above 65535
        valid = False
    if not valid:
        raise ConfigError(f"augment rewriter_url must be an http(s) URL, got {url!r}")
    return url


def _config_from_dict(data: Any) -> PipelineConfig:
    """The config a decoded config file describes; every value is read at
    its JSON type, and any other value is a ConfigError."""
    try:
        _check_keys(data, _CONFIG_KEYS, "config")
        kwargs: dict[str, Any] = {}
        if "seed" in data:
            kwargs["seed"] = json_int(data["seed"], "seed")
        if "offline" in data:
            kwargs["offline"] = json_bool(data["offline"], "offline")
        if "out_dir" in data:
            kwargs["out_dir"] = Path(json_str(data["out_dir"], "out_dir"))
        if "sources" in data:
            kwargs["sources"] = {
                _member(_DATASETS, DatasetId, name, "sources"):
                    Path(json_str(path, f"source path for {name}"))
                for name, path in json_object(data["sources"], "sources").items()}
        if "augment" in data:
            aug = _check_keys(data["augment"], _AUGMENT_KEYS, "augment")
            if "factors" in aug:
                kwargs["factors"] = {
                    _member(_DATASETS, DatasetId, name, "augment factors"):
                        json_int(f, f"augment factor for {name}", minimum=1)
                    for name, f in json_object(aug["factors"], "augment factors").items()}
            if "mc_fraction" in aug:
                kwargs["mc_fraction"] = json_number(
                    aug["mc_fraction"], "augment mc_fraction", minimum=0, maximum=1)
            if "rewriter_url" in aug:
                kwargs["rewriter_url"] = _rewriter_url(aug["rewriter_url"])
        if "registry" in data:
            kwargs["registry"] = {
                name: json_int(count, f"registry count for {name}", minimum=1)
                for name, count in json_object(data["registry"], "registry").items()}
    except SchemaError as exc:
        raise ConfigError(str(exc)) from None
    return PipelineConfig(**kwargs)


def load_config(path: str | Path | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not valid UTF-8: {exc}") from None
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer over 4300 digits
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return _config_from_dict(data)


def _apply_overrides(cfg: PipelineConfig, args: argparse.Namespace) -> PipelineConfig:
    updates: dict[str, Any] = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "offline", False) or os.environ.get(OFFLINE_ENV) == "1":
        updates["offline"] = True
    if getattr(args, "out", None) is not None and hasattr(cfg, "out_dir"):
        updates["out_dir"] = Path(args.out)
    return replace(cfg, **updates) if updates else cfg


# ---------------------------------------------------------------------------
# Shared I/O helpers
# ---------------------------------------------------------------------------

def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write_json(path: Path, payload: Any) -> None:
    with atomic_writer(path) as fh:
        fh.write(json.dumps(payload, ensure_ascii=False, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_ingest(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    sources: list[tuple[DatasetId, Path]] = []
    if args.adapter or args.infile:
        if not (args.adapter and args.infile):
            raise ConfigError("ingest needs both --adapter and --in "
                              "(or neither, with sources in the config)")
        sources.append((DatasetId(args.adapter), Path(args.infile)))
    elif cfg.sources:
        sources.extend(sorted(cfg.sources.items(), key=lambda kv: kv[0].value))
    else:
        raise ConfigError("nothing to ingest: pass --adapter/--in or list "
                          "sources in the config")
    samples: list[Sample] = []
    for dataset, path in sources:
        samples.extend(parse_source(dataset, _read_text(str(path))))
    write_manifest(samples, args.out)
    print(f"wrote {args.out} ({len(samples)} samples from {len(sources)} source(s))")
    return 0


def _cmd_standardize(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    samples = read_manifest(args.infile)
    out: list[Sample] = []
    failures: list[str] = []
    for sample in samples:
        try:
            out.append(standardize_sample(sample))
        except DataforgeError as exc:
            failures.append(str(exc))
    if failures:
        for message in failures:
            print(f"error: {message}", file=sys.stderr)
        print(f"standardize failed on {len(failures)} of {len(samples)} samples",
              file=sys.stderr)
        return 1
    write_manifest(out, args.out)
    print(f"wrote {args.out} ({len(out)} samples)")
    return 0


def _guard_not_expanded(samples: Sequence[Sample]) -> None:
    for sample in samples:
        if "#aug" in sample.id:
            raise ProvenanceError(
                f"sample {sample.id} is already an expansion copy; "
                "augment refuses to re-expand its own output")
        for qa in sample.qa:
            if qa.provenance is not Provenance.ORIGINAL:
                raise ProvenanceError(
                    f"sample {sample.id} carries {qa.provenance.value} QA; "
                    "augment only accepts original data")


def _make_rewriter(cfg: PipelineConfig) -> Rewriter | None:
    if cfg.offline or not cfg.rewriter_url:
        return None
    from .remote import RemoteTextClient
    return RemoteTextClient(cfg.rewriter_url).as_rewriter()


def _cmd_augment(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    samples = read_manifest(args.infile)
    _guard_not_expanded(samples)
    rng = SeededRng(cfg.seed)
    rewriter = _make_rewriter(cfg)
    factors = DEFAULT_FACTORS if cfg.factors is None else cfg.factors
    by_dataset: dict[DatasetId, list[Sample]] = {}
    for sample in samples:
        by_dataset.setdefault(sample.dataset, []).append(sample)
    expanded: list[Sample] = []
    for dataset, group in by_dataset.items():
        policy = ExpansionPolicy(dataset, factors.get(dataset, 1), cfg.mc_fraction)
        expanded.extend(expand_dataset(group, policy, rng, rewriter))
    write_manifest(expanded, args.out)
    print(f"wrote {args.out} ({len(samples)} -> {len(expanded)} samples)")
    return 0


def _cmd_gen_perception(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    data = decode_json(_read_text(args.infile))
    if not isinstance(data, list):
        raise SchemaError("perception input must be a JSON array")
    rng = SeededRng(cfg.seed)
    samples = []
    for idx, rec in enumerate(data):
        sample_id, spec, anns = grounding_record_from_dict(rec, idx)
        try:
            sample = build_grounding_sample(
                sample_id, anns, spec,
                rng.stream("perceptgen", sample_id, "grounding"))
        except ValueError as exc:  # e.g. a FRONT_ONLY view on the multi-view path
            raise SchemaError(str(exc), record_index=idx) from None
        violations = validate_sample(sample)
        if violations:
            raise SchemaError(f"generated sample invalid: {violations[0].detail}",
                              record_index=idx)
        samples.append(sample)
    write_manifest(samples, args.out)
    print(f"wrote {args.out} ({len(samples)} grounding samples)")
    return 0


def _cmd_build_prompts(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    samples = iter_manifest(args.infile)  # opens the input before the output
    out = Path(args.out)
    prompts = over_budget = 0
    with atomic_writer(out) as fh:
        for sample in samples:
            report = check_budget(sample)
            if not report.fits:
                over_budget += 1
            fh.write(encode_json({
                "id": sample.id,
                "prompt": report.prompt,
                "placeholders": list(report.placeholders),
                "text_tokens": report.text_tokens,
                "visual_tokens": report.visual_tokens,
                "limit": SEQUENCE_LIMIT,
                "fits": report.fits,
            }) + "\n")
            prompts += 1
    print(f"wrote {out} ({prompts} prompts, {over_budget} over budget)")
    return 0


def _cmd_plan_curriculum(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    out_dir = Path(args.out) if args.out else cfg.out_dir
    violations: list[str] = []
    for plan in build_all_plans(cfg.registry):
        report = validate_plan_totals(plan, DEFAULT_EXPECTATIONS[plan.stage])
        print(f"stage {plan.stage}: {report.total} samples"
              + ("" if report.ok else "  [VIOLATION]"))
        violations.extend(f"stage {plan.stage}: {v}" for v in report.violations)
    if violations:
        for message in violations:
            print(f"error: {message}", file=sys.stderr)
        return 1
    paths = write_stage_plans(out_dir, cfg.registry)
    print(f"wrote {len(paths)} plans under {out_dir / 'plans'}")
    return 0


def _cmd_evaluate(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    dataset = DatasetId(args.dataset)
    records = []
    with open(args.infile, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                raise SchemaError("blank line in predictions file", line=line_no)
            records.append(record_from_dict(decode_json(line, line_no),
                                            line=line_no))
    report = evaluate_records(records, dataset)
    payload = report_to_dict(report)
    if args.out:
        _write_json(Path(args.out), payload)
    for name, entry in payload["entries"].items():
        print(f"{name}: {entry['value']:.6f} (n={entry['n_samples']})")
    if report.detection_skipped:
        print(f"detection: {report.detection_skipped} record(s) skipped "
              "(no ground truth)", file=sys.stderr)
    return 0


def _modality(sample: Sample) -> str:
    kinds = {m.kind for m in sample.media}
    if kinds == {MediaKind.IMAGE}:
        return "single_image" if len(sample.media) == 1 else "multi_image"
    if kinds == {MediaKind.VIDEO}:
        return "single_video" if len(sample.media) == 1 else "multi_video"
    return "mixed"


def _cmd_stats(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    by_dataset: dict[str, int] = {}
    by_modality: dict[str, int] = {}
    by_provenance: dict[str, int] = {}
    by_style: dict[str, int] = {}
    samples = qa_total = 0
    for sample in iter_manifest(args.infile):
        samples += 1
        by_dataset[sample.dataset.value] = by_dataset.get(sample.dataset.value, 0) + 1
        modality = _modality(sample)
        by_modality[modality] = by_modality.get(modality, 0) + 1
        for qa in sample.qa:
            qa_total += 1
            by_provenance[qa.provenance.value] = \
                by_provenance.get(qa.provenance.value, 0) + 1
            by_style[qa.style.value] = by_style.get(qa.style.value, 0) + 1
    payload = {
        "samples": samples,
        "qa_pairs": qa_total,
        "by_dataset": dict(sorted(by_dataset.items())),
        "by_modality": dict(sorted(by_modality.items())),
        "by_provenance": dict(sorted(by_provenance.items())),
        "by_style": dict(sorted(by_style.items())),
    }
    if args.out:
        _write_json(Path(args.out), payload)
    print(f"samples: {payload['samples']}")
    print(f"qa_pairs: {payload['qa_pairs']}")
    for section in ("by_dataset", "by_modality", "by_provenance", "by_style"):
        for name, count in payload[section].items():
            print(f"{section}.{name}: {count}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    # Shared flags are accepted both before and after the subcommand; SUPPRESS
    # keeps the subparser from clobbering a value given at the top level.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=argparse.SUPPRESS,
                        help="JSON pipeline config file")
    common.add_argument("--seed", type=int, metavar="N",
                        default=argparse.SUPPRESS,
                        help="override the config seed")
    common.add_argument("--offline", action="store_true",
                        default=argparse.SUPPRESS,
                        help=f"disable network use (or set {OFFLINE_ENV}=1)")

    parser = argparse.ArgumentParser(
        prog="dataforge", parents=[common],
        description="Deterministic driving-QA data pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common], help=help_text)

    p = add("ingest", "convert source annotations to a manifest")
    p.add_argument("--adapter", choices=[d.value for d in DatasetId])
    p.add_argument("--in", dest="infile", metavar="PATH")
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_ingest)

    p = add("standardize", "rewrite object tokens, append format instructions")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_standardize)

    p = add("augment", "expand a manifest by paraphrase and multiple-choice "
                              "conversion")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_augment)

    p = add("gen-perception", "generate grounding QA from detection annotations")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_gen_perception)

    p = add("build-prompts", "assemble prompts and check token budgets")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=_cmd_build_prompts)

    p = add("plan-curriculum", "emit the four stage plans")
    p.add_argument("--out", metavar="DIR")
    p.set_defaults(func=_cmd_plan_curriculum)

    p = add("evaluate", "score a predictions file")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.add_argument("--dataset", required=True,
                   choices=[d.value for d in DatasetId])
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_evaluate)

    p = add("stats", "summarize a manifest")
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=_cmd_stats)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        cfg = load_config(getattr(args, "config", None))
        return args.func(args, _apply_overrides(cfg, args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:  # reading any input file
        print(f"error: input is not valid UTF-8: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
