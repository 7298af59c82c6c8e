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

ingest, standardize, augment, gen-perception, build-prompts, stats and
evaluate live in ``stages``, which splits their work across the usable CPUs
with the same output bytes, messages and exit code as one process gives; each
subcommand imports it when it runs. augment reads its input twice, so it
refuses an ``--in`` that is not a regular file (exit 2).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Sequence
from urllib.parse import urlsplit

from .augment import Rewriter, SeededRng
from .core import (
    DatasetId,
    _DATASETS,
    _member,
    decode_json,
    json_bool,
    json_int,
    json_object,
    json_str,
    write_json,
)
from .curriculum import stage_plans, write_stage_plans
from .errors import DataforgeError, SchemaError
# No stage writes or reads a manifest through these bindings any more;
# perfbench/tests/test_tracer.py still checks that the tracer wraps them.
from .ingest import read_manifest, write_manifest  # noqa: F401
from .metrics import report_to_dict
# gen-perception runs in ``stages``; perfbench's tracer wraps the targets it
# finds in the modules ``import dataforge.cli`` loads, so this loads
# perceptgen (and through it standardize) as before.
from . import perceptgen  # noqa: F401

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
    rewriter_url: str | None = None

    def __post_init__(self) -> None:
        if self.seed.bit_length() > 64:
            raise ConfigError("seed must fit in 64 bits")


_CONFIG_KEYS = frozenset({"seed", "offline", "out_dir", "sources", "augment"})
_AUGMENT_KEYS = frozenset({"rewriter_url"})


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
            if "rewriter_url" in aug:
                kwargs["rewriter_url"] = _rewriter_url(aug["rewriter_url"])
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
        data = decode_json(text)
    except SchemaError as exc:
        raise ConfigError(f"config {path}: {exc}") from None
    return _config_from_dict(data)


def _apply_overrides(cfg: PipelineConfig, args: argparse.Namespace) -> PipelineConfig:
    updates: dict[str, Any] = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "offline", False) or os.environ.get(OFFLINE_ENV) == "1":
        updates["offline"] = True
    return replace(cfg, **updates) if updates else cfg


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
    from .stages import ingest

    count = ingest(sources, args.out)
    print(f"wrote {args.out} ({count} samples from {len(sources)} source(s))")
    return 0


def _cmd_standardize(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    from .stages import Refused, standardize

    try:
        count = standardize(args.infile, args.out)
    except Refused as exc:
        for message in exc.failures:
            print(f"error: {message}", file=sys.stderr)
        print(f"standardize failed on {len(exc.failures)} of {exc.samples} samples",
              file=sys.stderr)
        return 1
    print(f"wrote {args.out} ({count} samples)")
    return 0


def _make_rewriter(cfg: PipelineConfig) -> Rewriter | None:
    if cfg.offline or not cfg.rewriter_url:
        return None
    from .remote import RemoteTextClient
    return RemoteTextClient(cfg.rewriter_url).as_rewriter()


def _cmd_augment(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    from .stages import augment

    read, written = augment(args.infile, args.out, SeededRng(cfg.seed), _make_rewriter(cfg))
    print(f"wrote {args.out} ({read} -> {written} samples)")
    return 0


def _cmd_gen_perception(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    from .stages import gen_perception

    count = gen_perception(args.infile, args.out, cfg.seed)
    print(f"wrote {args.out} ({count} grounding samples)")
    return 0


def _cmd_build_prompts(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    from .stages import build_prompts

    prompts, over_budget = build_prompts(args.infile, args.out)
    print(f"wrote {Path(args.out)} ({prompts} prompts, {over_budget} over budget)")
    return 0


def _cmd_plan_curriculum(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    out_dir = cfg.out_dir if args.out is None else Path(args.out)
    plans = stage_plans()
    paths = write_stage_plans(out_dir, plans)
    for plan in plans:
        print(f"stage {plan['stage']}: {sum(e['count'] for e in plan['mix'])} samples")
    print(f"wrote {len(paths)} plans under {out_dir / 'plans'}")
    return 0


def _cmd_evaluate(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    from .stages import evaluate

    report = evaluate(args.infile, DatasetId(args.dataset))
    payload = report_to_dict(report)
    if args.out is not None:
        write_json(args.out, payload)
    for name, entry in payload["entries"].items():
        print(f"{name}: {entry['value']:.6f} (n={entry['n_samples']})")
    if report.detection_skipped:
        print(f"detection: {report.detection_skipped} record(s) skipped "
              "(no ground truth)", file=sys.stderr)
    return 0


def _cmd_stats(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    from .stages import stats

    payload = stats(args.infile)
    if args.out is not None:
        write_json(args.out, payload)
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
    except UnicodeEncodeError as exc:  # a lone surrogate, from a "\ud800" escape
        print(f"error: text cannot be written as UTF-8: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
