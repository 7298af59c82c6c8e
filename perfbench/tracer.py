"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps each target function wherever dataforge code looks
it up: the defining module's global and every ``from .x import f`` binding in
another dataforge module (``dataforge.cli.read_manifest`` as well as
``dataforge.ingest.read_manifest``); methods are wrapped on their class.
``Tracer.restore`` puts every original back. Spans stay in memory until
``write_spans`` is called at the end of the run.

A span is (run id, span id, parent span id, name, start ns, end ns); its self
time is its duration minus the durations of its direct children, which is
exact here because the pipeline runs on one thread. Counters are taken at the
same boundaries as the spans.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

# (defining module, attribute path) of every traced function. Private
# ``_render_normalized`` is included because it is where standardize rewrites
# a token; the public ``rewrite_object_token`` is not on the CLI path.
TARGETS: tuple[tuple[str, str], ...] = (
    ("dataforge.ingest", "parse_source"),
    ("dataforge.ingest", "read_manifest"),
    ("dataforge.ingest", "write_manifest"),
    ("dataforge.core", "sample_from_json"),
    ("dataforge.core", "sample_from_dict"),
    ("dataforge.core", "sample_to_json"),
    ("dataforge.core", "validate_sample"),
    ("dataforge.core", "assert_unique_ids"),
    ("dataforge.tokens", "scan_tokens"),
    ("dataforge.standardize", "standardize_sample"),
    ("dataforge.standardize", "_render_normalized"),
    ("dataforge.augment", "expand_dataset"),
    ("dataforge.augment", "SeededRng.stream"),
    ("dataforge.augment", "local_paraphrase"),
    ("dataforge.augment", "to_multiple_choice"),
    ("dataforge.promptkit", "assemble_prompt"),
    ("dataforge.promptkit", "check_budget"),
    ("dataforge.perceptgen", "annotation_from_dict"),
    ("dataforge.perceptgen", "build_grounding_sample"),
    ("dataforge.metrics", "record_from_dict"),
    ("dataforge.metrics", "evaluate_records"),
    ("dataforge.metrics", "average_precision"),
    ("dataforge.metrics", "bleu"),
    ("dataforge.metrics", "center_match_score"),
)


def span_name(module: str, attr: str) -> str:
    """``dataforge.augment`` + ``SeededRng.stream`` -> ``augment.SeededRng.stream``."""
    return f"{module.removeprefix('dataforge.')}.{attr}"


def _after_write_manifest(tr: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    tr.count("ingest.write_manifest.bytes", os.path.getsize(path))


def _after_standardize(tr: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    sample = kwargs.get("sample", args[0] if args else None)
    if result != sample:
        tr.count("standardize.changed")


def _after_mc(tr: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tr.count("augment.mc_converted")


def _after_budget(tr: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    if not result.fits:
        tr.count("promptkit.over_budget")


def _after_ap(tr: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    dets = kwargs.get("dets", args[0] if args else ())
    tr.count("metrics.ap_detections", len(dets))


# Extra counters taken when a traced call returns, keyed by span name.
AFTER: dict[str, Callable[["Tracer", tuple, dict, Any], None]] = {
    "ingest.write_manifest": _after_write_manifest,
    "standardize.standardize_sample": _after_standardize,
    "augment.to_multiple_choice": _after_mc,
    "promptkit.check_budget": _after_budget,
    "metrics.average_precision": _after_ap,
}


class Tracer:
    """Records spans and counters around the wrapped dataforge functions."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counters: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self._stack: list[list[int]] = []  # [span id, child ns] per open span
        self._next_id = 0
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([sid, 0])
        return sid, parent

    def _close(self, sid: int, parent: int, name: str, start: int, end: int) -> None:
        _sid, child_ns = self._stack.pop()
        duration = end - start
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child_ns
        if self._stack:
            self._stack[-1][1] += duration
        self.spans.append((sid, parent, name, start, end))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block, e.g. one CLI stage."""
        sid, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, parent, name, start, time.perf_counter_ns())

    def _wrap(self, name: str, fn: Callable) -> Callable:
        after = AFTER.get(name)
        calls = name + ".calls"

        def traced(*args: Any, **kwargs: Any) -> Any:
            self.count(calls)
            sid, parent = self._open()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.count(f"{name}.raised.{type(exc).__name__}")
                raise
            finally:
                self._close(sid, parent, name, start, time.perf_counter_ns())
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at its definition and at each import binding."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "dataforge" or n.startswith("dataforge."))]
        for module_name, attr in TARGETS:
            owner: Any = sys.modules[module_name]
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapper = self._wrap(span_name(module_name, attr), original)
            self._patch(owner, leaf, wrapper)
            if outer:
                continue  # a method: callers reach it through the class
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        self._patch(module, key, wrapper)

    def _patch(self, owner: Any, key: str, value: Any) -> None:
        self._patched.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Self seconds and call counts per span name, plus every counter."""
        return {"self_s": {k: v / 1e9 for k, v in sorted(self.self_ns.items())},
                "counters": dict(sorted(self.counters.items())),
                "spans": len(self.spans)}

    def write_spans(self, path: str) -> None:
        """Gzipped, one JSON array per line: run id, span id, parent id (-1
        at the root), name, start ns, end ns (``perf_counter_ns`` clock)."""
        run = json.dumps(self.run_id)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(f'[{run},{sid},{parent},"{name}",{start},{end}]\n')
