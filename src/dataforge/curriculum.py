"""The four training-stage plans, as one table.

Stage 1 warms up the projector alone on LCS-558K; stage 2 pretrains on large
single-image data and language; stage 3 mixes images and videos; stage 4 is
the final mix of the six driving-QA datasets. ``stage_plans`` gives each plan
as its plan file holds it, key order included, and ``write_stage_plans``
writes the four files in stage order. No trainer runs here.
"""

from __future__ import annotations

import copy
import errno
import json
import os
from contextlib import ExitStack
from pathlib import Path
from typing import Any

from .core import atomic_writer
from .promptkit import SEQUENCE_LIMIT

_WARM_UP = {"flags": {"vision_encoder": "frozen", "projector": "trainable", "llm": "frozen"},
            "lr_vision": 0.0, "lr_projector": 1e-3, "lr_llm": 0.0, "batch_size": 512}
# Stages 2-4 share the same optimizer settings; only the data mix moves.
_MAIN = {"flags": {"vision_encoder": "trainable", "projector": "trainable", "llm": "trainable"},
         "lr_vision": 2e-6, "lr_projector": 1e-5, "lr_llm": 1e-5, "batch_size": 256}

# Each stage's settings and its data mix: (name, modality, count) per entry.
_STAGES = (
    (_WARM_UP, (("LCS-558K", "single_image", 558_000),)),
    (_MAIN, (("single-image", "single_image", 3_000_000),
             ("language", "language", 143_000))),
    (_MAIN, (("single-image", "single_image", 1_500_000),
             ("multi-image", "multi_image", 760_000),
             ("single-video", "single_video", 501_000),
             ("multi-video", "multi_video", 145_000))),
    # The released per-dataset training-set sizes.
    (_MAIN, (("DriveLM", "multi_image", 376_181),
             ("OmniDrive", "multi_image", 374_329),
             ("NuInstruct", "multi_video", 71_842),
             ("CODA-LM", "single_image", 184_480),
             ("MAPLM", "multi_image", 94_970),
             ("LingoQA", "single_video", 413_829))),
)


def stage_plans() -> list[dict[str, Any]]:
    """The four plans in stage order, each a new object shaped and ordered as
    its plan file; every stage trains 1 epoch on ``SEQUENCE_LIMIT`` tokens."""
    return [{"stage": stage,
             "mix": [{"name": name, "modality": modality, "count": count}
                     for name, modality, count in mix],
             **copy.deepcopy(settings), "epochs": 1, "sequence_length": SEQUENCE_LIMIT}
            for stage, (settings, mix) in enumerate(_STAGES, start=1)]


def write_stage_plans(out_dir: str | Path, plans: list[dict[str, Any]]) -> list[Path]:
    """Write each plan as plans/stage<N>.json under out_dir; returns the paths.

    A target that is a directory fails the call before any file is written.
    Every plan is written and flushed to its temp file before the first is
    moved into place, so a failed write leaves no plan behind. The plans are
    then moved in stage order, so a failed move leaves those already moved:
    stages 1..k-1 when stage k's move fails.
    """
    paths = [Path(out_dir) / "plans" / f"stage{plan['stage']}.json" for plan in plans]
    for path in paths:
        if path.is_dir() and not path.is_symlink():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    with ExitStack() as stack:  # moves the plans last entered first: stage 1 first
        files = [stack.enter_context(atomic_writer(path)) for path in reversed(paths)]
        for plan, fh in zip(plans, reversed(files)):
            fh.write(json.dumps(plan, ensure_ascii=False, indent=2) + "\n")
            fh.flush()  # a write error is raised here, before any plan is moved
    return paths
