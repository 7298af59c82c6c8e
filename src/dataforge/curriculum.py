"""Training-stage manifests: data mixes, component freezing, optimizer knobs.

Four declarative stage plans cover the full schedule: a projector-only
alignment warm-up, large single-image pretraining, a mixed image/video stage,
and the final mix of the six driving-QA datasets. Plans are pure functions of
the stage and serialize to stable JSON; no trainer runs here.
"""

from __future__ import annotations

import enum
import errno
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .core import write_json
from .promptkit import SEQUENCE_LIMIT


class Trainability(enum.Enum):
    FROZEN = "frozen"
    TRAINABLE = "trainable"


class Modality(enum.Enum):
    SINGLE_IMAGE = "single_image"
    MULTI_IMAGE = "multi_image"
    SINGLE_VIDEO = "single_video"
    MULTI_VIDEO = "multi_video"
    LANGUAGE = "language"


@dataclass(frozen=True)
class ComponentFlag:
    vision_encoder: Trainability
    projector: Trainability
    llm: Trainability


@dataclass(frozen=True)
class DataMixEntry:
    name: str
    modality: Modality
    count: int


@dataclass(frozen=True)
class StagePlan:
    """One stage's settings. Every stage trains 1 epoch on sequences of
    ``SEQUENCE_LIMIT`` tokens; ``plan_to_dict`` writes both."""

    stage: int
    mix: tuple[DataMixEntry, ...]
    flags: ComponentFlag
    lr_vision: float
    lr_projector: float
    lr_llm: float
    batch_size: int

    @property
    def total_samples(self) -> int:
        return sum(e.count for e in self.mix)


_ALL_TRAINABLE = ComponentFlag(Trainability.TRAINABLE, Trainability.TRAINABLE,
                               Trainability.TRAINABLE)
_PROJECTOR_ONLY = ComponentFlag(Trainability.FROZEN, Trainability.TRAINABLE,
                                Trainability.FROZEN)

# Stages 2-4 share the same optimizer settings; only the data mix moves.
_LR_VISION = 2e-6
_LR_OTHERS = 1e-5
_MAIN_BATCH = 256


def build_stage_plan(stage: int) -> StagePlan:
    """Assemble one stage's plan.

    Raises:
        ValueError: for a stage outside 1..4.
    """
    if stage == 1:
        mix = (DataMixEntry("LCS-558K", Modality.SINGLE_IMAGE, 558_000),)
        return StagePlan(stage=1, mix=mix, flags=_PROJECTOR_ONLY,
                         lr_vision=0.0, lr_projector=1e-3, lr_llm=0.0,
                         batch_size=512)
    if stage == 2:
        mix = (DataMixEntry("single-image", Modality.SINGLE_IMAGE, 3_000_000),
               DataMixEntry("language", Modality.LANGUAGE, 143_000))
    elif stage == 3:
        mix = (DataMixEntry("single-image", Modality.SINGLE_IMAGE, 1_500_000),
               DataMixEntry("multi-image", Modality.MULTI_IMAGE, 760_000),
               DataMixEntry("single-video", Modality.SINGLE_VIDEO, 501_000),
               DataMixEntry("multi-video", Modality.MULTI_VIDEO, 145_000))
    elif stage == 4:
        # The released per-dataset training-set sizes.
        mix = (DataMixEntry("DriveLM", Modality.MULTI_IMAGE, 376_181),
               DataMixEntry("OmniDrive", Modality.MULTI_IMAGE, 374_329),
               DataMixEntry("NuInstruct", Modality.MULTI_VIDEO, 71_842),
               DataMixEntry("CODA-LM", Modality.SINGLE_IMAGE, 184_480),
               DataMixEntry("MAPLM", Modality.MULTI_IMAGE, 94_970),
               DataMixEntry("LingoQA", Modality.SINGLE_VIDEO, 413_829))
    else:
        raise ValueError("stage must be 1..4")
    return StagePlan(stage=stage, mix=mix, flags=_ALL_TRAINABLE,
                     lr_vision=_LR_VISION, lr_projector=_LR_OTHERS,
                     lr_llm=_LR_OTHERS, batch_size=_MAIN_BATCH)


def build_all_plans() -> tuple[StagePlan, ...]:
    return tuple(build_stage_plan(stage) for stage in (1, 2, 3, 4))


# ---------------------------------------------------------- serialization

def plan_to_dict(plan: StagePlan) -> dict:
    return {
        "stage": plan.stage,
        "mix": [{"name": e.name, "modality": e.modality.value, "count": e.count}
                for e in plan.mix],
        "flags": {
            "vision_encoder": plan.flags.vision_encoder.value,
            "projector": plan.flags.projector.value,
            "llm": plan.flags.llm.value,
        },
        "lr_vision": plan.lr_vision,
        "lr_projector": plan.lr_projector,
        "lr_llm": plan.lr_llm,
        "batch_size": plan.batch_size,
        "epochs": 1,
        "sequence_length": SEQUENCE_LIMIT,
    }


def write_stage_plans(out_dir: str | Path, plans: Sequence[StagePlan]) -> list[Path]:
    """Write each plan as plans/stage<N>.json under out_dir; returns the paths.
    A target that is a directory fails the call before any plan is written."""
    paths = [Path(out_dir) / "plans" / f"stage{plan.stage}.json" for plan in plans]
    for path in paths:
        if path.is_dir() and not path.is_symlink():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    for plan, path in zip(plans, paths):
        write_json(path, plan_to_dict(plan))
    return paths
