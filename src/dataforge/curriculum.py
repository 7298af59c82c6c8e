"""Training-stage manifests: data mixes, component freezing, optimizer knobs.

Four declarative stage plans cover the full schedule: a projector-only
alignment warm-up, large single-image pretraining, a mixed image/video stage,
and the final driving-QA mix drawn from the dataset registry. Plans are pure
functions of (stage, registry) and serialize to stable JSON; no trainer runs
here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .core import write_json
from .errors import DataforgeError
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

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError(f"mix entry {self.name!r} must have a positive count")


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


# Registry counts. The alignment corpus count is exact; the driving-dataset
# counts are the released per-dataset training-set sizes.
ALIGNMENT_DATASET = "LCS-558K"

AD_DATASETS: tuple[tuple[str, Modality], ...] = (
    ("DriveLM", Modality.MULTI_IMAGE),
    ("OmniDrive", Modality.MULTI_IMAGE),
    ("NuInstruct", Modality.MULTI_VIDEO),
    ("CODA-LM", Modality.SINGLE_IMAGE),
    ("MAPLM", Modality.MULTI_IMAGE),
    ("LingoQA", Modality.SINGLE_VIDEO),
)

DEFAULT_REGISTRY: dict[str, int] = {
    ALIGNMENT_DATASET: 558_000,
    "DriveLM": 376_181,
    "OmniDrive": 374_329,
    "NuInstruct": 71_842,
    "CODA-LM": 184_480,
    "MAPLM": 94_970,
    "LingoQA": 413_829,
}

_ALL_TRAINABLE = ComponentFlag(Trainability.TRAINABLE, Trainability.TRAINABLE,
                               Trainability.TRAINABLE)
_PROJECTOR_ONLY = ComponentFlag(Trainability.FROZEN, Trainability.TRAINABLE,
                                Trainability.FROZEN)

# Stages 2-4 share the same optimizer settings; only the data mix moves.
_LR_VISION = 2e-6
_LR_OTHERS = 1e-5
_MAIN_BATCH = 256


def _lookup(registry: Mapping[str, int], name: str) -> int:
    try:
        return registry[name]
    except KeyError:
        raise DataforgeError(f"registry has no sample count for dataset {name}") from None


def build_stage_plan(stage: int,
                     registry: Mapping[str, int] | None = None) -> StagePlan:
    """Assemble one stage's plan; registry feeds stages 1 and 4.

    Raises:
        DataforgeError: if the registry lacks a referenced dataset.
        ValueError: for a stage outside 1..4.
    """
    reg = DEFAULT_REGISTRY if registry is None else registry
    if stage == 1:
        mix = (DataMixEntry(ALIGNMENT_DATASET, Modality.SINGLE_IMAGE,
                            _lookup(reg, ALIGNMENT_DATASET)),)
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
        mix = tuple(DataMixEntry(name, modality, _lookup(reg, name))
                    for name, modality in AD_DATASETS)
    else:
        raise ValueError("stage must be 1..4")
    return StagePlan(stage=stage, mix=mix, flags=_ALL_TRAINABLE,
                     lr_vision=_LR_VISION, lr_projector=_LR_OTHERS,
                     lr_llm=_LR_OTHERS, batch_size=_MAIN_BATCH)


def build_all_plans(registry: Mapping[str, int] | None = None) -> tuple[StagePlan, ...]:
    return tuple(build_stage_plan(stage, registry) for stage in (1, 2, 3, 4))


# ------------------------------------------------------------- validation

def plan_violations(plan: StagePlan) -> list[str]:
    """What is wrong with the plan's total. Only stages 1 and 4 take counts
    from the registry, so only their totals can miss: stage 1's LCS-558K
    count must be exactly 558,000, and stage 4's total within 2% of
    1,500,000."""
    total = plan.total_samples
    expected = DEFAULT_REGISTRY[ALIGNMENT_DATASET]
    if plan.stage == 1 and total != expected:
        return [f"total {total} != expected {expected}"]
    if plan.stage == 4 and abs(total - 1_500_000) > 0.02 * 1_500_000:
        return [f"total {total} outside 2% of 1500000"]
    return []


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


def write_stage_plans(out_dir: str | Path, plans: Iterable[StagePlan]) -> list[Path]:
    """Write each plan as plans/stage<N>.json under out_dir; returns the paths."""
    plans_dir = Path(out_dir) / "plans"
    paths = []
    for plan in plans:
        path = plans_dir / f"stage{plan.stage}.json"
        write_json(path, plan_to_dict(plan))
        paths.append(path)
    return paths
