"""Perspective-aware prompt assembly and visual-token budget accounting.

Each media slot contributes a numbered view label, a one-line explanation of
its camera (or the LiDAR projection), and a kind-matched placeholder that the
training stack later expands into patch embeddings. Images contribute a full
grid of visual tokens; video frames are 2x2-pooled. Budgets are checked
against the fixed 8,192-token training sequence length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

from .core import CameraId, MediaKind, MediaRef, QAStyle, Sample
from .errors import MissingExplanation

SEQUENCE_LIMIT = 8192

DEFAULT_EXPLANATIONS: dict[CameraId, str] = {
    CameraId.CAM_FRONT: "the front camera",
    CameraId.CAM_FRONT_LEFT: "the front-left camera",
    CameraId.CAM_FRONT_RIGHT: "the front-right camera",
    CameraId.CAM_BACK: "the rear camera",
    CameraId.CAM_BACK_LEFT: "the rear-left camera",
    CameraId.CAM_BACK_RIGHT: "the rear-right camera",
    CameraId.FRONT_ONLY: "the forward-facing camera",
    CameraId.LIDAR_BEV: "a bird's-eye-view projection of the LiDAR point cloud",
}


@dataclass(frozen=True)
class GridConfig:
    """Patch grid per encoded frame."""

    grid_h: int = 27
    grid_w: int = 27

    def __post_init__(self) -> None:
        if self.grid_h <= 0 or self.grid_w <= 0:
            raise ValueError("grid dimensions must be positive")


@dataclass(frozen=True)
class TokenLayout:
    f: int
    pooled: bool
    tokens_per_frame: int
    total_visual_tokens: int


def visual_token_count(media: MediaRef, cfg: GridConfig = GridConfig()) -> TokenLayout:
    """Token layout for one media slot; videos get 2x2 pooling (floor)."""
    pooled = media.kind is MediaKind.VIDEO
    if pooled:
        tokens_per_frame = (cfg.grid_h // 2) * (cfg.grid_w // 2)
    else:
        tokens_per_frame = cfg.grid_h * cfg.grid_w
    return TokenLayout(
        f=media.frame_count,
        pooled=pooled,
        tokens_per_frame=tokens_per_frame,
        total_visual_tokens=media.frame_count * tokens_per_frame,
    )


def sample_visual_tokens(sample: Sample, cfg: GridConfig = GridConfig()) -> int:
    return sum(visual_token_count(m, cfg).total_visual_tokens for m in sample.media)


@dataclass(frozen=True)
class PromptTemplate:
    image_placeholder: str = "<image>"
    video_placeholder: str = "<video>"
    view_label_format: str = "View {i} ({camera}):"
    camera_explanations: Mapping[CameraId, str] = field(
        default_factory=lambda: dict(DEFAULT_EXPLANATIONS))

    def placeholder_for(self, media: MediaRef) -> str:
        return (self.video_placeholder if media.kind is MediaKind.VIDEO
                else self.image_placeholder)


# (1-based view index, media, placeholder used) in order of appearance.
PlacementPlan = list[tuple[int, MediaRef, str]]


def assemble_prompt(sample: Sample, tpl: PromptTemplate = PromptTemplate(),
                    qa_index: int = 0) -> tuple[str, PlacementPlan]:
    """Render the media block plus the selected question.

    Raises:
        MissingExplanation: if the template lacks text for a media's camera.
    """
    lines: list[str] = []
    plan: PlacementPlan = []
    for i, media in enumerate(sample.media, start=1):
        if media.camera not in tpl.camera_explanations:
            raise MissingExplanation(media.camera.value)
        label = tpl.view_label_format.format(i=i, camera=media.camera.value)
        explanation = tpl.camera_explanations[media.camera]
        placeholder = tpl.placeholder_for(media)
        lines.append(f"{label} {explanation}.")
        lines.append(placeholder)
        plan.append((i, media, placeholder))
    qa = sample.qa[qa_index]
    lines.append(qa.question)
    if qa.style is QAStyle.MULTIPLE_CHOICE and qa.options:
        for option_label, text in qa.options:
            lines.append(f"{option_label}. {text}")
    return "\n".join(lines), plan


def estimate_text_tokens(text: str) -> int:
    """Cheap stand-in for a real tokenizer: whitespace words x 1.3, ceiling."""
    words = len(text.split())
    return math.ceil(words * 1.3)


@dataclass(frozen=True)
class BudgetReport:
    text_tokens: int
    visual_tokens: int
    limit: int = SEQUENCE_LIMIT
    prompt: str = ""  # the assembled prompt that was counted
    placeholders: tuple[str, ...] = ()  # in order of appearance

    @property
    def fits(self) -> bool:
        return self.text_tokens + self.visual_tokens <= self.limit


def check_budget(sample: Sample, tpl: PromptTemplate = PromptTemplate(),
                 cfg: GridConfig = GridConfig(),
                 counter: Callable[[str], int] = estimate_text_tokens,
                 limit: int = SEQUENCE_LIMIT,
                 qa_index: int = 0) -> BudgetReport:
    prompt, plan = assemble_prompt(sample, tpl, qa_index)
    placeholders = tuple(ph for _idx, _media, ph in plan)
    stripped = prompt
    for placeholder in placeholders:
        stripped = stripped.replace(placeholder, "", 1)
    return BudgetReport(
        text_tokens=counter(stripped),
        visual_tokens=sample_visual_tokens(sample, cfg),
        limit=limit,
        prompt=prompt,
        placeholders=placeholders,
    )
