"""Perspective-aware prompt assembly and visual-token budget accounting.

Each media slot contributes a numbered view label, a one-line explanation of
its camera (or the LiDAR projection), and a kind-matched placeholder that the
training stack later expands into patch embeddings. The budget is fixed: an
image encodes to a 27x27 patch grid (729 tokens), a video frame to the 2x2
pooled 13x13 grid (169 tokens). The prompt is the media block plus the first
QA's question, with its options when it is multiple-choice. ``text_tokens``
is its whitespace-separated words, less one per placeholder line of the media
block (a placeholder in a question or option counts), x 1.3, rounded up;
``fits`` checks it plus the visual tokens against the 8,192-token training
sequence length. Answers and later turns are not counted.
"""

from __future__ import annotations

import math

from .core import CameraId, MediaKind, MediaRef, QAStyle, Sample, frozen_value
from .errors import SchemaError

SEQUENCE_LIMIT = 8192
IMAGE_TOKENS_PER_FRAME = 27 * 27
VIDEO_TOKENS_PER_FRAME = (27 // 2) * (27 // 2)
TEXT_TOKENS_PER_WORD = 1.3

CAMERA_EXPLANATIONS: dict[CameraId, str] = {
    CameraId.CAM_FRONT: "the front camera",
    CameraId.CAM_FRONT_LEFT: "the front-left camera",
    CameraId.CAM_FRONT_RIGHT: "the front-right camera",
    CameraId.CAM_BACK: "the rear camera",
    CameraId.CAM_BACK_LEFT: "the rear-left camera",
    CameraId.CAM_BACK_RIGHT: "the rear-right camera",
    CameraId.FRONT_ONLY: "the forward-facing camera",
    CameraId.LIDAR_BEV: "a bird's-eye-view projection of the LiDAR point cloud",
}
_VIEW_LABELS = {camera.value: f"({camera.value}): {text}."  # by value: no Enum hash
                for camera, text in CAMERA_EXPLANATIONS.items()}


def visual_token_count(media: MediaRef) -> int:
    """Visual tokens for one media slot; video frames are 2x2-pooled (floor)."""
    if media.kind is MediaKind.VIDEO:
        return media.frame_count * VIDEO_TOKENS_PER_FRAME
    return media.frame_count * IMAGE_TOKENS_PER_FRAME


def sample_visual_tokens(sample: Sample) -> int:
    return sum(visual_token_count(m) for m in sample.media)


def assemble_prompt(sample: Sample) -> tuple[str, tuple[str, ...]]:
    """Render the media block plus the first question; also return the
    placeholders placed, in order of appearance."""
    if not sample.qa:
        raise SchemaError(f"sample {sample.id} has no QA to prompt")
    lines: list[str] = []
    placeholders: list[str] = []
    for i, media in enumerate(sample.media, start=1):
        placeholder = "<video>" if media.kind is MediaKind.VIDEO else "<image>"
        lines.append(f"View {i} {_VIEW_LABELS[media.camera._value_]}")
        lines.append(placeholder)
        placeholders.append(placeholder)
    qa = sample.qa[0]
    lines.append(qa.question)
    if qa.style is QAStyle.MULTIPLE_CHOICE and qa.options:
        for option_label, text in qa.options:
            lines.append(f"{option_label}. {text}")
    return "\n".join(lines), tuple(placeholders)


def estimate_text_tokens(text: str) -> int:
    """Cheap stand-in for a real tokenizer: whitespace words x 1.3, ceiling."""
    return math.ceil(len(text.split()) * TEXT_TOKENS_PER_WORD)


@frozen_value
class BudgetReport:
    text_tokens: int
    visual_tokens: int
    prompt: str  # the assembled prompt that was counted
    placeholders: tuple[str, ...]  # in order of appearance

    @property
    def fits(self) -> bool:
        return self.text_tokens + self.visual_tokens <= SEQUENCE_LIMIT


def check_budget(sample: Sample) -> BudgetReport:
    prompt, placeholders = assemble_prompt(sample)
    # Each placeholder is a whole line of the media block: one word each.
    words = len(prompt.split()) - len(placeholders)
    return BudgetReport(math.ceil(words * TEXT_TOKENS_PER_WORD),
                        sample_visual_tokens(sample), prompt, placeholders)
