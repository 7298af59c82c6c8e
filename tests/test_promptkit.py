import math
import random
from pathlib import Path

import pytest

from dataforge.core import (
    CameraId,
    DatasetId,
    MediaKind,
    QAPair,
    QAStyle,
    Sample,
    image_ref,
    video_ref,
)
from dataforge.promptkit import (
    CAMERA_EXPLANATIONS,
    SEQUENCE_LIMIT,
    BudgetReport,
    assemble_prompt,
    check_budget,
    estimate_text_tokens,
    sample_visual_tokens,
    visual_token_count,
)

GOLDEN_DIR = Path(__file__).parent / "golden" / "prompts"

SURROUND = (
    CameraId.CAM_FRONT,
    CameraId.CAM_FRONT_LEFT,
    CameraId.CAM_FRONT_RIGHT,
    CameraId.CAM_BACK,
    CameraId.CAM_BACK_LEFT,
    CameraId.CAM_BACK_RIGHT,
)


def _six_view_sample():
    media = tuple(image_ref(c, 1600, 900, f"img/{c.value}.jpg") for c in SURROUND)
    qa = (QAPair(question="What should the ego vehicle do next?", answer="Slow down."),)
    return Sample(id="x/1", dataset=DatasetId.OMNIDRIVE, media=media, qa=qa,
                  task_tags=frozenset({"planning"}))


def _video_mc_sample():
    mc = QAPair(
        question="What is the state of the traffic light ahead?",
        answer="B",
        style=QAStyle.MULTIPLE_CHOICE,
        options=(("A", "Red"), ("B", "Green"), ("C", "Yellow"), ("D", "Off")),
    )
    return Sample(id="x/2", dataset=DatasetId.LINGOQA,
                  media=(video_ref(CameraId.FRONT_ONLY, 5, 1280, 720, "vid/clip.mp4"),),
                  qa=(mc,), task_tags=frozenset({"perception"}))


def _lidar_sample():
    return Sample(
        id="x/3", dataset=DatasetId.NUINSTRUCT,
        media=(image_ref(CameraId.CAM_FRONT, 1600, 900, "img/front.jpg"),
               image_ref(CameraId.LIDAR_BEV, 400, 400, "lidar/bev.png")),
        qa=(QAPair(question="How many vehicles are within 10 meters of the ego car?",
                   answer="Three."),),
        task_tags=frozenset({"counting"}))


# ---------------------------------------------------------------- goldens

@pytest.mark.parametrize("name,builder", [
    ("six_view_image", _six_view_sample),
    ("single_video_mc", _video_mc_sample),
    ("front_plus_lidar", _lidar_sample),
])
def test_golden_prompts(name, builder):
    expected = (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
    actual, _placeholders = assemble_prompt(builder())
    assert actual == expected


# ---------------------------------------------------------------- layouts

def test_image_layout_default_grid():
    image = image_ref(CameraId.CAM_FRONT, 1600, 900, "a.jpg")
    assert visual_token_count(image) == 27 * 27 == 729


def test_video_layout_floor_pooling():
    video = video_ref(CameraId.FRONT_ONLY, 5, 1280, 720, "v.mp4")
    assert visual_token_count(video) == 5 * 13 * 13 == 845


def test_sample_visual_tokens_sums_media():
    rng = random.Random(11)
    for _ in range(100):
        media = []
        for cam in rng.sample(SURROUND, rng.randrange(1, 7)):
            if rng.random() < 0.5:
                media.append(image_ref(cam, 800, 450, f"{cam.value}.jpg"))
            else:
                media.append(video_ref(cam, rng.randrange(1, 6), 800, 450,
                                       f"{cam.value}.mp4"))
        s = Sample(id="s/0", dataset=DatasetId.GENERIC, media=tuple(media),
                   qa=(QAPair(question="q?", answer="a"),),
                   task_tags=frozenset({"t"}))
        expected = sum(visual_token_count(m) for m in media)
        assert sample_visual_tokens(s) == expected


# ------------------------------------------------------- budget arithmetic

def test_six_view_image_budget():
    s = _six_view_sample()
    assert sample_visual_tokens(s) == 6 * 729 == 4374
    report = check_budget(s)
    assert report.visual_tokens == 4374
    assert report.fits


@pytest.mark.parametrize("make", [_six_view_sample, _video_mc_sample])
def test_budget_report_carries_the_counted_prompt(make):
    s = make()
    prompt, placeholders = assemble_prompt(s)
    report = check_budget(s)
    assert report.prompt == prompt
    assert report.placeholders == placeholders


def test_six_view_five_frame_video_budget():
    media = tuple(video_ref(c, 5, 1600, 900, f"{c.value}.mp4") for c in SURROUND)
    s = Sample(id="v/1", dataset=DatasetId.NUINSTRUCT, media=media,
               qa=(QAPair(question="q?", answer="a"),),
               task_tags=frozenset({"t"}))
    assert sample_visual_tokens(s) == 6 * 5 * 169 == 5070
    assert check_budget(s).fits


def test_twelve_view_image_overflows():
    media = tuple(image_ref(c, 1600, 900, f"{c.value}-{k}.jpg")
                  for k in range(2) for c in SURROUND)
    s = Sample(id="v/2", dataset=DatasetId.GENERIC, media=media,
               qa=(QAPair(question="q?", answer="a"),),
               task_tags=frozenset({"t"}))
    report = check_budget(s)
    assert report.visual_tokens == 12 * 729 == 8748
    assert report.visual_tokens > SEQUENCE_LIMIT
    assert not report.fits


def test_fits_is_exact_boundary():
    headroom = SEQUENCE_LIMIT - 4374  # beside the six-view image sample
    prompt, placeholders = assemble_prompt(_six_view_sample())
    assert BudgetReport(headroom, 4374, prompt, placeholders).fits
    assert not BudgetReport(headroom + 1, 4374, prompt, placeholders).fits


# ------------------------------------------------------------ text counter

@pytest.mark.parametrize("text,expected", [
    ("", 0),
    ("one", 2),            # ceil(1.3)
    ("two words", 3),      # ceil(2.6)
    ("a b c", 4),          # ceil(3.9)
    ("a b c d e f g h i j", 13),
    ("  spaced   out\ttokens \n here ", math.ceil(4 * 1.3)),
])
def test_estimate_text_tokens(text, expected):
    assert estimate_text_tokens(text) == expected


def test_budget_counter_sees_prompt_without_placeholders():
    report = check_budget(_six_view_sample())
    assert report.prompt.count("<image>") == 6
    stripped = report.prompt.replace("<image>", "")
    assert report.text_tokens == estimate_text_tokens(stripped)
    assert report.text_tokens < estimate_text_tokens(report.prompt)


def test_default_counter_matches_hand_count():
    s = _video_mc_sample()
    prompt, placeholders = assemble_prompt(s)
    stripped = prompt
    for ph in placeholders:
        stripped = stripped.replace(ph, "", 1)
    assert check_budget(s).text_tokens == math.ceil(len(stripped.split()) * 1.3)


# ------------------------------------------------------------- assembly

def test_plan_order_and_placeholders():
    s = Sample(
        id="m/1", dataset=DatasetId.GENERIC,
        media=(image_ref(CameraId.CAM_FRONT, 800, 450, "a.jpg"),
               video_ref(CameraId.CAM_BACK, 4, 800, 450, "b.mp4"),
               image_ref(CameraId.LIDAR_BEV, 400, 400, "c.png")),
        qa=(QAPair(question="q?", answer="a"),),
        task_tags=frozenset({"t"}))
    text, placeholders = assemble_prompt(s)
    assert placeholders == ("<image>", "<video>", "<image>")
    views = [ln.split(":")[0] for ln in text.splitlines() if ln.startswith("View ")]
    assert views == ["View 1 (CAM_FRONT)", "View 2 (CAM_BACK)", "View 3 (LIDAR_BEV)"]


def test_placeholders_appear_once_per_media_in_order():
    s = _six_view_sample()
    text, _ = assemble_prompt(s)
    assert text.count("<image>") == 6
    for i in range(1, len(s.media) + 1):
        assert f"View {i} (" in text


def test_camera_explanations_cover_every_camera():
    assert set(CAMERA_EXPLANATIONS) == set(CameraId)


def test_lidar_explanation_mentions_lidar():
    text, _ = assemble_prompt(_lidar_sample())
    lidar_line = [ln for ln in text.splitlines() if "LIDAR_BEV" in ln]
    assert len(lidar_line) == 1
    assert "lidar" in lidar_line[0].lower()


def test_mc_options_rendered_as_lines():
    text, _ = assemble_prompt(_video_mc_sample())
    lines = text.splitlines()
    assert lines[-4:] == ["A. Red", "B. Green", "C. Yellow", "D. Off"]


def test_open_qa_has_no_option_lines():
    text, _ = assemble_prompt(_six_view_sample())
    assert text.splitlines()[-1] == "What should the ego vehicle do next?"


def test_prompt_holds_first_turn_only():
    qa = (QAPair(question="first?", answer="a"),
          QAPair(question="second?", answer="b"))
    s = Sample(id="m/2", dataset=DatasetId.GENERIC,
               media=(image_ref(CameraId.FRONT_ONLY, 640, 480, "a.jpg"),),
               qa=qa, task_tags=frozenset({"t"}))
    text, _ = assemble_prompt(s)
    assert text.endswith("first?")
    assert "second?" not in text


def test_question_placeholders_are_counted_as_text():
    # Only the media block's placeholder lines are stripped; an <image> or
    # <video> the question itself holds is text and is counted.
    s = Sample(id="m/3", dataset=DatasetId.GENERIC,
               media=(image_ref(CameraId.CAM_FRONT, 800, 450, "a.jpg"),
                      video_ref(CameraId.CAM_BACK, 4, 800, 450, "b.mp4")),
               qa=(QAPair(question="Is <image> or <video> newer?", answer="a"),),
               task_tags=frozenset({"t"}))
    report = check_budget(s)
    lines = report.prompt.splitlines()
    assert lines[1] == "<image>" and lines[3] == "<video>"
    media_block_stripped = "\n".join(ln for k, ln in enumerate(lines) if k not in (1, 3))
    assert "<image>" in media_block_stripped and "<video>" in media_block_stripped
    assert report.text_tokens == estimate_text_tokens(media_block_stripped)
    assert report.text_tokens > estimate_text_tokens(
        media_block_stripped.replace("<image>", "").replace("<video>", ""))


def test_budget_report_is_plain_data():
    rep = BudgetReport(10, 20, "q?", ())
    assert rep.fits
    assert not BudgetReport(0, SEQUENCE_LIMIT + 1, "q?", ()).fits
