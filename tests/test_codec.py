"""The manifest codec: round trip over generated samples, the encoders against
json.JSONEncoder over a reference dict, and the exact error text for
malformed manifest lines."""

import copy
import json

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dataforge.stages import _prompt_row
from dataforge.core import (
    CameraId,
    DatasetId,
    MediaKind,
    MediaRef,
    Provenance,
    QAPair,
    QAStyle,
    Sample,
    sample_from_json,
    sample_to_json,
)
from dataforge.errors import SchemaError
from dataforge.promptkit import SEQUENCE_LIMIT, BudgetReport

# ------------------------------------------------------------------ round trip

_text = st.text(max_size=40)
_sizes = st.integers(min_value=1, max_value=2 ** 70)


@st.composite
def _media(draw, text) -> MediaRef:
    kind = draw(st.sampled_from(MediaKind))
    frames = 1 if kind is MediaKind.IMAGE else draw(_sizes)
    return MediaRef(kind, draw(st.sampled_from(CameraId)), frames,
                    draw(_sizes), draw(_sizes), draw(text))


def _samples_of(text):
    qa = st.builds(
        QAPair, text, text, st.sampled_from(QAStyle), st.sampled_from(Provenance),
        st.none() | st.lists(st.tuples(text, text), max_size=4).map(tuple))
    return st.builds(
        Sample, text, st.sampled_from(DatasetId),
        st.lists(_media(text), max_size=4).map(tuple),
        st.lists(qa, max_size=4).map(tuple),
        st.frozensets(text, max_size=4))


_NON_ASCII = Sample(
    "generic/ß-車-🚗", DatasetId.GENERIC,
    (MediaRef(MediaKind.VIDEO, CameraId.CAM_BACK_LEFT, 8, 1600, 900, "é/ü.mp4"),),
    (QAPair("Что впереди?", "B", QAStyle.MULTIPLE_CHOICE, Provenance.MC_TRANSFORM,
            (("A", "行人"), ("B", "voiture garée"))),),
    frozenset({"perception", "知覚"}))


@settings(max_examples=300, deadline=None)
@given(_samples_of(_text))
@example(_NON_ASCII)
def test_round_trip_is_identity_and_byte_stable(sample):
    line = sample_to_json(sample)
    decoded = sample_from_json(line)
    assert decoded == sample
    assert sample_to_json(decoded) == line


# ------------------------------------------------- reference encoder
# The manifest's dict form, encoded by the stdlib: the f-string encoders must
# give the same text for every sample and prompt row.

_reference_encode = json.JSONEncoder(ensure_ascii=False).encode


def _media_to_dict(m: MediaRef) -> dict:
    return {
        "kind": m.kind.value,
        "camera": m.camera.value,
        "frame_count": m.frame_count,
        "width": m.width,
        "height": m.height,
        "uri": m.uri,
    }


def _qa_to_dict(qa: QAPair) -> dict:
    d = {
        "question": qa.question,
        "answer": qa.answer,
        "style": qa.style.value,
        "provenance": qa.provenance.value,
    }
    if qa.options is not None:
        d["options"] = [[label, text] for label, text in qa.options]
    return d


def _sample_to_dict(s: Sample) -> dict:
    return {
        "id": s.id,
        "dataset": s.dataset.value,
        "media": [_media_to_dict(m) for m in s.media],
        "qa": [_qa_to_dict(q) for q in s.qa],
        "task_tags": sorted(s.task_tags),
    }


# Every character JSON escapes, quotes, backslashes, the line and paragraph
# separators JSON leaves alone, and non-ASCII text. The round trip above draws
# from all of Unicode.
_tricky_text = st.text(st.sampled_from(
    [chr(c) for c in range(0x20)]
    + ['"', "\\", "/", "\x7f", "\u2028", "\u2029", "a", " ", "<", "é", "車", "🚗"]),
    max_size=20)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_samples_of(_tricky_text))
@example(_NON_ASCII)
def test_sample_to_json_equals_reference_encoder(sample):
    assert sample_to_json(sample) == _reference_encode(_sample_to_dict(sample))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_tricky_text, _tricky_text, st.lists(_tricky_text, max_size=4),
       st.integers(min_value=0, max_value=2 ** 70), st.integers(min_value=0, max_value=2 ** 70))
@example("coda_lm/1", "View 1 (FRONT_ONLY)\n<image>\nWhat?", ["<image>"], 17, 729)
@example("x", "", [], SEQUENCE_LIMIT, 1)
def test_prompt_row_equals_reference_encoder(sample_id, prompt, placeholders,
                                              text_tokens, visual_tokens):
    report = BudgetReport(text_tokens, visual_tokens, prompt, tuple(placeholders))
    assert _prompt_row(sample_id, report) == _reference_encode({
        "id": sample_id,
        "prompt": prompt,
        "placeholders": placeholders,
        "text_tokens": text_tokens,
        "visual_tokens": visual_tokens,
        "limit": SEQUENCE_LIMIT,
        "fits": report.fits,
    }) + "\n"


def test_non_ascii_text_is_written_verbatim():
    line = sample_to_json(_NON_ASCII)
    assert "車" in line and "\\u" not in line
    assert json.loads(line)["qa"][0]["options"] == [["A", "行人"],
                                                    ["B", "voiture garée"]]


# ------------------------------------------------------------- error text

_BASE = {
    "id": "generic/1",
    "dataset": "generic",
    "media": [{"kind": "image", "camera": "FRONT_ONLY", "frame_count": 1,
               "width": 64, "height": 48, "uri": "a.jpg"}],
    "qa": [{"question": "q", "answer": "a", "style": "open",
            "provenance": "original"}],
    "task_tags": ["t"],
}

_DELETE = object()

_ENUM_FIELDS = [
    (("dataset",), "DatasetId", "sample"),
    (("media", 0, "kind"), "MediaKind", "sample.media[0]"),
    (("media", 0, "camera"), "CameraId", "sample.media[0]"),
    (("qa", 0, "style"), "QAStyle", "sample.qa[0]"),
    (("qa", 0, "provenance"), "Provenance", "sample.qa[0]"),
]
_BAD_ENUM_VALUES = ["x", "CODA_LM", "", 1, 1.5, True, None, [1], {}]

_CASES = [
    (where, value, f"{value!r} is not a valid {enum} (at {at})")
    for where, enum, at in _ENUM_FIELDS for value in _BAD_ENUM_VALUES
] + [
    (("media", 0, name), value,
     f"{name} must be an integer, got {value!r} (at sample.media[0])")
    for name in ("width", "height", "frame_count")
    for value in (True, False, 1.0, 2.5, "1", None)
] + [
    (("media", 0), entry, "media entry must be an object (at sample.media[0])")
    for entry in (1, "x", None, [], True)
] + [
    (("qa", 0), entry, "qa entry must be an object (at sample.qa[0])")
    for entry in (1, "x", None, [], True)
] + [
    (("task_tags",), tags, "task_tags must be a list of strings (at sample)")
    for tags in (["a", 1], "t", [None], 3, {"a": 1})
] + [
    (("id",), 7, "id must be a string (at sample)"),
    (("id",), _DELETE, "missing key 'id' (at sample)"),
    (("dataset",), _DELETE, "missing key 'dataset' (at sample)"),
    (("media",), {}, "media and qa must be lists (at sample)"),
    (("qa",), "q", "media and qa must be lists (at sample)"),
    (("media", 0, "kind"), _DELETE, "missing key 'kind' (at sample.media[0])"),
    (("media", 0, "uri"), 3, "uri must be a string (at sample.media[0])"),
    (("media", 0, "frame_count"), 5,
     "image media must have frame_count 1, got 5 (at sample.media[0])"),
    (("qa", 0, "answer"), None, "question/answer must be strings (at sample.qa[0])"),
    (("qa", 0, "question"), _DELETE, "missing key 'question' (at sample.qa[0])"),
    (("qa", 0, "options"), "A", "options must be a list (at sample.qa[0])"),
    (("qa", 0, "options"), [["A"]],
     "option entries must be [label, text], got ['A'] (at sample.qa[0])"),
    (("qa", 0, "options"), [["A", 1]],
     "option entries must be [label, text], got ['A', 1] (at sample.qa[0])"),
]


def _edited(edits) -> str:
    """``_BASE`` as JSON with each ``(where, value)`` edit made in turn."""
    d = copy.deepcopy(_BASE)
    for where, value in edits:
        target = d
        for key in where[:-1]:
            target = target[key]
        if value is _DELETE:
            del target[where[-1]]
        else:
            target[where[-1]] = value
    return json.dumps(d)


def _case_id(where, value) -> str:
    field = ".".join(map(str, where))
    return f"del {field}" if value is _DELETE else f"{field}={value!r}"


@pytest.mark.parametrize("where,value,message", _CASES,
                         ids=[_case_id(w, v) for w, v, _ in _CASES])
def test_malformed_line_error_text(where, value, message):
    with pytest.raises(SchemaError) as exc:
        sample_from_json(_edited([(where, value)]))
    assert str(exc.value) == message


@pytest.mark.parametrize("line,message", [
    ("[]", "sample must be an object (at sample)"),
    ("null", "sample must be an object (at sample)"),
    ('"s"', "sample must be an object (at sample)"),
    ("{", "invalid JSON: Expecting property name enclosed in double quotes (line 1)"),
    ("", "invalid JSON: Expecting value (line 1)"),
])
def test_non_object_line_error_text(line, message):
    with pytest.raises(SchemaError) as exc:
        sample_from_json(line)
    assert str(exc.value) == message


def test_huge_integer_line_error_text():
    # json.loads raises a plain ValueError for an integer over 4300 digits
    with pytest.raises(SchemaError) as exc:
        sample_from_json('{"id": ' + "9" * 5000 + "}")
    assert str(exc.value) == (
        "invalid JSON: Exceeds the limit (4300 digits) for integer string "
        "conversion: value has 5000 digits; use sys.set_int_max_str_digits() "
        "to increase the limit")


def test_base_line_decodes():
    s = sample_from_json(json.dumps(_BASE))
    assert s.dataset is DatasetId.GENERIC
    assert sample_to_json(s) == json.dumps(_BASE)


def test_unknown_keys_are_ignored():
    d = copy.deepcopy(_BASE)
    d["extra"] = {"nested": [1]}
    d["media"][0]["exposure"] = 0.5
    d["qa"][0]["score"] = None
    assert sample_from_json(json.dumps(d)) == sample_from_json(json.dumps(_BASE))


def test_absent_optional_keys_take_defaults():
    d = copy.deepcopy(_BASE)
    del d["task_tags"]
    for key in ("style", "provenance"):
        del d["qa"][0][key]
    s = sample_from_json(json.dumps(d))
    assert s.task_tags == frozenset()
    assert s.qa == (QAPair("q", "a", QAStyle.OPEN, Provenance.ORIGINAL, None),)
    assert sample_to_json(s) == json.dumps({**d, "qa": _BASE["qa"], "task_tags": []})


# The decoder checks id, dataset, media, qa, the list check, each media entry,
# each QA entry, then task_tags; a line with two faults reports the first.
_BAD_SECOND_MEDIA = [_BASE["media"][0], {**_BASE["media"][0], "camera": "c1"}]


@pytest.mark.parametrize("edits,message", [
    ([(("id",), 7), (("dataset",), _DELETE)], "id must be a string (at sample)"),
    ([(("media", 0, "kind"), "x"), (("qa", 0, "style"), "x")],
     "'x' is not a valid MediaKind (at sample.media[0])"),
    ([(("media", 0, "width"), True), (("media", 0, "uri"), 3)],
     "width must be an integer, got True (at sample.media[0])"),
    ([(("task_tags",), [1]), (("media",), _BAD_SECOND_MEDIA)],
     "'c1' is not a valid CameraId (at sample.media[1])"),
], ids=["id_before_dataset", "media_before_qa", "width_before_uri",
        "media_before_task_tags"])
def test_first_fault_is_reported(edits, message):
    with pytest.raises(SchemaError) as exc:
        sample_from_json(_edited(edits))
    assert str(exc.value) == message


# Every place in _BASE a fault can sit, absent optional keys included, and the
# JSON values one can hold.
_FIELDS = [("id",), ("dataset",), ("media",), ("qa",), ("task_tags",),
           ("media", 0), ("qa", 0), ("task_tags", 0)] + [
    ("media", 0, key) for key in _BASE["media"][0]] + [
    ("qa", 0, key) for key in ("question", "answer", "style", "provenance", "options")]
_JSON_VALUES = [_DELETE, None, True, False, 0, 1, 5, -1, 2.5, 1.0, "", "x", "open",
                "image", "video", "FRONT_ONLY", "generic", "original", [], [1], ["a"],
                ["A", "x"], [["A", "x"]], [["A"]], {}, {"kind": "image"}]


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.dictionaries(st.sampled_from(_FIELDS), st.sampled_from(_JSON_VALUES),
                       min_size=1, max_size=4))
def test_faulted_line_decodes_stably_or_raises_schema_error(edits):
    assume(edits.get(("qa", 0, "options")) is not _DELETE)  # absent in _BASE
    # deepest first, so no edit's container is already replaced or deleted
    line = _edited(sorted(edits.items(), key=lambda edit: -len(edit[0])))
    try:
        sample = sample_from_json(line)
    except SchemaError:
        return
    encoded = sample_to_json(sample)
    assert sample_to_json(sample_from_json(encoded)) == encoded
