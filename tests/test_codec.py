"""The manifest codec: round trip over generated samples, and the exact error
text for malformed manifest lines."""

import copy
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

# ------------------------------------------------------------------ round trip

_text = st.text(max_size=40)
_sizes = st.integers(min_value=1, max_value=2 ** 70)


@st.composite
def _media(draw) -> MediaRef:
    kind = draw(st.sampled_from(MediaKind))
    frames = 1 if kind is MediaKind.IMAGE else draw(_sizes)
    return MediaRef(kind, draw(st.sampled_from(CameraId)), frames,
                    draw(_sizes), draw(_sizes), draw(_text))


_qa = st.builds(
    QAPair, _text, _text, st.sampled_from(QAStyle), st.sampled_from(Provenance),
    st.none() | st.lists(st.tuples(_text, _text), max_size=4).map(tuple))

_samples = st.builds(
    Sample, _text, st.sampled_from(DatasetId),
    st.lists(_media(), max_size=4).map(tuple),
    st.lists(_qa, max_size=4).map(tuple),
    st.frozensets(_text, max_size=4))

_NON_ASCII = Sample(
    "generic/ß-車-🚗", DatasetId.GENERIC,
    (MediaRef(MediaKind.VIDEO, CameraId.CAM_BACK_LEFT, 8, 1600, 900, "é/ü.mp4"),),
    (QAPair("Что впереди?", "B", QAStyle.MULTIPLE_CHOICE, Provenance.MC_TRANSFORM,
            (("A", "行人"), ("B", "voiture garée"))),),
    frozenset({"perception", "知覚"}))


@settings(max_examples=300, deadline=None)
@given(_samples)
@example(_NON_ASCII)
def test_round_trip_is_identity_and_byte_stable(sample):
    line = sample_to_json(sample)
    decoded = sample_from_json(line)
    assert decoded == sample
    assert sample_to_json(decoded) == line


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


def _mutated(where, value) -> str:
    d = copy.deepcopy(_BASE)
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
        sample_from_json(_mutated(where, value))
    assert str(exc.value) == message


@pytest.mark.parametrize("line,message", [
    ("[]", "sample must be an object (at sample)"),
    ("null", "sample must be an object (at sample)"),
    ('"s"', "sample must be an object (at sample)"),
    ("{", "invalid JSON: Expecting property name enclosed in double quotes"),
    ("", "invalid JSON: Expecting value"),
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
