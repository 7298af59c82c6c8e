"""Property tests over QA text built from the object-token alphabet, for every
dataset and camera: token scanning never raises and agrees with a two-regex
reference scanner, and standardize is idempotent and writes normalized tokens
with the matching format instruction."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dataforge.core import (BBoxNorm, CameraId, DatasetId, MediaKind, MediaRef,
                            QAPair, Sample)
from dataforge.errors import DataforgeError
from dataforge.standardize import BOX_INSTRUCTION, CENTER_INSTRUCTION, standardize_sample
from dataforge.tokens import (ANGLE_TOKEN_RE, BRACKET_TOKEN_RE, TokenMatch,
                              _parse_angle, _parse_bracket, scan_tokens)

_CAMERAS = [c.value for c in CameraId]
_NAMES = _CAMERAS + ["c1", "c2", "c3", "c4", "c5", "c6", "c7", "c23", "CAM_TOP",
                     "car", "traffic cone", "object", ""]
_numbers = st.one_of(
    st.integers(min_value=-50, max_value=5000).map(str),
    st.integers(min_value=0, max_value=100_000).map(lambda n: f"{n / 1000:.3f}"),
    st.floats(min_value=-10, max_value=4000, allow_nan=False).map(lambda x: f"{x:.1f}"),
    st.sampled_from([".5", "5.", "-0", "007"]))


@st.composite
def _token(draw) -> str:
    """A bracket or angle token: well formed in shape, or a random field list."""
    sep = draw(st.sampled_from([", ", ",", " , "]))
    shape = draw(st.sampled_from(["box", "center", "angle", "soup"]))
    if shape == "soup":
        fields = draw(st.lists(st.one_of(_numbers, st.sampled_from(_NAMES)), max_size=6))
    else:
        fields = draw(st.lists(_numbers, min_size=2, max_size=2)
                      if shape != "box" else st.lists(_numbers, min_size=4, max_size=4))
        if shape == "angle" or draw(st.booleans()):
            fields.insert(0, draw(st.sampled_from(_NAMES)))
    if shape == "angle":
        return f"<{draw(st.sampled_from(['c3', 'c17', 'car']))}{sep}{sep.join(fields)}>"
    return f"<{draw(st.sampled_from(_NAMES))}>[{sep.join(fields)}]"


_text = st.lists(
    st.one_of(_token(), _numbers,
              st.sampled_from(_NAMES + ["<", ">", "[", "]", ",", " ", "\n", "?", "."])),
    max_size=12).map("".join)
# QA text with few tokens, so that most samples standardize without a failure.
_qa_text = st.lists(st.one_of(_token(), st.sampled_from(["Where is ", "? ", " and "])),
                    max_size=3).map("".join)


@st.composite
def _samples(draw) -> Sample:
    """A sample whose views share one size, as surround cameras do."""
    size = st.integers(1, 6000) | st.sampled_from([5000, 6000])
    width, height = draw(size), draw(size)
    media = []
    for camera in draw(st.lists(st.sampled_from(CameraId), min_size=1, max_size=6)):
        kind = draw(st.sampled_from(MediaKind))
        frames = 1 if kind is MediaKind.IMAGE else draw(st.integers(1, 60))
        media.append(MediaRef(kind, camera, frames, width, height, "m.jpg"))
    qa = draw(st.lists(st.builds(QAPair, _qa_text, _qa_text), min_size=1, max_size=3))
    return Sample("p/1", draw(st.sampled_from(DatasetId)), tuple(media), tuple(qa))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_text)
def test_scan_tokens_never_raises(text):
    for match in scan_tokens(text):
        assert text[match.start:match.end] == match.text
        assert (match.ref is None) or (match.error is None)


def _reference_scan(text):
    """Each regex on its own, then the matches sorted by start, longest
    first, dropping any that starts inside an earlier one."""
    candidates = []
    for m in BRACKET_TOKEN_RE.finditer(text):
        ref, err = _parse_bracket(m.group(0), m.group("cat"), m.group("body"))
        if ref is None and err is None:
            continue  # bracketed text, but not an object token
        candidates.append((m.start(), -m.end(),
                           TokenMatch(m.start(), m.end(), m.group(0), ref, err)))
    for m in ANGLE_TOKEN_RE.finditer(text):
        ref, err = _parse_angle(m.group(0), m.group("cam"), m.group("x"), m.group("y"))
        candidates.append((m.start(), -m.end(),
                           TokenMatch(m.start(), m.end(), m.group(0), ref, err)))
    candidates.sort(key=lambda t: (t[0], t[1]))
    out = []
    last_end = -1
    for start, _neg_end, match in candidates:
        if start < last_end:
            continue
        out.append(match)
        last_end = match.end
    return out


@settings(derandomize=True, deadline=None, max_examples=500)
@given(_text)
@example("<c1, CAM_FRONT, 1, 2>[x] <c2, CAM_BACK, 3, 4>[5, 6]")
def test_scan_tokens_matches_two_regex_reference(text):
    assert scan_tokens(text) == _reference_scan(text)


def _single_view(*qa):
    media = (MediaRef(MediaKind.IMAGE, CameraId.CAM_FRONT, 1, 1600, 900, "m.jpg"),)
    return Sample("p/1", DatasetId.CODA_LM, media, qa)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_samples())
@example(_single_view(QAPair("", "<CAM_FRONT>[-0, 834]")))  # was "-0.000"
@example(_single_view(QAPair("<  >[10, 20, 30, 40]", "")))  # was "<>[...]"
def test_standardize_sample_is_idempotent(sample):
    try:
        once = standardize_sample(sample)
    except DataforgeError:
        return
    assert standardize_sample(once) == once
    for before, qa in zip(sample.qa, once.qa):
        refs = []
        for text in (qa.question, qa.answer):
            for match in scan_tokens(text):
                assert match.ref is not None and match.ref.is_normalized, match
                refs.append(match.ref)
        if any(isinstance(ref.geometry, BBoxNorm) for ref in refs):
            assert qa.question.endswith(BOX_INSTRUCTION)
        elif refs:
            assert qa.question.endswith(CENTER_INSTRUCTION)
        else:  # every token rewritten still scans
            assert (qa.question, qa.answer) == (before.question, before.answer)
