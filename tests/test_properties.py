"""Property tests over QA text built from the object-token alphabet, for every
dataset and camera: token scanning never raises, and standardize is
idempotent."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dataforge.core import CameraId, DatasetId, MediaKind, MediaRef, QAPair, Sample
from dataforge.errors import DataforgeError
from dataforge.standardize import standardize_sample
from dataforge.tokens import scan_tokens

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


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_samples())
@example(Sample("p/1", DatasetId.CODA_LM,  # "-0" used to render as "-0.000"
                (MediaRef(MediaKind.IMAGE, CameraId.CAM_FRONT, 1, 1600, 900, "m.jpg"),),
                (QAPair("", "<CAM_FRONT>[-0, 834]"),)))
def test_standardize_sample_is_idempotent(sample):
    try:
        once = standardize_sample(sample)
    except DataforgeError:
        return
    assert standardize_sample(once) == once
