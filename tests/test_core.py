import ast
import importlib
import random
import re
from pathlib import Path
from typing import NamedTuple

import pytest

import dataforge
from dataforge.core import (
    BBoxNorm,
    CameraId,
    DatasetId,
    MediaKind,
    MediaRef,
    Provenance,
    QAPair,
    QAStyle,
    Sample,
    _CAMERAS,
    _member,
    image_ref,
    json_bool,
    json_int,
    json_key,
    json_list,
    json_number,
    json_object,
    json_str,
    sample_from_json,
    sample_to_json,
    validate_sample,
)
from dataforge.errors import SchemaError

from helpers import plain_sample, random_mixed_sample, surround_media


def test_image_media_rejects_multiframe():
    with pytest.raises(ValueError):
        MediaRef(MediaKind.IMAGE, CameraId.CAM_FRONT, 5, 1600, 900, "a.jpg")


def test_camera_id_round_trip():
    for cam in CameraId:
        assert _member(_CAMERAS, CameraId, str(cam), "camera") is cam
    with pytest.raises(SchemaError):
        _member(_CAMERAS, CameraId, "CAM_TOP", "camera")


def test_media_sizes_must_be_positive():
    for fields in ((0, 1600, 900), (8, 0, 900), (8, 1600, -1), (-40, 1600, 900)):
        with pytest.raises(ValueError, match="must be an integer >= 1, got"):
            MediaRef(MediaKind.VIDEO, CameraId.CAM_FRONT, *fields, "a.mp4")
    with pytest.raises(ValueError, match="image media must have frame_count 1, got 0"):
        MediaRef(MediaKind.IMAGE, CameraId.CAM_FRONT, 0, 1600, 900, "a.jpg")


class Fails(NamedTuple):
    message: str


# (reader, bounds, value, the value returned or the SchemaError text)
_READER_CASES = [
    (json_int, {}, 7, 7),
    (json_int, {}, -(10 ** 30), -(10 ** 30)),
    (json_int, {}, True, Fails("n must be an integer, got True")),
    (json_int, {}, 1.0, Fails("n must be an integer, got 1.0")),
    (json_int, {}, "1", Fails("n must be an integer, got '1'")),
    (json_int, {"minimum": 1}, 1, 1),
    (json_int, {"minimum": 1}, 0, Fails("n must be an integer >= 1, got 0")),
    (json_number, {}, 3, 3.0),
    (json_number, {}, -2.5, -2.5),
    (json_number, {}, True, Fails("n must be a number, got True")),
    (json_number, {}, False, Fails("n must be a number, got False")),
    (json_number, {}, None, Fails("n must be a number, got None")),
    (json_number, {}, 10 ** 400, Fails(f"n must be a number, got {10 ** 400!r}")),
    (json_number, {}, float("nan"), Fails("n must be a number, got nan")),
    (json_number, {}, float("inf"), Fails("n must be a number, got inf")),
    (json_number, {}, float("-inf"), Fails("n must be a number, got -inf")),
    (json_number, {"minimum": 0, "maximum": 1}, 0, 0.0),
    (json_number, {"minimum": 0, "maximum": 1}, 1, 1.0),
    (json_number, {"minimum": 0, "maximum": 1}, 1.5,
     Fails("n must be a number in [0, 1], got 1.5")),
    (json_number, {"minimum": 0, "maximum": 1}, -0.001,
     Fails("n must be a number in [0, 1], got -0.001")),
    (json_number, {"minimum": 0, "maximum": 100}, float("nan"),
     Fails("n must be a number in [0, 100], got nan")),
    (json_bool, {}, False, False),
    (json_bool, {}, 1, Fails("n must be true or false, got 1")),
    (json_bool, {}, "true", Fails("n must be true or false, got 'true'")),
    (json_str, {}, "", ""),
    (json_str, {}, 5, Fails("n must be a string, got 5")),
    (json_list, {}, [1], [1]),
    (json_list, {}, (1,), Fails("n must be a list, got (1,)")),
    (json_object, {}, {}, {}),
    (json_object, {}, [], Fails("n must be an object, got []")),
]


@pytest.mark.parametrize("reader,bounds,value,expected", _READER_CASES,
                         ids=[f"{r.__name__}-{v!r:.20}-{b}" for r, b, v, _ in _READER_CASES])
def test_json_readers(reader, bounds, value, expected):
    if isinstance(expected, Fails):
        with pytest.raises(SchemaError) as exc:
            reader(value, "n", **bounds)
        assert str(exc.value) == expected.message
        with pytest.raises(SchemaError) as exc:
            reader(value, "n", "a.b", **bounds)
        assert str(exc.value) == f"{expected.message} (at a.b)"
    else:
        result = reader(value, "n", **bounds)
        assert result == expected and type(result) is type(expected)


def test_json_key():
    assert json_key({"k": None}, "k") is None
    assert json_key({}, "k", default=3) == 3
    with pytest.raises(SchemaError) as exc:
        json_key({}, "k", "a.b")
    assert str(exc.value) == "missing key 'k' (at a.b)"


def test_schema_error_at_keeps_path_and_places_not_given():
    fault = SchemaError("bad", path="qa[0]", line=3)
    placed = fault.at(record_index=2)
    assert (placed.reason, placed.path) == ("bad", "qa[0]")
    assert str(placed) == "bad (record 2, at qa[0], line 3)"
    assert str(placed.at(line=9)) == "bad (record 2, at qa[0], line 9)"
    assert str(SchemaError("bad").at()) == "bad"


@pytest.mark.parametrize("module", ["cli", "ingest", "perceptgen", "metrics"])
def test_decoders_read_json_through_core_readers(module):
    """These modules read decoded JSON only through core's readers, so no
    builtin int/float/bool call may coerce a value there."""
    source = Path(dataforge.__file__).with_name(f"{module}.py").read_text(encoding="utf-8")
    calls = [f"line {node.lineno}: {node.func.id}()" for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("int", "float", "bool")]
    assert calls == []


def test_every_exception_class_is_caught_by_name():
    """An exception class pays for itself only where a handler in src/ names
    it; a refusal nothing singles out raises DataforgeError with its text."""
    defined, caught = set(), set()
    for path in sorted(Path(dataforge.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"dataforge.{path.stem}".removesuffix(".__init__"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name, None)
                if isinstance(cls, type) and issubclass(cls, BaseException):
                    defined.add(node.name)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(t.attr if isinstance(t, ast.Attribute) else t.id
                              for t in types)
    assert {"DataforgeError", "SchemaError"} <= defined
    assert sorted(defined - caught) == []


def test_bbox_norm_render_pattern():
    rng = random.Random(7)
    pat = re.compile(r"^\d{1,3}\.\d{3}(, \d{1,3}\.\d{3}){3}$")
    for _ in range(200):
        vals = sorted(rng.uniform(0, 100) for _ in range(2))
        vals += sorted(rng.uniform(0, 100) for _ in range(2))
        box = BBoxNorm(vals[0], vals[2], vals[1], vals[3])
        assert pat.match(box.render()), box.render()


def test_serialization_round_trip_random_samples():
    rng = random.Random(20_240_101)
    for i in range(300):
        s = random_mixed_sample(rng, i)
        assert sample_from_json(sample_to_json(s)) == s


def test_serialization_key_order_is_pinned():
    s = plain_sample(3)
    line = sample_to_json(s)
    assert line == (
        '{"id": "lingoqa/000003", "dataset": "lingoqa", '
        '"media": [{"kind": "image", "camera": "FRONT_ONLY", "frame_count": 1, '
        '"width": 1280, "height": 720, "uri": "frames/front.jpg"}], '
        '"qa": [{"question": "What should the driver do next?", '
        '"answer": "Slow down and yield.", "style": "open", '
        '"provenance": "original"}], "task_tags": ["planning"]}'
    )


def test_options_survive_round_trip():
    s = Sample(
        "generic/0", DatasetId.GENERIC, surround_media(),
        (QAPair("Pick one.", "B", QAStyle.MULTIPLE_CHOICE, Provenance.MC_TRANSFORM,
                (("A", "left"), ("B", "right"), ("C", "straight"), ("D", "stop"))),),
    )
    back = sample_from_json(sample_to_json(s))
    assert back.qa[0].options == s.qa[0].options
    assert back == s


def test_from_json_rejects_malformed():
    with pytest.raises(SchemaError):
        sample_from_json("not json")
    with pytest.raises(SchemaError):
        sample_from_json('{"id": "a", "dataset": "nope", "media": [], "qa": []}')
    with pytest.raises(SchemaError):
        sample_from_json('{"dataset": "lingoqa", "media": [], "qa": []}')


def test_validate_well_formed_sample_is_clean():
    rng = random.Random(99)
    for i in range(100):
        assert validate_sample(random_mixed_sample(rng, i)) == []


def test_validate_flags_bbox_ordering():
    s = Sample(
        "x/1", DatasetId.NUINSTRUCT, surround_media(),
        (QAPair("Where?", "<car>[CAM_FRONT, 50.000, 10.000, 40.000, 20.000]"),),
    )
    report = validate_sample(s)
    assert [v.rule for v in report] == ["bbox_ordering"]


def test_validate_flags_mc_answer_not_a_label():
    s = Sample(
        "x/2", DatasetId.GENERIC, surround_media(),
        (QAPair("Pick.", "E", QAStyle.MULTIPLE_CHOICE, Provenance.ORIGINAL,
                (("A", "one"), ("B", "two"))),),
    )
    assert any(v.rule == "mc_answer_is_label" for v in validate_sample(s))


@pytest.mark.parametrize("label", ["<car>[1, 2]", "<c1, FRONT_ONLY, 5, 5>", "<car>[1, 2, 3]"],
                         ids=["bracket", "angle", "malformed"])
def test_validate_flags_token_in_option_label(label):
    # standardize rewrites the answer but never a label, so a token label
    # would stop matching its answer
    s = Sample(
        "x/2", DatasetId.GENERIC, (image_ref(CameraId.FRONT_ONLY, 1600, 900, "f.jpg"),),
        (QAPair("Pick.", "B", QAStyle.MULTIPLE_CHOICE, Provenance.ORIGINAL,
                ((label, "one"), ("B", "two"))),),
    )
    assert [(v.field, v.rule) for v in validate_sample(s)] == [
        ("qa[0].options[0]", "mc_label_token")]


def test_validate_flags_token_camera_missing_from_media():
    s = Sample(
        "x/3", DatasetId.LINGOQA, (image_ref(CameraId.FRONT_ONLY, 1280, 720, "f.jpg"),),
        (QAPair("Where?", "<car>[CAM_BACK, 10.000, 10.000, 20.000, 20.000]"),),
    )
    assert any(v.rule == "token_camera_in_media" for v in validate_sample(s))


def test_validate_flags_pixel_out_of_bounds():
    s = Sample(
        "x/4", DatasetId.NUINSTRUCT, surround_media(1600, 900),
        (QAPair("Where?", "<car>[CAM_FRONT, 0, 0, 1700, 900]"),),
    )
    assert any(v.rule == "pixel_bounds" for v in validate_sample(s))


def test_validate_flags_malformed_token():
    s = Sample(
        "x/5", DatasetId.NUINSTRUCT, surround_media(),
        (QAPair("Where?", "<car>[CAM_FRONT, 1, 2, 3]"),),
    )
    assert any(v.rule == "token_grammar" for v in validate_sample(s))


def test_validate_flags_empty_media_and_id():
    s = Sample("", DatasetId.GENERIC, (), (QAPair("q", "a"),))
    rules = {v.rule for v in validate_sample(s)}
    assert {"non_empty"} <= rules


def test_validate_does_not_mutate():
    rng = random.Random(5)
    s = random_mixed_sample(rng, 0)
    before = sample_to_json(s)
    validate_sample(s)
    assert sample_to_json(s) == before
