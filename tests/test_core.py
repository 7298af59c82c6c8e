import ast
import importlib
import inspect
import pickle
import random
import re
from dataclasses import (MISSING, FrozenInstanceError, InitVar, dataclass, field, fields,
                         make_dataclass, replace)
from pathlib import Path
from typing import NamedTuple

import pytest

import dataforge
from dataforge.core import (
    BBoxNorm,
    BBoxPx,
    CameraId,
    DatasetId,
    MediaKind,
    MediaRef,
    ObjectRef,
    PointNorm,
    PointPx,
    Provenance,
    QAPair,
    QAStyle,
    Sample,
    Violation,
    _CAMERAS,
    _member,
    frozen_value,
    image_ref,
    json_bool,
    json_int,
    json_key,
    json_list,
    json_number,
    json_object,
    json_str,
    pixel_inside,
    sample_from_json,
    sample_to_json,
    validate_sample,
)
from dataforge.errors import SchemaError
from dataforge.metrics import PredictionRecord
from dataforge.perceptgen import DetectedObject, DetectionAnnotation
from dataforge.promptkit import BudgetReport
from dataforge.tokens import TokenMatch, render_token

from helpers import late_token_sample, plain_sample, random_mixed_sample, surround_media


def test_image_media_rejects_multiframe():
    with pytest.raises(ValueError, match="image media must have frame_count 1, got 5"):
        MediaRef(MediaKind.IMAGE, CameraId.CAM_FRONT, 5, 1600, 900, "a.jpg")
    with pytest.raises(ValueError, match="image media must have frame_count 1, got 2"):
        MediaRef(MediaKind.IMAGE, CameraId.CAM_FRONT, frame_count=2, width=1600,
                 height=900, uri="a.jpg")


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



_MEDIA = MediaRef(MediaKind.VIDEO, CameraId.CAM_BACK, 3, 640, 480, "v.mp4")
_QA = QAPair("Where?", "Left.")

# Each class declared with frozen_value, with two sets of field values: the
# first leaves every defaulted field out, the second gives every field.
FROZEN_VALUES = {
    BBoxPx: ((1.0, 2.0, 3.0, 4.0), (0.0, 0.5, 9.0, 9.5)),
    BBoxNorm: ((1.0, 2.0, 3.0, 4.0), (0.0, 0.5, 9.0, 9.5)),
    PointPx: ((1.0, 2.0), (3.0, 4.0)),
    PointNorm: ((1.0, 2.0), (3.0, 4.0)),
    ObjectRef: (("car", CameraId.CAM_FRONT, PointNorm(1.0, 2.0)),
                ("bus", None, BBoxPx(1.0, 2.0, 3.0, 4.0), "c2")),
    MediaRef: ((MediaKind.IMAGE, CameraId.CAM_FRONT, 1, 1600, 900, "a.jpg"),
               (MediaKind.VIDEO, CameraId.CAM_BACK, 3, 640, 480, "v.mp4")),
    QAPair: (("Where?", "Left."),
             ("Which?", "A", QAStyle.MULTIPLE_CHOICE, Provenance.MC_TRANSFORM,
              (("A", "left"), ("B", "right")))),
    Sample: (("s/1", DatasetId.GENERIC, (_MEDIA,), (_QA,)),
             ("s/2", DatasetId.CODA_LM, (_MEDIA, _MEDIA), (_QA,), frozenset({"t"}))),
    Violation: (("id", "non_empty", "sample id is empty"), ("qa", "rule", "detail")),
    PredictionRecord: (("s/1", "regression", 1.0, 2.0), ("s/2", "caption", "a", "b")),
    TokenMatch: ((0, 3, "<x>"), (2, 9, "car[1, 2]", None, "bad body")),
    BudgetReport: ((1, 729, "<image>\nWhere?", ("<image>",)), (0, 0, "", ())),
    DetectedObject: (("car", BBoxPx(1.0, 2.0, 3.0, 4.0)),
                     ("bus", BBoxPx(0.0, 0.0, 5.0, 5.0), 2)),
    DetectionAnnotation: ((_MEDIA, ()),
                          (_MEDIA, (DetectedObject("bus", BBoxPx(0.0, 0.0, 5.0, 5.0), 2),))),
}


def _dataclass_twin(cls):
    """``dataclass(frozen=True, slots=True)`` with the fields of ``cls``."""
    return make_dataclass(cls.__name__, [
        (f.name, f.type) if f.default is MISSING else (f.name, f.type, f.default)
        for f in fields(cls)], frozen=True, slots=True)


@pytest.mark.parametrize("cls", FROZEN_VALUES, ids=lambda cls: cls.__name__)
def test_frozen_value_classes_behave_as_their_dataclass_twins(cls):
    twin = _dataclass_twin(cls)
    assert inspect.signature(cls) == inspect.signature(twin)
    assert cls.__match_args__ == twin.__match_args__
    assert cls.__slots__ == twin.__slots__
    (short, full), names = FROZEN_VALUES[cls], [f.name for f in fields(cls)]
    for args in (short, full):
        value, same = cls(*args), twin(*args)
        assert value == cls(*args) == cls(**dict(zip(names, args)))
        assert (hash(value), repr(value)) == (hash(same), repr(same))
        assert not hasattr(value, "__dict__")
        for name in names:
            with pytest.raises(FrozenInstanceError):
                setattr(value, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(value, name)
        assert pickle.loads(pickle.dumps(value)) == value
        assert replace(value, **dict(zip(names, full))) == cls(*full)
    assert cls(*short) != cls(*full)


def test_frozen_value_keeps_the_dataclass_docstring_and_post_init():
    class Pair:
        x: int
        y: str = "a"

        def __post_init__(self):
            if self.x < 0:
                raise ValueError(f"x must be >= 0, got {self.x}")

    twin = dataclass(frozen=True, slots=True)(type("Pair", (), dict(Pair.__dict__)))
    made = frozen_value(Pair)
    assert made.__doc__ == twin.__doc__ == "Pair(x: int, y: str = 'a')"
    assert made.__init__.__qualname__ == f"{made.__qualname__}.__init__"
    with pytest.raises(ValueError, match="x must be >= 0, got -1"):
        made(-1)


@pytest.mark.parametrize("annotation, value", [
    (list, field(default_factory=list)),
    (int, field(default=0, init=False)),
    (int, field(default=0, kw_only=True)),
    (InitVar[int], 0),
], ids=["default_factory", "init=False", "kw_only", "InitVar"])
def test_frozen_value_refuses_a_field_it_does_not_build(annotation, value):
    cls = type("Odd", (), {"__annotations__": {"x": annotation}, "x": value})
    with pytest.raises(TypeError, match="frozen_value takes plain fields only: Odd"):
        frozen_value(cls)


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
    pat = re.compile(r"^<car>\[\d{1,3}\.\d{3}(, \d{1,3}\.\d{3}){3}\]$")
    for _ in range(200):
        vals = sorted(rng.uniform(0, 100) for _ in range(2))
        vals += sorted(rng.uniform(0, 100) for _ in range(2))
        box = BBoxNorm(vals[0], vals[2], vals[1], vals[3])
        token = render_token("car", None, box)
        assert pat.match(token), token


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


@pytest.mark.parametrize("geometry,inside", [
    (PointPx(1600, 450), True),  # on the right edge
    (PointPx(800, 900), True),  # on the bottom edge
    (PointPx(1600, 900), True),
    (PointPx(0, 0), True),
    (PointPx(1600.001, 450), False),
    (PointPx(800, 900.001), False),
    (PointPx(-0.001, 450), False),
    (BBoxPx(0, 0, 1600, 900), True),
    (BBoxPx(0, 0, 1600.001, 900), False),
    (BBoxPx(0, 0, 1600, 900.001), False),
])
def test_pixel_inside_includes_the_right_and_bottom_edges(geometry, inside):
    assert pixel_inside(geometry, 1600, 900) is inside


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


def test_validate_sample_reports_tokens_after_token_free_texts_in_text_order():
    assert validate_sample(late_token_sample()) == [
        Violation("qa[1].question", "token_grammar",
                  "malformed token '<x>[1, 2, 3]': expected 2 or 4 coordinates, got 3"),
        Violation("qa[1].question", "pixel_bounds",
                  "pixel geometry in '<car>[CAM_BACK, 1, 2, 700, 4]' exceeds 640x480 image"),
        Violation("qa[1].answer", "token_camera_in_media",
                  "token '<bus>[10, 20, 30, 40]': camera-less token over media of "
                  "mixed resolutions"),
        Violation("qa[2].options[0]", "token_camera_in_media",
                  "token '<cone>[c9, 1, 2]': unknown camera id: 'c9'")]
