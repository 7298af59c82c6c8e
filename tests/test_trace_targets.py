"""perfbench's tracer still sees the token work of standardize and the
scorers of evaluate: one ``tokens.scan_tokens`` span per text scanned, one
``standardize._render_normalized`` span per token rewritten (the benchmark's
``standardize.tokens_rewritten``), and one ``metrics.bleu`` or
``metrics.average_precision`` span per caption or detection record. A
refactor that inlines any of these functions would zero a per-layer metric
or break ``--trace 1``, and fails here instead. ``perfbench/tracer.py`` is
loaded by path and never written."""

import json
import subprocess
import sys
from pathlib import Path

import dataforge
from dataforge.core import (CameraId, DatasetId, QAPair, QAStyle, Sample, image_ref,
                            sample_to_json)

from helpers import surround_media

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Run in a fresh interpreter that has imported only dataforge.cli, as the
# benchmark's traced child has when it installs the tracer.
_SCRIPT = """
import importlib.util, json, sys
import dataforge.cli
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
module = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = module
spec.loader.exec_module(module)
tracer = module.Tracer("test")
tracer.install()
try:
    code = dataforge.cli.main(sys.argv[2:])
finally:
    tracer.restore()
names = [span[2] for span in tracer.spans]
print(json.dumps({"code": code, "counters": tracer.counters,
                  "spans": {name: names.count(name) for name in set(names)}}))
"""

_SAMPLES = [
    Sample("coda_lm/0", DatasetId.CODA_LM,
           (image_ref(CameraId.FRONT_ONLY, 1920, 1080, "a.jpg"),),
           (QAPair("Is <car>[10, 20, 30, 40] near <cone>[5, 6]?",
                   "Yes, at <car>[FRONT_ONLY, 11, 21, 31, 41]."),)),
    Sample("drivelm/2", DatasetId.DRIVELM,
           (image_ref(CameraId.CAM_FRONT, 1600, 900, "f.jpg"),
            image_ref(CameraId.CAM_BACK, 1600, 900, "b.jpg")),
           (QAPair("Which one is <car>[CAM_FRONT, 1.000, 2.000]?", "A",
                   QAStyle.MULTIPLE_CHOICE,
                   options=(("A", "<c1, CAM_BACK, 10.5, 20.5>"), ("B", "None."))),)),
    Sample("nuinstruct/1", DatasetId.NUINSTRUCT, surround_media(1600, 900),
           (QAPair("Where is <car>[c6, 139, 343, 1511, 900]?", "Behind."),
            QAPair("Any bus?", "No."))),
]
TEXTS_SCANNED = 2 + 4 + 4  # in id order, each QA's question, answer and option texts
TOKENS_REWRITTEN = 3 + 1 + 1  # each pixel token; the normalized one stays


def _traced(*argv):
    """The exit code, counters and span counts of the CLI run ``argv`` under
    the tracer."""
    src = str(Path(dataforge.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", _SCRIPT, str(TRACER), *map(str, argv)],
                            capture_output=True, text=True, check=True, timeout=60,
                            env={"PYTHONPATH": src})
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["code"] == 0, result.stderr
    return report


def test_tracer_counts_each_text_scanned_and_each_token_rewritten(tmp_path):
    raw, out = tmp_path / "raw.jsonl", tmp_path / "std.jsonl"
    raw.write_text("".join(sample_to_json(s) + "\n" for s in _SAMPLES), encoding="utf-8")
    report = _traced("standardize", "--in", raw, "--out", out)
    assert report["spans"]["tokens.scan_tokens"] == TEXTS_SCANNED
    assert report["spans"]["standardize._render_normalized"] == TOKENS_REWRITTEN
    assert report["spans"]["standardize.standardize_sample"] == len(_SAMPLES)
    assert report["counters"]["standardize._render_normalized.calls"] == TOKENS_REWRITTEN


def _box(x0, y0, x1, y1, confidence=None):
    entry = {"bbox": [float(x0), float(y0), float(x1), float(y1)]}
    return entry if confidence is None else dict(entry, confidence=confidence)


# A small file, so evaluate scores it as one range, in the traced process.
_PREDICTIONS = [
    {"sample_id": "b/0", "task": "caption", "predicted": "a car ahead",
     "gold": "a car is ahead"},
    {"sample_id": "c/0", "task": "classification", "predicted": "yes", "gold": "Yes"},
    {"sample_id": "d/0", "task": "detection",
     "predicted": [_box(0, 0, 10, 10, 0.9), _box(50, 50, 60, 60, 0.4)],
     "gold": [_box(0, 0, 10, 12)]},
    {"sample_id": "b/1", "task": "caption", "predicted": "stop stop now",
     "gold": "stop now"},
    {"sample_id": "r/0", "task": "regression", "predicted": 1.5, "gold": 2.0},
    {"sample_id": "d/1", "task": "detection", "predicted": [], "gold": []},
    {"sample_id": "g/0", "task": "grounding", "predicted": [{"point": [1.0, 1.0]}],
     "gold": [{"point": [1.5, 1.0]}]},
    {"sample_id": "b/2", "task": "caption", "predicted": "left", "gold": "left lane"},
]


def test_tracer_counts_each_caption_and_detection_record_scored(tmp_path):
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(json.dumps(r) + "\n" for r in _PREDICTIONS), encoding="utf-8")
    report = _traced("evaluate", "--dataset", "generic", "--in", preds,
                     "--out", tmp_path / "report.json")
    tasks = [record["task"] for record in _PREDICTIONS]
    assert report["spans"].get("metrics.bleu") == tasks.count("caption") == 3
    assert report["spans"].get("metrics.average_precision") == tasks.count("detection") == 2
    assert report["counters"]["metrics.ap_detections"] == 2
