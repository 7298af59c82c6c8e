"""Seeded workload generators for the dataforge benchmark.

Each workload writes its input files into a directory and returns a
``Workload``: the stage chain to run through ``dataforge.cli.main``, the
outputs the chain writes, and the structural facts the gate checks on them.
The same (name, seed) always yields byte-identical input files, and the
program under test sees only those files.

Why each workload exists (see README.md for the layer mapping):

* ``c10-coda``: 10k single-image CODA-LM sources with one plain-text QA each,
  the shape of acceptance check c10. Time goes to the manifest codec,
  augment (x5), promptkit and stats; object tokens are rare, so the token
  grammar and standardize do little.
* ``surround-mix``: all six source adapters, weighted to surround-view
  NuInstruct/DriveLM/OmniDrive records whose answers carry raw-grammar tokens,
  plus LingoQA videos (some over the prompt budget), MAPLM (x2) and a
  gen-perception annotation file. Time goes to tokens, standardize,
  perceptgen and wide prompts; augment mostly passes samples through.
* ``eval-mix``: one predictions file over all five metric tasks with a
  detection tail (tens of detections per record, about 1% of detection
  records with 500-1000). Only the metrics layer works; it is the no-change
  control for pipeline changes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any

NUSCENES = ("CAM_FRONT", "CAM_FRONT_LEFT", "CAM_FRONT_RIGHT",
            "CAM_BACK", "CAM_BACK_LEFT", "CAM_BACK_RIGHT")
CATEGORIES = ("car", "truck", "pedestrian", "traffic cone", "bus", "bicycle",
              "barrier", "motorcycle")
ROAD_WORDS = ("car", "cars", "pedestrian", "pedestrians", "road", "lane",
              "lanes", "driver", "image", "status")
PLACES = ("ahead", "on the left shoulder", "on the right shoulder",
          "near the crossing", "in the oncoming lane", "behind the bus stop",
          "next to the parked cars", "at the junction")
ACTIONS = ("slow down", "speed up", "keep the lane", "change lanes",
           "stop and yield", "keep a safe distance")

# Expansion factors the CLI applies by default (augment.DEFAULT_FACTORS).
FACTORS = {"coda_lm": 5, "maplm": 2}


@dataclass
class Workload:
    """A generated workload: inputs on disk plus what the chain must produce.

    ``stages`` lists (stage name, argv) pairs for ``dataforge.cli.main``; an
    argv entry may contain ``{in}`` (the input directory) and ``{out}`` (the
    chain's output directory). ``outputs`` maps an output name to its file
    name under ``{out}``. ``expect`` holds the structural facts the gate
    checks for any seed.
    """

    name: str
    seed: int
    stages: list[tuple[str, list[str]]]
    outputs: dict[str, str]
    expect: dict[str, Any]
    sizes: dict[str, int]


def _write_json(path: Path, payload: Any) -> None:
    path.write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{name}/{seed}")


def _common(seed: int) -> list[str]:
    return ["--seed", str(seed), "--offline"]


def _pipeline_stages(seed: int, ingest: list[str],
                     perception: bool) -> list[tuple[str, list[str]]]:
    c = _common(seed)
    stages = [
        ("ingest", ingest + c + ["--out", "{out}/raw.jsonl"]),
        ("standardize", ["standardize"] + c
         + ["--in", "{out}/raw.jsonl", "--out", "{out}/std.jsonl"]),
        ("augment", ["augment"] + c
         + ["--in", "{out}/std.jsonl", "--out", "{out}/aug.jsonl"]),
    ]
    if perception:
        stages.append(("gen_perception", ["gen-perception"] + c
                       + ["--in", "{in}/annotations.json",
                          "--out", "{out}/grounding.jsonl"]))
    stages += [
        ("build_prompts", ["build-prompts"] + c
         + ["--in", "{out}/aug.jsonl", "--out", "{out}/prompts.jsonl"]),
        ("stats", ["stats"] + c
         + ["--in", "{out}/aug.jsonl", "--out", "{out}/stats.json"]),
    ]
    return stages


def _pipeline_outputs(perception: bool) -> dict[str, str]:
    names = ["raw.jsonl", "std.jsonl", "aug.jsonl", "prompts.jsonl", "stats.json"]
    if perception:
        names.insert(3, "grounding.jsonl")
    return {n: n for n in names}


class _Counts:
    """Samples and QA pairs per dataset, before and after augment."""

    def __init__(self) -> None:
        self.samples: dict[str, int] = {}
        self.qa: dict[str, int] = {}

    def add(self, dataset: str, n_qa: int) -> None:
        self.samples[dataset] = self.samples.get(dataset, 0) + 1
        self.qa[dataset] = self.qa.get(dataset, 0) + n_qa

    def expect(self) -> dict[str, Any]:
        raw = sum(self.samples.values())
        by_dataset = {d: n * FACTORS.get(d, 1) for d, n in self.samples.items()}
        qa = sum(n * FACTORS.get(d, 1) for d, n in self.qa.items())
        return {"raw_samples": raw, "aug_samples": sum(by_dataset.values()),
                "aug_qa": qa, "by_dataset": dict(sorted(by_dataset.items()))}


# ---------------------------------------------------------------------------
# Text and token helpers
# ---------------------------------------------------------------------------

def _sentence(rng: random.Random, i: int) -> tuple[str, str]:
    obj = rng.choice(CATEGORIES)
    place = rng.choice(PLACES)
    word = rng.choice(ROAD_WORDS)
    question = rng.choice((
        f"Describe hazard {i} {place}.",
        f"What should the driver do about the {obj} {place}?",
        f"In this image, is the {obj} moving or parked?",
        f"Which {word} needs attention near marker {i}?",
        f"Describe the {obj} that is visible {place}.",
    ))
    answer = rng.choice((
        f"A {obj} blocks lane {i % 4} near marker {i}.",
        f"The driver should {rng.choice(ACTIONS)} because a {obj} is {place}.",
        f"In the image, the {obj} is parked {place}, so the {word} stays clear.",
        f"At the junction, a {obj} is moving toward the lane; "
        f"the driver should {rng.choice(ACTIONS)}.",
        f"The {obj} {place} is visible and its status is {rng.choice(('moving', 'parked'))}.",
    ))
    return question, answer


def _px(rng: random.Random, lo: float, hi: float) -> str:
    return f"{round(rng.uniform(lo, hi), rng.choice((0, 1))):g}"


def _pixel_box(rng: random.Random, w: int, h: int) -> str:
    x1 = round(rng.uniform(0, w * 0.8), 1)
    y1 = round(rng.uniform(0, h * 0.8), 1)
    x2 = round(rng.uniform(x1, w), 1)
    y2 = round(rng.uniform(y1, h), 1)
    return f"{x1:g}, {y1:g}, {x2:g}, {y2:g}"


def _raw_token(rng: random.Random, cams: list[str], raw_ids: bool,
               w: int, h: int) -> str:
    """One object token in a source grammar, valid for the given views."""
    cat = rng.choice(CATEGORIES)
    kind = rng.randrange(10)
    if kind < 4:  # camera + pixel box; NuInstruct uses raw cN view ids
        k = rng.randrange(len(cams))
        cam = f"c{NUSCENES.index(cams[k]) + 1}" if raw_ids else cams[k]
        return f"<{cat}>[{cam}, {_pixel_box(rng, w, h)}]"
    if kind < 6:  # angle-form center with a class id
        return (f"<c{rng.randrange(1, 24)}, {rng.choice(cams)}, "
                f"{_px(rng, 0, w)}, {_px(rng, 0, h)}>")
    if kind < 9:  # bare pixel center
        return f"<{cat}>[{_px(rng, 0, w)}, {_px(rng, 0, h)}]"
    a, b = sorted(rng.randrange(0, 100_001) for _ in range(2))
    c, d = sorted(rng.randrange(0, 100_001) for _ in range(2))
    return (f"<{cat}>[{rng.choice(cams)}, {a / 1000:.3f}, {c / 1000:.3f}, "
            f"{b / 1000:.3f}, {d / 1000:.3f}]")


def _token_qa(rng: random.Random, cams: list[str], raw_ids: bool,
              w: int, h: int, i: int) -> tuple[str, str]:
    question, _ = _sentence(rng, i)
    toks = [_raw_token(rng, cams, raw_ids, w, h) for _ in range(rng.randint(1, 4))]
    answer = (f"The {rng.choice(ROAD_WORDS)} shows " + ", ".join(toks)
              + f"; the driver should {rng.choice(ACTIONS)}.")
    if rng.random() < 0.3:
        question = f"What is the status of {_raw_token(rng, cams, raw_ids, w, h)}?"
    return question, answer


# ---------------------------------------------------------------------------
# c10-coda
# ---------------------------------------------------------------------------

CODA_TASKS = ("general_perception", "region_perception", "driving_suggestion")
C10_SOURCES = 10_000


def _coda_records(rng: random.Random, n: int, counts: _Counts,
                  token_share: float) -> list[dict]:
    records = []
    for i in range(n):
        w, h = rng.choice(((1280, 720), (1920, 1080), (1600, 900)))
        question, answer = _sentence(rng, i)
        if rng.random() < token_share:
            answer += f" See <{rng.choice(CATEGORIES)}>[{_pixel_box(rng, w, h)}]."
        records.append({
            "id": f"{i:05d}",
            "image": {"path": f"images/{i:05d}.jpg", "width": w, "height": h},
            "qa": [{"question": question, "answer": answer}],
            "task": rng.choice(CODA_TASKS),
        })
        counts.add("coda_lm", 1)
    return records


def c10_coda(seed: int, in_dir: Path) -> Workload:
    rng = _rng("c10-coda", seed)
    counts = _Counts()
    _write_json(in_dir / "coda.json",
                _coda_records(rng, C10_SOURCES, counts, token_share=0.02))
    stages = _pipeline_stages(
        seed, ["ingest", "--adapter", "coda_lm", "--in", "{in}/coda.json"],
        perception=False)
    return Workload("c10-coda", seed, stages, _pipeline_outputs(False),
                    counts.expect(), {"coda_lm": C10_SOURCES})


# ---------------------------------------------------------------------------
# surround-mix
# ---------------------------------------------------------------------------

SURROUND_SIZES = {"nuinstruct": 900, "drivelm": 900, "omnidrive": 900,
                  "lingoqa": 300, "maplm": 300, "coda_lm": 100,
                  "annotations": 600}
SURROUND_WH = (1600, 900)
LINGO_FRAMES = (4, 8, 16, 24, 32, 48, 56)  # 169 tokens per frame; 56 frames overflow 8192


def _nuinstruct(rng: random.Random, n: int, counts: _Counts) -> list[dict]:
    w, h = SURROUND_WH
    out = []
    for i in range(n):
        qas = []
        for _ in range(rng.randint(1, 3)):
            q, a = _token_qa(rng, list(NUSCENES), True, w, h, i)
            qas.append({"question": q, "answer": a,
                        "task": rng.choice(("detection", "tracking", "planning"))})
        out.append({"sample_id": f"n{i:05d}", "width": w, "height": h,
                    "views": {f"c{k + 1}": f"nu/{i:05d}_{k + 1}.jpg"
                              for k in range(6)},
                    "qas": qas})
        counts.add("nuinstruct", len(qas))
    return out


def _drivelm(rng: random.Random, n: int, counts: _Counts) -> list[dict]:
    w, h = SURROUND_WH
    out = []
    for i in range(n):
        cams = sorted(rng.sample(NUSCENES, rng.randint(3, 6)), key=NUSCENES.index)
        qa: dict[str, list] = {}
        n_qa = 0
        for section in rng.sample(("perception", "prediction", "planning"),
                                  rng.randint(1, 3)):
            q, a = _token_qa(rng, cams, False, w, h, i)
            qa[section] = [{"q": q, "a": a}]
            n_qa += 1
        out.append({"scene_id": f"d{i:05d}", "width": w, "height": h,
                    "images": {c: f"dl/{i:05d}_{c}.jpg" for c in cams}, "qa": qa})
        counts.add("drivelm", n_qa)
    return out


def _omnidrive(rng: random.Random, n: int, counts: _Counts) -> list[dict]:
    w, h = SURROUND_WH
    out = []
    for i in range(n):
        conv = []
        for _ in range(rng.randint(1, 3)):
            q, a = _token_qa(rng, list(NUSCENES), False, w, h, i)
            conv.append({"question": q, "answer": a})
        out.append({"token": f"o{i:05d}", "width": w, "height": h,
                    "cameras": [f"od/{i:05d}_{k}.jpg" for k in range(6)],
                    "conversation": conv,
                    "tags": [rng.choice(("planning", "counterfactual", "perception"))]})
        counts.add("omnidrive", len(conv))
    return out


def _lingoqa(rng: random.Random, n: int, counts: _Counts) -> list[dict]:
    out = []
    for i in range(n):
        q, a = _sentence(rng, i)
        out.append({"segment_id": f"l{i:05d}",
                    "video": {"path": f"clips/{i:05d}.mp4",
                              "frames": rng.choice(LINGO_FRAMES),
                              "width": 1280, "height": 720},
                    "question": q, "answer": a,
                    "tags": [rng.choice(("action", "scenery", "attention"))]})
        counts.add("lingoqa", 1)
    return out


def _maplm(rng: random.Random, n: int, counts: _Counts) -> list[dict]:
    out = []
    for i in range(n):
        pairs = [list(_sentence(rng, i)) for _ in range(rng.randint(1, 3))]
        out.append({"frame_id": f"m{i:05d}", "image": f"frames/{i:05d}.jpg",
                    "width": 1600, "height": 900, "qa_pairs": pairs,
                    "tags": [rng.choice(("lane_count", "road_type", "scene_quality"))]})
        counts.add("maplm", len(pairs))
    return out


def _annotations(rng: random.Random, n: int) -> list[dict]:
    w, h = SURROUND_WH
    out = []

    def objects(frames: int, keyframe: bool) -> list[dict]:
        objs = []
        for k in range(rng.randint(1, 6)):
            x1 = rng.uniform(0, w * 0.8)
            y1 = rng.uniform(0, h * 0.8)
            box = [round(x1, 1), round(y1, 1), round(rng.uniform(x1 + 1, w), 1),
                   round(rng.uniform(y1 + 1, h), 1)]
            frame = frames - 1 if keyframe and k == 0 else rng.randrange(frames)
            objs.append({"category": rng.choice(CATEGORIES), "bbox": box,
                         "frame_index": frame})
        return objs

    for i in range(n):
        layout = i % 3
        rep = rng.choice((None, "box", "center"))
        if layout == 0:  # one image, no camera prefix
            anns = [{"camera": "CAM_FRONT", "width": w, "height": h,
                     "uri": f"pg/{i:05d}.jpg", "objects": objects(1, False)}]
            rec = {"id": f"scene-{i:05d}", "with_camera_prefix": False,
                   "annotations": anns}
        elif layout == 1:  # six surround images
            anns = [{"camera": c, "width": w, "height": h,
                     "uri": f"pg/{i:05d}_{c}.jpg", "objects": objects(1, False)}
                    for c in NUSCENES]
            rec = {"id": f"scene-{i:05d}", "with_camera_prefix": True,
                   "annotations": anns}
        else:  # six surround videos; questions target the key frame
            frames = rng.choice((3, 5))
            anns = [{"camera": c, "width": w, "height": h, "frames": frames,
                     "uri": f"pg/{i:05d}_{c}.mp4",
                     "objects": objects(frames, keyframe=(c == "CAM_FRONT"))}
                    for c in NUSCENES]
            rec = {"id": f"scene-{i:05d}", "with_camera_prefix": True,
                   "frames_per_view": frames, "annotations": anns}
        if rep is not None:
            rec["representation"] = rep
        out.append(rec)
    return out


def surround_mix(seed: int, in_dir: Path) -> Workload:
    rng = _rng("surround-mix", seed)
    counts = _Counts()
    sizes = SURROUND_SIZES
    sources = {
        "nuinstruct": _nuinstruct(rng, sizes["nuinstruct"], counts),
        "drivelm": _drivelm(rng, sizes["drivelm"], counts),
        "omnidrive": _omnidrive(rng, sizes["omnidrive"], counts),
        "lingoqa": _lingoqa(rng, sizes["lingoqa"], counts),
        "maplm": _maplm(rng, sizes["maplm"], counts),
        "coda_lm": _coda_records(rng, sizes["coda_lm"], counts, token_share=0.5),
    }
    for name, records in sources.items():
        _write_json(in_dir / f"{name}.json", records)
    # Source paths are relative: the child runs with the input directory as
    # its working directory, so the config bytes do not depend on where the
    # checkout lives.
    _write_json(in_dir / "pipeline.json",
                {"sources": {name: f"{name}.json" for name in sources}})
    _write_json(in_dir / "annotations.json",
                _annotations(rng, sizes["annotations"]))
    stages = _pipeline_stages(
        seed, ["--config", "{in}/pipeline.json", "ingest"], perception=True)
    expect = counts.expect()
    expect["grounding_samples"] = sizes["annotations"]
    return Workload("surround-mix", seed, stages, _pipeline_outputs(True),
                    expect, dict(sizes))


# ---------------------------------------------------------------------------
# eval-mix
# ---------------------------------------------------------------------------

EVAL_SIZES = {"caption": 3000, "classification": 3000, "regression": 3000,
              "grounding": 2000, "detection": 300}
# Sizes of the large detection records are fixed, not drawn, so that every
# seed does the same amount of AP work; the seed moves only the boxes.
EVAL_LARGE_DETECTIONS = (500, 750, 1000)


def _norm_box(rng: random.Random) -> list[float]:
    x0 = rng.uniform(0, 90)
    y0 = rng.uniform(0, 90)
    return [round(x0, 3), round(y0, 3), round(rng.uniform(x0 + 1, min(100, x0 + 25)), 3),
            round(rng.uniform(y0 + 1, min(100, y0 + 25)), 3)]


def _jitter(rng: random.Random, box: list[float]) -> list[float]:
    x0, y0, x1, y1 = (min(100.0, max(0.0, v + rng.gauss(0, 0.8))) for v in box)
    return [round(min(x0, x1), 3), round(min(y0, y1), 3),
            round(max(x0, x1), 3), round(max(y0, y1), 3)]


def _detection(rng: random.Random, n_dets: int) -> tuple[list, list]:
    gold = [_norm_box(rng) for _ in range(max(1, round(n_dets * 0.8)))]
    dets = []
    for k in range(n_dets):
        box = _jitter(rng, gold[k]) if k < len(gold) and rng.random() < 0.85 \
            else _norm_box(rng)
        dets.append({"bbox": box, "confidence": round(rng.random(), 6)})
    rng.shuffle(dets)
    return dets, [{"bbox": b} for b in gold]


def eval_mix(seed: int, in_dir: Path) -> Workload:
    rng = _rng("eval-mix", seed)
    records = []
    n_det = EVAL_SIZES["detection"]
    large = {round(k * n_det / len(EVAL_LARGE_DETECTIONS)): size
             for k, size in enumerate(EVAL_LARGE_DETECTIONS)}
    for i in range(EVAL_SIZES["caption"]):
        _q, a = _sentence(rng, i)
        pred = a if rng.random() < 0.2 else _sentence(rng, i)[1]
        records.append({"sample_id": f"cap/{i}", "task": "caption",
                        "predicted": pred, "gold": a})
    for i in range(EVAL_SIZES["classification"]):
        gold = rng.choice(("yes", "no", "left", "right", "straight"))
        pred = gold if rng.random() < 0.7 else rng.choice(("yes", "no", "Left "))
        records.append({"sample_id": f"cls/{i}", "task": "classification",
                        "predicted": pred, "gold": gold})
    for i in range(EVAL_SIZES["regression"]):
        gold = round(rng.uniform(0, 60), 2)
        records.append({"sample_id": f"reg/{i}", "task": "regression",
                        "predicted": round(gold + rng.gauss(0, 3), 2), "gold": gold})
    for i in range(EVAL_SIZES["grounding"]):
        gold = []
        for _ in range(rng.randint(1, 8)):
            cam = rng.choice(NUSCENES + (None,))
            pt = {"point": [round(rng.uniform(0, 100), 3), round(rng.uniform(0, 100), 3)]}
            if cam is not None:
                pt["camera"] = cam
            gold.append(pt)
        pred = [dict(g, point=[round(min(100.0, max(0.0, v + rng.gauss(0, 0.7))), 3)
                               for v in g["point"]]) for g in gold if rng.random() < 0.8]
        records.append({"sample_id": f"gnd/{i}", "task": "grounding",
                        "predicted": pred, "gold": gold})
    for i in range(n_det):
        dets, gold = _detection(rng, large.get(i, rng.randint(10, 60)))
        records.append({"sample_id": f"det/{i}", "task": "detection",
                        "predicted": dets, "gold": gold})
    rng.shuffle(records)
    path = in_dir / "predictions.jsonl"
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
    stages = [("evaluate", ["evaluate"] + _common(seed)
               + ["--in", "{in}/predictions.jsonl", "--dataset", "generic",
                  "--out", "{out}/report.json"])]
    expect = {"report_n": {"bleu": EVAL_SIZES["caption"],
                           "accuracy": EVAL_SIZES["classification"],
                           "mae": EVAL_SIZES["regression"],
                           "center_match": EVAL_SIZES["grounding"],
                           "detection_ap": n_det}}
    sizes = dict(EVAL_SIZES, large_detection_records=len(large),
                 detections=sum(len(r["predicted"]) for r in records
                                if r["task"] == "detection"))
    return Workload("eval-mix", seed, stages, {"report.json": "report.json"},
                    expect, sizes)


GENERATORS = {"c10-coda": c10_coda, "surround-mix": surround_mix,
              "eval-mix": eval_mix}


def generate(name: str, seed: int, in_dir: Path) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``in_dir``."""
    in_dir.mkdir(parents=True, exist_ok=True)
    return GENERATORS[name](seed, in_dir)
