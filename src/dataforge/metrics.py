"""Rule-based evaluation: accuracy, BLEU, MAE, detection AP, center matching.

Everything here is deterministic and offline. `evaluate` scores each record
with `score_record` and joins the scores with `report_from_scores`. Detection
is scored at one IoU threshold (0.5) and grounding at one match radius (1.0 in
normalized 0-100 units). `bleu` equals plain n-gram counting bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from itertools import accumulate, repeat
from typing import Any, Callable, Iterable, Sequence

from .core import (
    BBoxNorm,
    CameraId,
    DatasetId,
    PointNorm,
    _CAMERAS,
    _member,
    frozen_value,
    json_key,
    json_list,
    json_number,
    json_object,
    json_str,
)
from .errors import DataforgeError, SchemaError

IOU_THRESHOLD = 0.5
MATCH_RADIUS = 1.0
BLEU_MAX_N = 4

# ------------------------------------------------------------------ accuracy

def _normalize_text(s: str) -> str:
    return " ".join(s.split()).casefold()


def accuracy(pairs: Iterable[tuple[str, str]]) -> float:
    """Exact-match ratio; whitespace runs and case are ignored."""
    pairs = list(pairs)
    if not pairs:
        raise DataforgeError("accuracy needs at least one (predicted, gold) pair")
    hits = sum(1 for p, g in pairs if _normalize_text(p) == _normalize_text(g))
    return hits / len(pairs)


# ---------------------------------------------------------------------- BLEU

def _ngrams(tokens: list[str], n: int) -> Iterable:
    """The n-grams of ``tokens`` in order: its words for n = 1, n-word tuples above."""
    return tokens if n == 1 else zip(*[tokens[i:] for i in range(n)])


def bleu(candidate: str, references: Sequence[str]) -> float:
    """Corpus-standard sentence BLEU on whitespace tokens.

    Uniform weights over n=1..BLEU_MAX_N, brevity penalty against the closest
    reference length (ties go to the shorter), and add-one smoothing on the
    n>1 precisions. An empty candidate, or one sharing no unigram with any
    reference, scores exactly 0. With one reference and no repeated candidate
    n-gram, each n-gram clips to 1 exactly when the reference holds it, so one
    set intersection gives the same int clipped count, and the same bits.
    """
    if not references:
        raise DataforgeError("need at least one reference")
    refs = [r.split() for r in references]
    if any(not r for r in refs):
        raise DataforgeError("reference has no tokens")
    cand = candidate.split()
    if not cand:
        return 0.0

    log_sum = 0.0
    for n in range(1, BLEU_MAX_N + 1):
        total = max(len(cand) - n + 1, 0)
        if len(refs) == 1 and len(distinct := set(_ngrams(cand, n))) == total:
            clipped = len(distinct.intersection(_ngrams(refs[0], n)))
        else:
            cand_counts = Counter(_ngrams(cand, n))
            max_ref, *others = [Counter(_ngrams(ref, n)) for ref in refs]
            for other in others:
                max_ref |= other
            clipped = sum(map(min, cand_counts.values(),
                              map(max_ref.get, cand_counts, repeat(0))))
        if n == 1 and clipped == 0:
            return 0.0
        precision = clipped / total if n == 1 else (clipped + 1) / (total + 1)
        log_sum += math.log(precision) / BLEU_MAX_N

    c = len(cand)
    r = min((abs(len(ref) - c), len(ref)) for ref in refs)[1]
    bp = 1.0 if c > r else math.exp(1 - r / c)
    return bp * math.exp(log_sum)


# ----------------------------------------------------------------------- MAE

def _mean(values: Sequence[float]) -> float:
    """``values`` added left to right, over their count. Not ``sum``: from
    Python 3.12 it compensates float rounding, which changes the bits."""
    total = 0
    for value in values:
        total += value
    return total / len(values)


def mae(pairs: Iterable[tuple[float, float]]) -> float:
    pairs = list(pairs)
    if not pairs:
        raise DataforgeError("mae needs at least one (predicted, gold) pair")
    return _mean([abs(p - g) for p, g in pairs])


# ------------------------------------------------------------------ detection

def iou(a, b) -> float:
    ix = max(0.0, min(a.x_max, b.x_max) - max(a.x_min, b.x_min))
    iy = max(0.0, min(a.y_max, b.y_max) - max(a.y_min, b.y_min))
    inter = ix * iy
    if inter == 0.0:
        return 0.0
    area_a = (a.x_max - a.x_min) * (a.y_max - a.y_min)
    area_b = (b.x_max - b.x_min) * (b.y_max - b.y_min)
    return inter / (area_a + area_b - inter)


def average_precision(dets: Sequence[tuple[BBoxNorm, float]], gts: Sequence[BBoxNorm],
                      iou_threshold: float = IOU_THRESHOLD) -> float | None:
    """All-point interpolated AP with greedy highest-IoU matching.

    Detections are taken by descending confidence, ties by index. Each takes
    the unmatched ground-truth box of highest `iou`, ties to the lowest
    index, and is a true positive when that IoU is >= ``iou_threshold``
    (and > 0). AP sums, over the true positives, the recall step times the
    precision envelope: the highest precision at that rank or any later one
    (Everingham et al., IJCV 2010), found by one right-to-left running max.

    Only a box that overlaps the detection in x can have a positive IoU, so
    the ground truth is sorted by x_min once, a matched box leaves that list,
    and each detection scans only the slice with x_min in
    ``[x_min - W, x_max)``, W being the widest ground-truth box plus a
    margin for the rounding of each width. One pass keeps the slice's boxes
    whose x_max is above the detection's x_min and whose y range meets its
    own: a box dropped has an intersection <= 0 or a NaN IoU, so it can never
    be the best, and the IoU expression decides every box kept. The result
    equals the plain scan over every box bit for bit. When every box overlaps
    every other the slice is the whole list, and matching stays O(D*G) for D
    detections and G ground-truth boxes.

    Returns None when there is no ground truth (AP undefined; callers report
    the group as skipped).
    """
    for _box, conf in dets:
        if not math.isfinite(conf):
            raise ValueError("confidences must be finite")
    if not gts:
        return None
    # A box without positive width (or with a NaN x bound) overlaps nothing.
    rows = sorted((b.x_min, j, b.y_min, b.x_max, b.y_max,
                   (b.x_max - b.x_min) * (b.y_max - b.y_min))
                  for j, b in enumerate(gts) if b.x_min < b.x_max)
    x_mins = [row[0] for row in rows]
    reach = max([row[3] - row[0] for row in rows], default=0.0) * (1 + 1e-9)
    precisions: list[float] = []
    tp_ranks: list[int] = []
    for rank, i in enumerate(sorted(range(len(dets)),
                                    key=lambda i: (-dets[i][1], i))):
        a = dets[i][0]
        ax0, ay0, ax1, ay1 = a.x_min, a.y_min, a.x_max, a.y_max
        area_a = (ax1 - ax0) * (ay1 - ay0)
        # The same expression, in the same order, as `iou`; a box whose
        # IoU would be 0 or NaN can never be the best, so it is skipped.
        best_iou, best_j, best_pos = 0.0, -1, -1
        lo, hi = bisect_left(x_mins, ax0 - reach), bisect_left(x_mins, ax1)
        for pos in [pos for pos, (_, _, by0, bx1, by1, _) in enumerate(rows[lo:hi], lo)
                    if bx1 > ax0 and by0 < ay1 and by1 > ay0]:
            bx0, j, by0, bx1, by1, area_b = rows[pos]
            ix = (bx1 if bx1 < ax1 else ax1) - (bx0 if bx0 > ax0 else ax0)
            if not ix > 0.0:
                continue
            iy = (by1 if by1 < ay1 else ay1) - (by0 if by0 > ay0 else ay0)
            if not iy > 0.0:
                continue
            inter = ix * iy
            if inter == 0.0:
                continue
            v = inter / (area_a + area_b - inter)
            if v > best_iou or (v == best_iou and j < best_j):
                best_iou, best_j, best_pos = v, j, pos
        if best_j >= 0 and best_iou >= iou_threshold:
            del rows[best_pos], x_mins[best_pos]
            tp_ranks.append(rank)
        precisions.append(len(tp_ranks) / (rank + 1))

    envelope = list(accumulate(reversed(precisions), max))[::-1]
    ap = 0.0
    prev_recall = 0.0
    for tp, rank in enumerate(tp_ranks, start=1):
        recall = tp / len(gts)
        ap += (recall - prev_recall) * envelope[rank]
        prev_recall = recall
    return ap


# -------------------------------------------------------------- center match

CameraPoint = tuple[PointNorm, CameraId | None]


def center_match_score(preds: Sequence[CameraPoint], gts: Sequence[CameraPoint],
                       radius: float) -> float:
    """Fraction of GT points claimed by a same-camera prediction within radius.

    Matching is greedy nearest-first and each prediction consumes at most one
    GT. With no GT points the score is vacuously 1.0.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not gts:
        return 1.0
    candidates: list[tuple[float, int, int]] = []
    for i, (pp, pcam) in enumerate(preds):
        for j, (gp, gcam) in enumerate(gts):
            if pcam != gcam:
                continue
            dist = math.hypot(pp.x_center - gp.x_center, pp.y_center - gp.y_center)
            if dist <= radius:
                candidates.append((dist, i, j))
    candidates.sort()
    used_pred: set[int] = set()
    used_gt: set[int] = set()
    for dist, i, j in candidates:
        if i in used_pred or j in used_gt:
            continue
        used_pred.add(i)
        used_gt.add(j)
    return len(used_gt) / len(gts)


# ----------------------------------------------------- records and reports

@frozen_value
class PredictionRecord:
    sample_id: str
    task: str
    predicted: object
    gold: object


@frozen_value
class MetricReport:
    dataset: DatasetId
    entries: dict[str, tuple[float, int]]
    detection_skipped: int  # detection records without ground truth


def _parse_box(entry, name: str, k: int, scored: bool):
    """Detection entry ``name[k]``: (box, confidence) if ``scored``, else the box. An
    entry of floats passes one test; any other takes the per-field checks."""
    try:
        x0, y0, x1, y1 = b = entry["bbox"]
        c = entry["confidence"] if scored else 0.0
        if (type(entry) is dict and type(b) is list
                and type(x0) is type(y0) is type(x1) is type(y1) is type(c) is float
                and 0 <= x0 <= x1 <= 100 and 0 <= y0 <= y1 <= 100 and math.isfinite(c)):
            box = BBoxNorm(x0, y0, x1, y1)
            return (box, c) if scored else box
    except (KeyError, TypeError, ValueError):
        pass
    where = f"{name}[{k}]"
    value, path = json_key(json_object(entry, "entry", where), "bbox", where), f"{where}.bbox"
    if not isinstance(value, list) or len(value) != 4:
        raise SchemaError(f"bbox must be [x_min, y_min, x_max, y_max], got {value!r}",
                          path=path)
    x0, y0, x1, y1 = (json_number(v, "bbox coordinate", path, minimum=0, maximum=100)
                      for v in value)
    if x0 > x1 or y0 > y1:
        raise SchemaError("bbox must have x_min <= x_max and y_min <= y_max", path=path)
    box = BBoxNorm(x0, y0, x1, y1)
    return (box, json_number(json_key(entry, "confidence", where), "confidence", where)) \
        if scored else box


def _parse_point(entry, name: str, k: int) -> CameraPoint:
    """Grounding entry ``name[k]``, read as in ``_parse_box``; a null camera is None."""
    try:
        x, y = p = entry["point"]
        if (type(entry) is dict and type(p) is list and type(x) is type(y) is float
                and 0 <= x <= 100 and 0 <= y <= 100):
            camera = entry.get("camera")
            return PointNorm(x, y), None if camera is None else _CAMERAS[camera]
    except (KeyError, TypeError, ValueError):
        pass
    path = f"{name}[{k}]"
    pt = json_key(json_object(entry, "entry", path), "point", path)
    if not isinstance(pt, list) or len(pt) != 2:
        raise SchemaError(f"point must be [x, y], got {pt!r}", path=path)
    x, y = (json_number(v, "point coordinate", path, minimum=0, maximum=100) for v in pt)
    camera = entry.get("camera")
    if camera is not None:
        camera = _member(_CAMERAS, CameraId, camera, path)
    return PointNorm(x, y), camera


def record_from_dict(data: Any) -> PredictionRecord:
    """Parse one predictions-file record, checking shape against its task."""
    if not isinstance(data, dict):
        raise SchemaError("record must be a JSON object")
    sample_id = json_str(json_key(data, "sample_id"), "sample_id")
    task = json_key(data, "task")
    predicted = json_key(data, "predicted")
    gold = json_key(data, "gold")
    if not isinstance(task, str) or task not in _SCORES:  # a list cannot be hashed
        raise SchemaError(f"unknown task {task!r}")
    if task in ("classification", "caption"):
        predicted, gold = json_str(predicted, "predicted"), json_str(gold, "gold")
        if task == "caption" and not gold.split():  # bleu needs a reference word
            raise SchemaError("reference has no tokens", path="gold")
    elif task == "regression":
        predicted, gold = json_number(predicted, "predicted"), json_number(gold, "gold")
    elif task == "detection":
        predicted = tuple(_parse_box(d, "predicted", k, True)
                          for k, d in enumerate(json_list(predicted, "predicted")))
        gold = tuple(_parse_box(d, "gold", k, False)
                     for k, d in enumerate(json_list(gold, "gold")))
    else:  # grounding
        predicted = tuple(_parse_point(e, "predicted", k)
                          for k, e in enumerate(json_list(predicted, "predicted")))
        gold = tuple(_parse_point(e, "gold", k) for k, e in enumerate(json_list(gold, "gold")))
    return PredictionRecord(sample_id=sample_id, task=task,
                            predicted=predicted, gold=gold)


# Each task's report entry, in report order, and the score of one record's
# (predicted, gold): True or False for an exact match (as ``accuracy`` counts
# it), BLEU, the absolute error, AP (None without ground truth) or center match.
_SCORES: dict[str, tuple[str, Callable[[Any, Any], float | None]]] = {
    "classification": ("accuracy", lambda p, g: _normalize_text(p) == _normalize_text(g)),
    "caption": ("bleu", lambda p, g: bleu(p, [g])),
    "regression": ("mae", lambda p, g: abs(p - g)),
    "detection": ("detection_ap", lambda p, g: average_precision(p, g, IOU_THRESHOLD)),
    "grounding": ("center_match", lambda p, g: center_match_score(p, g, MATCH_RADIUS)),
}


def score_record(rec: PredictionRecord) -> tuple[str, float | None]:
    """(task, score) of one record. It cannot raise on a record that
    ``record_from_dict`` accepted."""
    return rec.task, _SCORES[rec.task][1](rec.predicted, rec.gold)


def report_from_scores(scores: Iterable[tuple[str, float | None]],
                       dataset: DatasetId) -> MetricReport:
    """One report from ``score_record``'s pairs, given in file order: each
    task's scores are summed in that order and averaged (a float sum depends
    on the order of its terms, so the order is part of the result); a
    detection record without ground truth is skipped and counted in
    ``detection_skipped``. A mean that is not finite is a ``DataforgeError``."""
    by_task: dict[str, list[float]] = {task: [] for task in _SCORES}
    records = skipped = 0
    for records, (task, score) in enumerate(scores, start=1):
        if score is None:
            skipped += 1
        else:
            by_task[task].append(score)
    if not records:
        raise DataforgeError("no prediction records to evaluate")
    entries = {_SCORES[task][0]: (_mean(s), len(s)) for task, s in by_task.items() if s}
    for name, (value, _n) in entries.items():
        if not math.isfinite(value):
            raise DataforgeError(f"{name} is {value}, not a finite number")
    return MetricReport(dataset=dataset, entries=entries, detection_skipped=skipped)


def evaluate_records(records: Sequence[PredictionRecord],
                     dataset: DatasetId) -> MetricReport:
    """Score a batch of records into one report, grouped by task; each
    task's scores are summed in the order of ``records``."""
    return report_from_scores(map(score_record, records), dataset)


def report_to_dict(report: MetricReport) -> dict:
    return {
        "dataset": report.dataset.value,
        "entries": {
            name: {"value": value, "n_samples": n}
            for name, (value, n) in sorted(report.entries.items())
        },
    }
