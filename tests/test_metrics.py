import math
import random
from collections import Counter, OrderedDict
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dataforge.core import BBoxNorm, CameraId, DatasetId, PointNorm
from dataforge.errors import DataforgeError, SchemaError
from dataforge.metrics import (
    MetricReport,
    PredictionRecord,
    accuracy,
    average_precision,
    bleu,
    center_match_score,
    evaluate_records,
    iou,
    mae,
    record_from_dict,
    report_from_scores,
    report_to_dict,
    score_record,
)

from helpers import exactly

# ----------------------------------------------------------------- accuracy

def test_accuracy_trivial_cases():
    same = [("yes", "yes")] * 5
    assert accuracy(same) == 1.0
    diff = [("yes", "no")] * 5
    assert accuracy(diff) == 0.0


def test_accuracy_three_of_four():
    pairs = [("a", "a"), ("b", "b"), ("c", "c"), ("d", "x")]
    assert accuracy(pairs) == 0.75


def test_accuracy_normalizes_whitespace_and_case():
    pairs = [("  Turn   LEFT ", "turn left")]
    assert accuracy(pairs) == 1.0


def test_accuracy_empty_input():
    with pytest.raises(DataforgeError, match=exactly(
            "accuracy needs at least one (predicted, gold) pair")):
        accuracy([])


# --------------------------------------------------------------------- BLEU

def _oracle_bleu(candidate, references, max_n=4):
    """Independent reference BLEU: exact fractions, product-root geometric mean."""
    cand = candidate.split()
    refs = [r.split() for r in references]
    product = Fraction(1)
    for n in range(1, max_n + 1):
        cand_grams = {}
        for i in range(len(cand) - n + 1):
            g = tuple(cand[i:i + n])
            cand_grams[g] = cand_grams.get(g, 0) + 1
        total = sum(cand_grams.values())
        clipped = 0
        for g, count in cand_grams.items():
            best = 0
            for ref in refs:
                seen = 0
                for i in range(len(ref) - n + 1):
                    if tuple(ref[i:i + n]) == g:
                        seen += 1
                best = max(best, seen)
            clipped += min(count, best)
        if n == 1:
            if clipped == 0:
                return 0.0
            product *= Fraction(clipped, total)
        else:
            product *= Fraction(clipped + 1, total + 1)
    geo = float(product) ** (1.0 / max_n)
    c = len(cand)
    closest = sorted(refs, key=lambda ref: (abs(len(ref) - c), len(ref)))[0]
    r = len(closest)
    bp = 1.0 if c > r else math.exp(1 - r / c)
    return bp * geo


def _counting_bleu(candidate, references, max_n=4):
    """The float reference: ``bleu`` as it was before it counted n-grams with
    ``zip``, one generator of sliced tuples per order and a clipped count
    summed gram by gram. ``bleu`` must equal it bit for bit."""
    if not references:
        raise DataforgeError("need at least one reference")
    refs = [r.split() for r in references]
    if any(not r for r in refs):
        raise DataforgeError("reference has no tokens")
    cand = candidate.split()
    if not cand:
        return 0.0

    def ngrams(tokens, n):
        return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))

    log_sum = 0.0
    for n in range(1, max_n + 1):
        cand_counts = ngrams(cand, n)
        total = sum(cand_counts.values())
        max_ref = Counter()
        for ref in refs:
            for gram, count in ngrams(ref, n).items():
                if count > max_ref[gram]:
                    max_ref[gram] = count
        clipped = sum(min(count, max_ref[gram])
                      for gram, count in cand_counts.items())
        if n == 1:
            if clipped == 0:
                return 0.0
            precision = clipped / total
        else:
            precision = (clipped + 1) / (total + 1)
        log_sum += math.log(precision) / max_n

    c = len(cand)
    r = min((abs(len(ref) - c), len(ref)) for ref in refs)[1]
    bp = 1.0 if c > r else math.exp(1 - r / c)
    return bp * math.exp(log_sum)


# Few distinct words, so n-grams repeat within and across texts; non-ASCII
# words, and Unicode whitespace that ``str.split`` splits on.
_WORDS = st.sampled_from(["a", "b", "a", "car", "é", "猫", "Straße", "b."])
_SPACES = st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "\xa0", "\u3000", " \t "])


@st.composite
def _texts(draw, max_words):
    """Up to ``max_words`` words joined by whitespace runs, with or without a
    run at either end."""
    words = draw(st.lists(_WORDS, max_size=max_words))
    spaces = draw(st.lists(_SPACES, min_size=len(words) + 1, max_size=len(words) + 1))
    lead, trail = draw(st.booleans()), draw(st.booleans())
    body = words[0] + "".join(s + w for s, w in zip(spaces[1:], words[1:])) if words else ""
    return spaces[0] * lead + body + spaces[-1] * trail


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.one_of(_texts(3), _texts(12)), st.lists(_texts(12), min_size=1, max_size=3))
@example("", ["a"])
@example("a b", ["a b", "a b a b"])
@example("a a a", ["a a", "a a a a"])
@example("猫 é\u3000猫", ["猫\té 猫 b"])
# One reference and no repeated n-gram: every order takes the set count.
@example("a car stops here", ["a car waits here now"])
# "a" repeats, so unigrams are counted; no bigram or longer gram repeats.
@example("a b a car", ["a car b a"])
# Three references: every order is counted.
@example("a car b", ["a car", "car b b", "a b car a"])
# Orders above the candidate's length have no n-gram at all.
@example("car", ["car a b"])
@example("a b", ["a b"])
@example("car a b", ["car a b car"])
def test_bleu_equals_the_counting_reference(candidate, references):
    try:
        want = _counting_bleu(candidate, references)
    except DataforgeError as exc:
        with pytest.raises(DataforgeError, match=exactly(str(exc))):
            bleu(candidate, references)
    else:
        assert bleu(candidate, references).hex() == want.hex()


def test_bleu_identity_is_exactly_one():
    rng = random.Random(99)
    vocab = ["car", "stop", "red", "lane", "turn", "the", "a", "slow"]
    for _ in range(200):
        text = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 12)))
        assert bleu(text, [text]) == 1.0


def test_bleu_disjoint_unigrams_is_zero():
    assert bleu("alpha beta gamma", ["delta epsilon zeta"]) == 0.0


def test_bleu_cat_sentence_hand_value():
    # p1=5/6, p2=(3+1)/(5+1), p3=(1+1)/(4+1), p4=(0+1)/(3+1); BP=1.
    expected = float(Fraction(5, 6) * Fraction(4, 6)
                     * Fraction(2, 5) * Fraction(1, 4)) ** 0.25
    got = bleu("the cat sat on the mat", ["the cat is on the mat"])
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(
        _oracle_bleu("the cat sat on the mat", ["the cat is on the mat"]),
        abs=1e-9)


def test_bleu_matches_oracle_on_random_pairs():
    rng = random.Random(4242)
    vocab = ["the", "car", "red", "is", "stops", "on", "road", "a", "left"]
    for _ in range(300):
        cand = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 10)))
        refs = [" ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 10)))
                for _ in range(rng.randrange(1, 4))]
        assert bleu(cand, refs) == pytest.approx(_oracle_bleu(cand, refs),
                                                 abs=1e-9)


def test_bleu_brevity_penalty_uses_closest_reference():
    # candidate length 4; refs of length 5 and 8 -> r=5 -> BP=exp(1-5/4)
    cand = "a b c d"
    refs = ["a b c d e", "a b c d e f g h"]
    assert bleu(cand, refs) == pytest.approx(_oracle_bleu(cand, refs), abs=1e-9)
    # tie in distance goes to the shorter reference: c=6, refs 4 and 8 -> r=4 -> BP=1
    cand6 = "a b c d e f"
    refs_tie = ["a b c d", "a b c d e f g h"]
    assert bleu(cand6, refs_tie) == pytest.approx(
        _oracle_bleu(cand6, refs_tie), abs=1e-9)


def test_bleu_short_candidate_still_defined():
    # 2 tokens: no 3/4-grams exist; smoothing keeps those factors at 1.
    assert bleu("red car", ["red car"]) == 1.0
    assert 0.0 < bleu("red car", ["red truck"]) < 1.0


def test_bleu_empty_inputs():
    assert bleu("", ["ref"]) == 0.0
    assert bleu("   ", ["ref"]) == 0.0
    with pytest.raises(DataforgeError, match=exactly("need at least one reference")):
        bleu("cand", [])
    with pytest.raises(DataforgeError, match=exactly("reference has no tokens")):
        bleu("cand", ["ok", ""])


def test_bleu_range():
    rng = random.Random(5)
    vocab = ["u", "v", "w", "x"]
    for _ in range(200):
        cand = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 8)))
        ref = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 8)))
        assert 0.0 <= bleu(cand, [ref]) <= 1.0


# ----------------------------------------------------------------------- MAE

def test_mae_cases():
    assert mae([(1.0, 1.0), (4.0, 4.0)]) == 0.0
    assert mae([(v + 1, v) for v in (3.0, 7.0, 9.0)]) == 1.0
    assert mae([(1, 1), (2, 4), (8, 4)]) == pytest.approx(2.0)
    with pytest.raises(DataforgeError, match=exactly(
            "mae needs at least one (predicted, gold) pair")):
        mae([])


def test_means_add_left_to_right_on_every_interpreter():
    # A left fold loses each 1.0 next to 1e16; a compensated sum, which
    # ``sum`` is from Python 3.12, keeps them: 1.0 / 3 and 2.0 / 3 more.
    assert mae([(1e16, 0.0), (1.0, 0.0), (0.0, 1.0)]) == 1e16 / 3
    scores = [("regression", 1e16), ("regression", 1.0), ("regression", -1e16)]
    report = report_from_scores(scores, DatasetId.GENERIC)
    assert report.entries == {"mae": (0.0, 3)}


# ------------------------------------------------------------------------ AP

def _box(x0, y0, x1, y1):
    return BBoxNorm(x0, y0, x1, y1)


def test_iou_basic():
    a = _box(0, 0, 10, 10)
    assert iou(a, a) == 1.0
    assert iou(a, _box(20, 20, 30, 30)) == 0.0
    # half overlap: inter 50, union 150
    assert iou(a, _box(5, 0, 15, 10)) == pytest.approx(50 / 150)


def test_ap_single_perfect_detection():
    gt = _box(10, 10, 20, 20)
    assert average_precision([(gt, 0.9)], [gt]) == 1.0


def test_ap_single_zero_iou_detection():
    assert average_precision([(_box(0, 0, 5, 5), 0.9)],
                             [_box(50, 50, 60, 60)]) == 0.0


def test_ap_of_a_box_whose_overlap_underflows_to_zero_is_zero():
    # Each side is 1e-200, so the intersection and both areas are 0.0: the
    # IoU would be 0 / 0, and the box is skipped instead.
    box = BBoxNorm(0.0, 0.0, 1e-200, 1e-200)
    assert average_precision([(box, 0.9)], [box]) == 0.0


def test_ap_three_dets_two_gts_hand_value():
    gt1, gt2 = _box(0, 0, 10, 10), _box(50, 50, 60, 60)
    dets = [(gt1, 0.9),              # TP, precision 1/1, recall 1/2
            (_box(0, 0, 30, 30), 0.8),  # IoU 1/9 -> FP
            (gt2, 0.7)]              # TP, precision 2/3, recall 1
    # AP = 1/2 * 1 + 1/2 * 2/3 = 5/6
    assert average_precision(dets, [gt1, gt2]) == pytest.approx(5 / 6, abs=1e-12)


def _quadratic_ap(dets, gts, thr=0.5):
    """The float reference: the plain scan over every ground-truth box and a
    max over the precision suffix at every true positive, quadratic twice
    over. `average_precision` must equal it bit for bit."""
    if not gts:
        return None
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][1], i))
    matched = [False] * len(gts)
    tps = []
    for i in order:
        best_iou, best_j = 0.0, -1
        for j, gt in enumerate(gts):
            if matched[j]:
                continue
            v = iou(dets[i][0], gt)
            if v > best_iou:
                best_iou, best_j = v, j
        if best_j >= 0 and best_iou >= thr:
            matched[best_j] = True
            tps.append(True)
        else:
            tps.append(False)
    precisions, recalls = [], []
    tp_cum = 0
    for k, is_tp in enumerate(tps, start=1):
        tp_cum += is_tp
        precisions.append(tp_cum / k)
        recalls.append(tp_cum / len(gts))
    ap = 0.0
    prev_recall = 0.0
    for k, is_tp in enumerate(tps):
        if is_tp:
            ap += (recalls[k] - prev_recall) * max(precisions[k:])
            prev_recall = recalls[k]
    return ap


def _oracle_ap(dets, gts, thr=0.5):
    """Exact-fraction PR integration with a suffix precision envelope."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i][1], i))
    matched = [False] * len(gts)
    tps = []
    for i in order:
        best, best_j = 0.0, -1
        for j, gt in enumerate(gts):
            if not matched[j] and iou(dets[i][0], gt) > best:
                best, best_j = iou(dets[i][0], gt), j
        if best_j >= 0 and best >= thr:
            matched[best_j] = True
            tps.append(True)
        else:
            tps.append(False)
    precisions, recalls = [], []
    cum = 0
    for k, tp in enumerate(tps, start=1):
        cum += tp
        precisions.append(Fraction(cum, k))
        recalls.append(Fraction(cum, len(gts)))
    envelope = list(precisions)
    for k in range(len(envelope) - 2, -1, -1):
        envelope[k] = max(envelope[k], envelope[k + 1])
    ap = Fraction(0)
    prev = Fraction(0)
    for k, tp in enumerate(tps):
        if tp:
            ap += (recalls[k] - prev) * envelope[k]
            prev = recalls[k]
    return float(ap)


def _random_detection_case(rng):
    gts = []
    for _ in range(rng.randrange(1, 5)):
        x0, y0 = rng.uniform(0, 80), rng.uniform(0, 80)
        gts.append(_box(x0, y0, x0 + rng.uniform(4, 20), y0 + rng.uniform(4, 20)))
    dets = []
    for _ in range(rng.randrange(0, 7)):
        if gts and rng.random() < 0.6:
            base = rng.choice(gts)
            dx, dy = rng.uniform(-4, 4), rng.uniform(-4, 4)
            box = _box(max(0.0, base.x_min + dx), max(0.0, base.y_min + dy),
                       min(100.0, base.x_max + dx), min(100.0, base.y_max + dy))
        else:
            x0, y0 = rng.uniform(0, 80), rng.uniform(0, 80)
            box = _box(x0, y0, x0 + rng.uniform(2, 20), y0 + rng.uniform(2, 20))
        dets.append((box, rng.random()))
    return dets, gts


def test_ap_matches_bruteforce_oracle():
    rng = random.Random(31337)
    for _ in range(200):
        dets, gts = _random_detection_case(rng)
        expected = _quadratic_ap(dets, gts)
        assert average_precision(dets, gts) == expected
        assert expected == pytest.approx(_oracle_ap(dets, gts), abs=1e-9)


# Grid values make duplicate, identical, zero-area and edge-touching boxes
# common; [0, 0, 10, 10] against [0, 0, 10, 20] has an IoU of exactly 0.5.
_GRID = (0.0, 5.0, 10.0, 12.5, 20.0, 25.0, 50.0, 100.0)


def _grid_record(seed, n_gts, n_dets):
    """Detections that copy, stretch, shift or miss the ground truth, with
    tied confidences. Drawn from a seed: Hypothesis drawing every coordinate
    would spend most of the test generating data."""
    rng = random.Random(seed)

    def coord():
        r = rng.random()
        if r < 0.5:
            return rng.choice(_GRID)
        return float(rng.randrange(101)) if r < 0.75 else round(rng.uniform(0, 100), 3)

    def box():
        x0, x1 = sorted((coord(), coord()))
        y0, y1 = sorted((coord(), coord()))
        return _box(x0, y0, x1, y1)

    gts = [box() for _ in range(n_gts)]
    dets = []
    for _ in range(n_dets):
        kind = rng.choice(("copy", "stretch", "shift", "fresh")) if gts else "fresh"
        if kind == "fresh":
            det = box()
        else:
            gt = rng.choice(gts)
            grow = rng.choice((0.5, 5.0, 10.0)) if kind == "stretch" else 0.0
            shift = rng.choice((-10.0, -5.0, 5.0, 10.0)) if kind == "shift" else 0.0
            det = _box(gt.x_min + shift, gt.y_min, gt.x_max + shift, gt.y_max + grow)
        dets.append((det, rng.choice((0.25, 0.5, 0.9, rng.random()))))
    return dets, gts


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.builds(_grid_record, st.integers(0, 2**32 - 1), st.integers(0, 80),
                 st.integers(0, 120)),
       st.sampled_from([0.3, 0.5, 0.9]))
@example(([(_box(0, 0, 10, 10), 0.9)], [_box(0, 0, 10, 20)]), 0.5)
@example(([(_box(0, 0, 10, 10), 0.9), (_box(0, 0, 10, 10), 0.9)],
          [_box(0, 0, 10, 10), _box(0, 0, 10, 10), _box(10, 0, 20, 10)]), 0.5)
# The first detection overlaps both boxes by a third and takes box 0, the
# later one in x order in the first case and the earlier in the second, so
# the second detection finds nothing left.
@example(([(_box(10, 0, 20, 10), 0.9), (_box(15, 0, 25, 10), 0.8)],
          [_box(15, 0, 25, 10), _box(5, 0, 15, 10)]), 0.3)
@example(([(_box(10, 0, 20, 10), 0.9), (_box(5, 0, 15, 10), 0.8)],
          [_box(5, 0, 15, 10), _box(15, 0, 25, 10)]), 0.3)
# A ground-truth box of zero height.
@example(([(_box(0, 0, 10, 10), 0.9)], [_box(0, 5, 10, 5), _box(0, 0, 10, 8)]), 0.5)
# Four boxes each touch one edge of the first detection: its x_min, y_min,
# x_max and y_max. The last box touches it at a corner only, and the second
# detection matches it.
@example(([(_box(10, 10, 20, 20), 0.9), (_box(0, 0, 10, 10), 0.8)],
          [_box(0, 10, 10, 20), _box(10, 0, 20, 10), _box(20, 10, 30, 20),
           _box(10, 20, 20, 30), _box(0, 0, 10, 10)]), 0.5)
# ``BBoxNorm`` does not check its values, so a y bound may be NaN; that box's
# IoU is then NaN or 0.
@example(([(_box(0, 0, 10, 10), 0.9)],
          [_box(0, math.nan, 10, 10), _box(0, 0, 10, math.nan), _box(0, 0, 10, 8)]), 0.5)
def test_ap_equals_quadratic_reference(record, thr):
    dets, gts = record
    assert average_precision(dets, gts, thr) == _quadratic_ap(dets, gts, thr)


def test_ap_confidence_scale_invariance():
    rng = random.Random(77)
    for _ in range(50):
        dets, gts = _random_detection_case(rng)
        scaled = [(b, c * 3.7) for b, c in dets]
        assert average_precision(dets, gts) == average_precision(scaled, gts)


def test_ap_no_gt_is_skip():
    assert average_precision([(_box(0, 0, 1, 1), 0.5)], []) is None


def test_ap_rejects_nonfinite_confidence():
    with pytest.raises(ValueError):
        average_precision([(_box(0, 0, 1, 1), float("nan"))], [_box(0, 0, 1, 1)])


def _detection(sample_id, dets, gold):
    return record_from_dict({
        "sample_id": sample_id, "task": "detection",
        "predicted": [{"bbox": b, "confidence": c} for b, c in dets],
        "gold": [{"bbox": b} for b in gold]})


def test_mean_ap_skips_empty_groups():
    records = [
        # IoU exactly 0.5 is a match
        _detection("car", [([0, 0, 10, 10], 0.9)], [[0, 0, 10, 20]]),
        _detection("bus", [([0, 0, 5, 5], 0.9)], []),  # skipped, no GT
        # IoU 100/210, just under 0.5, is not
        _detection("person", [([0, 0, 10, 10], 0.8)], [[0, 0, 10, 21]]),
    ]
    report = evaluate_records(records, DatasetId.GENERIC)
    assert report.entries["detection_ap"] == ((1.0 + 0.0) / 2, 2)


def test_ap_range_property():
    rng = random.Random(8)
    for _ in range(100):
        dets, gts = _random_detection_case(rng)
        ap = average_precision(dets, gts)
        assert ap is None or 0.0 <= ap <= 1.0


# ---------------------------------------------------------------- center match

FRONT = CameraId.CAM_FRONT
BACK = CameraId.CAM_BACK


def _pt(x, y, cam=FRONT):
    return (PointNorm(x, y), cam)


def test_center_match_identity():
    gts = [_pt(10, 10), _pt(50, 50, BACK), _pt(90, 20)]
    assert center_match_score(gts, gts, radius=1.0) == 1.0


def test_center_match_wrong_cameras():
    gts = [_pt(10, 10, FRONT), _pt(50, 50, FRONT)]
    preds = [_pt(10, 10, BACK), _pt(50, 50, BACK)]
    assert center_match_score(preds, gts, radius=5.0) == 0.0


def test_center_match_three_of_four_fixture():
    gts = [_pt(10, 10), _pt(20, 20), _pt(30, 30), _pt(90, 90)]
    preds = [_pt(10.2, 10.0), _pt(20.0, 20.3), _pt(30.4, 30.0), _pt(60, 60)]
    score = center_match_score(preds, gts, radius=1.0)
    assert score == 0.75
    assert score == _exhaustive_match_score(preds, gts, 1.0)


def _exhaustive_match_score(preds, gts, radius):
    """Best one-to-one assignment, enumerated exhaustively (small fixtures)."""
    if not gts:
        return 1.0

    def hit(pred, gt):
        (pp, pcam), (gp, gcam) = pred, gt
        return pcam == gcam and math.hypot(pp.x_center - gp.x_center,
                                           pp.y_center - gp.y_center) <= radius

    best = 0
    if len(preds) >= len(gts):
        for perm in permutations(range(len(preds)), len(gts)):
            best = max(best, sum(1 for j, i in enumerate(perm)
                                 if hit(preds[i], gts[j])))
    else:
        for perm in permutations(range(len(gts)), len(preds)):
            best = max(best, sum(1 for i, j in enumerate(perm)
                                 if hit(preds[i], gts[j])))
    return best / len(gts)


def test_center_match_greedy_never_beats_exhaustive():
    rng = random.Random(1212)
    for _ in range(100):
        cams = [FRONT, BACK]
        gts = [_pt(rng.uniform(0, 100), rng.uniform(0, 100), rng.choice(cams))
               for _ in range(rng.randrange(1, 5))]
        preds = [_pt(rng.uniform(0, 100), rng.uniform(0, 100), rng.choice(cams))
                 for _ in range(rng.randrange(0, 5))]
        greedy = center_match_score(preds, gts, radius=20.0)
        assert greedy <= _exhaustive_match_score(preds, gts, 20.0) + 1e-12
        assert 0.0 <= greedy <= 1.0


def test_center_match_each_pred_consumed_once():
    gts = [_pt(10, 10), _pt(10.5, 10)]
    preds = [_pt(10.1, 10)]
    assert center_match_score(preds, gts, radius=2.0) == 0.5


def test_center_match_far_pred_changes_nothing():
    gts = [_pt(10, 10), _pt(20, 20)]
    preds = [_pt(10, 10)]
    base = center_match_score(preds, gts, radius=1.0)
    assert center_match_score(preds + [_pt(99, 99)], gts, radius=1.0) == base


def test_center_match_edge_inputs():
    assert center_match_score([], [], radius=1.0) == 1.0
    assert center_match_score([_pt(1, 1)], [], radius=1.0) == 1.0
    assert center_match_score([], [_pt(1, 1)], radius=1.0) == 0.0
    with pytest.raises(ValueError):
        center_match_score([], [_pt(1, 1)], radius=0.0)


def test_default_match_radius():
    def grounding(x):
        return record_from_dict({"sample_id": "g", "task": "grounding",
                                 "predicted": [{"point": [x, 10]}],
                                 "gold": [{"point": [10, 10]}]})

    def score(x):
        return evaluate_records([grounding(x)], DatasetId.GENERIC).entries[
            "center_match"]

    assert score(10.9) == (1.0, 1)
    assert score(11.1) == (0.0, 1)


def test_center_match_bare_camera_points_match():
    gts = [(PointNorm(10.0, 10.0), None)]
    preds = [(PointNorm(10.2, 10.0), None)]
    assert center_match_score(preds, gts, radius=1.0) == 1.0


# --------------------------------------------------------- records & reports

def test_record_from_dict_shapes():
    rec = record_from_dict({"sample_id": "a/1", "task": "classification",
                            "predicted": "yes", "gold": "no"})
    assert rec.predicted == "yes"

    rec = record_from_dict({"sample_id": "a/2", "task": "regression",
                            "predicted": 3, "gold": 4.5})
    assert rec.predicted == 3.0 and rec.gold == 4.5

    rec = record_from_dict({
        "sample_id": "a/3", "task": "detection",
        "predicted": [{"bbox": [0, 0, 10, 10], "confidence": 0.9}],
        "gold": [{"bbox": [0, 0, 10, 10]}]})
    assert rec.predicted[0][0] == BBoxNorm(0.0, 0.0, 10.0, 10.0)
    assert rec.predicted[0][1] == 0.9

    rec = record_from_dict({
        "sample_id": "a/4", "task": "grounding",
        "predicted": [{"point": [10, 20], "camera": "CAM_FRONT"}],
        "gold": [{"point": [10, 20]}]})
    assert rec.predicted[0] == (PointNorm(10.0, 20.0), CameraId.CAM_FRONT)
    assert rec.gold[0] == (PointNorm(10.0, 20.0), None)

    rec = record_from_dict({"sample_id": "a/5", "task": "grounding",
                            "predicted": [{"point": [1.5, 2], "camera": None}], "gold": []})
    assert rec.predicted == ((PointNorm(1.5, 2.0), None),)


def _boxes(predicted, gold=()):
    return {"sample_id": "x", "task": "detection", "predicted": predicted,
            "gold": list(gold)}


def _points(predicted, gold=()):
    return {"sample_id": "x", "task": "grounding", "predicted": predicted,
            "gold": list(gold)}


_REJECTED = [  # (record, message); the first eleven are the original cases
    ({"task": "classification", "predicted": "a", "gold": "b"},
     "missing key 'sample_id'"),
    ({"sample_id": "x", "task": "nonsense", "predicted": "a", "gold": "b"},
     "unknown task 'nonsense'"),
    ({"sample_id": "x", "task": "classification", "predicted": 3, "gold": "b"},
     "predicted must be a string, got 3"),
    ({"sample_id": "x", "task": "regression", "predicted": "3", "gold": 4},
     "predicted must be a number, got '3'"),
    (_boxes("no"), "predicted must be a list, got 'no'"),
    (_boxes([{"bbox": [0, 0, 10], "confidence": 0.5}]),
     "bbox must be [x_min, y_min, x_max, y_max], got [0, 0, 10] (at predicted[0].bbox)"),
    (_boxes([{"bbox": [0, 0, 10, 10]}]), "missing key 'confidence' (at predicted[0])"),
    (_boxes([{"bbox": [0, 0, 10, 10], "confidence": float("inf")}]),
     "confidence must be a number, got inf (at predicted[0])"),
    (_boxes([{"bbox": [50, 0, 10, 10], "confidence": 0.5}]),
     "bbox must have x_min <= x_max and y_min <= y_max (at predicted[0].bbox)"),
    (_points([{"point": [5]}]), "point must be [x, y], got [5] (at predicted[0])"),
    (_points([{"point": [5, 500]}]),
     "point coordinate must be a number in [0, 100], got 500 (at predicted[0])"),
    (_boxes([{"bbox": [0, 0, 10, 10], "confidence": 10**400}]),
     f"confidence must be a number, got {10**400} (at predicted[0])"),
    (_boxes([{"bbox": [0, True, 10, 10], "confidence": 0.5}]),
     "bbox coordinate must be a number in [0, 100], got True (at predicted[0].bbox)"),
    (_boxes([{"bbox": [0, 0, 100.0001, 10], "confidence": 0.5}]),
     "bbox coordinate must be a number in [0, 100], got 100.0001 (at predicted[0].bbox)"),
    (_boxes([{"confidence": 0.5}]), "missing key 'bbox' (at predicted[0])"),
    (_boxes([[0, 0, 10, 10]]),
     "entry must be an object, got [0, 0, 10, 10] (at predicted[0])"),
    (_boxes([], [{"bbox": [0, 0, 10, 10]}, {"bbox": [0, 0, 10]}]),
     "bbox must be [x_min, y_min, x_max, y_max], got [0, 0, 10] (at gold[1].bbox)"),
    (_points([{"point": [5, 5], "camera": "BOGUS"}]),
     "'BOGUS' is not a valid CameraId (at predicted[0])"),
    (_points([], [{"point": [5, 5]}, "p"]), "entry must be an object, got 'p' (at gold[1])"),
    # All floats, as a predictions file usually holds them.
    (_boxes([{"bbox": [50.0, 0.0, 10.0, 10.0], "confidence": 0.5}]),
     "bbox must have x_min <= x_max and y_min <= y_max (at predicted[0].bbox)"),
    (_boxes([], [{"bbox": [0.0, 20.5, 10.0, 20.0]}]),
     "bbox must have x_min <= x_max and y_min <= y_max (at gold[0].bbox)"),
    (_boxes([{"bbox": [0.0, -0.5, 10.0, 10.0], "confidence": 0.5}]),
     "bbox coordinate must be a number in [0, 100], got -0.5 (at predicted[0].bbox)"),
    (_boxes([{"bbox": [0.0, 0.0, 10.0, 10.0], "confidence": float("nan")}]),
     "confidence must be a number, got nan (at predicted[0])"),
    (_boxes([{"bbox": (0.0, 0.0, 10.0, 10.0), "confidence": 0.5}]),
     "bbox must be [x_min, y_min, x_max, y_max], got (0.0, 0.0, 10.0, 10.0) "
     "(at predicted[0].bbox)"),
    (_boxes([OrderedDict(bbox=[0.0, 0.0, 10.0, 10.0], confidence=0.5)]),
     "entry must be an object, got OrderedDict([('bbox', [0.0, 0.0, 10.0, 10.0]), "
     "('confidence', 0.5)]) (at predicted[0])"),
    (_points([{"point": [5.0, 100.5]}]),
     "point coordinate must be a number in [0, 100], got 100.5 (at predicted[0])"),
    (_points([{"point": [5.0, True]}]),
     "point coordinate must be a number in [0, 100], got True (at predicted[0])"),
    (_points([{"point": [-1.0, 5.0]}]),
     "point coordinate must be a number in [0, 100], got -1.0 (at predicted[0])"),
    (_points([{"point": [5.0, 5.0], "camera": "cam_front"}]),
     "'cam_front' is not a valid CameraId (at predicted[0])"),
    (_points([{"point": [5.0, 5.0], "camera": ["CAM_FRONT"]}]),
     "['CAM_FRONT'] is not a valid CameraId (at predicted[0])"),
    (_points([OrderedDict(point=[5.0, 5.0])]),
     "entry must be an object, got OrderedDict([('point', [5.0, 5.0])]) (at predicted[0])"),
    ({"sample_id": "x", "task": ["caption"], "predicted": "a", "gold": "b"},
     "unknown task ['caption']"),
]


@pytest.mark.parametrize("bad, message", _REJECTED,
                         ids=[f"bad{i}" for i in range(len(_REJECTED))])
def test_record_from_dict_rejects(bad, message):
    with pytest.raises(SchemaError, match=exactly(message)):
        record_from_dict(bad)


def test_evaluate_records_mixed_batch():
    records = [
        record_from_dict({"sample_id": "s/1", "task": "classification",
                          "predicted": "Red", "gold": "red"}),
        record_from_dict({"sample_id": "s/2", "task": "classification",
                          "predicted": "green", "gold": "red"}),
        record_from_dict({"sample_id": "s/3", "task": "caption",
                          "predicted": "a car", "gold": "a car"}),
        record_from_dict({"sample_id": "s/4", "task": "regression",
                          "predicted": 5, "gold": 7}),
        record_from_dict({"sample_id": "s/5", "task": "detection",
                          "predicted": [{"bbox": [0, 0, 10, 10],
                                         "confidence": 0.9}],
                          "gold": [{"bbox": [0, 0, 10, 10]}]}),
        record_from_dict({"sample_id": "s/6", "task": "grounding",
                          "predicted": [{"point": [10, 10],
                                         "camera": "CAM_FRONT"}],
                          "gold": [{"point": [10, 10],
                                    "camera": "CAM_FRONT"}]}),
    ]
    report = evaluate_records(records, DatasetId.CODA_LM)
    assert report.entries["accuracy"] == (0.5, 2)
    assert report.entries["bleu"] == (1.0, 1)
    assert report.entries["mae"] == (2.0, 1)
    assert report.entries["detection_ap"] == (1.0, 1)
    assert report.entries["center_match"] == (1.0, 1)


def test_evaluate_records_order_free():
    # Hits are counted in integers and the captions are all equal, so any
    # order gives the same report; float scores that differ are summed in
    # record order (below).
    rng = random.Random(3)
    records = [
        record_from_dict({"sample_id": f"s/{i}", "task": "classification",
                          "predicted": rng.choice(["a", "b"]),
                          "gold": "a"})
        for i in range(20)
    ] + [
        record_from_dict({"sample_id": f"c/{i}", "task": "caption",
                          "predicted": "two cars parked",
                          "gold": "two cars parked near the curb"})
        for i in range(5)
    ]
    base = evaluate_records(records, DatasetId.GENERIC)
    shuffled = records[:]
    rng.shuffle(shuffled)
    assert evaluate_records(shuffled, DatasetId.GENERIC).entries == base.entries


def test_evaluate_records_sums_each_task_in_record_order():
    def regression(i, error):
        return record_from_dict({"sample_id": f"r/{i}", "task": "regression",
                                 "predicted": error, "gold": 0})

    errors = [1e16, 1.0, 1.0]
    forward = evaluate_records([regression(i, e) for i, e in enumerate(errors)],
                               DatasetId.GENERIC)
    backward = evaluate_records([regression(i, e) for i, e in enumerate(errors[::-1])],
                                DatasetId.GENERIC)
    assert forward.entries["mae"] == ((1e16 + 1.0 + 1.0) / 3, 3)
    assert backward.entries["mae"] == ((1.0 + 1.0 + 1e16) / 3, 3)
    assert forward.entries["mae"] != backward.entries["mae"]


def test_score_record_then_report_from_scores_is_evaluate_records():
    records = [record_from_dict({"sample_id": f"b/{i}", "task": "caption",
                                 "predicted": "a car " * i, "gold": "a car on the left"})
               for i in range(6)]
    records.append(record_from_dict({"sample_id": "d/0", "task": "detection",
                                     "predicted": [], "gold": []}))
    scores = [score_record(r) for r in records]
    assert scores[-1] == ("detection", None)
    assert [task for task, _ in scores[:-1]] == ["caption"] * 6
    report = report_from_scores(scores, DatasetId.GENERIC)
    assert report == evaluate_records(records, DatasetId.GENERIC)
    assert report.entries == {"bleu": (sum(s for _, s in scores[:-1]) / 6, 6)}
    assert report.detection_skipped == 1


_LABELS = st.text(st.sampled_from("aAB \t"), max_size=4)
_VALUES = st.one_of(st.integers(-10**6, 10**6), st.floats(-1e6, 1e6, allow_nan=False))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(labels=st.lists(st.tuples(_LABELS, _LABELS), min_size=1, max_size=12),
       values=st.lists(st.tuples(_VALUES, _VALUES), min_size=1, max_size=12),
       order=st.randoms(use_true_random=False))
def test_the_report_scores_accuracy_and_mae_as_the_metric_functions_do(labels, values,
                                                                       order):
    # ``accuracy`` and ``mae`` are the references for the report's per-record
    # scores: over the same pairs, in record order, they give the same floats.
    records = [record_from_dict({"sample_id": f"c/{i}", "task": "classification",
                                 "predicted": p, "gold": g})
               for i, (p, g) in enumerate(labels)]
    records += [record_from_dict({"sample_id": f"r/{i}", "task": "regression",
                                  "predicted": p, "gold": g})
                for i, (p, g) in enumerate(values)]
    order.shuffle(records)
    report = evaluate_records(records, DatasetId.GENERIC)

    def pairs(task):
        return [(r.predicted, r.gold) for r in records if r.task == task]

    assert report.entries["accuracy"] == (accuracy(pairs("classification")), len(labels))
    assert report.entries["mae"] == (mae(pairs("regression")), len(values))


@pytest.mark.parametrize("errors", [[math.inf], [1e308, 1e308], [1.0, 1.7e308, 1.7e308]])
def test_report_from_scores_refuses_a_mean_that_is_not_finite(errors):
    scores = [("caption", 0.5)] + [("regression", e) for e in errors]
    with pytest.raises(DataforgeError, match=exactly("mae is inf, not a finite number")):
        report_from_scores(scores, DatasetId.GENERIC)
    largest = report_from_scores([("regression", 1.7976931348623157e308)], DatasetId.GENERIC)
    assert largest.entries == {"mae": (1.7976931348623157e308, 1)}


def test_evaluate_records_detection_all_skipped():
    records = [record_from_dict({"sample_id": "s/1", "task": "detection",
                                 "predicted": [], "gold": []})]
    report = evaluate_records(records, DatasetId.GENERIC)
    assert "detection_ap" not in report.entries


def test_evaluate_records_empty():
    with pytest.raises(DataforgeError, match=exactly("no prediction records to evaluate")):
        evaluate_records([], DatasetId.GENERIC)


def test_report_to_dict_shape():
    report = MetricReport(dataset=DatasetId.MAPLM, detection_skipped=0,
                          entries={"accuracy": (0.5, 10), "bleu": (0.25, 4)})
    assert report_to_dict(report) == {
        "dataset": "maplm",
        "entries": {
            "accuracy": {"value": 0.5, "n_samples": 10},
            "bleu": {"value": 0.25, "n_samples": 4},
        },
    }
