"""End-to-end acceptance checks.

One test per shipped guarantee, each printing a PASS line with the criterion
number; run with `pytest -v tests/test_acceptance.py` to see one line per
criterion. Timed checks measure only the operation under test.
"""

import json
import math
import random
import time

import numpy as np

from dataforge.augment import DEFAULT_FACTORS, SeededRng, to_multiple_choice
from dataforge.cli import main
from dataforge.core import (
    BBoxPx,
    CameraId,
    DatasetId,
    QAPair,
    Sample,
    image_ref,
    video_ref,
)
from dataforge.curriculum import stage_plans
from dataforge.ingest import BevGridConfig, LidarPoint, project_lidar_bev, read_manifest, write_manifest
from dataforge.metrics import accuracy, average_precision, bleu, mae
from dataforge.promptkit import check_budget, sample_visual_tokens
from dataforge.standardize import (
    denormalize_bbox,
    normalize_bbox,
    rewrite_object_token,
    standardize_sample,
)

from helpers import expand_all, random_mixed_sample, single_view_media
from test_ingest import brute_force_bev
from test_metrics import _oracle_ap, _oracle_bleu, _random_detection_case

SURROUND = (
    CameraId.CAM_FRONT,
    CameraId.CAM_FRONT_LEFT,
    CameraId.CAM_FRONT_RIGHT,
    CameraId.CAM_BACK,
    CameraId.CAM_BACK_LEFT,
    CameraId.CAM_BACK_RIGHT,
)


def _passed(number: int, label: str) -> None:
    print(f"criterion {number:02d} ({label}): PASS")


# -------------------------------------------------------------- criterion 1

def test_c01_standardization_golden():
    media = image_ref(CameraId.CAM_BACK_RIGHT, 1600, 900, "c6.jpg")
    got = rewrite_object_token("<car>[c6, 139, 343, 1511, 900]",
                               DatasetId.NUINSTRUCT, media)
    assert got == "<car>[CAM_BACK_RIGHT, 8.688, 38.111, 94.438, 100.000]"
    _passed(1, "standardization golden token")


# -------------------------------------------------------------- criterion 2

def test_c02_round_trip_bound_10k_under_1s():
    rng = random.Random(20240811)
    cases = []
    for _ in range(10_000):
        w = rng.randrange(320, 3841)
        h = rng.randrange(240, 2161)
        x0 = rng.uniform(0, w - 1)
        y0 = rng.uniform(0, h - 1)
        x1 = rng.uniform(x0, w)
        y1 = rng.uniform(y0, h)
        cases.append((x0, y0, x1, y1, w, h))
    start = time.perf_counter()
    worst = 0.0
    for x0, y0, x1, y1, w, h in cases:
        bound = max(w, h) * 0.0005
        back = denormalize_bbox(normalize_bbox(BBoxPx(x0, y0, x1, y1), w, h),
                                w, h)
        for orig, rt in zip((x0, y0, x1, y1), back.as_tuple()):
            err = abs(rt - orig)
            worst = max(worst, err / bound)
            assert err <= bound
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _passed(2, f"10k round trips in {elapsed:.3f}s, worst error "
               f"{worst:.3f}x bound")


# -------------------------------------------------------------- criterion 3

def _expansion_fixture(dataset: DatasetId, n: int) -> list[Sample]:
    return [
        Sample(id=f"{dataset.value}/{i:05d}", dataset=dataset,
               media=single_view_media(),
               qa=(QAPair(question=f"What is hazard {i} doing?",
                          answer=f"It is blocking lane {i % 7} at marker {i}."),),
               task_tags=frozenset({"hazards"}))
        for i in range(n)
    ]


def test_c03_expansion_ratios_and_determinism(tmp_path):
    # The shipped ratios are exactly the published expansion ratios.
    assert 36_896 * 5 == 184_480
    assert 47_485 * 2 == 94_970

    coda = _expansion_fixture(DatasetId.CODA_LM, 200)
    maplm = _expansion_fixture(DatasetId.MAPLM, 150)
    outputs = []
    for run in ("a", "b"):
        expanded = expand_all(coda + maplm, DEFAULT_FACTORS, 0.2, SeededRng(3))
        path = tmp_path / f"run_{run}.jsonl"
        write_manifest(expanded, path)
        outputs.append(path.read_bytes())
        by_ds = {}
        for s in expanded:
            by_ds[s.dataset] = by_ds.get(s.dataset, 0) + 1
        assert by_ds[DatasetId.CODA_LM] == 200 * 5
        assert by_ds[DatasetId.MAPLM] == 150 * 2
    assert outputs[0] == outputs[1]
    _passed(3, "x5/x2 expansion, byte-identical across two runs")


# -------------------------------------------------------------- criterion 4

def test_c04_curriculum_totals():
    plans = {p["stage"]: p for p in stage_plans()}
    totals = {stage: sum(e["count"] for e in p["mix"]) for stage, p in plans.items()}
    s1 = plans[1]
    assert s1["flags"] == {"vision_encoder": "frozen", "projector": "trainable",
                           "llm": "frozen"}
    assert s1["lr_projector"] == 1e-3 and s1["batch_size"] == 512
    assert totals[1] == 558_000
    assert totals[2] == 3_000_000 + 143_000
    assert {e["count"] for e in plans[3]["mix"]} == {1_500_000, 760_000, 501_000,
                                                     145_000}
    assert totals[3] == 2_906_000
    assert totals[4] == 1_515_631
    assert abs(totals[4] - 1_500_000) <= 0.02 * 1_500_000
    _passed(4, "stage totals incl. 1,515,631 within 2% of 1.5M")


# -------------------------------------------------------------- criterion 5

def test_c05_prompt_token_accounting():
    qa = (QAPair(question="What next?", answer="Proceed."),)
    six_image = Sample(
        id="a/1", dataset=DatasetId.OMNIDRIVE,
        media=tuple(image_ref(c, 1600, 900, f"{c.value}.jpg") for c in SURROUND),
        qa=qa, task_tags=frozenset({"planning"}))
    report = check_budget(six_image)
    assert report.visual_tokens == 4_374
    prompt_row = check_budget(six_image)
    assert prompt_row.fits
    from dataforge.promptkit import assemble_prompt
    text, plan = assemble_prompt(six_image)
    assert text.count("<image>") == 6
    assert len(plan) == 6

    six_video = Sample(
        id="a/2", dataset=DatasetId.NUINSTRUCT,
        media=tuple(video_ref(c, 5, 1600, 900, f"{c.value}.mp4")
                    for c in SURROUND),
        qa=qa, task_tags=frozenset({"planning"}))
    assert sample_visual_tokens(six_video) == 5_070

    twelve = Sample(
        id="a/3", dataset=DatasetId.GENERIC,
        media=tuple(image_ref(c, 1600, 900, f"{c.value}-{k}.jpg")
                    for k in range(2) for c in SURROUND),
        qa=qa, task_tags=frozenset({"planning"}))
    overflow = check_budget(twelve)
    assert overflow.visual_tokens == 8_748
    assert overflow.visual_tokens > 8_192
    assert not overflow.fits
    _passed(5, "4,374 / 5,070 / 8,748-over-8,192 token accounting")


# -------------------------------------------------------------- criterion 6

def test_c06_mc_uniformity_10k_under_5s():
    pool = [f"distinct answer {k}" for k in range(50)]
    rng = SeededRng(6)
    label_counts = {"A": 0, "B": 0, "C": 0, "D": 0}
    start = time.perf_counter()
    for i in range(10_000):
        answer = f"distinct answer {i % 47}"
        qa = QAPair(question=f"Question {i}?", answer=answer)
        mc = to_multiple_choice(qa, pool, rng.stream("accept", str(i), "mc"))
        matches = [label for label, text in mc.options if text == answer]
        assert len(matches) == 1
        assert mc.answer == matches[0]
        label_counts[matches[0]] += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.3f}s"
    # binomial n=10,000, p=1/4: sigma = sqrt(n*p*(1-p)) ~ 43.3; 3 sigma ~ 130
    for label, count in label_counts.items():
        assert abs(count - 2_500) <= 130, (label, count)
    _passed(6, f"10k MC conversions in {elapsed:.2f}s, labels {label_counts}")


# -------------------------------------------------------------- criterion 7

def test_c07_metrics_oracles():
    rng = random.Random(7007)
    vocab = ["car", "the", "red", "stops", "lane", "turn", "slow", "a", "near"]
    for _ in range(1_000):
        text = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 14)))
        assert bleu(text, [text]) == 1.0

    for _ in range(50):
        cand = " ".join(rng.choice(vocab) for _ in range(rng.randrange(4, 13)))
        refs = [" ".join(rng.choice(vocab) for _ in range(rng.randrange(4, 13)))
                for _ in range(rng.randrange(1, 3))]
        assert abs(bleu(cand, refs) - _oracle_bleu(cand, refs)) < 1e-6

    det_rng = random.Random(7117)
    scored = 0
    while scored < 20:
        dets, gts = _random_detection_case(det_rng)
        got = average_precision(dets, gts)
        want = _oracle_ap(dets, gts)
        assert abs(got - want) < 1e-6
        scored += 1

    assert mae([(v, v) for v in (1.0, 2.0, 3.0)]) == 0.0
    assert mae([(v + 1, v) for v in (1.0, 2.0, 3.0)]) == 1.0
    assert accuracy([("a", "a"), ("b", "b")]) == 1.0
    assert accuracy([("a", "x"), ("b", "y")]) == 0.0
    _passed(7, "BLEU identity x1000, 50 BLEU + 20 AP fixtures at 1e-6")


# -------------------------------------------------------------- criterion 8

def test_c08_bev_matches_brute_force():
    raster, _media = project_lidar_bev([LidarPoint(0.0, 0.0, 0.0, 1.0)])
    assert raster[200, 200] == 1.0
    assert np.count_nonzero(raster) == 1

    rng = random.Random(808)
    for case in range(1_000):
        if case % 50 == 0:
            cfg = BevGridConfig()  # sprinkle in the default 400x400 grid
        else:
            cfg = BevGridConfig(
                x_range=rng.uniform(4.0, 15.0),
                y_range=rng.uniform(4.0, 15.0),
                cell_size=rng.choice([0.25, 0.5, 1.0]),
                mode=rng.choice(["occupancy", "max_intensity"]))
        points = [
            LidarPoint(rng.uniform(-1.4 * cfg.x_range, 1.4 * cfg.x_range),
                       rng.uniform(-1.4 * cfg.y_range, 1.4 * cfg.y_range),
                       rng.uniform(-3.0, 3.0),
                       rng.uniform(0.0, 1.0))
            for _ in range(rng.randrange(0, 40))
        ]
        raster, _ = project_lidar_bev(points, cfg)
        assert np.array_equal(raster, np.array(brute_force_bev(points, cfg)))
    _passed(8, "1,000 BEV rasters cell-for-cell + central-cell case")


# -------------------------------------------------------------- criterion 9

def test_c09_standardize_idempotent_1k(tmp_path):
    rng = random.Random(909)
    samples = [random_mixed_sample(rng, i) for i in range(1_000)]
    once = [standardize_sample(s) for s in samples]
    twice = [standardize_sample(s) for s in once]
    p1, p2 = tmp_path / "once.jsonl", tmp_path / "twice.jsonl"
    write_manifest(once, p1)
    write_manifest(twice, p2)
    assert p1.read_bytes() == p2.read_bytes()
    _passed(9, "standardize twice == once on 1,000 mixed samples (bytes)")


# ------------------------------------------------------------- criterion 10

def test_c10_pipeline_throughput_10k_under_30s(tmp_path):
    source = [{
        "id": f"{i:05d}",
        "image": {"path": f"images/{i:05d}.jpg", "width": 1280, "height": 720},
        "qa": [{"question": f"Describe hazard {i} ahead.",
                "answer": f"A cone blocks lane {i % 4} near marker {i}."}],
        "task": "general_perception",
    } for i in range(10_000)]
    src = tmp_path / "coda.json"
    src.write_text(json.dumps(source), encoding="utf-8")
    raw = tmp_path / "raw.jsonl"
    std = tmp_path / "std.jsonl"
    aug = tmp_path / "aug.jsonl"
    prompts = tmp_path / "prompts.jsonl"

    start = time.perf_counter()
    assert main(["ingest", "--adapter", "coda_lm", "--in", str(src),
                 "--out", str(raw)]) == 0
    assert main(["standardize", "--in", str(raw), "--out", str(std)]) == 0
    assert main(["augment", "--seed", "11", "--offline", "--in", str(std),
                 "--out", str(aug)]) == 0
    assert main(["build-prompts", "--in", str(aug),
                 "--out", str(prompts)]) == 0
    assert main(["stats", "--in", str(aug)]) == 0
    elapsed = time.perf_counter() - start

    assert elapsed < 30.0, f"pipeline took {elapsed:.1f}s"
    augmented = read_manifest(aug)
    assert len(augmented) == 50_000
    with prompts.open(encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 50_000
    _passed(10, f"10k-sample offline pipeline in {elapsed:.1f}s")
