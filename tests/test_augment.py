import gc
import hashlib
import random
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataforge import augment
from dataforge.cli import main
from dataforge.augment import (
    DEFAULT_FACTORS,
    SeededRng,
    build_rewriter_request,
    expand_dataset,
    expand_sample,
    join_pools,
    plan_expansion,
    local_paraphrase,
    parse_rewriter_response,
    to_multiple_choice,
)
from dataforge.core import (
    DatasetId,
    Provenance,
    QAPair,
    QAStyle,
    Sample,
    sample_to_json,
    validate_sample,
)
from dataforge.errors import DataforgeError, NetworkError, PoolTooSmall
from dataforge.ingest import write_manifest
from dataforge.tokens import scan_tokens

from helpers import exactly, expand_all, single_view_media


# --- rewriter request/response ---------------------------------------------------

def test_rewriter_request_golden():
    req = build_rewriter_request(QAPair("What is ahead?", "A truck."))
    assert req == (
        "I have a question and its corresponding answer. I need your "
        "assistance in revising and refining them. Please make some changes "
        "to the written content while preserving the meaning. The question "
        "and answer that require modifications are: Question: What is ahead? "
        "Answer: A truck.. Please provide the revised question and answer in "
        "the format: Question: <question> Answer: <answer>."
    )


def test_rewriter_request_allows_empty_answer():
    req = build_rewriter_request(QAPair("Q?", ""))
    assert "Question: Q? Answer: ." in req


def test_parse_response_direct():
    qa = parse_rewriter_response("Question: What is ahead? Answer: A truck.")
    assert qa.question == "What is ahead?"
    assert qa.answer == "A truck."
    assert qa.provenance is Provenance.PARAPHRASE
    assert qa.style is QAStyle.OPEN


def test_parse_response_multiline_answer():
    qa = parse_rewriter_response(
        "Question: Summarize.\nAnswer: First line.\nSecond line.")
    assert qa.answer == "First line.\nSecond line."


def test_parse_response_rejects_bad_shapes():
    for bad, message in [
            ("no markers at all", "no 'Question:' marker in: 'no markers at all'"),
            ("Answer: x Question: y",  # reversed
             "no 'Answer:' marker after question in: 'Answer: x Question: y'"),
            ("Question: only a question",
             "no 'Answer:' marker after question in: 'Question: only a question'"),
            ("Question:  Answer: no question text",
             "empty question or answer in: 'Question:  Answer: no question text'")]:
        with pytest.raises(DataforgeError, match=exactly(message)):
            parse_rewriter_response(bad)


# --- seeded rng -------------------------------------------------------------------

def test_seeded_rng_streams_are_stable_and_distinct():
    rng = SeededRng(42)
    a1 = rng.stream(DatasetId.CODA_LM, "coda_lm/1", "para/1/0").random()
    a2 = rng.stream(DatasetId.CODA_LM, "coda_lm/1", "para/1/0").random()
    b = rng.stream(DatasetId.CODA_LM, "coda_lm/2", "para/1/0").random()
    c = rng.stream(DatasetId.CODA_LM, "coda_lm/1", "para/2/0").random()
    assert a1 == a2
    assert len({a1, b, c}) == 3
    assert SeededRng(43).stream(DatasetId.CODA_LM, "coda_lm/1",
                                "para/1/0").random() != a1


def test_a_stream_is_the_random_random_of_its_key_digest():
    datasets = [*DatasetId, "perceptgen"]  # gen-perception names its stream by a str
    for i in range(1200):
        seed, dataset = (0, 7, 2**40, 31)[i % 4], datasets[i % len(datasets)]
        sample_id, step = f"{dataset}/{i:05d}\u00e9", ("para", "mc", "grounding")[i % 3]
        name = dataset if isinstance(dataset, str) else dataset.value
        key = f"{seed}\x1f{name}\x1f{sample_id}\x1f{step}/{i}"
        n = int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")
        stream = SeededRng(seed).stream(dataset, sample_id, f"{step}/{i}")
        assert type(stream) is random.Random
        assert stream.getstate() == random.Random(n).getstate()


# --- local paraphrase -------------------------------------------------------------

QA = QAPair("In the image, what should the driver do about the car ahead?",
            "The driver should slow down.")


def test_local_paraphrase_deterministic():
    out1 = local_paraphrase(QA, random.Random(5))
    out2 = local_paraphrase(QA, random.Random(5))
    assert out1 == out2
    assert out1.provenance is Provenance.PARAPHRASE


def test_local_paraphrase_changes_text():
    out = local_paraphrase(QA, random.Random(5))
    assert out.question != QA.question
    assert out.answer != QA.answer


def test_local_paraphrase_single_word_unchanged():
    qa = QAPair("Lanes?", "4")
    out = local_paraphrase(qa, random.Random(1))
    assert out.question == qa.question and out.answer == qa.answer
    assert out.provenance is Provenance.PARAPHRASE


def test_local_paraphrase_preserves_tokens_verbatim():
    qa = QAPair(
        "What is the moving car <car>[CAM_FRONT, 8.688, 38.111, 94.438, 100.000] doing?",
        "The car <car>[CAM_FRONT, 8.688, 38.111, 94.438, 100.000] is parked.")
    for seed in range(50):
        out = local_paraphrase(qa, random.Random(seed))
        for text in (out.question, out.answer):
            matches = scan_tokens(text)
            assert len(matches) == 1
            assert matches[0].text == "<car>[CAM_FRONT, 8.688, 38.111, 94.438, 100.000]"


_TOKEN = "<car>[FRONT_ONLY, 10.000, 20.000, 30.000, 40.000]"


def _units(text):
    """The object tokens and NUL characters of ``text``, in order."""
    units, cursor = [], 0
    for match in scan_tokens(text):
        units += ["\x00"] * text.count("\x00", cursor, match.start) + [match.text]
        cursor = match.end
    return units + ["\x00"] * text.count("\x00", cursor)


def test_local_paraphrase_keeps_tokens_in_place_in_a_text_holding_the_sentinel():
    qa = QAPair(f"Is \x000\x00 left of {_TOKEN} on the road?",
                f"Yes, {_TOKEN} is left of \x001\x00 and \x00\x00.")
    for seed in range(40):
        out = local_paraphrase(qa, random.Random(seed))
        assert _units(out.question) == ["\x00", "\x00", _TOKEN]
        assert _units(out.answer) == [_TOKEN, "\x00", "\x00", "\x00", "\x00"]
        assert "\x000\x00 " in out.question and "\x001\x00 " in out.answer


_PIECES = st.sampled_from(["\x00", "\x000\x00", "\x001", "0\x00", " ", ", ", "car",
                           "road", "the", "ahead", "left", "In", "On the road,", "?", "0",
                           _TOKEN, "<1, CAM_FRONT, 3, 4>", "<bus>[1, 2]"])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(_PIECES, min_size=2, max_size=14), st.integers(0, 2**32))
def test_local_paraphrase_keeps_every_token_and_nul(pieces, seed):
    text = " ".join(pieces)
    out = local_paraphrase(QAPair(text, text), random.Random(seed))
    # the rules see the protected text, whose lead clause may move
    moves = augment.load_rules().clause_re.match(augment._protect_tokens(text)[0])
    for new in (out.question, out.answer):
        if moves:
            assert sorted(_units(new)) == sorted(_units(text))
        else:
            assert _units(new) == _units(text)


def _protect_before_nul_fix(text):
    saved = []

    def protect(match):
        saved.append(match.text)
        return f"\x00{len(saved) - 1}\x00"

    return augment.tok.sub_tokens(text, protect), saved


def _restore_before_nul_fix(text, saved):
    for i, original in enumerate(saved):
        text = text.replace(f"\x00{i}\x00", original, 1)
    return text


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(_PIECES.filter(lambda piece: "\x00" not in piece), min_size=2,
                max_size=14), st.integers(0, 2**32))
def test_local_paraphrase_of_a_nul_free_text_is_the_one_before_the_nul_fix(pieces, seed):
    qa = QAPair(" ".join(pieces), " ".join(reversed(pieces)))
    out = local_paraphrase(qa, random.Random(seed))
    with mock.patch.object(augment, "_protect_tokens", _protect_before_nul_fix), \
            mock.patch.object(augment, "_restore_tokens", _restore_before_nul_fix):
        assert local_paraphrase(qa, random.Random(seed)) == out


def test_a_lead_clause_before_bare_punctuation_is_not_rotated():
    # The clause matches and the draw rotates, but only "." follows it: there
    # is no sentence to move the clause behind.
    class Rotating:
        def random(self):
            return 0.0

    rules = augment.load_rules()
    assert augment._rotate_lead_clause("In the rain, stop.", Rotating(), rules) == (
        "Stop in the rain.")
    assert augment._rotate_lead_clause("In the rain, .", Rotating(), rules) == (
        "In the rain, .")


def test_local_paraphrase_seed_collision_rate():
    outs = [local_paraphrase(QA, random.Random(seed)) for seed in range(1000)]
    counts = Counter(outs)
    # P(two random seeds collide) = sum of squared variant frequencies
    collision = sum((c / 1000) ** 2 for c in counts.values())
    assert collision < 0.05, f"collision rate {collision:.3f}"
    assert len(counts) > 40


# --- multiple choice --------------------------------------------------------------

POOL = ["A red truck.", "Two bicycles.", "An empty road.", "A traffic cone.",
        "A bus stop."]


def test_to_multiple_choice_contract():
    qa = QAPair("What is ahead?", "A pedestrian.")
    out = to_multiple_choice(qa, POOL, random.Random(3))
    assert out.style is QAStyle.MULTIPLE_CHOICE
    assert out.provenance is Provenance.MC_TRANSFORM
    assert [label for label, _ in out.options] == ["A", "B", "C", "D"]
    matching = [label for label, text in out.options if text == "A pedestrian."]
    assert matching == [out.answer]
    distractor_texts = [t for _, t in out.options if t != "A pedestrian."]
    assert len(set(distractor_texts)) == 3
    assert all(t in POOL for t in distractor_texts)


def test_to_multiple_choice_filters_answer_duplicates():
    qa = QAPair("Q?", "A red truck.")
    out = to_multiple_choice(qa, ["A red truck."] + POOL[1:4], random.Random(0))
    texts = [t for _, t in out.options]
    assert texts.count("A red truck.") == 1


def test_to_multiple_choice_pool_too_small():
    qa = QAPair("Q?", "A red truck.")
    with pytest.raises(PoolTooSmall):
        to_multiple_choice(qa, ["A red truck.", "x", "x", "y"], random.Random(0))


def test_to_multiple_choice_label_uniformity():
    qa = QAPair("Q?", "correct")
    counts = Counter()
    for seed in range(10_000):
        out = to_multiple_choice(qa, POOL, random.Random(seed))
        counts[out.answer] += 1
    # binomial n=10000 p=0.25 -> sigma = sqrt(n p (1-p)) ~ 43.3
    for label in "ABCD":
        assert abs(counts[label] - 2500) < 3 * 43.31, counts


# --- expansion --------------------------------------------------------------------

def _mini_dataset(n=40, dataset=DatasetId.CODA_LM):
    samples = []
    for i in range(n):
        qa = (QAPair(f"What hazard appears in scene {i}?",
                     f"A stalled vehicle blocks lane {i % 4}."),)
        samples.append(Sample(f"{dataset.value}/{i:05d}", dataset,
                              single_view_media(), qa,
                              frozenset({"general_perception"})))
    return samples


def test_expand_count_law_and_ids():
    samples = _mini_dataset(40)
    out = expand_all(samples, {DatasetId.CODA_LM: 5}, 0.2, SeededRng(0))
    assert len(out) == 200
    assert out[0].id == "coda_lm/00000"
    assert [s.id for s in out[1:5]] == [f"coda_lm/00000#aug{k}" for k in range(1, 5)]


def test_expand_identity_policy():
    samples = _mini_dataset(10)
    out = expand_all(samples, {DatasetId.CODA_LM: 1}, 0.0, SeededRng(0))
    assert out == samples


def test_expand_preserves_originals_bitwise():
    samples = _mini_dataset(25)
    out = expand_all(samples, DEFAULT_FACTORS, 0.2, SeededRng(0))
    by_id = {s.id: s for s in out}
    for s in samples:
        assert sample_to_json(by_id[s.id]) == sample_to_json(s)


def test_expand_deterministic_across_runs(tmp_path):
    samples = _mini_dataset(30)
    paths = []
    for run in range(2):
        out = expand_all(samples, DEFAULT_FACTORS, 0.2, SeededRng(7))
        p = tmp_path / f"run{run}.jsonl"
        write_manifest(out, p)
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def test_expand_seed_changes_output():
    samples = _mini_dataset(10)
    a = expand_all(samples, DEFAULT_FACTORS, 0.2, SeededRng(1))
    b = expand_all(samples, DEFAULT_FACTORS, 0.2, SeededRng(2))
    assert a != b


def test_expand_mc_fraction_applies_to_copies():
    samples = _mini_dataset(200)
    out = expand_all(samples, {DatasetId.CODA_LM: 2}, 0.5, SeededRng(11))
    copies = [s for s in out if "#aug" in s.id]
    mc = sum(1 for s in copies for qa in s.qa
             if qa.style is QAStyle.MULTIPLE_CHOICE)
    assert 60 <= mc <= 140  # 200 copies, p=0.5, generous band
    originals = [s for s in out if "#aug" not in s.id]
    assert all(qa.style is QAStyle.OPEN for s in originals for qa in s.qa)


def test_expand_mc_correct_option_preserves_paraphrased_answer():
    samples = _mini_dataset(60)
    rng = SeededRng(3)
    out = expand_all(samples, {DatasetId.CODA_LM: 2}, 1.0, rng)
    by_id = {s.id: s for s in out}
    for s in samples:
        copy = by_id[f"{s.id}#aug1"]
        qa = copy.qa[0]
        assert qa.style is QAStyle.MULTIPLE_CHOICE
        stream = rng.stream(s.dataset, s.id, "para/1/0")
        expected_answer = local_paraphrase(s.qa[0], stream).answer
        chosen = dict(qa.options)[qa.answer]
        assert chosen == expected_answer


def test_expand_falls_back_on_rewriter_failure():
    samples = _mini_dataset(5)

    def broken(user_text):
        raise NetworkError("connection refused")

    offline = expand_all(samples, {DatasetId.CODA_LM: 2}, 0.0, SeededRng(9))
    with_failures = expand_all(samples, {DatasetId.CODA_LM: 2}, 0.0,
                               SeededRng(9), rewriter=broken)
    assert offline == with_failures


def test_expand_uses_rewriter_output_when_valid():
    samples = _mini_dataset(3)

    def canned(user_text):
        return "Question: Rewritten question? Answer: Rewritten answer."

    out = expand_all(samples, {DatasetId.CODA_LM: 2}, 0.0, SeededRng(9),
                     rewriter=canned)
    copy = next(s for s in out if s.id.endswith("#aug1"))
    assert copy.qa[0].question == "Rewritten question?"
    assert copy.qa[0].answer == "Rewritten answer."


def _mixed_datasets(n=60):
    """CODA-LM and MAPLM samples, interleaved, sharing one tag; each
    dataset's answers are its own."""
    samples = []
    for i in range(n):
        for dataset in (DatasetId.CODA_LM, DatasetId.MAPLM):
            qa = (QAPair(f"What is in scene {i}?", f"{dataset.value} answer {i % 9}."),)
            samples.append(Sample(f"{dataset.value}/{i:05d}", dataset,
                                  single_view_media(), qa, frozenset({"shared"})))
    return samples


def test_one_call_equals_per_dataset_calls():
    samples = sorted(_mixed_datasets(), key=lambda s: s.id)
    one_call = expand_all(samples, DEFAULT_FACTORS, 1.0, SeededRng(4))
    per_dataset = []
    for dataset in (DatasetId.CODA_LM, DatasetId.MAPLM):
        group = [s for s in samples if s.dataset is dataset]
        per_dataset += expand_all(group, DEFAULT_FACTORS, 1.0, SeededRng(4))
    assert one_call == sorted(per_dataset, key=lambda s: s.id)
    coda_options = [text for s in one_call if s.dataset is DatasetId.CODA_LM
                    for qa in s.qa for _, text in qa.options or ()]
    assert len(coda_options) > 100
    assert not [t for t in coda_options if t.startswith(DatasetId.MAPLM.value)]


def test_policy_validation():
    # the default factors: CODA-LM x5, MAPLM x2, every other dataset x1
    samples = (_mini_dataset(3, DatasetId.CODA_LM) + _mini_dataset(3, DatasetId.LINGOQA)
               + _mini_dataset(3, DatasetId.MAPLM))
    out = expand_all(samples, DEFAULT_FACTORS, 0.2, SeededRng(0))
    assert Counter(s.dataset for s in out) == {
        DatasetId.CODA_LM: 15, DatasetId.MAPLM: 6, DatasetId.LINGOQA: 3}


def test_expand_refuses_an_expansion_copy():
    samples = _mini_dataset(3)
    copy = expand_all(samples[1:2], {DatasetId.CODA_LM: 2}, 0.0, SeededRng(0))[1]
    copy = Sample(copy.id, copy.dataset, copy.media, samples[1].qa, copy.task_tags)
    with pytest.raises(DataforgeError, match=exactly(
            "sample coda_lm/00001#aug1 is already an expansion copy; "
            "augment refuses to re-expand its own output")):
        expand_all([samples[0], copy, samples[2]], DEFAULT_FACTORS, 0.2, SeededRng(0))


def test_expand_refuses_non_original_qa():
    samples = _mini_dataset(3)
    qa = samples[1].qa[0]
    samples[1] = Sample(samples[1].id, samples[1].dataset, samples[1].media,
                        (qa, QAPair(qa.question, qa.answer, provenance=Provenance.PARAPHRASE)),
                        samples[1].task_tags)
    with pytest.raises(DataforgeError, match=exactly(
            "sample coda_lm/00001 carries paraphrase QA; "
            "augment only accepts original data")):
        expand_all(samples, DEFAULT_FACTORS, 0.2, SeededRng(0))


# --- rewriter replies that change object tokens ------------------------------------

def _token_dataset(n=2):
    token = "<car>[100, 200, 300, 400]"
    return [Sample(f"coda_lm/{i:05d}", DatasetId.CODA_LM, single_view_media(),
                   (QAPair(f"Where is {token} in scene {i}?", f"It is at {token}, ahead."),),
                   frozenset({"hazards"}))
            for i in range(n)]


def test_rewriter_reply_with_other_tokens_falls_back_to_local_rules():
    samples = _token_dataset()

    def changes_tokens(user_text):
        return ("Question: Where is <car>[CAM_FRONT, 1, 2, 3]? "
                "Answer: At <bus>[5000, 1, 6000, 2].")

    out = expand_all(samples, DEFAULT_FACTORS, 0.2, SeededRng(9), changes_tokens)
    assert len(out) == 10
    assert all(validate_sample(s) == [] for s in out)
    assert out == expand_all(samples, DEFAULT_FACTORS, 0.2, SeededRng(9))


def test_rewriter_reply_that_moves_a_token_is_kept():
    samples = _token_dataset(1)
    reply = ("Question: Where is the car in scene 0? "
             "Answer: The car is at <car>[100, 200, 300, 400] and <car>[100, 200, 300, 400].")
    out = expand_all(samples, {DatasetId.CODA_LM: 2}, 0.0, SeededRng(9),
                     lambda user_text: reply)
    assert out[1].qa[0] == parse_rewriter_response(reply)
    assert validate_sample(out[1]) == []


# --- streaming expansion ------------------------------------------------------------

def _reference_expand(samples, factors, mc_fraction, rng, rewriter=None):
    """The documented expansion, on the whole list at once: pools are the first
    _POOL_CAP distinct open answers per (dataset, tag) in input order; samples
    expand in input order; the result is sorted by id."""
    buckets = {}
    for s in samples:
        for qa in s.qa:
            if qa.style is QAStyle.OPEN:
                for tag in s.task_tags:
                    bucket = buckets.setdefault((s.dataset, tag), [])
                    if len(bucket) < augment._POOL_CAP and qa.answer not in bucket:
                        bucket.append(qa.answer)
    out = []
    for s in samples:
        pool = []
        for tag in sorted(s.task_tags):
            pool += [a for a in buckets.get((s.dataset, tag), ()) if a not in pool]
        out += expand_sample(s, factors.get(s.dataset, 1), mc_fraction, rng, pool, rewriter)
    return sorted(out, key=lambda s: s.id)


class _RecordingRewriter:
    """Answers every other request with a fixed pair and fails the rest,
    keeping the requests in the order they came."""

    def __init__(self):
        self.requests = []

    def __call__(self, user_text):
        self.requests.append(user_text)
        if len(self.requests) % 2:
            raise NetworkError("connection refused")
        return f"Question: Rewritten {len(self.requests)}? Answer: Rewritten."


def _plan_ranges(samples, factors, splits):
    """Both halves of augment's split first pass over ``samples`` cut into
    ranges before the indices ``splits``: the ranges' plans joined, and the
    index of each run's first sample. A range starts a run if its first id
    sorts above the top copy id of every range before it; every other range
    extends the run before it."""
    cuts = sorted(i for i in set(splits) if 0 < i < len(samples))
    starts = [0] + cuts
    plans = [plan_expansion(samples[start:end], factors)
             for start, end in zip(starts, cuts + [len(samples)])]
    runs, top = [0], ""
    for start, (_, top_copy) in zip(starts, plans):
        if start and samples[start].id > top:
            runs.append(start)
        top = max(top, top_copy)
    return join_pools(pools for pools, _ in plans), runs


def _cut_allowed(samples, factors, i):
    """Whether sample ``i``'s id sorts above every copy id of the samples
    before it: the rule for a cut before it."""
    return all(samples[i].id > f"{s.id}#aug{k}" for s in samples[:i]
               for k in range(1, factors.get(s.dataset, 1)))


def _listed(pools):
    return [(key, list(answers)) for key, answers in pools.items()]


def _assert_same_as_reference(samples, factors, mc_fraction, splits=(), seed=5):
    """Both passes equal the reference when the first pass plans the input
    in ranges cut before the indices ``splits`` and the second expands each
    run the joined plans allow on its own."""
    rewriter, reference_rewriter = _RecordingRewriter(), _RecordingRewriter()
    pools, runs = _plan_ranges(samples, factors, splits)
    assert _listed(pools) == _listed(plan_expansion(samples, factors)[0])
    got = []
    for start, end in zip(runs, runs[1:] + [len(samples)]):
        got += expand_dataset(iter(samples[start:end]), factors, mc_fraction,
                              SeededRng(seed), pools, rewriter)
    want = _reference_expand(samples, factors, mc_fraction, SeededRng(seed),
                             reference_rewriter)
    assert [sample_to_json(s) for s in got] == [sample_to_json(s) for s in want]
    assert rewriter.requests == reference_rewriter.requests


_FACTORS = {DatasetId.CODA_LM: 12, DatasetId.MAPLM: 11}  # LingoQA: factor 1


def _sample(sample_id, dataset, tags, answers):
    qa = tuple(QAPair(f"What is at {sample_id!r}, turn {j}?", answer)
               for j, answer in enumerate(answers))
    return Sample(sample_id, dataset, single_view_media(), qa, frozenset(tags))


@st.composite
def _streams(draw):
    """Samples in id order whose ids share prefixes, so that a later input
    can sort between a sample and its copies; few answers per bucket, so
    that some buckets fill and some never do."""
    ids = sorted(draw(st.sets(st.text(' !"#ab', min_size=1, max_size=4), max_size=24)))
    samples = []
    for sample_id in ids:
        dataset = draw(st.sampled_from([DatasetId.CODA_LM, DatasetId.MAPLM,
                                        DatasetId.LINGOQA]))
        tags = draw(st.sets(st.sampled_from(["near", "far", "rare"]), max_size=2))
        answers = draw(st.lists(st.sampled_from("pqrstuvw"), max_size=2))
        if "rare" in tags:
            answers = ["z"] * len(answers)
        sample = _sample(sample_id, dataset, tags, answers)
        if draw(st.booleans()):  # a multiple-choice turn stays out of the pools
            mc = QAPair("Pick one.", "A", QAStyle.MULTIPLE_CHOICE,
                        options=(("A", "m1"), ("B", "m2")))
            sample = Sample(sample.id, dataset, sample.media, (mc,) + sample.qa,
                            sample.task_tags)
        samples.append(sample)
    return samples


@settings(derandomize=True, deadline=None, max_examples=150)
@given(samples=_streams(), mc_fraction=st.sampled_from([0.0, 0.5, 1.0]),
       block=st.sampled_from([1, 2, 3, 7]), cap=st.sampled_from([1, 3, 4]),
       splits=st.sets(st.integers(1, 23), max_size=4))
def test_streaming_expansion_equals_reference(samples, mc_fraction, block, cap, splits):
    with mock.patch.object(augment, "_BLOCK", block), \
            mock.patch.object(augment, "_POOL_CAP", cap):
        _assert_same_as_reference(samples, _FACTORS, mc_fraction, splits)


def test_streaming_expansion_equals_reference_over_blocks():
    # Longer than one block at the shipped block size and pool cap: buckets
    # fill early, LingoQA's "rare" bucket never fills but its factor is 1,
    # and one late CODA-LM "rare" sample draws from a pool of one answer.
    samples = []
    for i in range(2 * augment._BLOCK + 100):
        if i % 7 == 3:
            samples.append(_sample(f"s{i:05d}", DatasetId.LINGOQA, {"rare"}, ["z"]))
        elif i % 7 == 5:
            samples.append(_sample(f"s{i:05d}", DatasetId.MAPLM, (), [f"m{i}"]))
        else:
            samples.append(_sample(f"s{i:05d}", DatasetId.CODA_LM, {"near"},
                                   [f"answer {i % 97}"]))
        for suffix in (" ", "!", '"'):
            if i % 300 == 299:
                samples.append(_sample(f"s{i:05d}{suffix}", DatasetId.CODA_LM,
                                       {"near"}, ["late"]))
    samples.insert(-40, _sample(f"{samples[-41].id}~", DatasetId.CODA_LM, {"rare"},
                                ["only"]))
    splits = range(1, len(samples), 97)
    _assert_same_as_reference(samples, _FACTORS, 1.0, splits)
    assert len(_plan_ranges(samples, _FACTORS, splits)[1]) > 11


def test_plan_expansion_cuts_only_before_an_id_above_every_copy_id():
    # "a!" and "b " sort below the copies of the sample before them, so no
    # run starts at either; "a~" and "b" sort above every copy before them.
    ids = ["a", "a!", "a~", "b", "b ", "c"]
    samples = [_sample(sample_id, DatasetId.CODA_LM, (), ["p"]) for sample_id in ids]
    assert plan_expansion(samples[:2], DEFAULT_FACTORS)[1] == "a#aug4"  # above "a!#aug4"
    assert _plan_ranges(samples, DEFAULT_FACTORS, range(1, 6))[1] == [0, 2, 3, 5]
    # A dataset expanded x1 makes no copies, so every range starts a run.
    assert plan_expansion(samples, {})[1] == ""
    assert _plan_ranges(samples, {}, range(1, 6))[1] == [0, 1, 2, 3, 4, 5]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(samples=_streams(), cap=st.sampled_from([1, 3, 4]),
       splits=st.sets(st.integers(1, 23), max_size=5))
def test_joined_range_plans_equal_the_plan_of_the_whole_input(samples, cap, splits):
    # 1 to 6 ranges; with few answers per bucket, buckets fill across cuts.
    with mock.patch.object(augment, "_POOL_CAP", cap):
        pools, runs = _plan_ranges(samples, _FACTORS, splits)
        assert _listed(pools) == _listed(plan_expansion(samples, _FACTORS)[0])
    cuts = sorted(i for i in splits if i < len(samples))
    assert runs == [0] + [i for i in cuts if _cut_allowed(samples, _FACTORS, i)]


def test_a_bucket_that_fills_across_a_cut_keeps_the_first_answers_in_input_order():
    samples = [_sample(f"s{i}", DatasetId.CODA_LM, {"near"}, answers)
               for i, answers in enumerate([["p", "q"], ["q"], ["r", "s"], ["t"]])]
    with mock.patch.object(augment, "_POOL_CAP", 3):
        plans = [plan_expansion(samples[:2], _FACTORS)[0],
                 plan_expansion(samples[2:], _FACTORS)[0]]
        assert _listed(plans[1]) == [((DatasetId.CODA_LM, "near"), ["r", "s", "t"])]
        assert _listed(join_pools(plans)) == [((DatasetId.CODA_LM, "near"), ["p", "q", "r"])]


def test_expand_refuses_ids_out_of_order():
    samples = _mini_dataset(3)
    for ids in ((0, 2, 1), (0, 1, 1)):
        with pytest.raises(DataforgeError, match=exactly(
                "augment needs samples in increasing id order: 'coda_lm/00001' "
                f"follows 'coda_lm/0000{ids[1]}'")):
            plan_expansion([samples[i] for i in ids], DEFAULT_FACTORS)


def test_expand_dataset_builds_each_distractor_pool_once(monkeypatch):
    # Two expanded datasets times two tag sets: four pools for 40 samples.
    samples = [_sample(f"s{i:03d}", (DatasetId.CODA_LM, DatasetId.MAPLM)[i % 2],
                       ("near",) if i % 3 else ("near", "far"), [f"answer {i % 7}"])
               for i in range(40)]
    calls = []
    pool_for = augment._pool_for

    def counted(dataset, task_tags, pools):
        calls.append((dataset, task_tags))
        return pool_for(dataset, task_tags, pools)

    monkeypatch.setattr(augment, "_pool_for", counted)
    assert len(expand_all(samples, DEFAULT_FACTORS, 0.5, SeededRng(0))) == 20 * 5 + 20 * 2
    assert len(calls) == len(set(calls)) == 4


def test_a_pool_that_never_fills_leaves_augment_memory_flat(tmp_path, capsys):
    # The first pass builds every pool before any sample expands, so no
    # sample waits for its pool: one extra tag whose pool never fills, on the
    # first of 2000 MAPLM (x2) samples, leaves augment's peak where it was;
    # holding each sample until its pools filled held all 2000 and doubled
    # the peak. The first run is a warm-up: it loads the paraphrase rules.
    # A tuple, list, dict or float taken from its type's free list is no
    # allocation that tracemalloc sees, and how full those lists are when
    # tracing starts depends on the tests run before (alone, run 3 peaked
    # 0.5% above run 2; after the rest of this file, 5.6%). A full
    # collection empties the free lists, so each run starts from the same
    # state.
    peaks = []
    for extra in ((), (), ("rare",)):
        samples = [_sample(f"s{i:05d}", DatasetId.MAPLM,
                           ("near",) + (extra if i == 0 else ()), [f"answer {i % 97}"])
                   for i in range(2000)]
        manifest = tmp_path / "m.jsonl"
        write_manifest(samples, manifest)
        gc.collect()
        tracemalloc.start()
        try:
            assert main(["augment", "--offline", "--in", str(manifest),
                         "--out", str(tmp_path / "aug.jsonl")]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[2] - peaks[1]) < 0.05 * peaks[1], peaks
