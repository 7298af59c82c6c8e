"""QA augmentation: paraphrase, multiple-choice transformation, expansion.

Two paraphrase paths share one request format: an HTTP chat rewriter (the
online path) and a deterministic rule-table paraphraser used offline and as
the fallback when the service misbehaves or changes an object token.
Expansion derives every random decision from (global_seed, dataset,
sample_id, step), and reads its input twice: ``plan_expansion`` checks every
sample and builds the distractor pools, whole or in runs that ``join_pools``
joins, then ``expand_dataset`` expands the input, whole or in runs cut where
the runs' outputs concatenate in id order.
"""

from __future__ import annotations

import _random
import hashlib
import json
import random
import re
from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import tokens as tok
from .core import DatasetId, Provenance, QAPair, QAStyle, Sample, frozen_value
from .errors import DataforgeError, PoolTooSmall

SYSTEM_TEXT = "You are an English improver."

USER_TEMPLATE = (
    "I have a question and its corresponding answer. I need your assistance "
    "in revising and refining them. Please make some changes to the written "
    "content while preserving the meaning. The question and answer that "
    "require modifications are: {QA}. Please provide the revised question "
    "and answer in the format: Question: <question> Answer: <answer>."
)

# A rewriter takes a request's user text and returns the raw model text; the
# system text is always SYSTEM_TEXT.
Rewriter = Callable[[str], str]


def build_rewriter_request(qa: QAPair) -> str:
    """The user text asking the rewriter to paraphrase ``qa``."""
    payload = f"Question: {qa.question} Answer: {qa.answer}"
    return USER_TEMPLATE.replace("{QA}", payload)


def parse_rewriter_response(text: str) -> QAPair:
    """Extract the rewritten pair from 'Question: ... Answer: ...' text."""
    q_marker, a_marker = "Question:", "Answer:"
    q_at = text.find(q_marker)
    if q_at < 0:
        raise DataforgeError(f"no {q_marker!r} marker in: {text[:80]!r}")
    a_at = text.find(a_marker, q_at + len(q_marker))
    if a_at < 0:
        raise DataforgeError(f"no {a_marker!r} marker after question in: "
                             f"{text[:80]!r}")
    question = text[q_at + len(q_marker):a_at].strip()
    answer = text[a_at + len(a_marker):].strip()
    if not question or not answer:
        raise DataforgeError(f"empty question or answer in: {text[:80]!r}")
    return QAPair(question, answer, QAStyle.OPEN, Provenance.PARAPHRASE)


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------

@frozen_value
class SeededRng:
    """Derives an independent random stream per (dataset, sample, step) key."""

    global_seed: int = 0

    def stream(self, dataset: DatasetId | str, sample_id: str, step: str) -> random.Random:
        name = dataset._value_ if isinstance(dataset, DatasetId) else dataset
        key = f"{self.global_seed}\x1f{name}\x1f{sample_id}\x1f{step}"
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        # Random(n); 3.10's __new__ seeds first, from this 0, not from urandom
        stream = random.Random.__new__(random.Random, 0)
        _random.Random.seed(stream, int.from_bytes(digest[:8], "big"))
        stream.gauss_next = None
        return stream


# ---------------------------------------------------------------------------
# Deterministic local paraphraser
# ---------------------------------------------------------------------------

@frozen_value
class ParaphraseRules:
    question_lead_ins: tuple[str, ...]
    answer_lead_ins: tuple[str, ...]
    synonyms: dict[str, tuple[str, ...]]
    synonym_re: re.Pattern
    clause_re: re.Pattern


@lru_cache(maxsize=1)
def load_rules() -> ParaphraseRules:
    raw = json.loads((Path(__file__).parent / "data/paraphrase_rules.json")
                     .read_text(encoding="utf-8"))
    synonyms = {e["match"]: tuple(e["alternatives"]) for e in raw["synonyms"]}
    # longest-first so multiword entries win over their prefixes
    words = sorted(synonyms, key=len, reverse=True)
    synonym_re = re.compile(r"\b(" + "|".join(re.escape(w) for w in words) + r")\b")
    markers = "|".join(re.escape(m) for m in raw["movable_clause_markers"])
    clause_re = re.compile(
        rf"^((?:{markers})\b[^,<>\[\]\n]{{0,40}}), (\S.*)$")
    return ParaphraseRules(
        tuple(raw["question_lead_ins"]),
        tuple(raw["answer_lead_ins"]),
        synonyms,
        synonym_re,
        clause_re,
    )


# Token i reads "\x00{i}\x00" while the rules run, and a NUL of a text that
# holds tokens reads "\x00\x00", so no NUL of the text is taken for a token.
_SENTINEL_RE = re.compile("\x00([0-9]*)\x00")


def _protect_tokens(text: str) -> tuple[str, list[str]]:
    matches = tok.scan_tokens(text)
    if not matches:
        return text, []
    pieces, cursor = [], 0
    for i, match in enumerate(matches):
        pieces += text[cursor:match.start].replace("\x00", "\x00\x00"), f"\x00{i}\x00"
        cursor = match.end
    pieces.append(text[cursor:].replace("\x00", "\x00\x00"))
    return "".join(pieces), [match.text for match in matches]


def _restore_tokens(text: str, saved: list[str]) -> str:
    return _SENTINEL_RE.sub(lambda m: saved[int(m[1])] if m[1] else "\x00",
                            text) if saved else text


def _rotate_lead_clause(text: str, rng: random.Random, rules: ParaphraseRules) -> str:
    m = rules.clause_re.match(text)
    if not m or rng.random() >= 0.5:
        return text
    clause, rest = m.group(1), m.group(2)
    punct = rest[-1] if rest and rest[-1] in ".?!" else ""
    core = rest[:-1] if punct else rest
    if not core:
        return text
    return (core[0].upper() + core[1:] + " "
            + clause[0].lower() + clause[1:] + punct)


def _apply_synonyms(text: str, rng: random.Random, rules: ParaphraseRules) -> str:
    draw, choice, synonyms = rng.random, rng.choice, rules.synonyms

    def swap(m: re.Match) -> str:
        word = m.group(0)
        if draw() < 0.5:
            return choice(synonyms[word])
        return word

    return rules.synonym_re.sub(swap, text)


def _lead_in(text: str, lead: str, decapitalize: bool) -> str:
    if not lead:
        return text
    if decapitalize and text and text[0].isupper():
        first_word = text.split(None, 1)[0]
        if not (len(first_word) > 1 and first_word.isupper()):
            text = text[0].lower() + text[1:]
    return lead + text


def _transform(text: str, rng: random.Random, lead_ins: Sequence[str],
               rules: ParaphraseRules, decapitalize: bool) -> str:
    if len(text.split(None, 1)) < 2:
        return text  # single token: nothing safe to vary
    protected, saved = _protect_tokens(text)
    out = _rotate_lead_clause(protected, rng, rules)
    out = _apply_synonyms(out, rng, rules)
    out = _lead_in(out, rng.choice(lead_ins), decapitalize)
    if out == protected:
        # force a visible change: first non-empty lead-in
        out = _lead_in(out, lead_ins[1], decapitalize)
    return _restore_tokens(out, saved)


def local_paraphrase(qa: QAPair, rng: random.Random) -> QAPair:
    """Deterministic meaning-preserving rewrite driven by the shipped rule
    table; object tokens pass through untouched."""
    rules = load_rules()
    question = _transform(qa.question, rng, rules.question_lead_ins, rules, False)
    answer = _transform(qa.answer, rng, rules.answer_lead_ins, rules, True)
    return QAPair(question, answer, QAStyle.OPEN, Provenance.PARAPHRASE)


# ---------------------------------------------------------------------------
# Multiple-choice transformation
# ---------------------------------------------------------------------------

_MC_LABELS = ("A", "B", "C", "D")


def to_multiple_choice(qa: QAPair, distractor_pool: Sequence[str],
                       rng: random.Random) -> QAPair:
    """Turn an open QA into a 4-option question whose answer field is the
    correct label; the correct text keeps the original answer verbatim."""
    seen = set()
    filtered = []
    for text in distractor_pool:
        if text != qa.answer and text not in seen:
            seen.add(text)
            filtered.append(text)
    if len(filtered) < 3:
        raise PoolTooSmall(
            f"need 3 distinct distractors, pool offers {len(filtered)}")
    distractors = rng.sample(filtered, 3)
    correct_at = rng.randrange(4)
    texts = distractors[:correct_at] + [qa.answer] + distractors[correct_at:]
    options = tuple(zip(_MC_LABELS, texts))
    return QAPair(qa.question, _MC_LABELS[correct_at],
                  QAStyle.MULTIPLE_CHOICE, Provenance.MC_TRANSFORM, options)


# ---------------------------------------------------------------------------
# Dataset expansion
# ---------------------------------------------------------------------------

# The shipped stage-4 data recipe, which the CLI always uses: CODA-LM x5 and
# MAPLM x2, with every other dataset passing through unexpanded, and this
# share of expansion copies turned into multiple choice.
DEFAULT_FACTORS: dict[DatasetId, int] = {
    DatasetId.CODA_LM: 5,
    DatasetId.MAPLM: 2,
}
MC_FRACTION = 0.2


# An expansion copy's id is its original's id plus this mark and the copy number.
_COPY_MARK = "#aug"

# Distractor pools are capped so conversion cost stays flat as manifests grow.
_POOL_CAP = 64

# expand_dataset expands and yields in blocks of this many input samples: a
# sort per sample costs more time than a block costs memory.
_BLOCK = 1024

_sample_id = attrgetter("id")

# Distractor pools: the first _POOL_CAP distinct open answers of each
# (dataset, tag), in input order, as dict keys.
Pools = dict[tuple[DatasetId, str], dict[str, None]]


def _pool_for(dataset: DatasetId, task_tags: frozenset[str], pools: Pools) -> list[str]:
    """The distinct answers of the pools of ``task_tags``, by tag name."""
    out: list[str] = []
    seen: set[str] = set()
    for tag in sorted(task_tags):
        for answer in pools.get((dataset, tag), ()):
            if answer not in seen:
                seen.add(answer)
                out.append(answer)
    return out


def _token_texts(qa: QAPair) -> Counter:
    return Counter(m.text for text in (qa.question, qa.answer)
                   for m in tok.scan_tokens(text))


def _paraphrase_qa(qa: QAPair, stream: random.Random,
                   rewriter: Rewriter | None) -> QAPair:
    """The rewriter's pair if it holds exactly ``qa``'s object tokens,
    verbatim; otherwise, or when the service fails, the local rules' pair."""
    if rewriter is not None:
        try:
            new = parse_rewriter_response(rewriter(build_rewriter_request(qa)))
        except DataforgeError:
            pass  # service failure: fall back to the offline path
        else:
            if _token_texts(new) == _token_texts(qa):
                return new
    return local_paraphrase(qa, stream)


def expand_sample(sample: Sample, factor: int, mc_fraction: float, rng: SeededRng,
                  pool: Sequence[str], rewriter: Rewriter | None = None
                  ) -> list[Sample]:
    """One original plus (factor - 1) derived copies with '#augN' id suffixes."""
    out = [sample]
    for copy_no in range(1, factor):
        new_qa = []
        for j, qa in enumerate(sample.qa):
            if qa.style is not QAStyle.OPEN:
                new_qa.append(qa)
                continue
            stream = rng.stream(sample.dataset, sample.id, f"para/{copy_no}/{j}")
            new = _paraphrase_qa(qa, stream, rewriter)
            mc_stream = rng.stream(sample.dataset, sample.id, f"mc/{copy_no}/{j}")
            if mc_stream.random() < mc_fraction:
                try:
                    new = to_multiple_choice(new, pool, mc_stream)
                except PoolTooSmall:
                    pass  # not enough distinct answers nearby; stay open
            new_qa.append(new)
        out.append(Sample(f"{sample.id}{_COPY_MARK}{copy_no}", sample.dataset,
                          sample.media, tuple(new_qa), sample.task_tags))
    return out


def plan_expansion(samples: Iterable[Sample], factors: Mapping[DatasetId, int]
                   ) -> tuple[Pools, str, str]:
    """The first of augment's two passes over its input, or over one range
    of it: check every sample; the distractor pools ``expand_dataset`` draws
    from, the first id and the highest copy id the samples make ("" for none).

    Raises:
        DataforgeError: for an id not above the one before it, an expansion
            copy, or a sample with non-original QA; augment does not
            re-expand its own output.
    """
    pools: Pools = {}
    # The copy number whose id sorts last, per expanded dataset: "4" for x5,
    # "9" for x12.
    last_copy = {dataset: max(map(str, range(1, factor)))
                 for dataset, factor in factors.items() if factor > 1}
    first = top_copy = ""  # top_copy: the highest copy id so far
    previous = None
    for sample in samples:
        if previous is None:
            first = sample.id
        elif sample.id <= previous:
            raise DataforgeError(
                f"augment needs samples in increasing id order: {sample.id!r} "
                f"follows {previous!r}")
        previous = sample.id
        if _COPY_MARK in sample.id:
            raise DataforgeError(
                f"sample {sample.id} is already an expansion copy; "
                "augment refuses to re-expand its own output")
        for qa in sample.qa:
            if qa.provenance is not Provenance.ORIGINAL:
                raise DataforgeError(
                    f"sample {sample.id} carries {qa.provenance.value} QA; "
                    "augment only accepts original data")
            if qa.style is QAStyle.OPEN:
                for tag in sample.task_tags:
                    bucket = pools.setdefault((sample.dataset, tag), {})
                    if len(bucket) < _POOL_CAP:
                        bucket.setdefault(qa.answer)
        if sample.dataset in last_copy:
            top_copy = max(top_copy, f"{sample.id}{_COPY_MARK}{last_copy[sample.dataset]}")
    return pools, first, top_copy


def join_pools(runs: Iterable[Pools]) -> Pools:
    """The pools of the runs' concatenation, from each run's pools in input
    order: an answer among the first _POOL_CAP of the whole input is among
    the first _POOL_CAP of its own run."""
    pools: Pools = {}
    for run in runs:
        for key, answers in run.items():
            pools[key] = dict.fromkeys(islice({**pools.get(key, {}), **answers}, _POOL_CAP))
    return pools


def expand_dataset(samples: Iterable[Sample], factors: Mapping[DatasetId, int],
                   mc_fraction: float, rng: SeededRng, pools: Pools,
                   rewriter: Rewriter | None = None) -> Iterator[Sample]:
    """Expand each sample by its dataset's factor (1 if absent), yielding
    each original, bit-for-bit, and every copy, all in id order.

    ``samples`` are those ``plan_expansion`` checked, or a run of them whose
    first id sorts above every copy id before it, in the same increasing id
    order, and ``pools`` are those of them all: a copy draws the same
    distractors whichever run it expands in. Samples expand, and call the
    rewriter, in input order; the outputs come out at the end of each block
    of _BLOCK inputs, but for those that sort above the block's last input,
    which wait for the next.
    """
    pending: list[Sample] = []
    pool_of: dict[tuple[DatasetId, frozenset[str]], list[str]] = {}
    for count, sample in enumerate(samples, start=1):
        factor = factors.get(sample.dataset, 1)
        pool: Sequence[str] = ()
        if factor > 1:
            key = (sample.dataset, sample.task_tags)
            if key not in pool_of:
                pool_of[key] = _pool_for(*key, pools)
            pool = pool_of[key]
        pending.extend(expand_sample(sample, factor, mc_fraction, rng, pool, rewriter))
        if count % _BLOCK == 0:
            # Later inputs sort above this one and copies above their
            # original, so what sorts at or below it is final.
            pending.sort(key=_sample_id)
            cut = bisect_right(pending, sample.id, key=_sample_id)
            yield from pending[:cut]
            del pending[:cut]
    pending.sort(key=_sample_id)
    yield from pending
