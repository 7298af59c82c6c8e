"""The seven stages, each run across the usable CPUs
(``os.sched_getaffinity``) with the output bytes, messages and exit code of
one process.

Every stage splits through one driver, ``_split(jobs, join, reference)``:
``_shares`` runs the first job in process and each other one in a forked
worker (``fork`` hands it the stage's state without sending it; the CLI runs
no threads, so forking is safe), and ``join`` makes the stage's result from
theirs. If a job raises, a worker does not end clean or ``join`` raises, the
stage's one-process reference runs instead and meets the first fault.

The manifest stages standardize, augment, build-prompts and stats hand
``run`` their per-range work: a function of one range's samples and of the
function that writes a row to the output. ``Manifest`` cuts the input into
byte ranges at line ends, one per usable CPU; the reference runs the work on
the whole file. augment plans its ranges in a round of its own first. An
input not a regular file is one range, and so is augment's with a rewriter.
evaluate scores its ranges the same way and chains their scores in file
order; the reference scores the whole file. ingest and gen-perception deal
the records of their JSON arrays round-robin into shares, merged by id; the
reference reads each array in turn as one share. Any input shorter than two
_MIN_RANGE blocks is one range or share. ``cli`` imports this module when a
stage runs.
"""

from __future__ import annotations

import heapq
import io
import os
import pickle
import shutil
import signal
import stat
from collections import Counter
from contextlib import nullcontext
from functools import partial
from itertools import chain
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Sequence, TextIO

from .augment import (DEFAULT_FACTORS, MC_FRACTION, Pools, Rewriter, SeededRng,
                      expand_dataset, join_pools, plan_expansion)
from .core import DatasetId, MediaKind, Sample, atomic_writer, decode_line, sample_to_json
from .errors import DataforgeError, SchemaError
from .ingest import _ADAPTERS, Build, decode_manifest, read_samples, share_samples
from .metrics import MetricReport, record_from_dict, report_from_scores, score_record
from .perceptgen import build_grounding_sample, grounding_record_from_dict
from .promptkit import SEQUENCE_LIMIT, BudgetReport, check_budget
from .standardize import standardize_sample

# ---------------------------------------------------------------------------
# Byte ranges
# ---------------------------------------------------------------------------

# At most one range (or share of records) per this many bytes of input: a
# shorter one would cost more in the fork than it saves.
_MIN_RANGE = 1 << 19


def _width(size: int) -> int:
    """How many ranges or shares ``size`` bytes of input split into: one per
    usable CPU, but no more than whole _MIN_RANGE blocks, and at least one."""
    return max(1, min(len(os.sched_getaffinity(0)), size // _MIN_RANGE))


# A stage's work on one range: it takes the range's samples and the function
# that writes a row to its output (None for stats), and returns a summary.
Work = Callable[[Iterator[Sample], Callable[[str], Any] | None], Any]


class _Span(io.RawIOBase):
    """Bytes [start, end) of an open file, read with pread, so that the
    processes sharing the descriptor share no file offset."""

    def __init__(self, fd: int, start: int, end: int) -> None:
        self._fd, self._pos, self._end = fd, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer: Any) -> int:
        n = os.preadv(self._fd, [memoryview(buffer)[:self._end - self._pos]], self._pos)
        self._pos += n
        return n


class Manifest:
    """A manifest ``--in``, opened before any output is."""

    def __init__(self, path: str) -> None:
        self._fh: BinaryIO = open(path, "rb")
        self._fd = self._fh.fileno()
        info = os.fstat(self._fd)
        self.regular = stat.S_ISREG(info.st_mode)
        self._size = info.st_size

    def __enter__(self) -> Manifest:
        return self

    def __exit__(self, *exc: object) -> None:
        self._fh.close()

    def spans(self) -> list[tuple[int, int]]:
        """Byte ranges that split the file after a line end: ``_width`` of
        them, and one for a file that is not regular."""
        n = _width(self._size) if self.regular else 1
        cuts = [0]
        for k in range(1, n):
            cut = self._line_end(max(k * self._size // n, cuts[-1] + 1))
            if cut >= self._size:
                break
            cuts.append(cut)
        return list(zip(cuts, cuts[1:] + [self._size]))

    def _line_end(self, pos: int) -> int:
        """The first offset at or after ``pos`` that follows a "\\n", or the
        file size."""
        while pos < self._size:
            chunk = os.pread(self._fd, 1 << 16, pos - 1)
            at = chunk.find(b"\n")
            if at >= 0:
                return pos + at
            if not chunk:
                break
            pos += len(chunk)
        return self._size

    def text(self, span: tuple[int, int] | None = None) -> TextIO:
        """The text of ``span``, or of the whole file read from its start as
        ``open(path, encoding="utf-8")`` reads it."""
        if span is None:
            if self.regular:
                os.lseek(self._fd, 0, os.SEEK_SET)
            raw: BinaryIO = open(self._fd, "rb", closefd=False)
        else:
            raw = io.BufferedReader(_Span(self._fd, *span))
        return io.TextIOWrapper(raw, encoding="utf-8")

    def samples(self, span: tuple[int, int] | None = None) -> Iterator[Sample]:
        """The samples of ``span``, or of the whole file, checked by
        ``ingest.decode_manifest``."""
        return decode_manifest(self.text(span))


def _edges(samples: Iterator[Sample], edges: list[str]) -> Iterator[Sample]:
    """``samples``; ``edges`` gets the first id and, at the end, the last."""
    sample = None
    for sample in samples:
        if not edges:
            edges.append(sample.id)
        yield sample
    if sample is not None:
        edges.append(sample.id)


def run(src: Manifest, spans: list[tuple[int, int]], out: str | None,
        work: Work) -> list[Any]:
    """``work`` over each span of ``src``, its rows written to ``out`` in file
    order through ``atomic_writer``; the spans' summaries, in file order.

    The first span writes to ``out``, each other one to a part file next to
    it, appended in file order; an id across a cut not above the one before
    it fails the join. The reference is ``work`` on the whole file, written
    to ``out`` emptied. Every path out of here has deleted the part files.
    """
    parts = [None if out is None else os.path.join(
        os.path.dirname(out), f".{os.path.basename(out)}.{os.getpid()}.{k}.tmp")
        for k in range(1, len(spans))]

    def drop() -> None:
        for part in filter(None, parts):
            Path(part).unlink(missing_ok=True)

    def share(span: tuple[int, int], write: Callable[[str], Any] | None
              ) -> tuple[list[str], Any]:
        edges: list[str] = []
        return edges, work(_edges(src.samples(span), edges), write)

    def worker(span: tuple[int, int], part: str | None) -> tuple[list[str], Any]:
        with open(part, "w", encoding="utf-8", newline="\n") if part else nullcontext() as fh:
            return share(span, fh and fh.write)

    # The part files go inside the output's block: a fault then leaves no directory.
    with nullcontext() if out is None else atomic_writer(out) as fh:
        def join(results: list[tuple[list[str], Any]]) -> list[Any]:
            for (before, _), (after, _) in zip(results, results[1:]):
                if after[0] <= before[-1]:
                    raise ValueError(f"{after[0]!r} follows {before[-1]!r} across a cut")
            if fh is not None:
                fh.flush()
                for part in parts:
                    with open(part, "rb") as rows:
                        shutil.copyfileobj(rows, fh.buffer)
            return [summary for _, summary in results]

        def reference() -> list[Any]:
            drop()
            if fh is not None:
                fh.truncate(fh.seek(0))  # no row of the split is kept
            return [work(src.samples(), fh and fh.write)]

        jobs = [partial(share, span, fh and fh.write) for span in spans[:1]] + [
            partial(worker, span, part) for span, part in zip(spans[1:], parts)]
        try:
            return _split(jobs if len(jobs) > 1 else [], join, reference)
        finally:
            drop()


def _split(jobs: Sequence[Callable[[], Any]], join: Callable[[list[Any]], Any],
           reference: Callable[[], Any]) -> Any:
    """``join`` of what ``_shares`` returns for ``jobs``; ``reference()``, the
    stage's one-process run, if there are no jobs or a job, a worker or
    ``join`` fails. The reference then meets the first fault and reports it."""
    if jobs:
        try:
            return join(_shares(jobs))
        except Exception:
            pass  # reported by the reference
    return reference()


def _shares(jobs: Sequence[Callable[[], Any]]) -> list[Any]:
    """What each job returns, in order: ``jobs[0]`` runs in process and each
    other job in a forked worker, whose result comes back pickled through a
    pipe. Raises if a job raises or a worker does not end clean; every path
    out of here has killed or waited for each worker."""
    workers: list[tuple[int, int]] = []  # pid, pipe read end; not yet reaped
    try:
        for job in jobs[1:]:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:  # the worker, which ends here whatever it raises
                status = 1
                try:
                    reply = pickle.dumps(job())
                    with open(write_end, "wb") as pipe:
                        pipe.write(reply)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            workers.append((pid, read_end))
        results = [jobs[0]()]
        while workers:
            pid, read_end = workers[0]
            with open(read_end, "rb", closefd=False) as pipe:
                reply = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del workers[0]
            os.close(read_end)
            if status or not reply:
                raise ChildProcessError(f"worker {pid} ended with status {status}")
            results.append(pickle.loads(reply))
        return results
    finally:
        for pid, read_end in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_end)


def _rows(samples: Iterable[Sample]) -> list[tuple[str, str]]:
    """(id, manifest line) of each of ``samples``, sorted by id."""
    return sorted((sample.id, sample_to_json(sample) + "\n") for sample in samples)


def _write_records(arrays: list[tuple[Build, str]], out: str) -> int:
    """Write the samples of ``arrays`` (JSON texts, each with its build
    function) to the manifest ``out``; the count. The main process builds
    the first share and a worker each other one; a fault, a dead worker or
    an id met twice makes ``ingest.read_samples`` build them again as one
    share, which names the first fault, and the join then names the smallest
    id in two arrays."""
    n = _width(sum(len(text) for _, text in arrays))

    def join(shares: list[list[tuple[str, str]]]) -> int:
        count, last = 0, None
        with atomic_writer(out) as fh:
            for sample_id, line in heapq.merge(*shares):
                if sample_id == last:
                    raise SchemaError(f"duplicate sample id {sample_id!r}")
                fh.write(line)
                count, last = count + 1, sample_id
        return count

    return _split([partial(_rows, share_samples(arrays, k, n)) for k in range(n)], join,
                  lambda: join([_rows(read_samples(arrays))]))


def ingest(sources: Sequence[tuple[DatasetId, Path]], out: str) -> int:
    """Parse each source file with its adapter into the manifest ``out``;
    the sample count. Each file is read once (a pipe cannot be read twice);
    a fault in a source read before one that cannot be read comes first."""
    arrays: list[tuple[Build, str]] = []
    for dataset, path in sources:
        try:
            arrays.append((_ADAPTERS[dataset], path.read_text(encoding="utf-8")))
        except (OSError, UnicodeDecodeError):
            read_samples(arrays)
            raise
    return _write_records(arrays, out)


def gen_perception(infile: str, out: str, seed: int) -> int:
    """Write a grounding sample per detection record of ``infile`` to the
    manifest ``out``; the count. Each draws from its own seeded stream."""
    rng = SeededRng(seed)

    def build(rec: dict[str, Any]) -> Sample:
        sample_id, spec, anns = grounding_record_from_dict(rec)
        return build_grounding_sample(sample_id, anns, spec,
                                      rng.stream("perceptgen", sample_id, "grounding"))

    return _write_records([(build, Path(infile).read_text(encoding="utf-8"))], out)


# ---------------------------------------------------------------------------
# The stages
# ---------------------------------------------------------------------------

class Refused(Exception):
    """Standardize refused samples; no output is written."""

    def __init__(self, failures: list[str], samples: int) -> None:
        super().__init__(failures, samples)
        self.failures, self.samples = failures, samples


def _standardize_rows(samples: Iterator[Sample], write: Callable[[str], Any]) -> int:
    """Write each sample standardized; the count read. A line that cannot be
    written stops the writing but not the reading, so a later fault in the
    input, then a refused sample, still comes first."""
    failures: list[str] = []
    unwritable: UnicodeEncodeError | None = None
    count = 0
    for count, sample in enumerate(samples, start=1):
        try:
            line = sample_to_json(standardize_sample(sample)) + "\n"
        except DataforgeError as exc:
            failures.append(str(exc))
            continue
        if unwritable is None:
            try:
                write(line)
            except UnicodeEncodeError as exc:
                unwritable = exc
    if failures:
        raise Refused(failures, count)
    if unwritable is not None:
        raise unwritable
    return count


def standardize(infile: str, out: str) -> int:
    """Standardize the manifest ``infile`` into ``out``; the sample count.

    Raises:
        Refused: with every sample standardize refuses, if any.
    """
    with Manifest(infile) as src:
        return sum(run(src, src.spans(), out, _standardize_rows))


def augment(infile: str, out: str, rng: SeededRng, rewriter: Rewriter | None
            ) -> tuple[int, int]:
    """Expand the manifest ``infile`` into ``out`` by the shipped recipe;
    (samples read, samples written).

    Both passes split; the first (``plan_expansion``) checks every sample
    before any output or rewriter call. A run of the second starts at each
    range whose first id sorts above every copy id before it. A stateful
    rewriter is called in input order, so with one the input is one range.
    """
    with Manifest(infile) as src:
        if not src.regular:
            raise OSError(f"augment reads its input twice, so --in must be a regular "
                          f"file: {infile}")
        spans = src.spans() if rewriter is None else []

        def plan(span: tuple[int, int]) -> tuple[list[str], Pools, str]:
            edges: list[str] = []
            return (edges, *plan_expansion(_edges(src.samples(span), edges), DEFAULT_FACTORS))

        def join(plans: list[tuple[list[str], Pools, str]]) -> tuple[Pools, list[Any]]:
            starts: list[int] = []
            last = top = ""
            for (start, _), (edges, _, top_copy) in zip(spans, plans):
                if starts and edges[0] <= last:
                    raise ValueError(f"{edges[0]!r} follows {last!r} across a cut")
                if not starts or edges[0] > top:
                    starts.append(start)
                last, top = edges[-1], max(top, top_copy)
            runs = list(zip(starts, starts[1:] + [spans[-1][1]]))
            return join_pools(pools for _, pools, _ in plans), runs

        def reference() -> tuple[Pools, list[Any]]:
            return plan_expansion(src.samples(), DEFAULT_FACTORS)[0], spans[:1]

        jobs = [partial(plan, span) for span in spans] if len(spans) > 1 else []
        pools, runs = _split(jobs, join, reference)

        def expand(samples: Iterator[Sample], write: Callable[[str], Any]) -> tuple[int, int]:
            read = written = 0

            def counted() -> Iterator[Sample]:
                nonlocal read
                for read, sample in enumerate(samples, start=1):
                    yield sample

            for sample in expand_dataset(counted(), DEFAULT_FACTORS, MC_FRACTION, rng,
                                         pools, rewriter):
                write(sample_to_json(sample) + "\n")
                written += 1
            return read, written

        counts = run(src, runs, out, expand)
    return sum(r for r, _ in counts), sum(w for _, w in counts)


def _prompt_row(sample_id: str, report: BudgetReport) -> str:
    """One prompts.jsonl line, with its line end: the text
    json.JSONEncoder(ensure_ascii=False) gives for the row, built as
    ``core.sample_to_json`` builds a manifest line."""
    placeholders = ", ".join(map(encode_basestring, report.placeholders))
    return (f'{{"id": {encode_basestring(sample_id)}, '
            f'"prompt": {encode_basestring(report.prompt)}, '
            f'"placeholders": [{placeholders}], "text_tokens": {report.text_tokens!r}, '
            f'"visual_tokens": {report.visual_tokens!r}, "limit": {SEQUENCE_LIMIT!r}, '
            f'"fits": {"true" if report.fits else "false"}}}\n')


def _prompt_rows(samples: Iterator[Sample], write: Callable[[str], Any]) -> tuple[int, int]:
    """Write each sample's prompt row; (prompts, over budget)."""
    prompts = over_budget = 0
    for prompts, sample in enumerate(samples, start=1):
        report = check_budget(sample)
        if not report.fits:
            over_budget += 1
        write(_prompt_row(sample.id, report))
    return prompts, over_budget


def build_prompts(infile: str, out: str) -> tuple[int, int]:
    """Write a prompt row per sample of the manifest ``infile`` to ``out``;
    (prompts, over budget)."""
    with Manifest(infile) as src:
        counts = run(src, src.spans(), out, _prompt_rows)
    return sum(p for p, _ in counts), sum(o for _, o in counts)


_IMAGES, _VIDEOS = {MediaKind.IMAGE.value}, {MediaKind.VIDEO.value}


def _modality(sample: Sample) -> str:
    kinds = {m.kind._value_ for m in sample.media}
    if kinds == _IMAGES:
        return "single_image" if len(sample.media) == 1 else "multi_image"
    if kinds == _VIDEOS:
        return "single_video" if len(sample.media) == 1 else "multi_video"
    return "mixed"


def _counts(samples: Iterator[Sample], write: None) -> tuple[int, int, dict, dict, dict, dict]:
    """(samples, QA pairs, by dataset, by modality, by provenance, by style);
    the enum sections are counted by value string (``_value_``), whose hash
    runs in C where a member's runs ``Enum.__hash__``."""
    by_dataset: dict[str, int] = {}
    by_modality: dict[str, int] = {}
    by_provenance: dict[str, int] = {}
    by_style: dict[str, int] = {}
    sample_total = qa_total = 0
    for sample in samples:
        sample_total += 1
        dataset = sample.dataset._value_
        by_dataset[dataset] = by_dataset.get(dataset, 0) + 1
        modality = _modality(sample)
        by_modality[modality] = by_modality.get(modality, 0) + 1
        for qa in sample.qa:
            qa_total += 1
            provenance, style = qa.provenance._value_, qa.style._value_
            by_provenance[provenance] = by_provenance.get(provenance, 0) + 1
            by_style[style] = by_style.get(style, 0) + 1
    return sample_total, qa_total, by_dataset, by_modality, by_provenance, by_style


def stats(infile: str) -> dict[str, Any]:
    """The stats payload of the manifest ``infile``: totals, then counts by
    dataset, modality, provenance and style, each sorted by name."""
    with Manifest(infile) as src:
        results = run(src, src.spans(), None, _counts)
    sample_total, qa_total, *sections = zip(*results)
    by_dataset, by_modality, by_provenance, by_style = (
        dict(sorted(sum(map(Counter, section), Counter()).items())) for section in sections)
    return {
        "samples": sum(sample_total),
        "qa_pairs": sum(qa_total),
        "by_dataset": by_dataset,
        "by_modality": by_modality,
        "by_provenance": by_provenance,
        "by_style": by_style,
    }


def _scores(src: Manifest, span: tuple[int, int] | None = None) -> list[tuple[str, float | None]]:
    """``metrics.score_record`` of each record of ``span`` (or of the whole
    predictions file), in file order, lines numbered from the span's start."""
    scores = []
    with src.text(span) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                raise SchemaError("blank line in predictions file", line=line_no)
            try:
                record = record_from_dict(decode_line(line))
            except SchemaError as exc:
                raise exc.at(line=line_no) from None
            scores.append(score_record(record))
    return scores


def evaluate(infile: str, dataset: DatasetId) -> MetricReport:
    """The report on the predictions file ``infile``, made once from the
    scores in file order; a fault is named by its line in the file."""
    with Manifest(infile) as src:
        spans = src.spans()
        jobs = [partial(_scores, src, span) for span in spans] if len(spans) > 1 else []
        scores = _split(jobs, chain.from_iterable, partial(_scores, src))
        return report_from_scores(scores, dataset)
