"""The seven stages, each run across the usable CPUs
(``os.sched_getaffinity``) with the output bytes, messages and exit code of
one process.

The manifest stages standardize, augment, build-prompts and stats hand
``run`` their per-range work: a function of one range's samples and of the
function that writes a row to the output. ``Manifest`` cuts the input into
byte ranges at line ends, one per usable CPU; the main process runs the
first range and a forked worker each other one, writing its rows to a part
file next to the output, and the main process appends the parts in file
order into the one ``atomic_writer`` output. An input not a regular file
runs as one range in process, and so does augment with a rewriter, whose
breaker and call order are serial.

evaluate scores the byte ranges of its predictions file the same way, and
the main process sums the ranges' scores in file order. ingest and
gen-perception deal the records of their JSON arrays round-robin into
shares; the main process merges the shares' sorted rows by id. Any input
shorter than two _MIN_RANGE blocks runs in process. ``_shares`` is the one
fork helper: ``fork`` hands a worker the stage's state without sending it;
the CLI runs no threads, so forking is safe. ``cli`` imports this module
when a stage runs.
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
from itertools import chain, islice
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, BinaryIO, Callable, ContextManager, Iterator, Sequence, TextIO

from .augment import (DEFAULT_FACTORS, MC_FRACTION, Rewriter, SeededRng, expand_dataset,
                      plan_expansion)
from .core import (DatasetId, MediaKind, Provenance, QAStyle, Sample, assert_unique_ids,
                   atomic_writer, decode_line, sample_to_json)
from .errors import DataforgeError, SchemaError
from .ingest import (_ADAPTERS, _array_items, _checked, build_samples, decode_manifest,
                     write_manifest)
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


def _writer(path: str | None) -> ContextManager[TextIO | None]:
    return nullcontext() if path is None else atomic_writer(path)


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

    One span runs in process, on the whole file. A range that does not finish
    clean (a fault in its lines, a worker that dies) or an id across a cut
    not above the one before it makes the stage run again that way, so every
    fault is the one the one-range reader meets first in file order.
    """
    if len(spans) > 1:
        try:
            return _run_split(src, spans, out, work)
        except Exception:
            pass  # reported by the one-range run
    with _writer(out) as fh:
        return [work(src.samples(), fh and fh.write)]


def _run_split(src: Manifest, spans: list[tuple[int, int]], out: str | None,
               work: Work) -> list[Any]:
    """``run`` with the first span in process and each other one in a forked
    worker that writes its rows to a part file next to ``out``. Every path
    out of here has reaped the workers and deleted the part files."""
    parts = [None if out is None else os.path.join(
        os.path.dirname(out), f".{os.path.basename(out)}.{os.getpid()}.{k}.tmp")
        for k in range(1, len(spans))]

    def share(span: tuple[int, int], write: Callable[[str], Any] | None
              ) -> tuple[list[str], Any]:
        edges: list[str] = []
        return edges, work(_edges(src.samples(span), edges), write)

    def worker(span: tuple[int, int], part: str | None) -> tuple[list[str], Any]:
        with (nullcontext() if part is None
              else open(part, "w", encoding="utf-8", newline="\n")) as fh:
            return share(span, fh and fh.write)

    with _writer(out) as fh:  # the part files go first: a fault then leaves no directory
        try:
            results = _shares([partial(share, spans[0], fh and fh.write)]
                              + [partial(worker, span, part)
                                 for span, part in zip(spans[1:], parts)])
            for (before, _), (after, _) in zip(results, results[1:]):
                if after[0] <= before[-1]:
                    raise ValueError(f"{after[0]!r} follows {before[-1]!r} across a cut")
            if fh is not None:
                fh.flush()
                for part in parts:
                    with open(part, "rb") as rows:
                        shutil.copyfileobj(rows, fh.buffer)
            return [summary for _, summary in results]
        finally:
            for part in parts:
                if part is not None:
                    Path(part).unlink(missing_ok=True)


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


Build = Callable[[dict[str, Any]], Sample]  # one decoded record's sample


def _rows(arrays: list[tuple[Build, str]], k: int, n: int) -> list[tuple[str, str]]:
    """Share ``k`` of ``n``: (id, line) of every ``n``-th record from the
    ``k``-th, across every array, each checked as ``build_samples`` does."""
    records = ((build, rec, idx) for build, text in arrays
               for idx, rec in enumerate(_array_items(text)))
    samples = (_checked(*record) for record in islice(records, k, None, n))
    return sorted((sample.id, sample_to_json(sample) + "\n") for sample in samples)


def _samples(arrays: list[tuple[Build, str]]) -> list[Sample]:
    """The samples of ``arrays``, each array read whole by
    ``ingest.parse_source``'s checks in turn: the reference that names the
    first fault."""
    samples: list[Sample] = []
    for build, text in arrays:
        built = build_samples(text, build)
        assert_unique_ids(built)
        samples += built
    return samples


def _write_records(arrays: list[tuple[Build, str]], out: str) -> int:
    """Write the samples of ``arrays`` (JSON texts, each with its build
    function) to the manifest ``out``; the count. The main process builds
    the first share and a worker each other one; a fault, a dead worker or
    an id met twice makes ``_samples`` build them again and report it."""
    n = _width(sum(len(text) for _, text in arrays))
    try:
        shares = _shares([partial(_rows, arrays, k, n) for k in range(n)])
        count, last = 0, None
        with atomic_writer(out) as fh:
            for sample_id, line in heapq.merge(*shares):
                if sample_id == last:
                    raise ValueError(f"id {sample_id!r} twice")
                fh.write(line)
                count, last = count + 1, sample_id
        return count
    except Exception:
        pass  # raised again by the reference
    samples = _samples(arrays)
    write_manifest(samples, out)
    return len(samples)


def ingest(sources: Sequence[tuple[DatasetId, Path]], out: str) -> int:
    """Parse each source file with its adapter into the manifest ``out``;
    the sample count. Each file is read once (a pipe cannot be read twice);
    a fault in a source read before one that cannot be read comes first."""
    arrays: list[tuple[Build, str]] = []
    for dataset, path in sources:
        try:
            arrays.append((_ADAPTERS[dataset], path.read_text(encoding="utf-8")))
        except (OSError, UnicodeDecodeError):
            _samples(arrays)
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


def _first_id(src: Manifest, span: tuple[int, int]) -> str | None:
    """The id on the first line of ``span``; None if that line does not
    decode, in which case the first pass reports it."""
    try:
        return next(src.samples(span)).id
    except (DataforgeError, ValueError):  # ValueError: bytes not UTF-8
        return None


def augment(infile: str, out: str, rng: SeededRng, rewriter: Rewriter | None
            ) -> tuple[int, int]:
    """Expand the manifest ``infile`` into ``out`` by the shipped recipe;
    (samples read, samples written).

    The first pass (``plan_expansion``) reads the whole input in process and
    keeps only the ranges whose first id it allows a cut before; a rewriter
    keeps state (its breaker) and is called in input order, so with one the
    input is one range.
    """
    with Manifest(infile) as src:
        if not src.regular:
            raise OSError(f"augment reads its input twice, so --in must be a regular "
                          f"file: {infile}")
        spans = src.spans() if rewriter is None else []
        firsts = [_first_id(src, span) for span in spans[1:]]
        pools, cuts = plan_expansion(src.samples(), DEFAULT_FACTORS, set(firsts) - {None})
        runs = spans[:1]
        for span, first in zip(spans[1:], firsts):
            if first in cuts:
                runs.append(span)
            else:
                runs[-1] = (runs[-1][0], span[1])

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


def _modality(sample: Sample) -> str:
    kinds = {m.kind for m in sample.media}
    if kinds == {MediaKind.IMAGE}:
        return "single_image" if len(sample.media) == 1 else "multi_image"
    if kinds == {MediaKind.VIDEO}:
        return "single_video" if len(sample.media) == 1 else "multi_video"
    return "mixed"


def _counts(samples: Iterator[Sample], write: None) -> tuple[int, int, dict, dict, dict, dict]:
    """(samples, QA pairs, by dataset, by modality, by provenance, by style);
    the enum sections are counted by member."""
    by_dataset: dict[DatasetId, int] = {}
    by_modality: dict[str, int] = {}
    by_provenance: dict[Provenance, int] = {}
    by_style: dict[QAStyle, int] = {}
    sample_total = qa_total = 0
    for sample in samples:
        sample_total += 1
        by_dataset[sample.dataset] = by_dataset.get(sample.dataset, 0) + 1
        modality = _modality(sample)
        by_modality[modality] = by_modality.get(modality, 0) + 1
        for qa in sample.qa:
            qa_total += 1
            by_provenance[qa.provenance] = by_provenance.get(qa.provenance, 0) + 1
            by_style[qa.style] = by_style.get(qa.style, 0) + 1
    return sample_total, qa_total, by_dataset, by_modality, by_provenance, by_style


def stats(infile: str) -> dict[str, Any]:
    """The stats payload of the manifest ``infile``: totals, then counts by
    dataset, modality, provenance and style, each sorted by name."""
    with Manifest(infile) as src:
        results = run(src, src.spans(), None, _counts)
    sample_total, qa_total, *sections = zip(*results)
    by_dataset, by_modality, by_provenance, by_style = (
        sum(map(Counter, section), Counter()) for section in sections)

    def by_value(counts: Counter) -> dict[str, int]:
        return dict(sorted((member.value, n) for member, n in counts.items()))

    return {
        "samples": sum(sample_total),
        "qa_pairs": sum(qa_total),
        "by_dataset": by_value(by_dataset),
        "by_modality": dict(sorted(by_modality.items())),
        "by_provenance": by_value(by_provenance),
        "by_style": by_value(by_style),
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
    """The report on the predictions file ``infile``. The main process scores
    the first range and a forked worker each other one; a fault in any range
    or a dead worker makes the whole file run again as one range, so each
    fault is the first in file order, named by its line in the file."""
    with Manifest(infile) as src:
        spans = src.spans()
        if len(spans) > 1:
            try:
                scores = _shares([partial(_scores, src, span) for span in spans])
                return report_from_scores(chain.from_iterable(scores), dataset)
            except Exception:
                pass  # reported by the one-range run
        return report_from_scores(_scores(src), dataset)
