"""The stages split their work across the usable CPUs.

standardize, augment, build-prompts and stats split their input into byte
ranges; ingest and gen-perception deal the records of their JSON arrays into
shares. Each must give the same output bytes, stdout, stderr and exit code
whatever the number of ranges or shares, and must leave no worker process,
no part file and no temp file behind on any path. These tests shrink the
minimum range size to one byte and set the CPU count, so a small input splits
into as many ranges or shares as the test asks for.
"""

import errno
import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dataforge import cli, ingest, stages
from dataforge.core import (DatasetId, Provenance, QAPair, Sample, decode_json,
                            sample_to_json)
from dataforge.errors import SchemaError
from dataforge.metrics import record_from_dict

from helpers import plain_sample, random_mixed_sample, replaced, surround_media
from test_ingest import (CODA_RECORD, DRIVELM_RECORD, LINGO_RECORD, MAPLM_RECORD,
                         NUINSTRUCT_RECORD, OMNI_RECORD)

STAGES = ("standardize", "augment", "build-prompts", "stats")


@pytest.fixture
def split(monkeypatch):
    """Set the number of usable CPUs, and so of ranges; count the forks."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(stages, "_MIN_RANGE", 1)
    monkeypatch.setattr(os, "fork", counted_fork)

    def use(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        forks.clear()
        return forks

    return use


def _rounds(monkeypatch, forks):
    """The forks of each round, one list entry per call of ``stages._shares``;
    ``forks`` is what ``split`` returns."""
    rounds = []
    shares = stages._shares

    def counted(jobs):
        before = len(forks)
        try:
            return shares(jobs)
        finally:
            rounds.append(len(forks) - before)

    monkeypatch.setattr(stages, "_shares", counted)
    return rounds


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _outcome(stage, manifest, out, capsys):
    """(exit code, stdout, stderr, output bytes or None) of one stage run."""
    return _run_outcome([stage, "--offline", "--in", str(manifest), "--out", str(out)],
                        out, capsys)


def _run_outcome(argv, out, capsys):
    """``_outcome`` of the CLI run ``argv``, which writes ``out``."""
    out.unlink(missing_ok=True)
    rc = cli.main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    leftovers = [p.name for p in out.parent.iterdir() if p.name.endswith(".tmp")]
    assert leftovers == []
    assert _no_children_left()
    return rc, captured.out, captured.err, out.read_bytes() if out.exists() else None


def _write(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def _mixed_lines(n, seed=0):
    rng = random.Random(seed)
    samples = [random_mixed_sample(rng, i) for i in range(n)]
    samples += [replaced(plain_sample(i, DatasetId.CODA_LM),
                         task_tags=frozenset({"hazards"}),
                         qa=(QAPair("What is ahead?", f"A cone in lane {i % 5}."),))
                for i in range(n)]
    return [sample_to_json(s) for s in sorted(samples, key=lambda s: s.id)]


def _same_for_one_two_and_three_ranges(stage, manifest, out, capsys, split):
    return _same_for_one_two_and_three_shares(
        [stage, "--offline", "--in", manifest, "--out", out], out, capsys, split)


def _same_for_one_two_and_three_shares(argv, out, capsys, split):
    outcomes = []
    for cpus in (1, 2, 3):
        forks = split(cpus)
        outcomes.append(_run_outcome(argv, out, capsys))
        if cpus == 1:
            assert forks == []
    assert outcomes[1] == outcomes[0]
    assert outcomes[2] == outcomes[0]
    return outcomes[0]


@pytest.mark.parametrize("cpus", [1, 2, 3, 5, 40])
def test_spans_tile_the_file_and_start_after_a_line_end(tmp_path, split, cpus):
    data = b"a\nbb\n\nccc\r\ndddd\n" * 3 + b"no end"
    path = tmp_path / "m.jsonl"
    path.write_bytes(data)
    split(cpus)
    with stages.Manifest(str(path)) as src:
        spans = src.spans()
    assert spans[0][0] == 0 and spans[-1][1] == len(data)
    assert all(end == start for (_, end), (start, _) in zip(spans, spans[1:]))
    assert all(data[start - 1:start] == b"\n" for start, _ in spans[1:])
    assert len(spans) == min(cpus, len(data.split(b"\n")))


def test_a_manifest_cut_short_after_it_is_opened_is_one_range(tmp_path, split):
    path = _write(tmp_path / "m.jsonl", _mixed_lines(6))
    size = path.stat().st_size
    split(3)
    with stages.Manifest(str(path)) as src:
        os.truncate(path, 0)  # every read past the start is now empty
        assert src.spans() == [(0, size)]


@pytest.mark.parametrize("stage", STAGES)
def test_stage_output_is_the_same_for_one_two_and_three_ranges(tmp_path, capsys, split,
                                                               monkeypatch, stage):
    manifest = _write(tmp_path / "m.jsonl", _mixed_lines(12))
    rc, out, err, data = _same_for_one_two_and_three_ranges(
        stage, manifest, tmp_path / "out" / "o.jsonl", capsys, split)
    assert (rc, err) == (0, "")
    assert out.startswith("wrote" if stage != "stats" else "samples: 24\n")
    rounds = _rounds(monkeypatch, split(3))
    _outcome(stage, manifest, tmp_path / "out" / "o.jsonl", capsys)
    assert rounds == ([2, 2] if stage == "augment" else [2])  # augment: plan, expand


@pytest.mark.parametrize("stage", ["standardize", "build-prompts", "stats"])
def test_a_blank_line_in_a_later_range_is_named_by_its_line_in_the_file(tmp_path, capsys,
                                                                        split, stage):
    lines = _mixed_lines(6)
    lines[9] = ""
    manifest = _write(tmp_path / "m.jsonl", lines)
    rc, out, err, data = _same_for_one_two_and_three_ranges(
        stage, manifest, tmp_path / "o.jsonl", capsys, split)
    assert (rc, out, err, data) == (1, "", "error: blank manifest line (line 10)\n", None)


def test_the_first_fault_in_file_order_wins(tmp_path, capsys, split):
    lines = _mixed_lines(9)
    lines[8] = "{"  # range 2 of 3 starts about line 7
    lines[14] = ""
    manifest = _write(tmp_path / "m.jsonl", lines)
    for stage in STAGES:
        rc, out, err, _ = _same_for_one_two_and_three_ranges(
            stage, manifest, tmp_path / "o.jsonl", capsys, split)
        assert (rc, out) == (1, "")
        assert err == ("error: invalid JSON: Expecting property name enclosed in "
                       "double quotes (line 9)\n")


def test_a_decode_fault_anywhere_beats_standardize_refusals(tmp_path, capsys, split):
    refused = Sample("a/0", DatasetId.NUINSTRUCT, surround_media(1600, 900),
                     (QAPair("Where is it?", "At <car>[c9, 1, 2, 3, 4]."),),
                     frozenset({"perception"}))
    lines = [sample_to_json(refused)] + _mixed_lines(6)[1:]
    manifest = _write(tmp_path / "m.jsonl", lines)
    rc, _, err, data = _same_for_one_two_and_three_ranges(
        "standardize", manifest, tmp_path / "o.jsonl", capsys, split)
    assert (rc, data) == (1, None)
    assert err.splitlines()[-1] == "standardize failed on 1 of 12 samples"
    _write(manifest, lines[:-1] + ["[]"])
    rc, _, err, data = _same_for_one_two_and_three_ranges(
        "standardize", manifest, tmp_path / "o.jsonl", capsys, split)
    assert (rc, err, data) == (1, "error: sample must be an object (at sample, line 12)\n",
                               None)
    # A text that cannot be written as UTF-8 is reported after both.
    unwritable = lines[3].replace("What is ahead?", "What is \\ud800?")
    assert unwritable != lines[3]
    _write(manifest, lines[1:3] + [unwritable] + lines[4:])
    rc, _, err, data = _same_for_one_two_and_three_ranges(
        "standardize", manifest, tmp_path / "o.jsonl", capsys, split)
    assert (rc, data) == (1, None)
    assert err.startswith("error: text cannot be written as UTF-8")
    _write(manifest, lines[1:3] + [unwritable] + lines[4:-1] + ["[]"])
    rc, _, err, data = _same_for_one_two_and_three_ranges(
        "standardize", manifest, tmp_path / "o.jsonl", capsys, split)
    assert err == "error: sample must be an object (at sample, line 11)\n"


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failed_stage_removes_only_the_directories_it_made(tmp_path, capsys, split, cpus):
    # A refused sample (standardize) and a line that does not decode (every
    # stage) each fail after the output was opened; --out's missing parent
    # directories go with it, deepest first, but one that was there stays.
    refused = Sample("a/0", DatasetId.NUINSTRUCT, surround_media(1600, 900),
                     (QAPair("Where is it?", "At <car>[c9, 1, 2, 3, 4]."),),
                     frozenset({"perception"}))
    lines = _mixed_lines(6)
    refusing = _write(tmp_path / "refused.jsonl", [sample_to_json(refused)] + lines[1:])
    lines[8] = "{"
    broken = _write(tmp_path / "broken.jsonl", lines)
    (tmp_path / "kept").mkdir()
    split(cpus)
    runs = [("standardize", refusing)] + [(stage, broken) for stage in STAGES]
    for stage, manifest in runs:
        for out in ("new/deeper/o.jsonl", "kept/new/o.jsonl", "kept/o.jsonl"):
            argv = [stage, "--offline", "--in", str(manifest), "--out", str(tmp_path / out)]
            assert cli.main(argv) == 1
            capsys.readouterr()
            assert sorted(p.name for p in tmp_path.iterdir()) == [
                "broken.jsonl", "kept", "refused.jsonl"]
            assert list((tmp_path / "kept").iterdir()) == []
    assert _no_children_left()


def test_ids_out_of_order_across_a_cut_are_caught(tmp_path, capsys, split):
    # Each half is sorted, and the lines are the same length, so two ranges
    # cut exactly between the halves: only the cut sees the fault.
    samples = [plain_sample(i) for i in range(20)]
    lines = [sample_to_json(s) for s in samples[10:] + samples[:10]]
    assert len(set(map(len, lines))) == 1
    manifest = _write(tmp_path / "m.jsonl", lines)
    for stage in STAGES:
        rc, out, err, data = _same_for_one_two_and_three_ranges(
            stage, manifest, tmp_path / "o.jsonl", capsys, split)
        assert (rc, out, data) == (1, "", None)
        assert err == ("error: manifest not sorted by id: 'lingoqa/000000' follows "
                       "'lingoqa/000019' (line 11)\n")


@pytest.mark.parametrize("after_p,after_bang", [("\n", "\n"), ("\r\n", "\r\n"),
                                               ("\n", "\r")])
def test_augment_cuts_only_before_an_id_above_every_copy_before_it(tmp_path, capsys,
                                                                   split, monkeypatch,
                                                                   after_p, after_bang):
    # Each sample "p" is followed by "p!", which sorts below p's copies, so a
    # cut before "p!" would put p's copies after it. Ranges start after a
    # "\n", so when "p!" ends in a bare "\r" (a line end to a text reader)
    # every range starts with a "p!" line: the first pass plans every range,
    # and the expansion runs as one range.
    text = ""
    for i in range(8):
        base = replaced(plain_sample(i, DatasetId.CODA_LM), task_tags=frozenset({"hazards"}),
                        qa=(QAPair("What is ahead?", f"A cone in lane {i}."),))
        text += (sample_to_json(base) + after_p
                 + sample_to_json(replaced(base, id=base.id + "!")) + after_bang)
    manifest = tmp_path / "m.jsonl"
    manifest.write_bytes(text.encode("utf-8"))
    out = tmp_path / "o.jsonl"
    split(1)
    want = _outcome("augment", manifest, out, capsys)
    assert want[0] == 0
    expanded = 0
    for cpus in range(2, 6):
        rounds = _rounds(monkeypatch, split(cpus))
        assert _outcome("augment", manifest, out, capsys) == want
        assert rounds[0] == cpus - 1
        expanded += sum(rounds[1:])
    assert (expanded > 0) == (after_bang != "\r")


class _Recorder:
    def __init__(self):
        self.calls = []

    def __call__(self, user_text):
        self.calls.append(user_text)
        return "no markers"


def test_augment_with_a_rewriter_runs_one_range_and_calls_it_only_on_clean_input(
        tmp_path, capsys, split, monkeypatch):
    recorder = _Recorder()
    monkeypatch.setattr(cli, "_make_rewriter", lambda cfg: recorder)
    lines = _mixed_lines(6)
    manifest = _write(tmp_path / "m.jsonl", lines[:-1] + ["{"])
    forks = split(3)
    assert _outcome("augment", manifest, tmp_path / "o.jsonl", capsys)[0] == 1
    assert recorder.calls == []
    _write(manifest, lines)
    rc, _, _, data = _outcome("augment", manifest, tmp_path / "o.jsonl", capsys)
    assert rc == 0 and len(recorder.calls) > 20 and forks == []
    split(1)
    assert _outcome("augment", manifest, tmp_path / "o.jsonl", capsys)[3] == data


def test_augment_refuses_an_input_it_cannot_read_twice(tmp_path, capsys):
    read_end, write_end = os.pipe()
    os.close(write_end)
    try:
        rc = cli.main(["augment", "--offline", "--in", f"/dev/fd/{read_end}",
                       "--out", str(tmp_path / "o.jsonl")])
    finally:
        os.close(read_end)
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: augment reads its input twice, so --in must be a regular file: "
        f"/dev/fd/{read_end}\n")
    assert not (tmp_path / "o.jsonl").exists()


def _augment_faults():
    """Manifest lines by fault name: 21 samples, the fault on the last line."""
    samples = [plain_sample(i) for i in range(21)]
    copy = replaced(samples[-1], id=samples[-1].id + "#aug1")
    paraphrased = replaced(samples[-1], qa=(QAPair("Where?", "Here.",
                                                   provenance=Provenance.PARAPHRASE),))
    lines = [sample_to_json(s) for s in samples]
    return {"undecodable": lines[:-1] + ["{"],
            "copy": lines[:-1] + [sample_to_json(copy)],
            "paraphrase": lines[:-1] + [sample_to_json(paraphrased)]}


@pytest.mark.parametrize("fault", ["undecodable", "copy", "paraphrase", "order"])
def test_augment_meets_a_fault_in_a_later_range_as_one_range_does(tmp_path, capsys, split,
                                                                  monkeypatch, fault):
    # A fault only in the last range of 2, 3 or 5; "order" puts an id below
    # the one before it exactly at the last cut, which only the join sees.
    # Each stops the first pass: no expansion round runs.
    manifest, out = tmp_path / "m.jsonl", tmp_path / "o.jsonl"
    errors = {
        "undecodable": "error: invalid JSON: Expecting property name enclosed in double "
                       "quotes (line 21)\n",
        "copy": "error: sample lingoqa/000020#aug1 is already an expansion copy; augment "
                "refuses to re-expand its own output\n",
        "paraphrase": "error: sample lingoqa/000020 carries paraphrase QA; augment only "
                      "accepts original data\n"}
    for cpus in (1, 2, 3, 5):
        if fault == "order":
            lines = [sample_to_json(plain_sample(i)) for i in range(20)]
            _write(manifest, lines)
            split(cpus)
            with stages.Manifest(str(manifest)) as src:
                at = src.spans()[-1][0] // len(lines[0] + "\n") or 10  # one range: no cut
            lines[at - 1:at + 1] = lines[at:at + 1] + lines[at - 1:at]
            errors[fault] = (f"error: manifest not sorted by id: {plain_sample(at - 1).id!r} "
                             f"follows {plain_sample(at).id!r} (line {at + 1})\n")
        else:
            lines = _augment_faults()[fault]
        _write(manifest, lines)
        rounds = _rounds(monkeypatch, split(cpus))
        assert _outcome("augment", manifest, out, capsys) == (1, "", errors[fault], None)
        assert rounds == ([cpus - 1] if cpus > 1 else [])


def test_a_plan_worker_that_ends_unclean_leaves_the_output_as_one_range_makes_it(
        tmp_path, capsys, split, monkeypatch):
    manifest = _write(tmp_path / "m.jsonl", _mixed_lines(9))
    split(1)
    want = _outcome("augment", manifest, tmp_path / "o.jsonl", capsys)
    parent, plan = os.getpid(), stages.plan_expansion

    def unclean(samples, factors):
        if os.getpid() != parent:
            os._exit(1)
        return plan(samples, factors)

    monkeypatch.setattr(stages, "plan_expansion", unclean)
    rounds = _rounds(monkeypatch, split(3))
    assert _outcome("augment", manifest, tmp_path / "o.jsonl", capsys) == want
    assert rounds == [2]  # the reference plans the whole input, which expands as one run


@pytest.mark.parametrize("stage", ["standardize", "build-prompts", "stats"])
def test_a_pipe_runs_as_one_range(tmp_path, capsys, split, stage):
    manifest = _write(tmp_path / "m.jsonl", _mixed_lines(6))
    want = _outcome(stage, manifest, tmp_path / "o.jsonl", capsys)
    forks = split(3)
    read_end, write_end = os.pipe()
    os.write(write_end, manifest.read_bytes())  # 12 lines fit in the pipe
    os.close(write_end)
    try:
        got = _outcome(stage, f"/dev/fd/{read_end}", tmp_path / "o.jsonl", capsys)
    finally:
        os.close(read_end)
    assert got[0] == 0 and got[3] == want[3] and forks == []


# ------------------------------------------------------------ every path cleans up

def _in_worker(parent, action):
    """A check_budget that runs ``action`` in a range worker only."""
    budget = stages.check_budget

    def check(sample):
        if os.getpid() != parent:
            action()
        return budget(sample)

    return check


def test_a_fault_in_range_zero_stops_the_running_workers(tmp_path, capsys, split,
                                                         monkeypatch):
    lines = _mixed_lines(9)
    lines[1] = "{"
    manifest = _write(tmp_path / "m.jsonl", lines)
    monkeypatch.setattr(stages, "check_budget",
                        _in_worker(os.getpid(), lambda: time.sleep(10)))
    split(3)
    started = time.monotonic()
    rc, out, err, data = _outcome("build-prompts", manifest, tmp_path / "o.jsonl", capsys)
    assert time.monotonic() - started < 5
    assert (rc, data) == (1, None)
    assert err.endswith("(line 2)\n")


def test_a_worker_that_dies_leaves_the_output_as_one_range_makes_it(tmp_path, capsys,
                                                                   split, monkeypatch):
    manifest = _write(tmp_path / "m.jsonl", _mixed_lines(9))
    split(1)
    want = _outcome("build-prompts", manifest, tmp_path / "o.jsonl", capsys)
    monkeypatch.setattr(stages, "check_budget", _in_worker(
        os.getpid(), lambda: os.kill(os.getpid(), signal.SIGKILL)))
    forks = split(3)
    assert _outcome("build-prompts", manifest, tmp_path / "o.jsonl", capsys) == want
    assert len(forks) == 2


def test_an_interrupt_reaps_the_workers_and_removes_every_file(tmp_path, capsys, split,
                                                               monkeypatch):
    manifest = _write(tmp_path / "m.jsonl", _mixed_lines(9))
    budget = stages.check_budget

    def interrupted(sample):
        raise KeyboardInterrupt

    monkeypatch.setattr(stages, "check_budget", lambda sample: (
        interrupted(sample) if sample.id.endswith("000001") else budget(sample)))
    split(3)
    out = tmp_path / "out" / "o.jsonl"
    with pytest.raises(KeyboardInterrupt):
        cli.main(["build-prompts", "--in", str(manifest), "--out", str(out)])
    assert [p.name for p in tmp_path.iterdir()] == ["m.jsonl"]  # no file, no out/
    assert _no_children_left()


# ------------------------------------------------------------ any manifest, any fault

@st.composite
def _manifests(draw):
    """Up to 14 lines of valid samples, some turned into a fault: a blank
    line, bad JSON, a repeated id or an id out of order."""
    lines = _mixed_lines(7, seed=draw(st.integers(0, 3)))[:draw(st.integers(1, 14))]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = draw(st.sampled_from(["", "{", lines[at - 1], lines[-1]]))
    return lines


@settings(derandomize=True, deadline=None, max_examples=20,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=_manifests(), stage=st.sampled_from(STAGES))
def test_any_manifest_gives_the_same_outcome_for_one_two_and_three_ranges(
        tmp_path, capsys, split, lines, stage):
    manifest = _write(tmp_path / "m.jsonl", lines)
    _same_for_one_two_and_three_ranges(stage, manifest, tmp_path / "o.jsonl", capsys,
                                       split)


# ------------------------------------------------------------ ingest and gen-perception

# Each source record, and the key that holds its id.
_RECORDS = {
    "coda_lm": (CODA_RECORD, "id"),
    "maplm": (MAPLM_RECORD, "frame_id"),
    "lingoqa": (LINGO_RECORD, "segment_id"),
    "drivelm": (DRIVELM_RECORD, "scene_id"),
    "omnidrive": (OMNI_RECORD, "token"),
    "nuinstruct": (NUINSTRUCT_RECORD, "sample_id"),
    "generic": ({k: v for k, v in json.loads(sample_to_json(plain_sample(0))).items()}, "id"),
    "gen-perception": ({"id": "percept/0", "annotations": [{
        "camera": "FRONT_ONLY", "width": 1280, "height": 720, "uri": "img/1.jpg",
        "objects": [{"category": "car", "bbox": [100, 100, 400, 300]},
                    {"category": "pedestrian", "bbox": [500, 200, 560, 380]}]}]}, "id"),
}
ARRAY_STAGES = list(_RECORDS)


def _records(kind, n=12):
    """``n`` records of ``kind``, their ids out of order (7 is prime to n)."""
    record, key = _RECORDS[kind]
    return [dict(record, **{key: f"{kind}-{i * 7 % n:04d}"}) for i in range(n)]


def _array_argv(kind, source, out):
    if kind == "gen-perception":
        return ["gen-perception", "--seed", "3", "--in", source, "--out", out]
    return ["ingest", "--adapter", kind, "--in", source, "--out", out]


def _array_outcomes(tmp_path, capsys, split, kind, text):
    """The one outcome of ``kind`` on the source ``text`` (str or bytes) for 1,
    2 and 3 CPUs."""
    source = tmp_path / "source.json"
    source.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    out = tmp_path / "o.jsonl"
    return _same_for_one_two_and_three_shares(_array_argv(kind, source, out), out, capsys,
                                              split)


@pytest.mark.parametrize("kind", ARRAY_STAGES)
def test_every_adapter_and_gen_perception_give_the_same_output_for_any_share_count(
        tmp_path, capsys, split, monkeypatch, kind):
    rc, out, err, data = _array_outcomes(tmp_path, capsys, split, kind,
                                         json.dumps(_records(kind), indent=1))
    assert (rc, err) == (0, "")
    assert out.startswith("wrote") and data.count(b"\n") == 12
    # One share or three, the shares write the output: the stage does not run
    # its one-share reference in process.
    monkeypatch.setattr(stages, "read_samples", lambda *args: pytest.fail("ran in process"))
    for cpus in (1, 3):
        forks = split(cpus)
        assert _run_outcome(_array_argv(kind, tmp_path / "source.json", tmp_path / "o.jsonl"),
                            tmp_path / "o.jsonl", capsys)[3] == data
        assert len(forks) == cpus - 1


@pytest.mark.parametrize("kind", ARRAY_STAGES)
def test_a_bad_record_in_a_later_share_is_named_by_its_index(tmp_path, capsys, split, kind):
    records = _records(kind)
    del records[11][_RECORDS[kind][1]]  # record 11 is in share 1 of 2 and share 2 of 3
    rc, out, err, data = _array_outcomes(tmp_path, capsys, split, kind, json.dumps(records))
    assert (rc, out, data) == (1, "", None)
    assert "record 11" in err and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["coda_lm", "gen-perception"])
def test_invalid_json_late_in_the_array_beats_an_early_bad_record_in_any_share(
        tmp_path, capsys, split, kind):
    records = _records(kind)
    del records[0][_RECORDS[kind][1]]
    text = json.dumps(records)[:-1] + ",\n{]"
    rc, out, err, data = _array_outcomes(tmp_path, capsys, split, kind, text)
    assert (rc, out, data) == (1, "", None)
    assert err == ("error: invalid JSON: Expecting property name enclosed in double "
                   "quotes (line 2)\n")


@pytest.mark.parametrize("kind", ARRAY_STAGES)
def test_an_id_in_two_shares_is_a_duplicate(tmp_path, capsys, split, kind):
    records = _records(kind)
    records[1] = dict(records[1], **{_RECORDS[kind][1]: records[0][_RECORDS[kind][1]]})
    rc, out, err, data = _array_outcomes(tmp_path, capsys, split, kind, json.dumps(records))
    assert (rc, out, data) == (1, "", None)
    assert err.startswith("error: duplicate sample id ") and err.count("\n") == 1


def _config(tmp_path, sources):
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps({"sources": {k: str(v) for k, v in sources.items()}}))
    return path


def test_a_record_fault_in_the_first_source_beats_a_later_source_that_is_missing(
        tmp_path, capsys, split):
    records = _records("coda_lm")
    records[5]["image"] = "not an object"
    coda = tmp_path / "coda.json"
    coda.write_text(json.dumps(records))
    maplm = tmp_path / "maplm.json"
    maplm.write_text(json.dumps(_records("maplm")))
    out = tmp_path / "o.jsonl"
    argv = ["--config", _config(tmp_path, {"coda_lm": coda, "maplm": tmp_path / "gone.json"}),
            "ingest", "--out", out]
    rc, _, err, data = _same_for_one_two_and_three_shares(argv, out, capsys, split)
    assert (rc, data) == (1, None)
    assert err.startswith("error: image must be an object") and "record 5" in err
    # A clean first source: the missing file is the fault (exit 2); two clean
    # sources: both are written.
    coda.write_text(json.dumps(_records("coda_lm")))
    rc, _, err, data = _same_for_one_two_and_three_shares(argv, out, capsys, split)
    assert (rc, data) == (2, None) and "gone.json" in err
    argv[1] = _config(tmp_path, {"coda_lm": coda, "maplm": maplm})
    rc, stdout, err, data = _same_for_one_two_and_three_shares(argv, out, capsys, split)
    assert (rc, err) == (0, "") and "24 samples from 2 source(s)" in stdout


def test_a_source_that_is_not_utf8_is_reported_after_the_sources_before_it(
        tmp_path, capsys, split):
    coda = tmp_path / "coda.json"
    coda.write_text(json.dumps(_records("coda_lm")))
    maplm = tmp_path / "maplm.json"
    maplm.write_bytes(json.dumps(_records("maplm")).encode() + b"\xff")
    out = tmp_path / "o.jsonl"
    argv = ["--config", _config(tmp_path, {"coda_lm": coda, "maplm": maplm}), "ingest",
            "--out", out]
    rc, _, err, data = _same_for_one_two_and_three_shares(argv, out, capsys, split)
    assert (rc, data) == (1, None)
    assert err.startswith("error: input is not valid UTF-8")
    rc, _, err, _ = _array_outcomes(tmp_path, capsys, split, "gen-perception",
                                  json.dumps(_records("gen-perception")).encode() + b"\xff")
    assert rc == 1 and err.startswith("error: input is not valid UTF-8")


@pytest.mark.parametrize("fault", ["none", "duplicate"])
def test_a_source_read_from_a_pipe_is_read_once(tmp_path, capsys, split, fault):
    # A pipe cannot be read twice, so a fault that makes the stage run again
    # in process must find the text it read.
    records = _records("coda_lm")
    if fault == "duplicate":
        records[1] = dict(records[1], id=records[0]["id"])
    source = tmp_path / "coda.json"
    source.write_text(json.dumps(records))
    out = tmp_path / "o.jsonl"
    split(1)
    want = _run_outcome(_array_argv("coda_lm", source, out), out, capsys)
    forks = split(3)
    read_end, write_end = os.pipe()
    os.write(write_end, source.read_bytes())  # 12 records fit in the pipe
    os.close(write_end)
    try:
        got = _run_outcome(_array_argv("coda_lm", f"/dev/fd/{read_end}", out), out, capsys)
    finally:
        os.close(read_end)
    assert got == want and len(forks) == 2
    assert want[0] == (0 if fault == "none" else 1)


def _checked_in_worker(parent, action):
    """An ingest._checked that runs ``action`` in a share worker only."""
    checked = ingest._checked

    def check(build, rec, idx):
        if os.getpid() != parent:
            action()
        return checked(build, rec, idx)

    return check


def test_a_share_worker_that_dies_leaves_the_output_as_one_process_makes_it(
        tmp_path, capsys, split, monkeypatch):
    text = json.dumps(_records("nuinstruct"))
    split(1)
    want = _array_outcomes(tmp_path, capsys, split, "nuinstruct", text)
    monkeypatch.setattr(ingest, "_checked", _checked_in_worker(
        os.getpid(), lambda: os.kill(os.getpid(), signal.SIGKILL)))
    forks = split(3)
    out = tmp_path / "o.jsonl"
    argv = _array_argv("nuinstruct", tmp_path / "source.json", out)
    assert _run_outcome(argv, out, capsys) == want
    assert len(forks) == 2


@pytest.mark.parametrize("kind", ["drivelm", "gen-perception"])
def test_an_interrupt_in_a_share_reaps_the_workers_and_leaves_no_file(
        tmp_path, capsys, split, monkeypatch, kind):
    source = tmp_path / "source.json"
    source.write_text(json.dumps(_records(kind)))
    parent = os.getpid()
    checked = ingest._checked

    def interrupted(build, rec, idx):
        if os.getpid() == parent and idx == 6:
            raise KeyboardInterrupt
        if os.getpid() != parent:
            time.sleep(0.05)
        return checked(build, rec, idx)

    monkeypatch.setattr(ingest, "_checked", interrupted)
    split(3)
    with pytest.raises(KeyboardInterrupt):
        cli.main([str(a) for a in _array_argv(kind, source, tmp_path / "out" / "o.jsonl")])
    assert [p.name for p in tmp_path.iterdir()] == ["source.json"]  # no file, no out/
    assert _no_children_left()


_GOOD_CODA = st.integers(0, 11).map(lambda i: json.dumps(dict(CODA_RECORD, id=f"{i:04d}")))
_CODA_ELEMENTS = st.one_of(
    _GOOD_CODA, _GOOD_CODA, _GOOD_CODA,
    st.sampled_from([
        json.dumps({k: v for k, v in CODA_RECORD.items() if k != "image"}),  # build fault
        json.dumps(dict(CODA_RECORD, qa=[{"question": "Where?",
                                          "answer": "<cone>[5000.0, 1.0]"}])),  # invalid
        "7", "{", "1" * 5000, "[" * 3000 + "]" * 3000,
    ]))


@st.composite
def _coda_sources(draw):
    """A coda_lm source of up to 9 records, some of them faults or ids
    repeated, perhaps with junk after the array."""
    items = draw(st.lists(_CODA_ELEMENTS, max_size=9))
    return "[" + ",\n".join(items) + "]" + draw(st.sampled_from(["", "", "\n", " x", ","]))


@settings(derandomize=True, deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=_coda_sources())
def test_any_source_gives_the_same_outcome_for_one_two_and_three_shares(
        tmp_path, capsys, split, text):
    _array_outcomes(tmp_path, capsys, split, "coda_lm", text)


# The one reader's precedence, at 1, 2 and 3 shares: in each source in turn,
# invalid JSON or a text that is not an array, then the first bad record, then
# the first id met twice in record order; then the smallest id in two arrays.

def test_a_source_that_is_not_an_array_is_named_in_any_share(tmp_path, capsys, split):
    text = json.dumps({"records": _records("coda_lm")})
    assert _array_outcomes(tmp_path, capsys, split, "coda_lm", text) == (
        1, "", "error: input must be a JSON array\n", None)


@pytest.mark.parametrize("kind", ["coda_lm", "gen-perception"])
def test_a_bad_record_beats_an_id_twice_in_the_same_array_in_any_share(
        tmp_path, capsys, split, kind):
    records = _records(kind)
    records[1] = dict(records[1], **{_RECORDS[kind][1]: records[0][_RECORDS[kind][1]]})
    del records[10][_RECORDS[kind][1]]
    rc, out, err, data = _array_outcomes(tmp_path, capsys, split, kind, json.dumps(records))
    assert (rc, out, data) == (1, "", None)
    assert "record 10" in err and "duplicate" not in err and err.count("\n") == 1


def test_the_first_id_met_twice_in_record_order_is_named_in_any_share(
        tmp_path, capsys, split):
    text = json.dumps([dict(CODA_RECORD, id=i) for i in "baba"])
    assert _array_outcomes(tmp_path, capsys, split, "coda_lm", text) == (
        1, "", "error: duplicate sample id 'coda_lm/b'\n", None)


def test_an_id_twice_in_the_first_source_beats_a_bad_record_in_the_second(
        tmp_path, capsys, split):
    coda = _records("coda_lm")
    coda[9] = dict(coda[9], id=coda[4]["id"])
    maplm = _records("maplm")
    maplm[0]["width"] = "wide"
    paths = {"coda_lm": tmp_path / "coda.json", "maplm": tmp_path / "maplm.json"}
    for name, records in (("coda_lm", coda), ("maplm", maplm)):
        paths[name].write_text(json.dumps(records))
    out = tmp_path / "o.jsonl"
    argv = ["--config", _config(tmp_path, paths), "ingest", "--out", out]
    assert _same_for_one_two_and_three_shares(argv, out, capsys, split) == (
        1, "", f"error: duplicate sample id 'coda_lm/{coda[4]['id']}'\n", None)


def test_an_id_in_two_arrays_names_the_smallest_such_id_in_any_share(tmp_path, split):
    # No two configured sources share an adapter, so only a caller of
    # _write_records can hand it two arrays whose ids meet.
    build = stages._ADAPTERS[DatasetId.CODA_LM]
    arrays = [(build, json.dumps([dict(CODA_RECORD, id=i) for i in ids]))
              for ids in ("dce", "dc")]
    out = tmp_path / "out" / "o.jsonl"
    for cpus in (1, 2, 3):
        split(cpus)
        with pytest.raises(SchemaError) as exc_info:
            stages._write_records(arrays, str(out))
        assert str(exc_info.value) == "duplicate sample id 'coda_lm/c'"
        assert list(tmp_path.iterdir()) == [] and _no_children_left()


# ------------------------------------------------------------ evaluate

def _box(rng):
    x, y = rng.uniform(0, 80), rng.uniform(0, 80)
    return [x, y, x + rng.uniform(1, 20), y + rng.uniform(1, 20)]


def _near(rng, box):
    """``box`` moved by up to 3 units, clamped to 0-100."""
    x0, y0, x1, y1 = (min(max(v + rng.uniform(-3, 3), 0), 100) for v in box)
    return [min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1)]


def _prediction_lines(n, seed=0):
    """``n`` records of each task, shuffled; BLEU, the absolute error and AP
    differ from record to record, so each float sum depends on its order."""
    rng = random.Random(seed)
    words = "a car truck cone left right ahead near far stops".split()
    records = []
    for i in range(n):
        gold = [_box(rng) for _ in range(rng.randint(1, 4))]
        records += [
            {"sample_id": f"c/{i}", "task": "classification",
             "predicted": rng.choice(["Yes", "no"]), "gold": "yes"},
            {"sample_id": f"b/{i}", "task": "caption",
             "predicted": " ".join(rng.choices(words, k=rng.randint(1, 8))),
             "gold": " ".join(rng.choices(words, k=rng.randint(3, 8)))},
            {"sample_id": f"r/{i}", "task": "regression",
             "predicted": rng.uniform(0, 10), "gold": rng.uniform(0, 10)},
            {"sample_id": f"d/{i}", "task": "detection",
             "predicted": [{"bbox": _near(rng, box), "confidence": rng.random()}
                           for box in gold + [_box(rng)]],
             "gold": [{"bbox": box} for box in gold]},
            {"sample_id": f"g/{i}", "task": "grounding",
             "predicted": [{"point": [rng.uniform(0, 4), 1]}], "gold": [{"point": [2, 1]}]},
        ]
    rng.shuffle(records)
    return [json.dumps(record) for record in records]


def _evaluate_outcomes(tmp_path, capsys, split, data):
    """The one outcome of evaluate on the predictions ``data`` (bytes) for 1,
    2 and 3 CPUs."""
    preds = tmp_path / "preds.jsonl"
    preds.write_bytes(data)
    out = tmp_path / "report.json"
    return _same_for_one_two_and_three_shares(
        ["evaluate", "--dataset", "generic", "--in", preds, "--out", out], out, capsys,
        split)


def _text(lines):
    return "".join(line + "\n" for line in lines).encode("utf-8")


def test_evaluate_gives_the_same_report_for_one_two_and_three_ranges(
        tmp_path, capsys, split, monkeypatch):
    from test_docs import _block

    documented = _block("## Predictions file (`evaluate`)").encode("utf-8")
    rc, out, err, data = _evaluate_outcomes(tmp_path, capsys, split, documented)
    assert (rc, err) == (0, "") and out.count("\n") == 5
    assert json.loads(data)["entries"]["mae"] == {"value": 2.0, "n_samples": 1}
    # Split, the ranges make the report: the main process scores range 0 once.
    parent, scored = os.getpid(), []
    scores = stages._scores
    monkeypatch.setattr(stages, "_scores", lambda *args: (
        scored.append(1) if os.getpid() == parent else None, scores(*args))[1])
    forks = split(3)
    argv = ["evaluate", "--dataset", "generic", "--in", tmp_path / "preds.jsonl",
            "--out", tmp_path / "report.json"]
    assert _run_outcome(argv, tmp_path / "report.json", capsys) == (rc, out, err, data)
    assert (len(forks), len(scored)) == (2, 1)


def test_evaluate_reports_a_skipped_detection_record_once(tmp_path, capsys, split):
    lines = _prediction_lines(3)
    lines.insert(9, json.dumps({"sample_id": "d/x", "task": "detection", "gold": [],
                                "predicted": [{"bbox": [1, 1, 2, 2], "confidence": 0.5}]}))
    rc, out, err, data = _evaluate_outcomes(tmp_path, capsys, split, _text(lines))
    assert (rc, err) == (0, "detection: 1 record(s) skipped (no ground truth)\n")
    assert json.loads(data)["entries"]["detection_ap"]["n_samples"] == 3


@pytest.mark.parametrize("at", [0, 11])
@pytest.mark.parametrize("blank", ["", " \t"])
def test_evaluate_names_a_blank_line_by_its_line_in_the_file(tmp_path, capsys, split,
                                                             blank, at):
    lines = _prediction_lines(3)
    lines[at] = blank
    assert _evaluate_outcomes(tmp_path, capsys, split, _text(lines)) == (
        1, "", f"error: blank line in predictions file (line {at + 1})\n", None)


def test_evaluate_reports_the_first_bad_record_in_file_order(tmp_path, capsys, split):
    lines = _prediction_lines(3)
    lines[1] = lines[1].replace('"task": "', '"task": "x')  # range 0
    lines[13] = "{"  # range 1 of 2, range 2 of 3
    rc, out, err, data = _evaluate_outcomes(tmp_path, capsys, split, _text(lines))
    assert (rc, out, data) == (1, "", None)
    assert err.startswith("error: unknown task 'x") and err.endswith("(line 2)\n")


def test_evaluate_reports_bytes_not_utf8_in_a_later_range_as_one_range_does(
        tmp_path, capsys, split):
    data = _text(_prediction_lines(3))
    at = len(data) * 3 // 4
    rc, out, err, report = _evaluate_outcomes(tmp_path, capsys, split,
                                              data[:at] + b"\xff" + data[at:])
    assert (rc, out, report) == (1, "", None)
    assert err.startswith("error: input is not valid UTF-8: 'utf-8' codec can't decode "
                          f"byte 0xff in position {at}")


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("pairs", [[(1.7e308, -1.7e308)], [(1e308, 0), (1e308, 0)]])
def test_evaluate_refuses_a_mean_error_that_overflows(tmp_path, capsys, split, pairs, cpus):
    # One absolute error past the largest float, or two finite ones whose sum
    # is: the first and last records, so two ranges hold one each.
    regression = [json.dumps({"sample_id": f"r/x{i}", "task": "regression",
                              "predicted": p, "gold": g}) for i, (p, g) in enumerate(pairs)]
    preds = _write(tmp_path / "preds.jsonl", regression[:1] + _prediction_lines(3)
                   + regression[1:])
    out = tmp_path / "report.json"
    forks = split(cpus)
    assert _run_outcome(["evaluate", "--dataset", "generic", "--in", preds, "--out", out],
                        out, capsys) == (1, "", "error: mae is inf, not a finite number\n",
                                         None)
    assert len(forks) >= cpus - 1


def test_a_refused_split_evaluate_scores_each_range_once(tmp_path, capsys, split,
                                                        monkeypatch):
    # Ten lines of one length, each an absolute error of 1e308: two ranges of
    # five records each, whose errors sum past the largest float.
    preds = _write(tmp_path / "preds.jsonl", [
        json.dumps({"sample_id": f"r/{i}", "task": "regression", "predicted": 1e308,
                    "gold": 0}) for i in range(10)])
    out = tmp_path / "report.json"
    parent, scored, score = os.getpid(), [], stages.score_record
    monkeypatch.setattr(stages, "score_record", lambda record: (
        scored.append(record.sample_id) if os.getpid() == parent else None,
        score(record))[1])
    forks = split(2)
    assert _run_outcome(["evaluate", "--dataset", "generic", "--in", preds, "--out", out],
                        out, capsys) == (1, "", "error: mae is inf, not a finite number\n",
                                         None)
    assert (len(forks), scored) == (1, [f"r/{i}" for i in range(5)])

def test_evaluate_refuses_an_empty_file(tmp_path, capsys, split):
    assert _evaluate_outcomes(tmp_path, capsys, split, b"") == (
        1, "", "error: no prediction records to evaluate\n", None)


def test_evaluate_reads_a_pipe_as_one_range(tmp_path, capsys, split):
    preds = tmp_path / "preds.jsonl"
    preds.write_bytes(_text(_prediction_lines(3)))
    out = tmp_path / "report.json"
    split(1)
    want = _run_outcome(["evaluate", "--dataset", "generic", "--in", preds, "--out", out],
                        out, capsys)
    forks = split(3)
    read_end, write_end = os.pipe()
    os.write(write_end, preds.read_bytes())  # 15 records fit in the pipe
    os.close(write_end)
    try:
        got = _run_outcome(["evaluate", "--dataset", "generic", "--in",
                            f"/dev/fd/{read_end}", "--out", out], out, capsys)
    finally:
        os.close(read_end)
    assert got == want and want[0] == 0 and forks == []


def test_an_evaluate_worker_that_dies_leaves_the_report_as_one_range_makes_it(
        tmp_path, capsys, split, monkeypatch):
    preds = tmp_path / "preds.jsonl"
    preds.write_bytes(_text(_prediction_lines(3)))
    out = tmp_path / "report.json"
    argv = ["evaluate", "--dataset", "generic", "--in", preds, "--out", out]
    split(1)
    want = _run_outcome(argv, out, capsys)
    parent, score = os.getpid(), stages.score_record

    def killed(record):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return score(record)

    monkeypatch.setattr(stages, "score_record", killed)
    forks = split(3)
    assert _run_outcome(argv, out, capsys) == want
    assert len(forks) == 2


def test_an_interrupt_in_evaluate_reaps_the_workers_and_leaves_no_file(
        tmp_path, capsys, split, monkeypatch):
    preds = tmp_path / "preds.jsonl"
    preds.write_bytes(_text(_prediction_lines(3)))
    parent, score = os.getpid(), stages.score_record

    def interrupted(record):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(0.05)
        return score(record)

    monkeypatch.setattr(stages, "score_record", interrupted)
    split(3)
    with pytest.raises(KeyboardInterrupt):
        cli.main(["evaluate", "--dataset", "generic", "--in", str(preds),
                  "--out", str(tmp_path / "out" / "report.json")])
    assert [p.name for p in tmp_path.iterdir()] == ["preds.jsonl"]  # no file, no out/
    assert _no_children_left()


_PLAIN = json.dumps({"sample_id": "r/x", "task": "regression", "predicted": 1.5, "gold": 1})


@pytest.mark.parametrize("line", [
    _PLAIN + "\r",
    _PLAIN + " ",
    "\ufeff" + _PLAIN,
    _PLAIN.replace("1.5", "1" * 5000),
    _PLAIN.replace('"gold"', '"deep": ' + "[" * 3000 + "]" * 3000 + ', "gold"'),
    _PLAIN.replace("1.5", "NaN"),
    _PLAIN + " " + _PLAIN,
    _PLAIN,
], ids=["cr", "space", "bom", "digits", "deep", "nan", "two-values", "plain"])
def test_a_predictions_line_reads_as_the_whole_line_decoder_reads_it(tmp_path, capsys,
                                                                     split, line):
    # Lines decode through the C scanner; on any fault, or a line it does not
    # read to the end, the line is decoded whole, so value and text agree.
    lines = _prediction_lines(2)
    lines[5] = line
    data = _text(lines)
    read = io.StringIO(data.decode("utf-8"), newline=None).readlines()[5]
    try:
        assert record_from_dict(decode_json(read)) == record_from_dict(json.loads(_PLAIN))
        lines[5] = _PLAIN
        want = _evaluate_outcomes(tmp_path, capsys, split, _text(lines))
    except SchemaError as exc:
        want = (1, "", f"error: {exc.at(line=6)}\n", None)
    assert _evaluate_outcomes(tmp_path, capsys, split, data) == want


@st.composite
def _predictions(draw):
    """Up to 40 records whose float scores differ, a line perhaps turned into
    a fault: a blank line, bad JSON or a record of no task."""
    lines = _prediction_lines(8, seed=draw(st.integers(0, 7)))[:draw(st.integers(1, 40))]
    for _ in range(draw(st.integers(0, 1))):
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = draw(st.sampled_from(["", "{", '{"sample_id": "x", "task": "x"}']))
    return lines


@settings(derandomize=True, deadline=None, max_examples=25,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=_predictions())
def test_any_predictions_file_gives_the_same_report_for_one_two_and_three_ranges(
        tmp_path, capsys, split, lines):
    _evaluate_outcomes(tmp_path, capsys, split, _text(lines))


# ------------------------------------------------------------ fork-layer faults

def _stage_argv(stage, tmp_path, out):
    """The argv of ``stage`` (a manifest stage, ingest or evaluate) on a small
    input written under ``tmp_path``."""
    if stage == "build-prompts":
        return [stage, "--in", _write(tmp_path / "m.jsonl", _mixed_lines(9)), "--out", out]
    if stage == "ingest":
        (tmp_path / "source.json").write_text(json.dumps(_records("nuinstruct")))
        return _array_argv("nuinstruct", tmp_path / "source.json", out)
    (tmp_path / "preds.jsonl").write_bytes(_text(_prediction_lines(3)))
    return [stage, "--dataset", "generic", "--in", tmp_path / "preds.jsonl", "--out", out]


@pytest.mark.parametrize("fault, forked", [("fork-first", 0), ("fork-later", 1), ("pipe", 0)])
@pytest.mark.parametrize("stage", ["build-prompts", "ingest", "evaluate"])
def test_a_worker_that_cannot_start_leaves_the_output_as_one_range_makes_it(
        tmp_path, capsys, split, monkeypatch, stage, fault, forked):
    out = tmp_path / "o.jsonl"
    argv = _stage_argv(stage, tmp_path, out)
    split(1)
    want = _run_outcome(argv, out, capsys)
    forks, faults, fork = split(3), [], os.fork

    def refused(err):
        faults.append(err)
        raise OSError(err, os.strerror(err))

    if fault == "pipe":
        monkeypatch.setattr(os, "pipe", lambda: refused(errno.EMFILE))
    else:
        monkeypatch.setattr(os, "fork", lambda: fork() if len(forks) < forked
                            else refused(errno.EAGAIN))
    assert _run_outcome(argv, out, capsys) == want  # no .tmp file, no child left
    assert (len(forks), len(faults)) == (forked, 1)


def test_a_worker_whose_part_file_write_fails_leaves_the_output_as_one_range_makes_it(
        tmp_path, capsys, split, monkeypatch):
    # Each forked worker may write no file past 64 bytes (EFBIG, with SIGXFSZ
    # ignored), so its part file write fails; the main process is not limited.
    # Every module is imported before the fork, so no bytecode is written under
    # the limit.
    out = tmp_path / "o.jsonl"
    argv = _stage_argv("build-prompts", tmp_path, out)
    split(1)
    want = _run_outcome(argv, out, capsys)
    forks, fork = split(2), os.fork

    def limited_fork():
        pid = fork()
        if pid == 0:
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (64, 64))
        return pid

    faults, shares = [], stages._shares

    def watched(jobs):
        try:
            return shares(jobs)
        except ChildProcessError as exc:
            faults.append(exc)
            raise

    monkeypatch.setattr(os, "fork", limited_fork)
    monkeypatch.setattr(stages, "_shares", watched)
    assert _run_outcome(argv, out, capsys) == want  # no .tmp file, no child left
    assert (len(forks), len(faults)) == (1, 1)  # the worker failed, the reference ran


def _with_undeletable_part(stage, lines, tmp_path, capsys, split, monkeypatch):
    """The outcome of ``stage`` on ``lines`` at one range, which it must
    equal at two ranges with the OS refusing (ENOSPC) to delete range 1's
    part file; what is then left in --out's directory."""
    manifest = _write(tmp_path / "m.jsonl", lines)
    out = tmp_path / "o" / "o.jsonl"
    out.parent.mkdir()
    argv = [stage, "--offline", "--in", manifest, "--out", out]
    split(1)
    want = _run_outcome(argv, out, capsys)
    out.unlink(missing_ok=True)
    split(2)
    part, refused, unlink = f".{out.name}.{os.getpid()}.1.tmp", [], Path.unlink

    def refusing(path, missing_ok=False):
        if path.name == part:
            refused.append(path.name)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        return unlink(path, missing_ok=missing_ok)

    monkeypatch.setattr(Path, "unlink", refusing)
    rc = cli.main([str(arg) for arg in argv])
    assert (rc, *capsys.readouterr(), out.read_bytes() if out.exists() else None) == want
    assert refused and _no_children_left()
    return want, sorted(p.name for p in out.parent.iterdir())


@pytest.mark.parametrize("stage", ["standardize", "augment"])
def test_a_part_file_the_os_will_not_delete_leaves_a_good_run_good(
        tmp_path, capsys, split, monkeypatch, stage):
    (rc, _, err, data), left = _with_undeletable_part(
        stage, _mixed_lines(6), tmp_path, capsys, split, monkeypatch)
    assert (rc, err) == (0, "") and data
    assert left == [f".o.jsonl.{os.getpid()}.1.tmp", "o.jsonl"]


@pytest.mark.parametrize("stage", ["standardize", "augment"])
def test_a_part_file_the_os_will_not_delete_leaves_a_failure_its_own_message(
        tmp_path, capsys, split, monkeypatch, stage):
    # The last line, in range 1 of 2, cannot be written as UTF-8: it passes
    # augment's plan round and fails range 1's expansion, so both stages run
    # the whole input again in one process with range 1's part file on disk.
    lines = _mixed_lines(6)
    unwritable = lines[-1].replace('"question": "', '"question": "\\ud800', 1)
    assert unwritable != lines[-1]
    (rc, out, err, data), left = _with_undeletable_part(
        stage, lines[:-1] + [unwritable], tmp_path, capsys, split, monkeypatch)
    assert (rc, out, data) == (1, "", None)
    assert err.startswith("error: text cannot be written as UTF-8") and err.count("\n") == 1
    assert left == [f".o.jsonl.{os.getpid()}.1.tmp"]


# A stage run in a child process that believes it has 3 CPUs, with the
# function named by argv[1] stalled in each range or share: each process that
# calls it first leaves a file named by its pid in the directory argv[2]. The
# function is looked up where the stage calls it: ingest's share reader calls
# _checked, and stages calls the others.
_STALLED = """\
import os, sys, time
from dataforge import cli, ingest, stages
stages._MIN_RANGE = 1
os.sched_getaffinity = lambda pid: set(range(3))
name, ready = sys.argv[1:3]
module = ingest if name == "_checked" else stages
run = getattr(module, name)

def stalled(*args):
    open(os.path.join(ready, str(os.getpid())), "w").close()
    time.sleep(60)
    return run(*args)

setattr(module, name, stalled)
sys.exit(cli.main(sys.argv[3:]))
"""


@pytest.mark.parametrize("stage, stalled", [("build-prompts", "check_budget"),
                                            ("ingest", "_checked"),
                                            ("evaluate", "score_record")])
def test_a_sigterm_in_mid_stage_reaps_the_workers_and_leaves_no_file(tmp_path, stage,
                                                                     stalled):
    argv = _stage_argv(stage, tmp_path, tmp_path / "out" / "o.jsonl")
    inputs = sorted(p.name for p in tmp_path.iterdir())
    ready = tmp_path / "ready"
    ready.mkdir()
    src = os.path.dirname(os.path.dirname(stages.__file__))
    proc = subprocess.Popen([sys.executable, "-B", "-c", _STALLED, stalled, str(ready),
                             *map(str, argv)], env={"PYTHONPATH": src})
    try:
        deadline = time.monotonic() + 30
        while len(os.listdir(ready)) < 3:  # the main process and two workers
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == -signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
        workers = {int(name) for name in os.listdir(ready)} - {proc.pid}
        left = [pid for pid in workers if _killed(pid)]
    assert len(workers) == 2 and left == []  # each worker was reaped
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs + ["ready"])


def _killed(pid):
    """Kill process ``pid``; whether it was there to kill."""
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True
