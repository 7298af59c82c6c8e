"""The manifest stages split their input into byte ranges, one per usable CPU.

standardize, augment, build-prompts and stats must give the same output
bytes, stdout, stderr and exit code whatever the number of ranges, and must
leave no worker process and no part file behind on any path. These tests
shrink the minimum range size to one byte and set the CPU count, so a small
manifest splits into as many ranges as the test asks for.
"""

import os
import random
import signal
import time
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dataforge import cli, stages
from dataforge.core import DatasetId, QAPair, Sample, sample_to_json

from helpers import plain_sample, random_mixed_sample, surround_media

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


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def _outcome(stage, manifest, out, capsys):
    """(exit code, stdout, stderr, output bytes or None) of one stage run."""
    out.unlink(missing_ok=True)
    argv = [stage, "--offline", "--in", str(manifest), "--out", str(out)]
    rc = cli.main(argv)
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
    samples += [replace(plain_sample(i, DatasetId.CODA_LM),
                        task_tags=frozenset({"hazards"}),
                        qa=(QAPair("What is ahead?", f"A cone in lane {i % 5}."),))
                for i in range(n)]
    return [sample_to_json(s) for s in sorted(samples, key=lambda s: s.id)]


def _same_for_one_two_and_three_ranges(stage, manifest, out, capsys, split):
    outcomes = []
    for cpus in (1, 2, 3):
        forks = split(cpus)
        outcomes.append(_outcome(stage, manifest, out, capsys))
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


def test_lines_before_counts_lines_as_a_text_reader_does(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_bytes(b"a\nbb\n\nccc\n")
    with stages.Manifest(str(path)) as src:
        assert src.lines_before([2, 5, 6, 10]) == [1, 2, 3, 4]
        assert src.lines_before([]) == []
    path.write_bytes(b"a\nb\rc\nd\n")  # the "\r" ends a line too
    with stages.Manifest(str(path)) as src:
        assert src.lines_before([2]) == [1]
        assert src.lines_before([2, 6]) is None


@pytest.mark.parametrize("stage", STAGES)
def test_stage_output_is_the_same_for_one_two_and_three_ranges(tmp_path, capsys, split,
                                                               stage):
    manifest = _write(tmp_path / "m.jsonl", _mixed_lines(12))
    rc, out, err, data = _same_for_one_two_and_three_ranges(
        stage, manifest, tmp_path / "out" / "o.jsonl", capsys, split)
    assert (rc, err) == (0, "")
    assert out.startswith("wrote" if stage != "stats" else "samples: 24\n")
    forks = split(3)
    _outcome(stage, manifest, tmp_path / "out" / "o.jsonl", capsys)
    assert len(forks) == 2


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
                                                                   split, after_p,
                                                                   after_bang):
    # Each sample "p" is followed by "p!", which sorts below p's copies, so a
    # cut before "p!" would put p's copies after it. A manifest holding a
    # "\r", which also ends a line, expands as one range.
    text = ""
    for i in range(8):
        base = replace(plain_sample(i, DatasetId.CODA_LM), task_tags=frozenset({"hazards"}),
                       qa=(QAPair("What is ahead?", f"A cone in lane {i}."),))
        text += (sample_to_json(base) + after_p
                 + sample_to_json(replace(base, id=base.id + "!")) + after_bang)
    manifest = tmp_path / "m.jsonl"
    manifest.write_bytes(text.encode("utf-8"))
    out = tmp_path / "o.jsonl"
    split(1)
    want = _outcome("augment", manifest, out, capsys)
    assert want[0] == 0
    forked = 0
    for cpus in range(2, 6):
        forks = split(cpus)
        assert _outcome("augment", manifest, out, capsys) == want
        forked += len(forks)
    assert (forked > 0) == (after_p == "\n" and after_bang == "\n")


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
    assert list(out.parent.iterdir()) == []
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
