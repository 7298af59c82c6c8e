"""The tracer wraps every import binding, records nested spans, and restores
every wrapped name."""

import sys

import dataforge.cli  # noqa: F401  (loads every module the CLI uses)
from dataforge.augment import SeededRng
from dataforge.core import CameraId, DatasetId, QAPair, Sample, image_ref

from tracer import TARGETS, Tracer


def _bindings() -> dict:
    mods = {n: m for n, m in sys.modules.items()
            if n == "dataforge" or n.startswith("dataforge.")}
    snap = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    snap.update({("SeededRng", k): v for k, v in vars(SeededRng).items()})
    return snap


def _sample(i: int) -> Sample:
    return Sample(f"coda_lm/{i}", DatasetId.CODA_LM,
                  (image_ref(CameraId.FRONT_ONLY, 1280, 720, f"{i}.jpg"),),
                  (QAPair("Is the car ahead moving?", "It is parked."),))


def test_install_wraps_bindings_and_restore_puts_back_everything(tmp_path):
    before = _bindings()
    tracer = Tracer("test")
    tracer.install()
    try:
        cli, ingest = sys.modules["dataforge.cli"], sys.modules["dataforge.ingest"]
        assert cli.read_manifest is ingest.read_manifest
        assert cli.read_manifest.__wrapped__ is before[("dataforge.ingest", "read_manifest")]
        assert ingest.sample_from_json is not before[("dataforge.ingest", "sample_from_json")]
        assert SeededRng.__dict__["stream"] is not before[("SeededRng", "stream")]

        path = tmp_path / "m.jsonl"
        with tracer.span("cli.stage"):
            cli.write_manifest([_sample(1), _sample(0)], path)
            cli.read_manifest(path)
            SeededRng(3).stream("x", "y", "z")
    finally:
        tracer.restore()

    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert changed == []
    assert len(after) == len(before)

    counters = tracer.counters
    assert counters["ingest.read_manifest.calls"] == 1
    assert counters["core.sample_from_json.calls"] == 2
    assert counters["core.sample_from_dict.calls"] == 2
    assert counters["augment.SeededRng.stream.calls"] == 1
    assert counters["ingest.write_manifest.bytes"] == path.stat().st_size

    by_id = {sid: (parent, name) for sid, parent, name, _s, _e in tracer.spans}
    for parent, name in by_id.values():
        if name == "core.sample_from_dict":
            assert by_id[parent][1] == "core.sample_from_json"
        if name == "ingest.read_manifest":
            assert by_id[parent][1] == "cli.stage"
    assert by_id[0] == (-1, "cli.stage")
    assert {n for _p, n in by_id.values()} >= {"cli.stage", "ingest.write_manifest",
                                              "core.sample_to_json"}
    # self times partition the root span: nothing is counted twice or lost
    root_ns = sum(e - s for _sid, parent, _n, s, e in tracer.spans if parent == -1)
    assert sum(tracer.self_ns.values()) == root_ns


def test_every_target_exists():
    for module, attr in TARGETS:
        owner = sys.modules[module]
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner)
