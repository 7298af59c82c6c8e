"""The same seed gives byte-identical inputs; another seed gives others."""

from pathlib import Path

import pytest

from workloads import GENERATORS, generate


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_is_deterministic(name, tmp_path):
    first = generate(name, 7, tmp_path / "a")
    second = generate(name, 7, tmp_path / "b")
    other = generate(name, 8, tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert first.stages == second.stages and first.expect == second.expect
    assert set(a) == set(c) and all(a[k] != c[k] for k in a if k != "pipeline.json")
    assert other.expect.keys() == first.expect.keys()
