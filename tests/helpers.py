"""Shared fixture builders for the test suite.

Everything here takes an explicit random.Random so tests stay reproducible.
"""

from __future__ import annotations

import random
import re
import socket
import threading
from contextlib import contextmanager

from dataforge.augment import expand_dataset, plan_expansion
from dataforge.core import (
    CameraId,
    DatasetId,
    NUSCENES_CAMERAS,
    Provenance,
    QAPair,
    QAStyle,
    Sample,
    image_ref,
)
from dataforge.tokens import scan_tokens


def expand_all(samples, factors, mc_fraction, rng, rewriter=None):
    """Both of augment's passes over the list ``samples``: the expansion,
    in id order, as a list."""
    pools, _ = plan_expansion(samples, factors)
    return list(expand_dataset(samples, factors, mc_fraction, rng, pools, rewriter))


def replaced(value, **changes):
    """A copy of the frozen value ``value`` with ``changes`` to its fields;
    a name that is no field of its class is a TypeError."""
    return type(value)(**{name: getattr(value, name) for name in value.__match_args__}
                       | changes)


def object_refs(text: str):
    """The object references ``scan_tokens`` parses in ``text``; malformed
    tokens are skipped."""
    return [match.ref for match in scan_tokens(text) if match.ref is not None]


def exactly(message: str) -> str:
    """A ``pytest.raises(match=...)`` pattern that matches only ``message``."""
    return f"^{re.escape(message)}$"


@contextmanager
def raw_reply_server(reply: bytes):
    """A 127.0.0.1 server that reads each POST whole, answers it with the
    bytes ``reply`` as they are (valid HTTP or not) and closes the
    connection. Yields its URL and the list of request bodies it read."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    bodies: list[bytes] = []
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            with conn, conn.makefile("rb") as rfile:
                length = 0
                while (line := rfile.readline()) not in (b"\r\n", b""):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                bodies.append(rfile.read(length))
                conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}/", bodies
    finally:
        stop.set()
        thread.join()
        listener.close()


CATEGORIES = ["car", "truck", "pedestrian", "traffic cone", "bus", "bicycle"]


def surround_media(width: int = 1600, height: int = 900):
    return tuple(
        image_ref(cam, width, height, f"frames/{cam.value.lower()}.jpg")
        for cam in NUSCENES_CAMERAS
    )


def single_view_media(width: int = 1280, height: int = 720):
    return (image_ref(CameraId.FRONT_ONLY, width, height, "frames/front.jpg"),)


def _pixel_box(rng: random.Random, width: int, height: int):
    x1 = round(rng.uniform(0, width - 1), rng.choice([0, 1]))
    y1 = round(rng.uniform(0, height - 1), rng.choice([0, 1]))
    x2 = round(rng.uniform(x1, width), rng.choice([0, 1]))
    y2 = round(rng.uniform(y1, height), rng.choice([0, 1]))
    return x1, y1, x2, y2


def _norm_coord(rng: random.Random) -> str:
    return f"{rng.randrange(0, 100_001) / 1000:.3f}"


def random_raw_token(rng: random.Random, dataset: DatasetId,
                     width: int, height: int) -> str:
    """A token in one of the source grammars, valid for the given frame."""
    cat = rng.choice(CATEGORIES)
    kind = rng.randrange(4)
    if kind == 0:  # raw camera id + pixel box
        x1, y1, x2, y2 = _pixel_box(rng, width, height)
        raw = f"c{rng.randrange(1, 7)}" if dataset is DatasetId.NUINSTRUCT \
            else rng.choice(list(NUSCENES_CAMERAS)).value
        return f"<{cat}>[{raw}, {x1}, {y1}, {x2}, {y2}]"
    if kind == 1:  # angle-form center
        cam = rng.choice(list(NUSCENES_CAMERAS)).value
        x = round(rng.uniform(0, width), 1)
        y = round(rng.uniform(0, height), 1)
        return f"<c{rng.randrange(1, 24)}, {cam}, {x}, {y}>"
    if kind == 2:  # bare pixel center
        x = round(rng.uniform(0, width), 1)
        y = round(rng.uniform(0, height), 1)
        return f"<{cat}>[{x}, {y}]"
    # already-unified box
    cam = rng.choice(list(NUSCENES_CAMERAS)).value
    a, b = sorted(rng.randrange(0, 100_001) for _ in range(2))
    c, d = sorted(rng.randrange(0, 100_001) for _ in range(2))
    return (f"<{cat}>[{cam}, {a / 1000:.3f}, {c / 1000:.3f}, "
            f"{b / 1000:.3f}, {d / 1000:.3f}]")


def random_mixed_sample(rng: random.Random, idx: int) -> Sample:
    """A valid sample drawn from the multi-view datasets, with 1-3 QA pairs
    mixing token-bearing and plain text."""
    dataset = rng.choice([DatasetId.NUINSTRUCT, DatasetId.DRIVELM, DatasetId.OMNIDRIVE])
    width, height = 1600, 900
    media = surround_media(width, height)
    qa = []
    for _ in range(rng.randrange(1, 4)):
        if rng.random() < 0.7:
            token = random_raw_token(rng, dataset, width, height)
            question = rng.choice([
                "What is the moving status of the highlighted object?",
                "Is there any risk from the object ahead?",
                "Describe the agent and its intent.",
            ])
            answer = f"The object {token} is {rng.choice(['moving', 'parked', 'turning'])}."
        else:
            question = "How many lanes are visible?"
            answer = str(rng.randrange(1, 5))
        qa.append(QAPair(question, answer, QAStyle.OPEN, Provenance.ORIGINAL))
    return Sample(
        id=f"{dataset.value}/{idx:06d}",
        dataset=dataset,
        media=media,
        qa=tuple(qa),
        task_tags=frozenset(rng.sample(["perception", "prediction", "planning"], 2)),
    )


def late_token_sample() -> Sample:
    """A sample whose first QA holds no object token and whose later texts
    hold four faulty tokens, over two images of different sizes."""
    return Sample("generic/1", DatasetId.GENERIC, (
        image_ref(CameraId.FRONT_ONLY, 1920, 1080, "f.jpg"),
        image_ref(CameraId.CAM_BACK, 640, 480, "b.jpg")), (
        QAPair("What is ahead?", "A car."),
        QAPair("Is <x>[1, 2, 3] near <car>[CAM_BACK, 1, 2, 700, 4]?",
               "It is <bus>[10, 20, 30, 40]."),
        QAPair("Which one?", "B", QAStyle.MULTIPLE_CHOICE, options=(
            ("A", "the <cone>[c9, 1, 2]"), ("B", "<y>[FRONT_ONLY, 1.000, 2.000]")))))


def plain_sample(idx: int = 0, dataset: DatasetId = DatasetId.LINGOQA) -> Sample:
    return Sample(
        id=f"{dataset.value}/{idx:06d}",
        dataset=dataset,
        media=single_view_media(),
        qa=(QAPair("What should the driver do next?", "Slow down and yield."),),
        task_tags=frozenset({"planning"}),
    )
