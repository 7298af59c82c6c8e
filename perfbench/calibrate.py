"""Host-speed sampling for the benchmark children.

The benchmark runs on shared hosts whose cores switch between a fast and a
slow state (up to 2x apart) every fraction of a second to every few
minutes, as other tenants come and go. A stage's wall time therefore mixes
the program's cost with the share of the stage the core spent slow. Each
child measures that share with ``probe``, a fixed 1-2 ms pass over the
kinds of pure-Python work the pipeline does (JSON decode and encode, regex
scans, float parsing, dict and string building):

* ``Sampler`` runs one probe every ``INTERVAL_S`` while a stage runs, from
  a SIGALRM handler, and reports the seconds its handlers took so that
  they can be taken out of the stage's wall time;
* ``EDGE_PROBES`` more probes run between stages, and ``SETUP_PROBES``
  right after ``import dataforge.cli``.

``scaled`` turns a stage's wall time into its time at reference host
speed: wall time * ``PROBE_REF_S`` / the mean of the probes taken during
the stage and at its two edges. The probe does not touch dataforge, so a
change to the program moves the scaled times by as much as it moves the
wall times; only the host's state cancels.
"""

from __future__ import annotations

import gc
import json
import re
import signal
import time

# Probe seconds that define reference speed: about one probe's time on a
# 2-core x86-64 VM with Python 3.11 while a pipeline stage runs.
PROBE_REF_S = 0.001
INTERVAL_S = 0.05
EDGE_PROBES = 3
SETUP_PROBES = 40

_TOKEN = re.compile(r"<(\w+)>\[([^\]]*)\]")
_TEXT = json.dumps([
    {"id": f"s{i:05d}",
     "views": ["CAM_FRONT", "CAM_BACK", "CAM_FRONT_LEFT"],
     "qa": [{"question": f"What is the car doing near marker {i}?",
             "answer": f"The car <car>[CAM_FRONT, {i}.5, 2.5, 300.5, 4.5] is parked."}] * 2,
     "width": 1600, "height": 900}
    for i in range(40)])


def probe() -> float:
    """Run the fixed probe work once; return its wall seconds."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        records = json.loads(_TEXT)
        totals: dict = {}
        for rec in records:
            for qa in rec["qa"]:
                for m in _TOKEN.finditer(qa["answer"]):
                    coords = m.group(2).split(",")[1:]
                    totals[m.group(1)] = (totals.get(m.group(1), 0.0)
                                          + sum(float(v) for v in coords))
                qa["words"] = " ".join(sorted(qa["question"].lower().split()))
            rec["key"] = (rec["id"], tuple(rec["views"]))
        json.dumps(records, sort_keys=True)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def scaled(seconds: float, probes: list[float]) -> float:
    """``seconds`` of wall time at reference host speed, given the probes
    taken over that time."""
    return seconds * PROBE_REF_S * len(probes) / sum(probes)


class Sampler:
    """Probes the host every ``INTERVAL_S`` of wall time while started.

    Use as a context manager, which installs the SIGALRM handler and puts
    the previous one back; ``start``/``stop`` arm and disarm the timer
    around each stage. Python runs the handler in the main thread between
    bytecodes, so each probe interrupts the stage at that moment.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # entered, left, probe s
        self._previous = None

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
        signal.signal(signal.SIGALRM, self._previous)

    def _handler(self, signum: int, frame: object) -> None:
        entered = time.perf_counter()
        seconds = probe()
        self.samples.append((entered, time.perf_counter(), seconds))

    def start(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def window(self, start: float, end: float) -> tuple[float, list[float]]:
        """(seconds spent in handlers, probe times) for handlers entered
        in ``[start, end)`` of ``time.perf_counter()``."""
        inside = [s for s in self.samples if start <= s[0] < end]
        return sum(left - entered for entered, left, _ in inside), [p for *_, p in inside]
