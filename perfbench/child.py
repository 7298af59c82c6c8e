"""One benchmark child: import the CLI, run a stage chain, report.

Usage: python3 perfbench/child.py SPEC.json

The parent starts this interpreter and notes ``time.monotonic()`` just
before; the child notes it again as soon as ``import dataforge.cli`` returns,
so the difference is the start-up a user pays on every CLI call. Both clocks
are CLOCK_MONOTONIC, which is shared by all processes on the machine.

SPEC holds ``stages`` (a list of [stage, argv]), ``result`` (where to write
the report), ``src`` (the source tree the import must come from) and, for a
traced chain, ``trace`` with ``run_id`` and ``spans`` (the span file).
"""

import time

import dataforge.cli

IMPORTED_AT = time.monotonic()

import json  # noqa: E402  (after the timed import on purpose)
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from calibrate import EDGE_PROBES, SETUP_PROBES, Sampler, probe  # noqa: E402


def run_chain(stages, edge, tracer=None, sampler=None):
    """Run each stage through ``dataforge.cli.main``; time it from outside.

    ``edge`` holds the host-speed probes taken just before the first stage
    (see calibrate.py); ``EDGE_PROBES`` more run after each stage. With a
    ``sampler`` the host is also probed while each stage runs, and the
    handlers' time is taken out of the stage's ``seconds``. Each stage
    reports the probes at its two edges and during it.
    """
    out = []
    for name, argv in stages:
        error = None
        rc = None
        if sampler is not None:
            sampler.start()
        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            if tracer is None:
                rc = dataforge.cli.main(argv)
            else:
                with tracer.span(f"cli.{name}"):
                    rc = dataforge.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a bad argv this way
            error = f"SystemExit({exc.code})"
        except Exception as exc:  # a stage must not crash the report
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        cpu_seconds = time.process_time() - cpu_start
        handler_s, inside = 0.0, []
        if sampler is not None:
            sampler.stop()
            handler_s, inside = sampler.window(start, end)
        before, edge = edge, [probe() for _ in range(EDGE_PROBES)]
        out.append({"stage": name, "rc": rc, "error": error,
                    "seconds": end - start - handler_s, "handler_s": handler_s,
                    "cpu_seconds": cpu_seconds, "probes_s": before + inside + edge})
    return out


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    loaded = os.path.realpath(dataforge.cli.__file__)
    if not loaded.startswith(src + os.sep):
        print(f"dataforge imported from {loaded}, not from {src}", file=sys.stderr)
        return 3
    probe()  # warm-up: first-call costs are not host speed
    setup_probes = [probe() for _ in range(SETUP_PROBES)]
    edge = setup_probes[-EDGE_PROBES:]
    report = {"imported_at": IMPORTED_AT, "setup_probes_s": setup_probes,
              "numpy": getattr(sys.modules.get("numpy"), "__version__", None)}
    trace = spec.get("trace")
    if trace:
        from tracer import Tracer

        tracer = Tracer(trace["run_id"])
        tracer.install()
        try:
            # No sampler: its handlers would land in the spans' self time.
            report["stages"] = run_chain(spec["stages"], edge, tracer=tracer)
        finally:
            tracer.restore()
        report["layers"] = tracer.summary()
        tracer.write_spans(trace["spans"])
    else:
        with Sampler() as sampler:
            report["stages"] = run_chain(spec["stages"], edge, sampler=sampler)
    report["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
