"""The host-speed probe leaves the garbage collector as it found it, the
sampler probes while started and restores the SIGALRM handler, and scaling
divides out the probes' speed."""

import gc
import signal
import time

from pytest import approx

from calibrate import PROBE_REF_S, Sampler, probe, scaled


def test_probe_restores_gc_state():
    was_enabled = gc.isenabled()
    try:
        gc.enable()
        assert probe() > 0
        assert gc.isenabled()
        gc.disable()
        probe()
        assert not gc.isenabled()
    finally:
        if was_enabled:
            gc.enable()


def test_sampler_probes_only_while_started():
    previous = signal.getsignal(signal.SIGALRM)
    with Sampler() as sampler:
        sampler.start()
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            pass
        end = time.perf_counter()
        sampler.stop()
        handler_s, probes = sampler.window(start, end)
        assert len(probes) >= 2
        assert 0 < sum(probes) <= handler_s < end - start
        taken = len(sampler.samples)
        time.sleep(0.15)
        assert len(sampler.samples) == taken
    assert signal.getsignal(signal.SIGALRM) is previous


def test_scaled_divides_out_host_speed():
    assert scaled(2.0, [PROBE_REF_S] * 3) == approx(2.0)
    assert scaled(2.0, [2 * PROBE_REF_S] * 3) == approx(1.0)
    assert scaled(3.0, [PROBE_REF_S, 3 * PROBE_REF_S]) == approx(1.5)
