"""Tests of the host-speed probe that scales the benchmark's times.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import signal
import time

import pytest

import hostspeed
from hostspeed import KERNEL_REFERENCE_S, SpeedProbe


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        hostspeed.kernel()


def test_probe_samples_while_active_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        a = time.perf_counter()
        _busy(0.5)
        b = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.durations) >= 3
    inside = probe._between(a, b)
    assert probe.own(a, b) == pytest.approx((b - a) - sum(inside))
    assert 0 < probe.own(a, b) < b - a
    assert probe.scaled(a, b) == pytest.approx(
        probe.own(a, b) * KERNEL_REFERENCE_S / probe.speed(a, b))


def test_speed_uses_samples_near_the_interval_or_the_nearest_one():
    probe = SpeedProbe()
    probe.starts, probe.durations = [1.0, 2.0, 10.0], [0.004, 0.008, 0.1]
    assert probe.speed(1.1, 1.9) == pytest.approx(0.006)
    assert probe.own(0.5, 2.5) == pytest.approx(2.0 - 0.012)
    assert probe.speed(5.0, 5.1) == 0.008  # nothing within PAD_S: nearest start
    with pytest.raises(RuntimeError):
        SpeedProbe().speed(0.0, 1.0)
