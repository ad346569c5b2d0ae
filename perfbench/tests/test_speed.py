"""Host-speed scaling: probes near an operation set its scale factor."""

import time

import pytest

from perfbench.speed import REFERENCE_PROBE_S, SpeedLog, probe_s


def test_probe_takes_milliseconds():
    assert 0.0 < probe_s() < 0.5


def test_timed_scales_by_the_probes_on_either_side(monkeypatch):
    log = SpeedLog()
    times = iter([2 * REFERENCE_PROBE_S, 4 * REFERENCE_PROBE_S, 4 * REFERENCE_PROBE_S])
    monkeypatch.setattr("perfbench.speed.probe_s", lambda: next(times))
    with log.timed() as first:
        time.sleep(0.01)
    with log.timed() as second:
        time.sleep(0.01)
    # Probes at half, a quarter and a quarter of the reference speed.
    assert first.factor == pytest.approx(1 / 3)
    assert first.scaled_s == pytest.approx(first.raw_s / 3)
    assert second.factor == pytest.approx(1 / 4)
    assert len(log.samples) == 3  # the probe after the first is the one before the second


def test_probe_near_takes_the_median_in_the_window_or_the_nearest():
    log = SpeedLog()
    log.samples = [(0.0, 1.0), (1.0, 2.0), (2.0, 9.0), (10.0, 4.0)]
    assert log.probe_near(0.5, 1.5, pad=0.6) == 2.0
    assert log.probe_near(0.0, 2.0, pad=0.0) == 2.0
    assert log.probe_near(6.5, 6.5, pad=1.0) == 4.0
    assert log.scale(1.0, 0.5, 1.5, pad=0.6) == pytest.approx(REFERENCE_PROBE_S / 2.0)
