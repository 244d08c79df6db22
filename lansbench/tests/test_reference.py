"""The speed probe that referred times are divided by."""

import time

import pytest

from lansbench.reference import INTERVAL_S, SpeedProbe


def test_kernel_s_averages_the_calls_inside_the_interval():
    probe = SpeedProbe()
    probe.samples = [(1.0, 0.5), (2.0, 1.0), (3.0, 2.0), (4.0, 9.0)]
    assert probe.kernel_s(1.5, 3.0) == pytest.approx(1.5)
    assert probe.kernel_s(0.0, 10.0) == pytest.approx(3.125)


def test_kernel_s_takes_the_nearest_call_for_a_short_interval():
    probe = SpeedProbe()
    probe.samples = [(1.0, 0.5), (2.0, 1.0)]
    assert probe.kernel_s(1.85, 1.9) == 1.0
    assert probe.kernel_s(1.1, 1.2) == 0.5


def test_probe_samples_while_open_and_stops():
    with SpeedProbe() as probe:
        time.sleep(6 * INTERVAL_S)
    assert not probe._thread.is_alive()
    taken = len(probe.samples)
    assert taken >= 2
    assert all(cpu > 0 for _, cpu in probe.samples)
    time.sleep(3 * INTERVAL_S)
    assert len(probe.samples) == taken
