"""Scaling call times by the host-speed probe."""

import pytest

from perfbench import hostspeed


def test_scale_is_wall_time_at_reference_speed():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(2.0, ref) == pytest.approx(2.0)
    # a probe twice as slow as the reference halves the scaled time
    assert hostspeed.scale(2.0, 2 * ref) == pytest.approx(1.0)


def test_probe_takes_time():
    assert hostspeed.probe() > 0.0
