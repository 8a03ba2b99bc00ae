"""Scaling by the host-speed reference."""

import pytest

from hostspeed import REFERENCE_S, scale


def test_time_is_scaled_by_the_mean_of_the_surrounding_references():
    # the host ran at half the reference speed before the measurement and a
    # third of it after: the mean reference is 2.5x its nominal time
    before, after = (2 * REFERENCE_S, 4 * REFERENCE_S), (3 * REFERENCE_S, 4 * REFERENCE_S)
    assert scale(5.0, 2.0, before, after) == pytest.approx((2.0, 0.5))


def test_nominal_speed_leaves_times_unchanged():
    nominal = (REFERENCE_S, REFERENCE_S)
    assert scale(1.25, 0.75, nominal, nominal) == pytest.approx((1.25, 0.75))
