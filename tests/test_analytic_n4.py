import math

import numpy as np
import pytest

from xxring.analytic_n4 import closed_forms

from oracles import reference_spectrum_n4

# frozen by a 50-digit evaluation of the hyperbolic closed forms
FIXTURE_J1_B0_BETA1 = {
    "z": 405.4831886877357376601,
    "u_bar": -1.26754646854840846172,
    "m_bar": 0.0,
    "g_zz": -0.3505080670096190808063,
    "g_xx": -0.6337732342742042308598,
}


def test_infinite_temperature_limit():
    cf = closed_forms(1.0, 0.0, 1e-9)
    assert cf.z == pytest.approx(16.0, rel=1e-8)
    assert cf.u_bar == pytest.approx(0.0, abs=1e-7)
    assert cf.m_bar == pytest.approx(0.0, abs=1e-12)
    assert cf.g_zz == pytest.approx(0.0, abs=1e-7)
    assert cf.g_xx == pytest.approx(0.0, abs=1e-7)


def test_frozen_high_precision_fixture():
    cf = closed_forms(1.0, 0.0, 1.0)
    assert cf.z == pytest.approx(FIXTURE_J1_B0_BETA1["z"], rel=1e-13)
    assert cf.u_bar == pytest.approx(FIXTURE_J1_B0_BETA1["u_bar"], rel=1e-13)
    assert cf.m_bar == pytest.approx(0.0, abs=1e-15)
    assert cf.g_zz == pytest.approx(FIXTURE_J1_B0_BETA1["g_zz"], rel=1e-13)
    assert cf.g_xx == pytest.approx(FIXTURE_J1_B0_BETA1["g_xx"], rel=1e-13)


def test_partition_equals_level_sum(rng):
    for _ in range(10):
        j, b = rng.uniform(-2, 2, size=2)
        beta = float(rng.uniform(0.05, 4.0))
        cf = closed_forms(j, b, beta)
        z_levels = np.exp(-beta * reference_spectrum_n4(j, b)).sum()
        assert cf.z == pytest.approx(float(z_levels), rel=1e-12)


def test_field_sign_flip(rng):
    # magnetization is odd in the field; everything else, and the square of
    # the magnetization, is even (the mechanism behind field-sign invariance
    # of the concurrence)
    for _ in range(5):
        j, b = rng.uniform(-2, 2, size=2)
        beta = float(rng.uniform(0.05, 5.0))
        plus = closed_forms(j, b, beta)
        minus = closed_forms(j, -b, beta)
        for field in ("z", "u_bar", "g_zz", "g_xx"):
            assert getattr(plus, field) == pytest.approx(getattr(minus, field), rel=1e-13, abs=1e-13)
        assert minus.m_bar == pytest.approx(-plus.m_bar, rel=1e-13, abs=1e-13)


def test_exchange_sign_flip(rng):
    # an even ring's spectrum is invariant under j -> -j, so z, u_bar, m_bar
    # and g_zz cannot move; only the transverse correlator flips sign
    for _ in range(5):
        j, b = rng.uniform(-2, 2, size=2)
        beta = float(rng.uniform(0.05, 5.0))
        plus = closed_forms(j, b, beta)
        minus = closed_forms(-j, b, beta)
        assert minus.z == pytest.approx(plus.z, rel=1e-13)
        assert minus.g_zz == pytest.approx(plus.g_zz, rel=1e-13, abs=1e-13)
        assert minus.m_bar == pytest.approx(plus.m_bar, rel=1e-13, abs=1e-13)
        assert minus.u_bar == pytest.approx(plus.u_bar, rel=1e-13, abs=1e-13)
        assert minus.g_xx == pytest.approx(-plus.g_xx, rel=1e-13, abs=1e-13)


def test_large_beta_is_overflow_safe():
    cf = closed_forms(1.0, 0.3, 1.0e3)
    assert cf.z == math.inf  # the raw partition sum genuinely exceeds float range
    assert cf.u_bar == pytest.approx(-math.sqrt(2.0), abs=1e-12)  # ground energy per site
    for field in ("u_bar", "m_bar", "g_zz", "g_xx"):
        assert math.isfinite(getattr(cf, field))
    assert -1.0 <= cf.g_zz <= 1.0 and -1.0 <= cf.g_xx <= 1.0


def test_partition_lower_bound(rng):
    for _ in range(10):
        j, b = rng.uniform(-3, 3, size=2)
        beta = float(rng.uniform(0.01, 50.0))
        assert closed_forms(j, b, beta).z >= 8.0


def test_invalid_arguments():
    with pytest.raises(ValueError):
        closed_forms(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        closed_forms(1.0, 0.0, -2.0)
    with pytest.raises(ValueError):
        closed_forms(math.nan, 0.0, 1.0)
