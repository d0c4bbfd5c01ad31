"""The single-point kernel (`reweight_point`) and the scalar X-state
concurrence (`concurrence_xstate_point`) against the block kernel
(`reweight`) and the array concurrence (`concurrence_xstate`) they stand in
for on every single-point command."""

import math

import numpy as np
import pytest

from xxring.blocks import concurrence_xstate, gibbs_concurrence, reweight
from xxring.eigensolver import ring_model
from xxring.entanglement import concurrence_xstate_point
from xxring.experiments import gibbs_concurrence_point
from xxring.thermal import PairDensity, reweight_point

CROSSING_N4 = 2.0 * (math.sqrt(2.0) - 1.0)


def _points(n: int):
    """(j, b, t) points of the n-site ring: random draws with both field
    signs, then b = 0, T = 0 and -0, the polarized point, T = 1e-320 and
    T = inf (and, at n = 4, a field on the lower crossing)."""
    rng = np.random.default_rng(3400 + n)
    points = []
    for _ in range(6):
        j = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0))
        b = float(rng.uniform(0.0, 3.0))
        t = float(math.exp(rng.uniform(math.log(0.01), math.log(20.0))))
        points += [(j, b, t), (j, -b, t), (j, b, 0.0)]
    points += [(1.0, 0.0, 0.7), (-1.3, 0.0, 0.0), (0.8, 0.4, -0.0), (1.0, 3.0, 0.25), (1.0, -3.0, 0.05),
               (0.9, 0.3, 1e-320), (1.1, -0.6, math.inf), (0.0, 0.5, 1.0)]
    if n == 4:
        points += [(1.0, CROSSING_N4, 0.0), (1.0, -CROSSING_N4, 0.0), (-1.0, CROSSING_N4, 0.3)]
    return points


def _close(got, want, atol, rtol=None):
    gap = abs(got - want)
    return gap <= atol and (rtol is None or gap <= rtol * abs(want))


@pytest.mark.parametrize("n", range(1, 17))
def test_point_kernel_matches_the_block_kernel(n):
    ring = ring_model(n)
    for j, b, t in _points(n):
        got, want = reweight_point(ring, j, b, t), reweight(ring, j, b, t)
        point = (n, j, b, t)
        if t == 0:
            # each class of the ground level weighs 1 on both routes: the same degeneracy
            assert got.z_shifted == want.z_shifted and float(got.z_shifted).is_integer(), point
        assert _close(got.z_shifted, float(want.z_shifted), math.inf, 1e-10), point
        for name in ("u", "m"):
            scale = max(1.0, abs(float(getattr(want, name))))
            assert _close(getattr(got, name) / scale, float(getattr(want, name)) / scale, 1e-12), (name, point)
        for name in ("g_xx", "g_zz"):
            assert _close(getattr(got, name), float(getattr(want, name)), 1e-12), (name, point)
        for p_got, p_want in zip(got.probabilities, want.probabilities.tolist()):
            assert _close(p_got, p_want, 1e-12, 1e-10) or p_got == p_want, point
        assert all(type(x) is float for x in (got.z_shifted, got.u, got.m, got.g_xx, got.g_zz, *got.probabilities))


@pytest.mark.parametrize("j, b, t, error, message", [
    (1.0, 0.5, math.nan, ValueError, "temperature must be a number"),
    (1.0, 0.5, -1e-300, ValueError, "temperature must be nonnegative"),
    (1.0, 0.5, -math.inf, ValueError, "temperature must be nonnegative"),
    (math.nan, 0.5, 1.0, FloatingPointError, "non-finite shifted partition sum"),
    (1.0, math.nan, 0.0, FloatingPointError, "non-finite shifted partition sum"),
])
def test_point_kernel_refuses_as_the_block_kernel(j, b, t, error, message):
    ring = ring_model(6)
    for kernel in (reweight, reweight_point):
        with pytest.raises(error, match=f"^{message}$"):
            kernel(ring, j, b, t)


def _states(rng):
    """X-form states of floats: the bond states of random Gibbs points, and
    random states near each boundary of the checks and of the clamp."""
    for n in (2, 4, 7, 10):
        for j, b, t in _points(n):
            yield reweight_point(ring_model(n), j, b, t).pair_density()
    for _ in range(200):
        u_plus, u_minus = rng.uniform(0.0, 0.5, 2) ** rng.integers(1, 40)
        w = (1.0 - u_plus - u_minus) / 2.0
        z = float(rng.choice([-1.0, 1.0]) * w * rng.uniform(0.0, 1.0) ** rng.integers(1, 4))
        yield PairDensity(float(u_plus), float(u_minus), float(w), z)
    # on the psd edge, with its clamped overshoot, and with no coherence
    yield PairDensity(0.0, 0.0, 0.5, 0.5 + 1e-10)
    yield PairDensity(1e-300, 1e-300, 0.5 - 1e-300, -0.5)
    yield PairDensity(0.25, 0.25, 0.25, 0.0)


def test_scalar_concurrence_is_the_array_concurrence_bit_for_bit():
    rng = np.random.default_rng(34)
    for rho in _states(rng):
        got, want = concurrence_xstate_point(rho), concurrence_xstate(rho)
        assert type(got) is float and got == want and math.copysign(1.0, got) == math.copysign(1.0, want), rho


@pytest.mark.parametrize("rho", [
    PairDensity(-1e-9, 0.5, 0.25, 0.0),
    PairDensity(0.5, 0.5, -1e-9, 0.0),
    PairDensity(0.0, math.nan, 0.5, 0.0),
    PairDensity(0.25, 0.25, 0.25, 0.3),
    PairDensity(0.25, 0.25, 0.25, math.nan),
    PairDensity(0.5, 0.5, 0.25, 0.0),
    PairDensity(math.inf, 0.0, 0.0, 0.0),
    # every check passes, and the concurrence 1 + 1.02e-8 lies beyond the clamp
    PairDensity(0.0, 0.0, 0.5 + 5e-9, 0.5 + 5.1e-9),
], ids=["negative_u_plus", "negative_w", "nan_population", "not_psd", "nan_coherence", "trace",
        "infinite", "beyond_clamp"])
def test_scalar_concurrence_refuses_as_the_array_concurrence(rho):
    messages = []
    for concurrence in (concurrence_xstate, concurrence_xstate_point):
        with pytest.raises(ValueError) as refused:
            concurrence(rho)
        messages.append(str(refused.value))
    assert messages[0] == messages[1]


def test_single_point_route_reports_zero_on_a_single_site_as_the_block_route():
    # a single site has no bond: both routes report 0 without reaching the state checks
    for t in (0.0, 0.5):
        assert gibbs_concurrence_point(ring_model(1), 1.0, 0.3, t)[1] == 0.0 == gibbs_concurrence(
            ring_model(1), 1.0, 0.3, t)[1]
