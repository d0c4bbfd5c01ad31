"""The cached ring spectrum and the batched thermal kernel against the
dense ED oracle (each sector diagonalized densely, every bond reweighted
from its own columns)."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xxring.thermal as thermal
from xxring.eigensolver import ring_model, same_level
from xxring.experiments import verify_propositions
from xxring.hamiltonian import ModelParams
from xxring.thermal import reweight

from oracles import (
    bonds,
    build_sector_hamiltonian,
    dense_reweight,
    dense_ring,
    dense_sectors,
)

RTOL = 1e-12
PROBABILITIES = ("p00", "p01", "p10", "p11")


def _close(got, want):
    # signed O(1) averages carry an absolute floor of RTOL; probabilities are
    # positive sums and are held to RTOL relative however small they are
    return abs(got - want) <= RTOL * max(1.0, abs(want))


def _draws(rng, count):
    """(n, j, b, t) covering n = 1..8, j < 0, j = 0, b < 0 and T in [0.05, 50]."""
    cases = [(1, 0.7, -1.3, 0.4), (2, -1.1, 0.6, 0.05), (2, 0.0, -0.9, 2.0),
             (4, 1.0, 2.0 * (math.sqrt(2.0) - 1.0), 0.05), (8, -0.4, -2.5, 50.0)]
    for _ in range(count):
        n = int(rng.integers(1, 9))
        j = float(rng.choice([-1.0, 0.0, 1.0])) * float(rng.uniform(0.05, 2.0))
        b = float(rng.uniform(-3.0, 3.0))
        t = float(math.exp(rng.uniform(math.log(0.05), math.log(50.0))))
        cases.append((n, j, b, t))
    return cases


def test_views_match_reference_on_every_bond(rng):
    # the one bond state of the kernel against each bond's own dense ED columns
    for n, j, b, t in _draws(rng, 30):
        g = reweight(ring_model(n), j, b, t)
        rho = g.pair_density()
        ref = dense_reweight(n, j, b, t, None)
        assert _close(g.u, ref["u"]) and _close(g.m, ref["m"]), (n, j, b, t)
        for bond in bonds(n):
            ref = dense_reweight(n, j, b, t, bond)
            for name, got, want in zip(PROBABILITIES, g.probabilities, ref["probabilities"]):
                assert got == pytest.approx(want, rel=RTOL, abs=0), (n, j, b, t, bond, name)
            p00, p01, p10, p11 = ref["probabilities"]
            g_zz = p00 - p01 - p10 + p11
            assert _close(g.g_xx, ref["g_xx"]) and _close(g.g_zz, g_zz), (n, j, b, t, bond)
            assert _close(1.0 - 4.0 * rho.w, g_zz), (n, j, b, t, bond)


def test_single_site_has_no_bond_averages():
    obs = reweight(ring_model(1), 1.0, 0.8, 0.5)
    assert obs.m == pytest.approx(-math.tanh(0.8 / 0.5), rel=RTOL)
    assert obs.g_xx == 0.0 and obs.g_zz == 0.0
    assert np.all(obs.probabilities == 0.0)


def test_block_matches_pointwise_views(rng, monkeypatch):
    # a grid of fields and temperatures in one call, and again forced through
    # one field per kernel pass, equals the kernel at each single point
    n, j = 6, -1.3
    b_grid = list(rng.uniform(-3.0, 3.0, size=5))
    t_grid = list(np.geomspace(0.05, 50.0, 7))
    whole = reweight(ring_model(n), j, np.array(b_grid)[:, None], t_grid)
    monkeypatch.setattr(thermal, "_BLOCK_WEIGHTS", 1)
    split = reweight(ring_model(n), j, np.array(b_grid)[:, None], t_grid)
    for field in ("z_shifted", "u", "m", "g_xx", "g_zz", "probabilities"):
        assert np.allclose(getattr(whole, field), getattr(split, field), rtol=RTOL, atol=0)
    for k_b, b in enumerate(b_grid):
        for k_t, t in enumerate(t_grid):
            obs = reweight(ring_model(n), j, b, t)
            assert _close(whole.u[k_b, k_t], obs.u) and _close(whole.g_zz[k_b, k_t], obs.g_zz)
            assert _close(math.log(whole.z_shifted[k_b, k_t]), math.log(obs.z_shifted))


def _peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("run", [
    lambda points: reweight(ring_model(16), 1.0, np.linspace(0.0, 3.0, points), 0.5),
    lambda points: verify_propositions([16], samples=points // 5),
], ids=["fields", "verify"])
def test_memory_is_flat_in_the_point_count(run):
    # every point has its own (j, b) at n = 16, 4,029 classes: a pass forms
    # the energies of only the entries it reads, so 2,000 points peak as 500 do
    ring_model(16)
    assert _peak(lambda: run(2000)) <= 1.1 * _peak(lambda: run(500))


def test_kernel_rejects_bad_input():
    ring = ring_model(4)
    with pytest.raises(ValueError):
        reweight(ring, 1.0, [0.0], [-1.0])
    with pytest.raises(ValueError):
        reweight(ring, 1.0, [], [1.0])


def test_zero_temperature_rows_are_those_of_separate_calls():
    # T = 0 (and -0) mixed into a block leaves every row's bits as separate
    # calls at the positive and at the zero temperatures give them
    ring = ring_model(6)
    j, b = np.array([[1.0], [-0.7], [1.3]]), np.array([[0.4], [0.0], [-2.5]])
    t = np.array([0.0, 0.3, -0.0, 2.0, 1e-320])
    mixed = reweight(ring, j, b, t)
    for part in (t > 0, t == 0):
        alone = reweight(ring, j, b, t[part])
        for field in ("z_shifted", "u", "m", "g_xx", "g_zz", "probabilities"):
            assert np.array_equal(getattr(mixed, field)[:, part], getattr(alone, field)), field


def test_cached_eigenvalues_match_direct_diagonalization(rng):
    for n, j, b, _ in _draws(rng, 20):
        params = ModelParams(n=n, j=j, b=b)
        for sec in dense_sectors(params):
            direct = np.linalg.eigvalsh(build_sector_hamiltonian(params, sec.basis.r).entries)
            scale = max(1.0, float(np.abs(direct).max()))
            assert np.abs(sec.values - direct).max() <= 1e-12 * scale, (n, j, b)


@pytest.mark.parametrize("j,b", [(1.0, 2.0 * (math.sqrt(2.0) - 1.0)), (-1.0, 2.0 * (math.sqrt(2.0) - 1.0)),
                                 (1.0, 0.0), (0.0, 0.5)])
def test_ground_state_reduced_matches_reference(j, b):
    # the T = 0 bond state against the mean of the dense ED ground levels on each bond
    rho = reweight(ring_model(4), j, b, 0.0).pair_density()
    got = (rho.u_plus, rho.u_minus, rho.w, rho.z)
    energies = dense_ring(4).energies(j, b)
    ground = same_level(energies, energies.min(), energies.min())
    for pair in bonds(4):
        _, g_xx, p00, p01, p10, p11 = dense_ring(4).bond_columns(pair)[ground].mean(axis=0)
        want = (p00, p11, (p01 + p10) / 2.0, g_xx / 2.0)
        assert all(_close(g, w) for g, w in zip(got, want)), (j, b, pair, got, want)


@st.composite
def _broadcast_points(draw):
    """(n, j, b, t): three arrays (or scalars) of shapes that broadcast together."""
    shape = draw(st.lists(st.integers(1, 3), max_size=3))
    arrays = []
    for low, high in ((-2.0, 2.0), (-3.0, 3.0), (math.log(0.05), math.log(50.0))):
        dims = draw(st.integers(0, len(shape)))
        own = [size if draw(st.booleans()) else 1 for size in shape[len(shape) - dims:]]
        values = draw(st.lists(st.floats(low, high), min_size=math.prod(own),
                               max_size=math.prod(own)))
        arrays.append(np.array(values).reshape(own))
    j, b, log_t = arrays
    return draw(st.integers(1, 8)), j, b, np.exp(log_t)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(_broadcast_points())
def test_broadcast_block_equals_stacked_single_points(points):
    n, j, b, t = points
    ring = ring_model(n)
    shape = np.broadcast_shapes(j.shape, b.shape, t.shape)
    j_all, b_all, t_all = np.broadcast_arrays(j, b, t)
    block = reweight(ring, j, b, t)
    singles = [reweight(ring, j_all[k], b_all[k], t_all[k]) for k in np.ndindex(shape)]
    for field in ("z_shifted", "u", "m", "g_xx", "g_zz", "probabilities"):
        got = getattr(block, field)
        want = np.array([getattr(single, field) for single in singles])
        assert got.shape == shape + want.shape[1:], (field, got.shape, shape)
        # a matrix product of one row and of many may round differently,
        # so signed averages, whose exact value can be 0, are held to
        # 1e-13 of max(1, |value|); positive sums to 1e-13 relative
        scale = 0.0 if field in ("z_shifted", "probabilities") else 1.0
        tol = 1e-13 * np.maximum(scale, np.abs(want))
        assert np.all(np.abs(got.reshape(want.shape) - want) <= tol), (field, n)
