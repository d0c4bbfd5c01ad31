"""The Jordan-Wigner ring against the dense ED oracle, and its properties.

The package builds every level of a ring from free-fermion modes, one level
table for every bond; the oracle diagonalizes each magnetization sector
densely and reweights each bond's own columns (`dense_reweight`). Their
Gibbs blocks must agree on every bond, and the Slater ground vector must be
the ED ground vector up to a phase.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xxring.basis import embed_in_full_space
from xxring.eigensolver import GROUND_RTOL, full_spectrum, ground_state_vector, ring_model
from xxring.entanglement import n_tangle
from xxring.experiments import gibbs_concurrence
from xxring.hamiltonian import ModelParams
from xxring.thermal import ground_state_reduced, reweight

from oracles import bonds, dense_ground_states, dense_reweight, dense_ring, dense_sectors

RINGS = range(1, 13)
CROSSINGS_N4 = (2.0 * (math.sqrt(2.0) - 1.0), 2.0)
# fully polarized: every spin down, so p00 is a tiny positive sum
POLARIZED_N10 = (1.0, 3.0, 0.25)
# the number of level classes (distinct (sz, kappa)) of some rings
CLASS_COUNTS = {10: 203, 11: 486, 12: 528, 16: 4029}


def _seeded_points(n: int):
    """(j, b, t) arrays: random draws plus B = 0, T = 0.01 and, at n = 10,
    the polarized point."""
    rng = np.random.default_rng(8000 + n)
    j = rng.choice([-1.0, 1.0], size=8) * rng.uniform(0.1, 2.0, size=8)
    b = rng.uniform(-3.0, 3.0, size=8)
    t = np.exp(rng.uniform(math.log(0.01), math.log(20.0), size=8))
    b[0] = 0.0
    t[1] = 0.01
    b[2], t[2] = 0.0, 0.01
    if n == 10:
        j, b, t = (np.append(a, x) for a, x in zip((j, b, t), POLARIZED_N10))
    return j, b, t


def _close(got, want, atol, rtol=None):
    gap = np.abs(np.asarray(got) - np.asarray(want))
    ok = gap <= atol if rtol is None else (gap <= atol) & (gap <= rtol * np.abs(want))
    return bool(np.all(ok))


@pytest.mark.parametrize("n", RINGS)
def test_gibbs_blocks_match_the_ed_kernel(n):
    j, b, t = _seeded_points(n)
    got = reweight(ring_model(n), j, b, t)
    for bond in bonds(n) or [None]:
        want = dense_reweight(n, j, b, t, bond)
        for name in ("u", "m"):
            scale = np.maximum(1.0, np.abs(want[name]))
            assert _close(getattr(got, name) / scale, want[name] / scale, 1e-12), name
        assert _close(got.g_xx, want["g_xx"], 1e-12), bond
        assert _close(got.probabilities, want["probabilities"], 1e-12, 1e-10), bond
        # the two routes' level energies differ by roundoff (~1e-14), which
        # moves a weight exp(-dE/T) by ~1e-12 relative at T = 0.01
        assert _close(got.z_shifted, want["z_shifted"], np.inf, 1e-10)


@pytest.mark.parametrize("n", RINGS)
def test_sector_levels_match_the_ed_sectors(n):
    for j, b in zip(*_seeded_points(n)[:2]):
        params = ModelParams(n=n, j=float(j), b=float(b))
        ring = ring_model(n)
        levels = np.split(ring.energies(params.j, params.b), ring.sector_starts[1:])
        for level, sec in zip(levels, dense_sectors(params)):
            want = sec.eig.values
            assert np.all(np.abs(np.sort(level) - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("j", [1.0, -1.0])
@pytest.mark.parametrize("b", CROSSINGS_N4)
def test_ground_mixture_at_both_n4_crossings_matches_ed(j, b):
    spectrum = full_spectrum(ModelParams(n=4, j=j, b=b))
    mask = spectrum.ground_mask()
    assert mask.sum() == len(dense_ground_states(spectrum.params)) == 2
    energies = dense_ring(4).energies(j, b)
    e0 = energies.min()
    dense_mask = energies <= e0 + GROUND_RTOL * max(1.0, abs(e0))
    for bond in bonds(4):
        moments = dense_ring(4).bond_columns(bond)[dense_mask].mean(axis=0)
        rho = ground_state_reduced(spectrum, bond)
        assert _close([rho.u_plus, rho.w, rho.w, rho.u_minus], moments[2:], 1e-12, 1e-10)
        assert _close(2.0 * rho.z, moments[1], 1e-12)


@pytest.mark.parametrize("n", RINGS)
def test_slater_ground_vector_is_the_ed_ground_vector(n):
    checked = 0
    for j, b in zip(*_seeded_points(n)[:2]):
        params = ModelParams(n=n, j=float(j), b=float(b))
        states = dense_ground_states(params)
        spectrum = full_spectrum(params)
        if len(states) != 1:
            assert spectrum.ground_mask().sum() == len(states)
            with pytest.raises(ValueError):
                ground_state_vector(spectrum)
            continue
        sec, k = states[0]
        want = embed_in_full_space(sec.basis, sec.eig.vectors[:, k])
        got = ground_state_vector(spectrum)
        assert got.dtype == np.float64
        assert abs(abs(np.dot(got, want)) - 1.0) <= 1e-12, (n, j, b)
        if n % 2 == 0:
            assert abs(n_tangle(got) - n_tangle(want)) <= 1e-12, (n, j, b)
        checked += 1
    assert checked  # odd rings are often degenerate, but never at every seeded point


def _count_vectors(ring):
    """Each level's occupation count per +-k mode class, read from its mode
    mask: mode m sits at k = pi p / n with p = 2m (+1 for an even number of
    down spins), and k and 2 pi - k share the class min(p, 2n - p)."""
    n = ring.n
    particles = (n - ring.sz.astype(int)) // 2
    p = 2 * np.arange(n) + (particles[:, None] + 1) % 2
    folded = np.minimum(p, 2 * n - p)
    counts = np.zeros((ring.sz.size, n + 1), dtype=int)
    rows = np.repeat(np.arange(ring.sz.size), n)
    np.add.at(counts, (rows, folded.ravel()), ((ring.modes[:, None] >> np.arange(n)) & 1).ravel())
    return counts


@pytest.mark.parametrize("n", range(1, 17))
def test_level_classes_fold_the_levels_exactly(n):
    ring = ring_model(n)
    # levels with one count vector carry bit-identical kappa (and sz)
    _, first, group = np.unique(_count_vectors(ring), axis=0, return_index=True,
                                return_inverse=True)
    assert np.array_equal(ring.kappa, ring.kappa[first][group])
    assert np.array_equal(ring.sz, ring.sz[first][group])
    # a class is every level with one (sz, kappa), bit for bit
    pairs, members, sizes = np.unique(np.stack([ring.sz, ring.kappa], axis=1), axis=0,
                                      return_inverse=True, return_counts=True)
    assert np.array_equal(pairs, np.stack([ring.class_sz, ring.class_kappa], axis=1))
    table = ring.classes
    assert table.shape == (6, len(pairs))
    assert np.array_equal(table[0], sizes) and table[0].sum() == 2 ** n
    scale = np.abs(ring.levels).sum(axis=0)
    assert np.all(np.abs(table[1:].sum(axis=1) - ring.levels.sum(axis=0)) <= 1e-12 * scale)
    for column, sums in zip(ring.levels.T, table[1:]):
        want = np.bincount(members, column)
        assert np.all(np.abs(sums - want) <= 1e-12 * np.bincount(members, np.abs(column)))
    if n in CLASS_COUNTS:
        assert len(pairs) == CLASS_COUNTS[n]


@pytest.mark.parametrize("n", range(2, 17))
def test_kappa_is_exactly_particle_hole_odd(n):
    # the cosines of a whole grid sum to 0: the empty and full levels have
    # kappa 0, and on even rings the holes of a sector-N set are a
    # sector-(n - N) set with kappa exactly -kappa
    kappa, starts = ring_model(n).kappa, ring_model(n).sector_starts
    assert kappa[0] == 0.0 and kappa[-1] == 0.0
    if n % 2 == 0:
        sectors = np.split(kappa, starts[1:])
        for particles in range(n // 2):
            assert np.array_equal(sectors[particles], -sectors[n - particles][::-1])


# Properties of the Jordan-Wigner ring alone, on hypothesis draws.

_PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, database=None, derandomize=True)


@st.composite
def _points(draw):
    """(n, j, b, t): a ring size and arrays of three exchanges, fields and
    temperatures, with T in [0.01, 50]."""
    n = draw(st.integers(1, 12))
    j = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)))
    b = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3)))
    log_t = draw(st.lists(st.floats(math.log(0.01), math.log(50.0)), min_size=3, max_size=3))
    return n, j, b, np.exp(log_t)


@_PROPERTY_SETTINGS
@given(st.integers(2, 12))
def test_every_level_is_a_bond_state(n):
    kappa, _, p00, p01, p11 = ring_model(n).levels.T
    assert np.all(ring_model(n).levels[:, 2:] >= 0.0)
    assert np.all(np.abs(p00 + 2.0 * p01 + p11 - 1.0) <= 1e-12)
    # |<sigma_x sigma_x>| = kappa / (2n) = 2 |z| is bounded by p01 + p10 = 2 w
    assert np.all(np.abs(kappa / (2.0 * n)) <= 2.0 * p01 + 1e-12)


@_PROPERTY_SETTINGS
@given(_points())
def test_blocks_are_states_with_concurrence_in_unit_interval(points):
    n, j, b, t = points
    block, concurrence = gibbs_concurrence(ring_model(n), j, b, t)
    assert np.all(block.z_shifted >= 1.0)
    if n > 1:
        assert np.all(block.probabilities >= 0.0)
        assert np.all(np.abs(block.probabilities.sum(axis=-1) - 1.0) <= 1e-12)
    assert np.all((0.0 <= concurrence) & (concurrence <= 1.0))


@_PROPERTY_SETTINGS
@given(_points())
def test_field_and_even_ring_exchange_mirrors(points):
    n, j, b, t = points
    ring = ring_model(n)
    block, concurrence = gibbs_concurrence(ring, j, b, t)
    mirror, mirror_concurrence = gibbs_concurrence(ring, j, -b, t)
    assert np.all(np.abs(concurrence - mirror_concurrence) <= 1e-12)
    assert _close(mirror.m, -block.m, 1e-12 * np.maximum(1.0, np.abs(block.m)))
    assert _close(mirror.u, block.u, 1e-12 * np.maximum(1.0, np.abs(block.u)))
    if n % 2 == 0:
        flipped, flipped_concurrence = gibbs_concurrence(ring, -j, b, t)
        assert np.all(np.abs(concurrence - flipped_concurrence) <= 1e-12)
        assert _close(flipped.g_xx, -block.g_xx, 1e-12)
        assert _close(flipped.u, block.u, 1e-12 * np.maximum(1.0, np.abs(block.u)))


@_PROPERTY_SETTINGS
@given(st.integers(1, 12), st.floats(-2.0, 2.0), st.floats(-3.0, 3.0))
def test_sorted_levels_equal_the_ed_eigenvalues(n, j, b):
    got = full_spectrum(ModelParams(n=n, j=j, b=b)).eigenvalues()
    want = np.sort(np.concatenate([sec.eig.values
                                   for sec in dense_sectors(ModelParams(n=n, j=j, b=b))]))
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
