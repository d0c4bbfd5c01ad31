"""The Jordan-Wigner ring against the dense ED oracle and the per-level
build, and its properties.

The package builds each ring's class table from the +-k count keys of its
free-fermion modes, one table for every bond; the per-level build
(`level_table`) enumerates all 2^n Fock levels, and the ED oracle
diagonalizes each magnetization sector densely and reweights each bond's own
columns (`dense_reweight`). The class table must fold the per-level build
exactly, the Gibbs blocks must agree with ED on every bond, the Slater
ground vector must be the ED ground vector up to a phase, and the `ground`
tangle in closed form must be that vector's tangle.
"""

import contextlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xxring.blocks import gibbs_concurrence, reweight
from xxring.cli import main
from xxring.eigensolver import RingModel, full_spectrum, ring_model, same_level
from xxring.hamiltonian import ModelParams

from oracles import (
    bonds,
    dense_ground_states,
    dense_reweight,
    dense_ring,
    dense_sectors,
    eigenvalues,
    embed_in_full_space,
    ground_state_vector,
    level_table,
    n_tangle,
)

RINGS = range(1, 13)
CROSSINGS_N4 = (2.0 * (math.sqrt(2.0) - 1.0), 2.0)
# fully polarized: every spin down, so p00 is a tiny positive sum
POLARIZED_N10 = (1.0, 3.0, 0.25)
# the number of level classes (distinct (sz, kappa), kappa correctly rounded) of some rings
CLASS_COUNTS = {6: 28, 9: 162, 10: 188, 11: 486, 12: 443, 16: 2901}


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
        spectrum = full_spectrum(params)
        energies, multiplicity = np.array(spectrum.class_energies()), np.array(spectrum.ring.classes[0]).astype(int)
        for sec in dense_sectors(params):
            mine = np.array(spectrum.ring.class_sz) == sec.sz
            level = np.sort(np.repeat(energies[mine], multiplicity[mine]))
            want = sec.values
            assert np.all(np.abs(level - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("j", [1.0, -1.0])
@pytest.mark.parametrize("b", CROSSINGS_N4)
def test_ground_mixture_at_both_n4_crossings_matches_ed(j, b):
    g = reweight(ring_model(4), j, b, 0.0)
    assert g.z_shifted == len(dense_ground_states(ModelParams(n=4, j=j, b=b))) == 2
    energies = dense_ring(4).energies(j, b)
    e0 = energies.min()
    dense_mask = same_level(energies, e0, e0)
    rho = g.pair_density()
    for bond in bonds(4):
        moments = dense_ring(4).bond_columns(bond)[dense_mask].mean(axis=0)
        assert _close([rho.u_plus, rho.w, rho.w, rho.u_minus], moments[2:], 1e-12, 1e-10)
        assert _close(2.0 * rho.z, moments[1], 1e-12)


@pytest.mark.parametrize("n", RINGS)
def test_ground_mixture_is_the_mean_of_the_ground_levels(n):
    # the class sums over the degeneracy against the per-level build's mean
    # over its ground levels, at seeded points and at zero field
    j, b, _ = _seeded_points(n)
    for params in [ModelParams(n=n, j=float(jj), b=float(bb)) for jj, bb in zip(j, b)] + [
            ModelParams(n=n, j=1.0, b=0.0), ModelParams(n=n, j=-1.0, b=0.0)]:
        g = reweight(ring_model(n), params.j, params.b, 0.0)
        mask = level_table(n).ground_mask(params)
        assert g.z_shifted == mask.sum()
        if n == 1:  # no bond
            continue
        kappa, _, p00, p01, p11 = level_table(n).levels[mask].mean(axis=0)
        rho = g.pair_density()
        assert _close([rho.u_plus, rho.w, rho.u_minus, rho.z], [p00, p01, p11, kappa / (4 * n)], 1e-12)


@pytest.mark.parametrize("n", RINGS)
def test_slater_ground_vector_is_the_ed_ground_vector(n):
    checked = 0
    for j, b in zip(*_seeded_points(n)[:2]):
        params = ModelParams(n=n, j=float(j), b=float(b))
        states = dense_ground_states(params)
        spectrum = full_spectrum(params)
        if len(states) != 1:
            assert reweight(spectrum.ring, params.j, params.b, 0.0).z_shifted == len(states)
            with pytest.raises(ValueError):
                ground_state_vector(spectrum)
            continue
        sec, k = states[0]
        want = embed_in_full_space(sec.basis, sec.vectors[:, k])
        got = ground_state_vector(spectrum)
        assert got.dtype == np.float64
        assert abs(abs(np.dot(got, want)) - 1.0) <= 1e-12, (n, j, b)
        if n % 2 == 0:
            assert abs(n_tangle(got) - n_tangle(want)) <= 1e-12, (n, j, b)
        checked += 1
    assert checked  # odd rings are often degenerate, but never at every seeded point


def _printed_tangle(params: ModelParams) -> float | None:
    """The tangle `xxring ground` prints, or None when it prints none."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["ground", "--n", str(params.n), f"--j={params.j!r}", f"--b={params.b!r}"]) == 0
    lines = [line for line in out.getvalue().splitlines() if line.startswith("tangle")]
    return float(lines[0].split("=")[1]) if lines else None


@pytest.mark.parametrize("n", range(2, 13, 2))
def test_closed_form_tangle_is_the_slater_vector_tangle(n):
    # the paper's four-qubit zero-field ground state first, then random
    # nondegenerate grounds on both sides of half filling
    rng = np.random.default_rng(9000 + n)
    points = [(1.0, 0.0), (-1.0, 0.0)] + [
        (float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0)), float(rng.uniform(-5.0, 5.0)))
        for _ in range(20)]
    printed = []
    for j, b in points:
        params = ModelParams(n=n, j=j, b=b)
        if reweight(ring_model(n), j, b, 0.0).z_shifted > 1:
            assert _printed_tangle(params) is None
            continue
        printed.append(_printed_tangle(params))
        assert abs(printed[-1] - n_tangle(ground_state_vector(full_spectrum(params)))) <= 1e-12
    assert set(printed) == {0.0, 1.0}, printed
    if n == 4:
        assert printed[:2] == [1.0, 1.0]


def _count_vectors(table):
    """Each level's occupation count per +-k mode class, read from its mode
    mask: mode m sits at k = pi p / n with p = 2m (+1 for an even number of
    down spins), and k and 2 pi - k share the class min(p, 2n - p)."""
    n = table.n
    particles = (n - table.sz.astype(int)) // 2
    p = 2 * np.arange(n) + (particles[:, None] + 1) % 2
    folded = np.minimum(p, 2 * n - p)
    counts = np.zeros((table.sz.size, n + 1), dtype=int)
    rows = np.repeat(np.arange(table.sz.size), n)
    np.add.at(counts, (rows, folded.ravel()), ((table.modes[:, None] >> np.arange(n)) & 1).ravel())
    return counts


def _levels(sz, kappa):
    """Each class's or level's exact level: its index among the distinct
    (sz, kappa) once kappas within 1e-9 of each other in a sector are one
    (distinct levels of one sector lie 1e-2 or more apart on rings n <= 16)."""
    order = np.lexsort((kappa, sz))
    new = np.ones(order.size, dtype=bool)
    new[1:] = (np.diff(sz[order]) != 0) | (np.diff(kappa[order]) > 1e-9)
    level = np.empty(order.size, dtype=int)
    level[order] = np.cumsum(new) - 1
    return level


@pytest.mark.parametrize("n", range(1, 17))
def test_level_classes_fold_the_levels_exactly(n):
    table, ring = level_table(n), ring_model(n)
    # levels with one count vector carry bit-identical kappa (and sz)
    _, first, group = np.unique(_count_vectors(table), axis=0, return_index=True,
                                return_inverse=True)
    assert np.array_equal(table.kappa, table.kappa[first][group])
    assert np.array_equal(table.sz, table.sz[first][group])
    # classes of one sz hold distinct kappas, ascending, and sectors run by sz ascending
    classes = np.array(ring.classes)
    class_sz, class_kappa = np.array(ring.class_sz), np.array(ring.class_kappa)
    assert classes.shape == (6, class_sz.size)
    assert np.all((np.diff(class_sz) > 0) | ((np.diff(class_sz) == 0) & (np.diff(class_kappa) > 0)))
    # the classes of each exact level hold as many levels as the per-level build gives it,
    # and their sums are the sums over those levels, to 1e-12 per level or relative
    mine, theirs = _levels(class_sz, class_kappa), _levels(table.sz, table.kappa)
    assert mine.max() == theirs.max()
    count = np.bincount(theirs)
    assert np.array_equal(np.bincount(mine, classes[0]), count)
    for name, column, sums in zip(("kappa", "sz", "p00", "p01", "p11"), table.levels.T, classes[1:]):
        got, want = np.bincount(mine, sums), np.bincount(theirs, column)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(count, np.bincount(theirs, np.abs(column)))), name
        # with the same zeros, but for kappa: the class table's is correctly rounded, so a
        # level of kappa 0 is exactly 0 there and roundoff in the per-level build
        if name != "kappa":
            assert np.array_equal(got == 0.0, want == 0.0), name
    if n in CLASS_COUNTS:
        assert class_sz.size == CLASS_COUNTS[n]


@pytest.mark.parametrize("n", range(1, 17))
def test_class_table_invariants(n):
    multiplicity, _, _, p00, p01, p11 = ring_model(n).classes
    # every term of a pair sum is nonnegative, so every sum is too, with no roundoff below 0
    assert min(p00 + p01 + p11) >= 0.0
    assert sum(multiplicity) == 2 ** n
    # the pair sums of each level sum to 1 (0 on a single site, which has no bond)
    for count, total in zip(multiplicity, map(math.fsum, zip(p00, p01, p01, p11))):
        assert abs(total - (count if n > 1 else 0.0)) <= 1e-12 * count


@pytest.mark.parametrize("n", range(2, 17))
def test_kappa_is_exactly_particle_hole_odd(n):
    # the cosines of a whole grid sum to 0: the empty and full levels have
    # kappa 0, and on even rings the holes of a sector-N set are a
    # sector-(n - N) set with kappa exactly -kappa, class by class
    ring = ring_model(n)
    sz, kappa, multiplicity = np.array(ring.class_sz), np.array(ring.class_kappa), np.array(ring.classes[0])
    assert kappa[sz == n].tolist() == [0.0] and kappa[sz == -n].tolist() == [0.0]
    if n % 2 == 0:
        for s in range(2, n + 1, 2):
            assert np.array_equal(kappa[sz == s], -kappa[sz == -s][::-1])
            assert np.array_equal(multiplicity[sz == s], multiplicity[sz == -s][::-1])


def test_ring_holds_no_array_of_two_to_the_n_rows():
    # the n = 16 ring keeps its 2,901 classes, not its 65,536 levels, and never
    # builds a per-level array: one 2^16 x 16 bit matrix alone is 8.4 MB
    ring = ring_model(16)
    columns = [*ring.classes, ring.class_sz, ring.class_kappa]
    assert all(len(column) == 2901 for column in columns)
    tracemalloc.start()
    try:
        RingModel(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


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
    # class by class: the pair sums of each level sum to 1, so p00 + 2 p01 + p11
    # is the class's multiplicity
    multiplicity, kappa, _, p00, p01, p11 = np.array(ring_model(n).classes)
    assert np.all(np.abs(p00 + 2.0 * p01 + p11 - multiplicity) <= 1e-12 * multiplicity)
    # |<sigma_x sigma_x>| = kappa / (2n) = 2 |z| is bounded by p01 + p10 = 2 w
    assert np.all(np.abs(kappa / (2.0 * n)) <= 2.0 * p01 + 1e-12 * multiplicity)


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
    got = eigenvalues(full_spectrum(ModelParams(n=n, j=j, b=b)))
    want = np.sort(np.concatenate([sec.values
                                   for sec in dense_sectors(ModelParams(n=n, j=j, b=b))]))
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
