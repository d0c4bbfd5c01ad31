import numpy as np
import pytest

from xxring.hamiltonian import MAX_ENERGY, ModelParams

from oracles import (
    FULL_ORACLE_N_MAX,
    bonds,
    build_sector_hamiltonian,
    full_hamiltonian,
    reference_spectrum_n4,
)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(n=0, j=1.0, b=0.0)
    with pytest.raises(ValueError):
        ModelParams(n=17, j=1.0, b=0.0)
    with pytest.raises(ValueError):
        ModelParams(n=4, j=float("inf"), b=0.0)
    ModelParams(n=4, j=0.0, b=0.0)  # zero couplings are legal


def test_params_bound_the_level_energies():
    # the largest level energy is 4n|j| + n|b|
    ModelParams(n=16, j=MAX_ENERGY / 128, b=-MAX_ENERGY / 32)
    for j, b in [(1e308, 0.0), (MAX_ENERGY / 63, 0.0), (0.0, MAX_ENERGY / 15), (-1.0, 1e308)]:
        with pytest.raises(ValueError, match=r"4n\|j\| \+ n\|b\|"):
            ModelParams(n=16, j=j, b=b)


def test_bond_list_visits_each_ring_edge():
    assert bonds(1) == []
    assert bonds(2) == [(0, 1), (1, 0)]  # the single edge, visited twice
    assert bonds(4) == [(0, 1), (1, 2), (2, 3), (3, 0)]


def test_vacuum_sector_is_pure_field():
    block = build_sector_hamiltonian(ModelParams(n=4, j=0.7, b=0.3), 0)
    assert block.entries.shape == (1, 1)
    assert block.entries[0, 0] == pytest.approx(4 * 0.3, abs=0)


def test_n4_r1_zero_field_block():
    block = build_sector_hamiltonian(ModelParams(n=4, j=1.0, b=0.0), 1)
    h = block.entries
    assert h.shape == (4, 4)
    assert np.all(np.diag(h) == 0.0)
    values = np.linalg.eigvalsh(h)
    assert np.allclose(np.sort(values), [-4.0, 0.0, 0.0, 4.0], atol=1e-12)


def test_two_site_ring_has_doubled_coupling():
    block = build_sector_hamiltonian(ModelParams(n=2, j=0.8, b=0.5), 1)
    assert np.array_equal(block.entries, np.array([[0.0, 3.2], [3.2, 0.0]]))


def test_sector_blocks_are_exactly_symmetric():
    for r in range(7):
        block = build_sector_hamiltonian(ModelParams(n=6, j=1.3, b=-0.4), r)
        assert np.array_equal(block.entries, block.entries.T)


def test_sector_diagonal_is_field_term_and_offdiagonal_exchange():
    params = ModelParams(n=5, j=0.9, b=0.7)
    for r in range(6):
        block = build_sector_hamiltonian(params, r)
        assert np.allclose(np.diag(block.entries), params.b * (5 - 2 * r), atol=0)
        off = block.entries - np.diag(np.diag(block.entries))
        nonzero = off[off != 0.0]
        assert np.all(nonzero == 2 * params.j)


def test_full_n2_spectrum():
    values = np.linalg.eigvalsh(full_hamiltonian(ModelParams(n=2, j=1.0, b=0.0)))
    assert np.allclose(np.sort(values), [-4.0, 0.0, 0.0, 4.0], atol=1e-12)


def test_full_n4_zero_field_spectrum():
    values = np.sort(np.linalg.eigvalsh(full_hamiltonian(ModelParams(n=4, j=1.0, b=0.0))))
    s2 = np.sqrt(2.0)
    expected = np.sort([4 * s2, -4 * s2, 4, 4, -4, -4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])
    assert np.allclose(values, expected, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_sector_blocking_reassembles_full_matrix(n):
    params = ModelParams(n=n, j=-1.1, b=0.6)
    full = full_hamiltonian(params)
    permutation = []
    blocks = []
    for r in range(n + 1):
        block = build_sector_hamiltonian(params, r)
        permutation.extend(block.basis.labels)
        blocks.append(block.entries)
    reassembled = np.zeros_like(full)
    offset = 0
    for entries in blocks:
        d = entries.shape[0]
        reassembled[offset:offset + d, offset:offset + d] = entries
        offset += d
    permuted = full[np.ix_(permutation, permutation)]
    assert np.allclose(permuted, reassembled, atol=1e-12)


def test_full_hamiltonian_is_traceless(rng):
    for n in (2, 3, 4, 5):
        j, b = rng.uniform(-2, 2, size=2)
        assert abs(np.trace(full_hamiltonian(ModelParams(n=n, j=j, b=b)))) < 1e-10


def test_exchange_sign_flip_preserves_even_ring_spectrum(rng):
    for n in (2, 4, 6):
        j, b = rng.uniform(-2, 2, size=2)
        plus = np.linalg.eigvalsh(full_hamiltonian(ModelParams(n=n, j=j, b=b)))
        minus = np.linalg.eigvalsh(full_hamiltonian(ModelParams(n=n, j=-j, b=b)))
        assert np.allclose(np.sort(plus), np.sort(minus), atol=1e-10)


def test_field_sign_flip_negates_even_ring_spectrum(rng):
    for n in (2, 4, 6):
        j, b = rng.uniform(-2, 2, size=2)
        plus = np.sort(np.linalg.eigvalsh(full_hamiltonian(ModelParams(n=n, j=j, b=b))))
        minus = np.sort(np.linalg.eigvalsh(full_hamiltonian(ModelParams(n=n, j=j, b=-b))))
        assert np.allclose(plus, -minus[::-1], atol=1e-10)


def test_n4_random_params_match_reference_levels(rng):
    for _ in range(5):
        j, b = rng.uniform(-2, 2, size=2)
        values = np.sort(np.linalg.eigvalsh(full_hamiltonian(ModelParams(n=4, j=j, b=b))))
        assert np.allclose(values, reference_spectrum_n4(j, b), atol=1e-10)


def test_full_hamiltonian_size_guard():
    with pytest.raises(ValueError):
        full_hamiltonian(ModelParams(n=FULL_ORACLE_N_MAX + 1, j=1.0, b=0.0))


def test_sector_matrix_entries_are_read_only():
    block = build_sector_hamiltonian(ModelParams(n=4, j=1.0, b=0.0), 2)
    with pytest.raises(ValueError):
        block.entries[0, 0] = 99.0


def test_single_site_ring_is_field_only():
    block0 = build_sector_hamiltonian(ModelParams(n=1, j=5.0, b=0.25), 0)
    block1 = build_sector_hamiltonian(ModelParams(n=1, j=5.0, b=0.25), 1)
    assert block0.entries[0, 0] == pytest.approx(0.25, abs=0)
    assert block1.entries[0, 0] == pytest.approx(-0.25, abs=0)
