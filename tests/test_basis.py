import math

import numpy as np
import pytest

from xxring.basis import N_MAX

from oracles import embed_in_full_space, enumerate_sector


def test_sector_n4_r0_is_vacuum_only():
    sector = enumerate_sector(4, 0)
    assert sector.labels == (0b0000,)
    assert sector.sz == 4


def test_sector_n4_r1_single_flips():
    sector = enumerate_sector(4, 1)
    assert sector.labels == (0b0001, 0b0010, 0b0100, 0b1000)
    assert sector.sz == 2


def test_sector_n4_r2_has_six_labels():
    sector = enumerate_sector(4, 2)
    assert len(sector) == math.comb(4, 2) == 6
    assert all(label.bit_count() == 2 for label in sector.labels)


def test_sector_labels_ascending_and_indexed():
    for n in range(1, 9):
        for r in range(n + 1):
            sector = enumerate_sector(n, r)
            assert list(sector.labels) == sorted(sector.labels)
            assert len(sector) == math.comb(n, r)
            assert all(sector.index[label] == pos for pos, label in enumerate(sector.labels))
            assert sector.sz == n - 2 * r


def test_sector_sizes_cover_full_space():
    for n in (*range(1, 9), 12, N_MAX):
        assert sum(len(enumerate_sector(n, r)) for r in range(n + 1)) == 2 ** n


def test_enumerate_sector_rejects_bad_arguments():
    with pytest.raises(ValueError):
        enumerate_sector(0, 0)
    with pytest.raises(ValueError):
        enumerate_sector(N_MAX + 1, 0)
    with pytest.raises(ValueError):
        enumerate_sector(4, -1)
    with pytest.raises(ValueError):
        enumerate_sector(4, 5)


def test_embed_in_full_space_places_sector_coefficients():
    sector = enumerate_sector(4, 1)
    full = embed_in_full_space(sector, np.array([0.5, -0.5, 0.5, -0.5]))
    assert full.shape == (16,)
    assert full[0b0001] == 0.5 and full[0b1000] == -0.5
    assert np.count_nonzero(full) == 4
    with pytest.raises(ValueError):
        embed_in_full_space(sector, np.ones(3))
