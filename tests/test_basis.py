import math

import numpy as np
import pytest

from xxring.basis import N_MAX

from oracles import (
    SZ,
    embed_in_full_space,
    enumerate_sector,
    lambda_x,
    lambda_z_sign,
    popcount,
    site_operator,
    translate,
)


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
    assert all(popcount(label) == 2 for label in sector.labels)


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


def test_translate_moves_content_one_site_up():
    assert translate(0b0001, 4) == 0b0010
    assert translate(0b0000, 4) == 0b0000
    assert translate(0b0101, 4) == 0b1010
    assert translate(0b1000, 4) == 0b0001  # wraps around the ring


def test_translate_is_sector_bijection_with_period_n():
    for n in (2, 3, 4, 6):
        for r in range(n + 1):
            labels = enumerate_sector(n, r).labels
            image = sorted(translate(label, n) for label in labels)
            assert image == list(labels)
            for label in labels:
                out = label
                for _ in range(n):
                    out = translate(out, n)
                assert out == label


def test_lambda_x_complements():
    assert lambda_x(0b0000, 4) == 0b1111
    assert lambda_x(0b0100, 4) == 0b1011


def test_lambda_x_is_involution_mapping_sectors():
    for n in (2, 3, 5):
        for r in range(n + 1):
            labels = enumerate_sector(n, r).labels
            image = sorted(lambda_x(label, n) for label in labels)
            assert image == list(enumerate_sector(n, n - r).labels)
            assert all(lambda_x(lambda_x(label, n), n) == label for label in labels)


def test_lambda_z_sign_examples():
    assert lambda_z_sign(0b0000, 4) == 1
    assert lambda_z_sign(0b0001, 4) == -1   # down spin on site 0
    assert lambda_z_sign(0b0011, 4) == -1   # site 0 counts, site 1 does not


def test_lambda_z_sign_squares_to_one():
    for label in range(16):
        assert lambda_z_sign(label, 4) ** 2 == 1


def test_lambda_z_sign_rejects_odd_ring():
    with pytest.raises(ValueError):
        lambda_z_sign(0b001, 3)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_lambda_z_sign_matches_tensor_product(n):
    # oracle: diagonal of the explicit sigma_z string on sites 0, 2, ...
    string = site_operator(n, {i: SZ for i in range(0, n, 2)})
    diag = np.real(np.diag(string))
    for label in range(1 << n):
        assert lambda_z_sign(label, n) == int(diag[label])


def test_embed_in_full_space_places_sector_coefficients():
    sector = enumerate_sector(4, 1)
    full = embed_in_full_space(sector, np.array([0.5, -0.5, 0.5, -0.5]))
    assert full.shape == (16,)
    assert full[0b0001] == 0.5 and full[0b1000] == -0.5
    assert np.count_nonzero(full) == 4
    with pytest.raises(ValueError):
        embed_in_full_space(sector, np.ones(3))
