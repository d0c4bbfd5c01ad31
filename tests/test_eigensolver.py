import numpy as np
import pytest

from xxring.basis import N_MAX
from xxring.eigensolver import GROUND_RTOL, full_spectrum, ring_model
from xxring.hamiltonian import ModelParams
from xxring.thermal import reweight

from oracles import (
    build_sector_hamiltonian,
    dense_ground_states,
    dense_sectors,
    eigenvalues,
    full_hamiltonian,
    ground_state_vector,
    reference_spectrum_n4,
)


def test_n4_half_filling_sector_values():
    block = build_sector_hamiltonian(ModelParams(n=4, j=1.0, b=0.0), 2)
    values = np.linalg.eigvalsh(block.entries)
    s2 = 4.0 * np.sqrt(2.0)
    assert np.allclose(values, [-s2, 0.0, 0.0, 0.0, 0.0, s2], atol=1e-12)


def test_full_spectrum_counts_and_ground(rng):
    for n in (1, 2, 3, 5):
        j, b = rng.uniform(-2, 2, size=2)
        spectrum = full_spectrum(ModelParams(n=n, j=j, b=b))
        values = eigenvalues(spectrum)
        assert values.size == 2 ** n
        assert spectrum.ground_energy == pytest.approx(values[0], abs=0)


def test_full_spectrum_n4_matches_reference_levels(rng):
    for _ in range(5):
        j, b = rng.uniform(-2, 2, size=2)
        spectrum = full_spectrum(ModelParams(n=4, j=j, b=b))
        assert np.allclose(eigenvalues(spectrum), reference_spectrum_n4(j, b), atol=1e-10)


def test_full_spectrum_single_site():
    spectrum = full_spectrum(ModelParams(n=1, j=123.0, b=0.7))
    assert np.allclose(eigenvalues(spectrum), [-0.7, 0.7], atol=0)


def test_n6_ground_energy_against_brute_force():
    params = ModelParams(n=6, j=1.0, b=0.0)
    oracle = np.linalg.eigvalsh(full_hamiltonian(params))
    spectrum = full_spectrum(params)
    assert np.allclose(eigenvalues(spectrum), np.sort(oracle), atol=1e-9)
    assert spectrum.ground_energy == pytest.approx(-8.0, abs=1e-10)


def test_eigenvalue_sums_match_traces(rng):
    params = ModelParams(n=6, j=float(rng.uniform(-2, 2)), b=float(rng.uniform(-2, 2)))
    for sec in dense_sectors(params):
        block = build_sector_hamiltonian(params, sec.basis.r)
        assert abs(sec.values.sum() - np.trace(block.entries)) < 1e-9


def test_field_sign_flip_negates_spectrum(rng):
    for n in (2, 4, 6):
        j, b = rng.uniform(-2, 2, size=2)
        plus = eigenvalues(full_spectrum(ModelParams(n=n, j=j, b=b)))
        minus = eigenvalues(full_spectrum(ModelParams(n=n, j=j, b=-b)))
        assert np.allclose(plus, -minus[::-1], atol=1e-10)


def test_ground_states_span_degenerate_levels():
    # both crossing fields, for both exchange signs: two branches meet there
    # (for j < 0 the flat level order runs against the sector columns)
    for j in (1.0, -1.0):
        for b_cross in (2.0 * (np.sqrt(2.0) - 1.0), 2.0):
            spectrum = full_spectrum(ModelParams(n=4, j=j, b=b_cross))
            states = dense_ground_states(spectrum.params)
            assert len(states) == 2
            assert reweight(spectrum.ring, j, b_cross, 0.0).z_shifted == 2
            for sec, k in states:
                assert sec.values[k] == pytest.approx(spectrum.ground_energy, abs=1e-12)


def test_ground_state_vector_unique_case():
    for j in (1.0, -1.0):
        spectrum = full_spectrum(ModelParams(n=4, j=j, b=1.0))
        vec = ground_state_vector(spectrum)
        assert vec.shape == (16,)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
        h = full_hamiltonian(ModelParams(n=4, j=j, b=1.0))
        assert np.allclose(h @ vec, spectrum.ground_energy * vec, atol=1e-9)


def test_ground_state_vector_rejects_degeneracy():
    spectrum = full_spectrum(ModelParams(n=4, j=1.0, b=2.0 * (np.sqrt(2.0) - 1.0)))
    with pytest.raises(ValueError):
        ground_state_vector(spectrum)


def test_second_spectrum_of_a_ring_reuses_the_cache(ring_builds):
    first = full_spectrum(ModelParams(n=6, j=1.0, b=0.3))
    assert ring_builds.builds == [6]
    second = full_spectrum(ModelParams(n=6, j=-0.4, b=-2.1))
    assert ring_builds.builds == [6]
    assert second.ring is first.ring
    assert ring_builds.eigh == []


def test_negative_exchange_keeps_sectors_ascending(rng):
    for n in (2, 5, 8):
        j, b = -float(rng.uniform(0.1, 2.0)), float(rng.uniform(-2.0, 2.0))
        spectrum = full_spectrum(ModelParams(n=n, j=j, b=b))
        for sec in dense_sectors(spectrum.params):
            assert np.all(np.diff(sec.values) >= 0.0)
            block = build_sector_hamiltonian(spectrum.params, sec.basis.r).entries
            residual = block @ sec.vectors - sec.vectors * sec.values
            assert np.abs(residual).max() < 1e-10


def test_the_level_width_lies_between_roundoff_and_every_splitting():
    # at B = 0 the sorted class energies of each ring step either by roundoff within one
    # level (an odd ring's spin-flip partners are built on the other mode grid; at most
    # 2.0e-16 |E0|) or from one level to the next (at least 2.5e-5 |E0|)
    for n in range(2, N_MAX + 1):
        kappa = np.sort(ring_model(n).class_kappa)
        # |E0| is |j| times -kappa[0] for j > 0 and kappa[-1] for j < 0
        steps = np.diff(kappa) / min(-kappa[0], kappa[-1])
        assert steps[steps < GROUND_RTOL].max(initial=0.0) < GROUND_RTOL / 1000, n
        assert steps[steps >= GROUND_RTOL].min() > 1e-6, n
