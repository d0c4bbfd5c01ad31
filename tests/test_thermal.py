import math
import sys

import numpy as np
import pytest

from xxring.eigensolver import full_spectrum, ring_model
from xxring.hamiltonian import ModelParams
from xxring.thermal import reweight

from oracles import (
    SX,
    SY,
    bonds,
    dense_reweight,
    eigenvalues,
    four_site_singletlike_ground,
    full_hamiltonian,
    gibbs_density,
    ground_mixture_density,
    gxx_from_energy,
    log_partition,
    pair_matrix,
    partial_trace_pair,
    site_operator,
)

# frozen by a 50-digit evaluation of the four-site closed forms
U_N4_J1_B1_T1 = -5.580226867968700741745
M_N4_J1_B1_T1 = -1.348707086151831826582
GZZ_N4_J1_B1_T1 = -0.1161136471982001949732
GXX_N4_J1_B1_T1 = -0.5289399727271086143953
GXX_N4_J1_B0_T1 = -0.6337732342742042308598


def test_high_temperature_limit_vanishes():
    obs = reweight(ring_model(4), 1.0, 0.0, 1.0e6)
    for value in (obs.u, obs.m, obs.g_xx, obs.g_zz):
        assert abs(value) < 1e-4


def test_low_temperature_energy_is_ground_energy():
    obs = reweight(ring_model(4), 1.0, 0.0, 1.0e-3)
    assert obs.u == pytest.approx(-4.0 * math.sqrt(2.0), abs=1e-10)


def test_observables_match_frozen_closed_forms():
    obs = reweight(ring_model(4), 1.0, 1.0, 1.0)
    assert obs.u == pytest.approx(U_N4_J1_B1_T1, rel=1e-12)
    assert obs.m == pytest.approx(M_N4_J1_B1_T1, rel=1e-12)
    assert obs.g_zz == pytest.approx(GZZ_N4_J1_B1_T1, rel=1e-12)
    assert obs.g_xx == pytest.approx(GXX_N4_J1_B1_T1, rel=1e-12)


def test_log_partition_matches_oracle(rng):
    for n in (2, 3, 5):
        j, b = rng.uniform(-2, 2, size=2)
        t = float(rng.uniform(0.2, 5.0))
        params = ModelParams(n=n, j=j, b=b)
        spectrum = full_spectrum(params)
        obs = reweight(spectrum.ring, j, b, t)
        log_z = math.log(obs.z_shifted) - spectrum.ground_energy / t
        assert log_z == pytest.approx(log_partition(full_hamiltonian(params), t), abs=1e-10)


def test_observables_rejects_nonpositive_temperature():
    # of the nonpositive temperatures only T = 0 (and -0) is a state: the ground-level mixture
    for t in (-1.0, -sys.float_info.min, math.nan, [1.0, -1.0]):
        with pytest.raises(ValueError, match="temperature must be nonnegative"):
            reweight(ring_model(4), 1.0, 0.0, t)
    assert reweight(ring_model(4), 1.0, 0.0, [0.0, -0.0]).z_shifted.tolist() == [1.0, 1.0]


def test_correlator_zero_exchange_vanishes():
    for b, t in [(0.0, 1.0), (2.0, 0.3), (-1.5, 10.0)]:
        assert reweight(ring_model(4), 0.0, b, t).g_xx == pytest.approx(0.0, abs=1e-14)


def test_correlator_matches_frozen_zero_field_value():
    assert reweight(ring_model(4), 1.0, 0.0, 1.0).g_xx == pytest.approx(GXX_N4_J1_B0_T1, rel=1e-12)


def test_correlator_is_bond_independent():
    # the package's one bond correlator against each bond's own dense ED columns
    g_xx = reweight(ring_model(4), 1.0, 0.7, 0.9).g_xx
    for bond in bonds(4):
        assert g_xx == pytest.approx(float(dense_reweight(4, 1.0, 0.7, 0.9, bond)["g_xx"]), abs=1e-10)


def test_gxx_from_energy_matches_direct(rng):
    for n in (2, 3, 4, 5):
        for _ in range(3):
            j = float(rng.uniform(0.1, 2.0)) * float(rng.choice([-1.0, 1.0]))
            b = float(rng.uniform(-3, 3))
            t = float(rng.uniform(0.1, 20.0))
            obs = reweight(ring_model(n), j, b, t)
            assert gxx_from_energy(obs, ModelParams(n=n, j=j, b=b)) == pytest.approx(
                obs.g_xx, abs=1e-9)


def test_gxx_from_energy_rejects_zero_exchange():
    params = ModelParams(n=4, j=0.0, b=1.0)
    obs = reweight(ring_model(4), 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        gxx_from_energy(obs, params)


def test_gxx_geq_gyy_both_from_full_space_oracle(rng):
    # the package computes g_xx from in-sector flips; the oracle evaluates
    # both transverse correlators with explicit (complex) Pauli strings
    for n in (3, 4, 5):
        j, b = rng.uniform(-2, 2, size=2)
        t = float(rng.uniform(0.2, 5.0))
        params = ModelParams(n=n, j=j, b=b)
        rho = gibbs_density(full_hamiltonian(params), t)
        xx = np.trace(site_operator(n, {0: SX, 1: SX}) @ rho)
        yy = np.trace(site_operator(n, {0: SY, 1: SY}) @ rho)
        assert abs(xx.imag) < 1e-12 and abs(yy.imag) < 1e-12
        assert xx.real == pytest.approx(yy.real, abs=1e-10)
        assert reweight(ring_model(n), j, b, t).g_xx == pytest.approx(xx.real, abs=1e-10)


def test_reduced_density_high_temperature_is_maximally_mixed():
    rho = reweight(ring_model(4), 1.0, 0.0, 1.0e8).pair_density()
    assert rho.u_plus == pytest.approx(0.25, abs=1e-7)
    assert rho.u_minus == pytest.approx(0.25, abs=1e-7)
    assert rho.w == pytest.approx(0.25, abs=1e-7)
    assert rho.z == pytest.approx(0.0, abs=1e-7)


def test_reduced_density_low_temperature_matches_ground_values():
    rho = reweight(ring_model(4), 1.0, 0.0, 1.0e-3).pair_density()
    assert rho.z == pytest.approx(-math.sqrt(2.0) / 4.0, abs=1e-10)
    assert 1.0 - 4.0 * rho.w == pytest.approx(-0.5, abs=1e-10)  # g_zz
    assert rho.u_plus == pytest.approx(rho.u_minus, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_reduced_density_matches_partial_trace(n, rng):
    j = float(rng.uniform(0.2, 2.0)) * float(rng.choice([-1.0, 1.0]))
    b = float(rng.uniform(-2, 2))
    t = float(rng.uniform(0.2, 5.0))
    params = ModelParams(n=n, j=j, b=b)
    rho = reweight(ring_model(n), j, b, t).pair_density()
    rho_full = gibbs_density(full_hamiltonian(params), t)
    for pair in [(0, 1), (n - 1, 0)]:
        direct = partial_trace_pair(rho_full, n, pair)
        assert np.abs(direct.imag).max() < 1e-12
        direct = direct.real
        x_mask = np.zeros((4, 4), dtype=bool)
        x_mask[np.diag_indices(4)] = True
        x_mask[1, 2] = x_mask[2, 1] = True
        assert np.abs(direct[~x_mask]).max() < 1e-10  # off-X entries vanish
        assert np.abs(pair_matrix(rho) - direct).max() < 1e-10


def test_reduced_density_identical_on_every_bond():
    # the package's one bond state against the partial trace on each bond
    rho = pair_matrix(reweight(ring_model(6), 1.4, -0.8, 0.7).pair_density())
    rho_full = gibbs_density(full_hamiltonian(ModelParams(n=6, j=1.4, b=-0.8)), 0.7)
    for bond in bonds(6):
        assert np.abs(rho - partial_trace_pair(rho_full, 6, bond).real).max() < 1e-10, bond


def test_pair_operator_expectations_agree_with_full_space(rng):
    # random two-site observables: tr(A rho_12) equals the full-space average
    for n in (2, 3, 5, 8):
        j, b = rng.uniform(-2, 2, size=2)
        t = float(rng.uniform(0.2, 5.0))
        params = ModelParams(n=n, j=j, b=b)
        rho_pair = pair_matrix(reweight(ring_model(n), j, b, t).pair_density())
        rho_full = gibbs_density(full_hamiltonian(params), t)
        for _ in range(3):
            a = rng.normal(size=(4, 4))
            a = (a + a.T) / 2.0
            # embed A on sites (0, 1): they are the two least significant bits
            a_embedded = np.kron(np.eye(1 << (n - 2)), _reorder_pair_operator(a))
            lhs = np.trace(a @ rho_pair)
            rhs = np.trace(a_embedded @ rho_full)
            assert lhs == pytest.approx(rhs.real, abs=1e-9)


def _reorder_pair_operator(a):
    """Map an operator on (site0, site1) with site0-first indexing onto the
    least significant two bits of the full-space label (site1 is bit 1)."""
    swap = np.zeros((4, 4))
    for s0 in range(2):
        for s1 in range(2):
            swap[2 * s1 + s0, 2 * s0 + s1] = 1.0
    return swap @ a @ swap.T


def test_ground_state_reduced_zero_field_matches_projector():
    params = ModelParams(n=4, j=1.0, b=0.0)
    rho = reweight(ring_model(4), params.j, params.b, 0.0).pair_density()
    psi = four_site_singletlike_ground()
    oracle = partial_trace_pair(np.outer(psi, psi.conj()), 4, (0, 1)).real
    assert np.abs(pair_matrix(rho) - oracle).max() < 1e-12
    assert rho.z == pytest.approx(-math.sqrt(2.0) / 4.0, abs=1e-12)


def test_ground_state_reduced_w_band():
    rho = reweight(ring_model(4), 1.0, 1.0, 0.0).pair_density()
    assert rho.u_plus == pytest.approx(0.0, abs=1e-12)
    assert rho.u_minus == pytest.approx(0.5, abs=1e-12)
    assert rho.w == pytest.approx(0.25, abs=1e-12)
    assert abs(rho.z) == pytest.approx(0.25, abs=1e-12)


def test_ground_state_reduced_polarized():
    rho = reweight(ring_model(4), 1.0, 3.0, 0.0).pair_density()
    assert rho.u_minus == pytest.approx(1.0, abs=1e-12)
    assert rho.u_plus == pytest.approx(0.0, abs=1e-12)
    assert rho.w == pytest.approx(0.0, abs=1e-12)
    assert rho.z == pytest.approx(0.0, abs=1e-12)


def test_ground_state_reduced_degenerate_mixture_matches_oracle():
    # both four-site crossings: T = 0 is the two-level mixture
    for b_cross in (2.0 * (math.sqrt(2.0) - 1.0), 2.0):
        params = ModelParams(n=4, j=1.0, b=b_cross)
        g = reweight(ring_model(4), params.j, params.b, 0.0)
        assert g.z_shifted == 2
        oracle = partial_trace_pair(
            ground_mixture_density(full_hamiltonian(params)), 4, (0, 1)).real
        assert np.abs(pair_matrix(g.pair_density()) - oracle).max() < 1e-9


def test_internal_energy_negative_and_increasing(rng):
    # strict increase is asserted once the thermal signal is resolvable in
    # double precision; below that the spectral sums sit exactly at E0
    for n in (3, 4, 6):
        j = float(rng.uniform(0.2, 2.0)) * float(rng.choice([-1.0, 1.0]))
        b = float(rng.uniform(-2, 2))
        spectrum = full_spectrum(ModelParams(n=n, j=j, b=b))
        grid = np.geomspace(1e-2, 1e2, 40)
        us = np.array([reweight(spectrum.ring, j, b, t).u for t in grid])
        assert np.all(us < 0.0)
        diffs = np.diff(us)
        assert np.all(diffs >= 0.0)
        e0 = spectrum.ground_energy
        resolvable = (us[1:] - e0) > 1e-12 * max(1.0, abs(e0))
        assert np.all(diffs[resolvable] > 0.0)
        assert resolvable.sum() >= 25


def test_energy_and_magnetization_match_log_partition_derivatives(rng):
    h_step = 1e-5
    for n in (3, 4, 6):
        j = float(rng.uniform(0.2, 2.0)) * float(rng.choice([-1.0, 1.0]))
        b = float(rng.uniform(-3, 3))
        t = float(rng.uniform(0.3, 10.0))
        params = ModelParams(n=n, j=j, b=b)
        spectrum = full_spectrum(params)
        obs = reweight(spectrum.ring, j, b, t)
        values = eigenvalues(spectrum)

        def log_z(beta):
            shifted = -beta * (values - values[0])
            return math.log(np.exp(shifted).sum()) - beta * values[0]

        beta = 1.0 / t
        u_fd = -(log_z(beta + h_step) - log_z(beta - h_step)) / (2.0 * h_step)
        assert abs(obs.u - u_fd) < 1e-5 * max(1.0, abs(obs.u))

        z_plus = eigenvalues(full_spectrum(ModelParams(n=n, j=j, b=b + h_step)))
        z_minus = eigenvalues(full_spectrum(ModelParams(n=n, j=j, b=b - h_step)))

        def log_z_of(values_):
            shifted = -beta * (values_ - values_[0])
            return math.log(np.exp(shifted).sum()) - beta * values_[0]

        m_fd = -(log_z_of(z_plus) - log_z_of(z_minus)) / (2.0 * h_step * beta)
        assert abs(obs.m - m_fd) < 1e-5 * max(1.0, abs(obs.m))
