import math

import numpy as np
import pytest

from xxring.blocks import concurrence_xstate, reweight
from xxring.eigensolver import full_spectrum, ring_model
from xxring.hamiltonian import ModelParams
from xxring.thermal import PairDensity

from oracles import (
    SY,
    concurrence_from_correlators,
    four_site_singletlike_ground,
    four_site_w_prime,
    ground_state_vector,
    n_tangle,
    pair_matrix,
    site_operator,
    wootters_concurrence,
)

GROUND_CONCURRENCE = math.sqrt(2.0) / 2.0 - 0.25  # 0.45710678...


def _random_pair_density(rng):
    populations = rng.uniform(0.05, 1.0, size=3)
    populations /= populations[0] + populations[1] + 2.0 * populations[2]
    u_plus, u_minus, w = populations
    z = float(rng.uniform(-w, w))
    return PairDensity(u_plus=float(u_plus), u_minus=float(u_minus), w=float(w), z=z)


def test_formula_ground_state_values():
    c = concurrence_from_correlators(-math.sqrt(2.0) / 2.0, -0.5, 0.0)
    assert c == pytest.approx(GROUND_CONCURRENCE, abs=1e-15)


def test_formula_single_excitation_band():
    for g_xx in (0.5, -0.5):
        for m_bar in (0.5, -0.5):
            assert concurrence_from_correlators(g_xx, 0.0, m_bar) == pytest.approx(0.5, abs=1e-15)


def test_formula_polarized_product_state():
    assert concurrence_from_correlators(0.0, 1.0, -1.0) == 0.0


def test_formula_rejects_unphysical_radicand():
    with pytest.raises(ValueError):
        concurrence_from_correlators(0.3, 0.0, 1.0)


def test_xstate_maximally_mixed():
    assert concurrence_xstate(PairDensity(0.25, 0.25, 0.25, 0.0)) == 0.0


def test_xstate_bell_pair():
    assert concurrence_xstate(PairDensity(0.0, 0.0, 0.5, 0.5)) == pytest.approx(1.0, abs=1e-15)


def test_xstate_zero_field_ground():
    rho = reweight(ring_model(4), 1.0, 0.0, 0.0).pair_density()
    assert concurrence_xstate(rho) == pytest.approx(GROUND_CONCURRENCE, abs=1e-12)


def test_xstate_validates_input():
    with pytest.raises(ValueError):
        concurrence_xstate(PairDensity(-0.1, 0.35, 0.375, 0.0))
    with pytest.raises(ValueError):
        concurrence_xstate(PairDensity(0.25, 0.25, 0.25, 0.3))
    with pytest.raises(ValueError):
        concurrence_xstate(PairDensity(0.5, 0.5, 0.25, 0.0))


def _batch(rng, shape):
    """Random X-form states stacked into array fields of the given shape."""
    states = [_random_pair_density(rng) for _ in range(math.prod(shape))]
    return {name: np.array([getattr(rho, name) for rho in states]).reshape(shape)
            for name in ("u_plus", "u_minus", "w", "z")}


def test_array_concurrence_equals_scalar_calls(rng):
    fields = _batch(rng, (3, 4))
    batch = concurrence_xstate(PairDensity(**fields))
    assert isinstance(batch, np.ndarray) and batch.shape == (3, 4)
    for k in np.ndindex(3, 4):
        single = concurrence_xstate(PairDensity(*(float(fields[name][k]) for name in fields)))
        assert type(single) is float and batch[k] == single
    g_xx, g_zz, m_bar = (np.array([-0.5, 0.5, 0.0]), np.array([0.0, 0.0, 1.0]),
                         np.array([0.5, -0.5, -1.0]))
    batch = concurrence_from_correlators(g_xx, g_zz, m_bar)
    assert batch.shape == (3,)
    assert batch.tolist() == [concurrence_from_correlators(*map(float, point))
                              for point in zip(g_xx, g_zz, m_bar)]


@pytest.mark.parametrize("name,value,problem", [
    ("u_plus", -0.1, "negative population"),
    ("z", 0.9, "not positive semidefinite"),
    ("w", 0.9, "trace differs"),
])
def test_array_concurrence_raises_on_one_bad_point(rng, name, value, problem):
    fields = _batch(rng, (5, 7))
    fields[name][3, 2] = value
    with pytest.raises(ValueError, match=problem):
        concurrence_xstate(PairDensity(**fields))


@pytest.mark.parametrize("route,field", [
    *(("xstate", name) for name in ("u_plus", "u_minus", "w", "z")),
    *(("correlators", name) for name in ("g_xx", "g_zz", "m_bar")),
])
def test_a_nan_is_no_state_on_either_route(rng, route, field):
    # a nan fails every check, alone and as one point of an array, and the message names it
    if route == "xstate":
        point = {"u_plus": 0.25, "u_minus": 0.25, "w": 0.25, "z": 0.1}
        fields = _batch(rng, (5, 7))
        concurrence = lambda values: concurrence_xstate(PairDensity(**values))
    else:
        point = {"g_xx": 0.3, "g_zz": 0.0, "m_bar": 0.0}
        fields = {name: np.full((5, 7), value) for name, value in point.items()}
        concurrence = lambda values: concurrence_from_correlators(**values)
    point[field] = math.nan
    fields[field][3, 2] = math.nan
    for values in (point, fields):
        with pytest.raises(ValueError, match="nan"):
            concurrence(values)


def test_array_correlator_formula_raises_on_one_bad_point():
    m_bar = np.zeros(9)
    m_bar[6] = 1.0  # radicand (1 + g_zz)^2 - 4 m_bar^2 = -3 at this point only
    with pytest.raises(ValueError, match="unphysical inputs"):
        concurrence_from_correlators(np.full(9, 0.3), np.zeros(9), m_bar)


def test_wootters_maximally_mixed():
    assert wootters_concurrence(np.eye(4) / 4.0) == 0.0


def test_wootters_matches_xstate_on_random_densities(rng):
    for _ in range(50):
        rho = _random_pair_density(rng)
        assert wootters_concurrence(pair_matrix(rho)) == pytest.approx(
            concurrence_xstate(rho), abs=1e-9)


def test_three_routes_agree_on_thermal_states(rng):
    for n in range(2, 9):
        j = float(rng.uniform(0.05, 2.0)) * float(rng.choice([-1.0, 1.0]))
        b = float(rng.uniform(-3, 3))
        t = float(math.exp(rng.uniform(math.log(0.05), math.log(50.0))))
        obs = reweight(ring_model(n), j, b, t)
        rho = obs.pair_density()
        c_formula = concurrence_from_correlators(obs.g_xx, obs.g_zz, obs.m / n)
        c_xstate = concurrence_xstate(rho)
        c_wootters = wootters_concurrence(pair_matrix(rho))
        assert c_formula == pytest.approx(c_xstate, abs=1e-9)
        assert c_formula == pytest.approx(c_wootters, abs=1e-9)


def test_tangle_of_zero_field_ground_state_is_maximal():
    assert n_tangle(four_site_singletlike_ground()) == pytest.approx(1.0, abs=1e-12)
    spectrum = full_spectrum(ModelParams(n=4, j=1.0, b=0.0))
    assert n_tangle(ground_state_vector(spectrum)) == pytest.approx(1.0, abs=1e-12)


def test_tangle_of_w_band_and_polarized_states_vanishes():
    assert n_tangle(four_site_w_prime()) == pytest.approx(0.0, abs=1e-14)
    polarized = np.zeros(16)
    polarized[0b1111] = 1.0
    assert n_tangle(polarized) == pytest.approx(0.0, abs=1e-14)


def test_mid_field_ground_state_is_the_w_type_state():
    spectrum = full_spectrum(ModelParams(n=4, j=1.0, b=1.0))
    vec = ground_state_vector(spectrum)
    overlap = abs(np.vdot(four_site_w_prime(), vec))
    assert overlap == pytest.approx(1.0, abs=1e-10)
    assert n_tangle(vec) == pytest.approx(0.0, abs=1e-12)


def test_tangle_of_bell_pair():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    assert n_tangle(bell) == pytest.approx(1.0, abs=1e-14)


def test_tangle_of_any_basis_state_vanishes(rng):
    for n in (2, 4, 6):
        for label in rng.integers(0, 1 << n, size=4):
            state = np.zeros(1 << n)
            state[int(label)] = 1.0
            assert n_tangle(state) == 0.0


def test_tangle_stays_in_unit_interval(rng):
    for _ in range(1000):
        n = int(rng.choice([2, 4, 6]))
        state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state /= np.linalg.norm(state)
        assert 0.0 <= n_tangle(state) <= 1.0


def test_tangle_matches_pauli_string_oracle_on_complex_states(rng):
    # the conjugation must be real code: check against the explicit
    # <psi| sigma_y...sigma_y |psi*> matrix element
    for n in (2, 4):
        string = site_operator(n, {i: SY for i in range(n)})
        for _ in range(10):
            state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            state /= np.linalg.norm(state)
            oracle = abs(np.vdot(state, string @ np.conj(state))) ** 2
            assert n_tangle(state) == pytest.approx(float(oracle), abs=1e-12)


def test_sigma_y_string_fixes_the_zero_field_ground_state():
    psi = four_site_singletlike_ground()
    string = site_operator(4, {i: SY for i in range(4)})
    assert np.abs(string @ psi - psi).max() < 1e-14  # eigenstate with sign +1
    assert np.abs(psi.imag).max() == 0.0  # real state, so conjugation fixes it


def test_tangle_input_validation():
    with pytest.raises(ValueError):
        n_tangle(np.ones(8) / math.sqrt(8.0))  # three qubits
    with pytest.raises(ValueError):
        n_tangle(np.ones(5))
    with pytest.raises(ValueError):
        n_tangle(np.ones(4))  # unnormalized
