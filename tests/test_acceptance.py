"""Acceptance gate: every quantitative exit criterion, one test each.

Each test prints one `criterion NN: PASS/FAIL` line (visible with -s, and in
the failure report otherwise) and then asserts. Tolerances are pinned here,
directly from the criterion statements.

Criterion 04 is asserted exactly as stated: threshold temperature 2.36338
within 1e-3 and field-independence within 1e-3. The model defined by the
ring Hamiltonian does not have that threshold (two independent routes give
2.2113514789894899 at zero field, drifting to 2.1483 by b = 3), so this
test fails; see the repository notes for the full analysis. It is kept red
deliberately rather than weakened.
"""

import math

import numpy as np

from xxring.analytic_n4 import closed_forms
from xxring.eigensolver import full_spectrum
from xxring.entanglement import concurrence_from_correlators, concurrence_xstate
from xxring.experiments import (
    ground_state_concurrence,
    level_crossings,
    thermal_concurrence,
    threshold_temperature,
    verify_propositions,
)
from xxring.hamiltonian import ModelParams
from xxring.thermal import reweight

from oracles import (
    eigenvalues,
    four_site_singletlike_ground,
    four_site_w_prime,
    full_hamiltonian,
    gibbs_density,
    n_tangle,
    pair_matrix,
    partial_trace_pair,
    reference_spectrum_n4,
    wootters_concurrence,
)

SEED = 20020901


def _report(num, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def _within(got, want, tol):
    return abs(got - want) <= tol


def test_criterion_01_four_site_spectrum_multiset():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(20):
        j, b = rng.uniform(-2, 2, size=2)
        values = eigenvalues(full_spectrum(ModelParams(n=4, j=j, b=b)))
        worst = max(worst, float(np.abs(values - reference_spectrum_n4(j, b)).max()))
    ok = worst <= 1e-9
    assert _report(1, ok, f"max multiset deviation {worst:.2e}")


def test_criterion_02_closed_form_oracle_agreement():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        j = float(rng.uniform(0.05, 2.0)) * float(rng.choice([-1.0, 1.0]))
        b = float(rng.uniform(-3.0, 3.0))
        t = float(math.exp(rng.uniform(math.log(0.05), math.log(50.0))))
        spectrum = full_spectrum(ModelParams(n=4, j=j, b=b))
        obs = reweight(spectrum.ring, j, b, t)
        cf = closed_forms(j, b, 1.0 / t)
        z_spectral = math.exp(math.log(obs.z_shifted) - spectrum.ground_energy / t)
        for got, want in [(z_spectral, cf.z), (obs.u, 4 * cf.u_bar), (obs.m, 4 * cf.m_bar),
                          (obs.g_zz, cf.g_zz), (obs.g_xx, cf.g_xx)]:
            worst = max(worst, abs(got - want) / max(1.0, abs(got), abs(want)))
    ok = worst <= 1e-10
    assert _report(2, ok, f"worst relative deviation {worst:.2e} over 100 points")


def test_criterion_03_ground_state_concurrence_plateaus():
    plateau = math.sqrt(2.0) / 2.0 - 0.25
    cases = [(0.0, plateau), (0.4, plateau), (0.8, plateau),
             (1.0, 0.5), (1.5, 0.5), (1.9, 0.5),
             (2.1, 0.0), (3.0, 0.0)]
    worst = max(abs(ground_state_concurrence(ModelParams(n=4, j=1.0, b=b)) - want)
                for b, want in cases)
    ok = worst <= 1e-4
    assert _report(3, ok, f"worst plateau deviation {worst:.2e}")


def test_criterion_04_threshold_temperature():
    fields = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]
    tc = {b: threshold_temperature(ModelParams(n=4, j=1.0, b=b), tol=1e-6) for b in fields}
    value_ok = _within(tc[0.0], 2.36338, 1e-3)
    drift = max(abs(tc[b] - tc[0.0]) for b in fields)
    independence_ok = drift < 1e-3
    detail = (f"T_c(0) = {tc[0.0]:.6f} vs stated 2.36338; "
              f"max |T_c(B) - T_c(0)| = {drift:.4f} vs stated < 1e-3")
    ok = value_ok and independence_ok

    # reported, not asserted: the same table for larger rings
    for n in (6, 8):
        table = {b: threshold_temperature(ModelParams(n=n, j=1.0, b=b), tol=1e-4)
                 for b in (0.0, 1.0, 2.0)}
        formatted = ", ".join(f"B={b:g}: {v:.4f}" for b, v in table.items())
        print(f"  [report only] n={n} threshold temperatures: {formatted}")
    assert _report(4, ok, detail)


def test_criterion_05_level_crossings():
    fields = level_crossings(4, 1.0, 3.0)
    ok = (len(fields) == 2
          and _within(fields[0], 2.0 * (math.sqrt(2.0) - 1.0), 1e-6)
          and _within(fields[1], 2.0, 1e-6))
    assert _report(5, ok, f"found {[f'{b:.8f}' for b in fields]}")


def test_criterion_06_tangle_fixtures():
    polarized = np.zeros(16)
    polarized[0b1111] = 1.0
    devs = [abs(n_tangle(four_site_singletlike_ground()) - 1.0),
            abs(n_tangle(four_site_w_prime())),
            abs(n_tangle(polarized))]
    ok = max(devs) <= 1e-10
    assert _report(6, ok, f"deviations {[f'{d:.2e}' for d in devs]}")


def test_criterion_07_proposition_suites():
    prop1 = verify_propositions([2, 3, 4, 5, 6], samples=200, seed=SEED)[0]
    even = verify_propositions([2, 4, 6], samples=200, seed=SEED)
    prop2, prop3 = even[1], even[2]
    worst = max(prop1.max_discrepancy, prop2.max_discrepancy, prop3.max_discrepancy)
    ok = prop1.passed and prop2.passed and prop3.passed
    assert _report(7, ok, f"worst discrepancy {worst:.2e} over 200-sample suites")


def test_criterion_08_oracle_equivalences():
    rng = np.random.default_rng(SEED)
    worst_spec = worst_rho = worst_conc = 0.0
    for n in range(2, 7):
        for _ in range(4):
            j = float(rng.uniform(0.05, 2.0)) * float(rng.choice([-1.0, 1.0]))
            b = float(rng.uniform(-3.0, 3.0))
            t = float(math.exp(rng.uniform(math.log(0.05), math.log(50.0))))
            params = ModelParams(n=n, j=j, b=b)
            spectrum = full_spectrum(params)
            h_full = full_hamiltonian(params)
            worst_spec = max(worst_spec, float(np.abs(
                eigenvalues(spectrum) - np.sort(np.linalg.eigvalsh(h_full))).max()))
            rho_full = gibbs_density(h_full, t)
            traced = partial_trace_pair(rho_full, n, (0, 1))
            obs = reweight(spectrum.ring, j, b, t)
            rho_pair = obs.pair_density()
            worst_rho = max(worst_rho, float(np.abs(pair_matrix(rho_pair) - traced).max()))
            routes = [
                concurrence_from_correlators(obs.g_xx, obs.g_zz, obs.m / n),
                concurrence_xstate(rho_pair),
                wootters_concurrence(pair_matrix(rho_pair)),
                wootters_concurrence(traced),
            ]
            worst_conc = max(worst_conc, max(routes) - min(routes))
    ok = worst_spec <= 1e-9 and worst_rho <= 1e-9 and worst_conc <= 1e-9
    assert _report(8, ok, f"spectrum {worst_spec:.2e}, rho12 {worst_rho:.2e}, "
                          f"concurrence {worst_conc:.2e}")


def test_criterion_09_thermodynamic_identities():
    rng = np.random.default_rng(SEED)
    h_step = 1e-5
    worst_fd = 0.0
    monotone_ok = True
    for n in (3, 4, 6):
        j = float(rng.uniform(0.05, 2.0)) * float(rng.choice([-1.0, 1.0]))
        b = float(rng.uniform(-3.0, 3.0))
        t = float(rng.uniform(0.3, 10.0))
        params = ModelParams(n=n, j=j, b=b)
        spectrum = full_spectrum(params)
        obs = reweight(spectrum.ring, j, b, t)
        beta = 1.0 / t

        def log_z(values, beta_):
            shifted = -beta_ * (values - values[0])
            return math.log(np.exp(shifted).sum()) - beta_ * values[0]

        values = eigenvalues(spectrum)
        u_fd = -(log_z(values, beta + h_step) - log_z(values, beta - h_step)) / (2 * h_step)
        worst_fd = max(worst_fd, abs(obs.u - u_fd) / max(1.0, abs(obs.u)))
        up = eigenvalues(full_spectrum(ModelParams(n=n, j=j, b=b + h_step)))
        down = eigenvalues(full_spectrum(ModelParams(n=n, j=j, b=b - h_step)))
        m_fd = -(log_z(up, beta) - log_z(down, beta)) / (2 * h_step * beta)
        worst_fd = max(worst_fd, abs(obs.m - m_fd) / max(1.0, abs(obs.m)))

        grid = np.geomspace(1e-2, 1e2, 40)
        us = np.array([reweight(spectrum.ring, j, b, tt).u for tt in grid])
        diffs = np.diff(us)
        e0 = spectrum.ground_energy
        resolvable = (us[1:] - e0) > 1e-12 * max(1.0, abs(e0))
        monotone_ok = monotone_ok and bool(
            np.all(us < 0.0) and np.all(diffs >= 0.0) and np.all(diffs[resolvable] > 0.0))
    ok = worst_fd <= 1e-5 and monotone_ok
    assert _report(9, ok, f"worst finite-difference deviation {worst_fd:.2e}, "
                          f"monotonicity {'ok' if monotone_ok else 'violated'}")


def test_criterion_10_reentrant_entanglement():
    spectrum = full_spectrum(ModelParams(n=4, j=1.0, b=2.5))
    cold = thermal_concurrence(spectrum, 0.01)
    warm = max(thermal_concurrence(spectrum, float(t)) for t in np.linspace(0.1, 2.0, 39))
    ok = cold < 1e-12 and warm > 0.01
    assert _report(10, ok, f"C(0.01) = {cold:.2e}, max C over [0.1, 2] = {warm:.4f}")
