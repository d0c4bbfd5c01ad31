import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import xxring.blocks as blocks
import xxring.experiments as experiments
from xxring.blocks import concurrence_xstate, gibbs_concurrence, reweight, sweep, verify_propositions
from xxring.cli import _resolved_digits, main
from xxring.eigensolver import full_spectrum, ring_model
from xxring.experiments import ground_state_concurrence, level_crossings, thermal_concurrence, threshold_temperature
from xxring.hamiltonian import MAX_ENERGY, ModelParams

from oracles import (
    _draw_parameters,
    concurrence_from_correlators,
    dense_floor_crossings,
    eigenvalues,
    full_hamiltonian,
    gibbs_density,
    partial_trace_pair,
    pointwise_odd_control,
    pointwise_propositions,
    sequential_threshold,
    wootters_concurrence,
)

B_CROSS_LOW = 2.0 * (math.sqrt(2.0) - 1.0)   # 0.82842712...
GROUND_CONCURRENCE = math.sqrt(2.0) / 2.0 - 0.25

# threshold temperature of the four-site ring at zero field, frozen from two
# independent routes (50-digit hyperbolic closed forms and brute-force
# spin-flip concurrence of the explicit 16x16 Gibbs state)
TC_N4_B0 = 2.2113514789894899


def test_thermal_concurrence_matches_correlator_formula():
    spectrum = full_spectrum(ModelParams(n=4, j=1.0, b=0.7))
    obs = reweight(spectrum.ring, 1.0, 0.7, 0.9)
    direct = concurrence_from_correlators(obs.g_xx, obs.g_zz, obs.m / 4)
    assert thermal_concurrence(spectrum, 0.9) == pytest.approx(direct, abs=1e-12)


def test_sweep_grid_order_and_contents():
    t_grid, b_grid = [0.5, 1.0, 2.0], [0.0, 1.0]
    block, concurrence = sweep(ModelParams(n=4, j=1.0, b=0.0), t_grid, b_grid)
    # fields down, temperatures across: entry [k_b, k_t] is the point (b_grid[k_b], t_grid[k_t])
    assert concurrence.shape == block.u.shape == (2, 3)
    assert np.all((0.0 <= concurrence) & (concurrence <= 1.0))
    assert np.all(block.z_shifted >= 1.0)
    for field in (block.u, block.m, block.g_xx, block.g_zz):
        assert np.all(np.isfinite(field))
    for k_b, b in enumerate(b_grid):
        for k_t, t in enumerate(t_grid):
            spectrum = full_spectrum(ModelParams(n=4, j=1.0, b=b))
            # the single-point kernel sums the same classes in another order
            assert concurrence[k_b, k_t] == pytest.approx(thermal_concurrence(spectrum, t), rel=0, abs=1e-12)
            assert block.u[k_b, k_t] == reweight(ring_model(4), 1.0, b, t).u


def test_sweep_concurrence_changes_sign_at_threshold():
    _, concurrence = sweep(ModelParams(n=4, j=1.0, b=0.0), [2.0, 2.3], [0.0])
    below, above = concurrence[0]
    assert below > 1e-3
    assert above == 0.0


def test_sweep_shows_dip_near_first_crossing():
    b_grid = [0.70, B_CROSS_LOW, 0.95]
    c = sweep(ModelParams(n=4, j=1.0, b=0.0), [0.01], b_grid)[1][:, 0]
    assert c[0] == pytest.approx(GROUND_CONCURRENCE, abs=1e-3)
    assert c[2] == pytest.approx(0.5, abs=1e-3)
    assert c[1] < min(c[0], c[2]) - 0.05  # the crossing point dips visibly


def test_sweep_is_deterministic():
    params = ModelParams(n=5, j=-1.2, b=0.0)
    grid_t, grid_b = [0.3, 0.9, 2.7], [0.0, 0.8]
    first, second = sweep(params, grid_t, grid_b), sweep(params, grid_t, grid_b)
    assert np.array_equal(first[1], second[1])
    assert np.array_equal(first[0].probabilities, second[0].probabilities)
    assert all(np.array_equal(getattr(first[0], name), getattr(second[0], name))
               for name in ("z_shifted", "u", "m", "g_xx", "g_zz"))


def test_sweep_validation(reweight_calls):
    params = ModelParams(n=4, j=1.0, b=0.0)
    with pytest.raises(ValueError):
        sweep(params, [], [0.0])
    # a grid just past the cap is refused before any reweighting
    assert 2001 * 1000 > experiments.MAX_POINTS >= 2000 * 1000
    with pytest.raises(ValueError, match="grid of 2001000 rows exceeds cap 2000000"):
        sweep(params, [1.0] * 2001, [0.0] * 1000)
    assert reweight_calls == []
    # a negative temperature is refused by the kernel's own rule
    with pytest.raises(ValueError, match="temperature must be nonnegative"):
        sweep(params, [-1.0, 1.0], [0.0])


def test_sweep_zero_temperature_column_is_the_ground_state():
    # the crossings B_CROSS_LOW and 2 included, where each is the ground-level mixture
    params = ModelParams(n=4, j=1.0, b=0.0)
    fields = [-3.0, -1.0, 0.0, 0.5, B_CROSS_LOW, 1.0, 2.0, 3.0]
    _, concurrence = sweep(params, [0.0, 1.0], fields)
    for b, c in zip(fields, concurrence[:, 0], strict=True):
        assert c == ground_state_concurrence(ModelParams(params.n, params.j, b))[1], b


@pytest.mark.parametrize("t_grid, b_grid", [
    ([1.0, math.inf], [0.0]),
    ([1.0], [0.0, math.inf]),
    ([1.0], [-math.inf, 0.0]),
    ([math.nan], [0.0]),
    ([1.0], [math.nan]),
])
def test_sweep_rejects_non_finite_grid_entries(t_grid, b_grid):
    with pytest.raises(ValueError, match="finite"):
        sweep(ModelParams(n=4, j=1.0, b=0.0), t_grid, b_grid)


def test_threshold_regression_zero_field():
    tc = threshold_temperature(ModelParams(n=4, j=1.0, b=0.0), tol=1e-6)
    assert tc == pytest.approx(TC_N4_B0, abs=5e-6)


def test_threshold_brackets_the_positivity_boundary():
    params = ModelParams(n=4, j=1.0, b=1.0)
    tc = threshold_temperature(params, tol=1e-6)
    spectrum = full_spectrum(params)
    assert thermal_concurrence(spectrum, tc - 1e-3) > 1e-12
    assert thermal_concurrence(spectrum, tc + 1e-3) <= 1e-12
    # the full-space route puts the boundary in the same bracket
    h = full_hamiltonian(params)
    assert wootters_concurrence(partial_trace_pair(gibbs_density(h, tc - 1e-3), 4, (0, 1))) > 1e-12
    assert wootters_concurrence(partial_trace_pair(gibbs_density(h, tc + 1e-3), 4, (0, 1))) <= 1e-12


def test_threshold_none_without_exchange():
    assert threshold_temperature(ModelParams(n=4, j=0.0, b=1.0)) is None


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(st.integers(2, 8), st.floats(0.5, 2.0), st.sampled_from([1.0, -1.0]), st.floats(-3.0, 3.0),
       st.floats(1e-3, 1e3))
def test_threshold_scales_with_the_couplings(n, j, sign, b, s):
    # H(s j, s b) = s H(j, b), so T_c(s j, s b) = s T_c(j, b); each value is
    # within half its tol of the true threshold
    tol = 1e-7
    base = threshold_temperature(ModelParams(n=n, j=sign * j, b=b), tol=tol)
    scaled = threshold_temperature(ModelParams(n=n, j=s * sign * j, b=s * b), tol=s * tol)
    if base is None:
        assert scaled is None
    else:
        assert abs(scaled - s * base) <= s * tol


def test_threshold_field_sign_invariance():
    plus = threshold_temperature(ModelParams(n=4, j=1.0, b=1.3), tol=1e-7)
    minus = threshold_temperature(ModelParams(n=4, j=1.0, b=-1.3), tol=1e-7)
    assert plus == pytest.approx(minus, abs=1e-6)


def test_level_crossings_empty_below_first():
    assert level_crossings(4, 1.0, 0.5) == []


def test_level_crossings_match_brute_force_scan_n6():
    fields = level_crossings(6, 1.0, 3.0)
    # oracle: ground energy of the full 64x64 matrix on a fine field grid
    grid = np.linspace(0.0, 3.0, 1201)
    ground = np.array([np.linalg.eigvalsh(full_hamiltonian(ModelParams(n=6, j=1.0, b=b)))[0]
                       for b in grid])
    slopes = np.diff(ground) / np.diff(grid)
    kink_cells = [k for k in range(len(slopes) - 1) if abs(slopes[k + 1] - slopes[k]) > 0.5]
    clusters = []
    for k in kink_cells:
        if clusters and k - clusters[-1][-1] <= 1:
            clusters[-1].append(k)
        else:
            clusters.append([k])
    kinks = [float(grid[cells[0] + 1] + grid[cells[-1] + 1]) / 2.0 for cells in clusters]
    assert len(fields) == len(kinks) == 3
    for found, kink in zip(fields, kinks):
        assert abs(found - kink) < 5e-3  # oracle resolution is the grid step
    # the middle crossing has a sharp closed-form location
    assert fields[0] == pytest.approx(4.0 - 2.0 * math.sqrt(3.0), abs=1e-6)
    assert fields[1] == pytest.approx(2.0 * math.sqrt(3.0) - 2.0, abs=1e-6)
    assert fields[2] == pytest.approx(2.0, abs=1e-6)


@pytest.mark.parametrize("j", [1.0, -1.0, 0.7, -2.5])
@pytest.mark.parametrize("n", range(2, 13))
def test_level_crossings_are_the_ed_floor_intersections(n, j):
    got = level_crossings(n, j, math.inf)
    want = dense_floor_crossings(n, j)
    assert len(got) == len(want), (got, want)
    for b, ref in zip(got, want):
        assert abs(b - ref) <= 1e-12 * max(1.0, ref), (n, j, b, ref)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.integers(1, 16), st.sampled_from([-1.0, 1.0]), st.floats(0.1, 2.0),
       st.one_of(st.floats(0.05, 50.0), st.just(math.inf)), st.floats(math.log(1e-3), math.log(1e3)))
def test_level_crossings_scale_with_the_exchange(n, sign, size, b_max, log_s):
    j, s = sign * size, math.exp(log_s)
    fields = level_crossings(n, j, math.inf)
    # a crossing at b_max itself may round to either side once scaled
    assume(all(abs(b - b_max) > 1e-9 * b_max for b in fields))
    want = [s * b for b in fields if b < b_max]
    got = level_crossings(n, s * j, s * b_max)
    assert len(got) == len(want)
    assert all(abs(g - w) <= 1e-12 * w for g, w in zip(got, want)), (n, j, s, got, want)


def test_level_crossings_skip_zero_field_ties():
    # odd rings and j = 0 are degenerate at b = 0; that is not a crossing
    assert level_crossings(3, 1.0, math.inf) == pytest.approx([1.0], rel=1e-12)
    assert level_crossings(1, 1.0, math.inf) == []
    assert level_crossings(4, 0.0, math.inf) == []


def test_level_crossings_validation():
    with pytest.raises(ValueError):
        level_crossings(4, 1.0, -1.0)
    with pytest.raises(ValueError):
        level_crossings(4, 1.0, float("nan"))
    with pytest.raises(ValueError):
        level_crossings(4, float("inf"), 2.0)


def test_ground_state_concurrence_ferromagnetic_branch():
    assert ground_state_concurrence(ModelParams(n=4, j=-1.0, b=0.0))[1] == pytest.approx(
        GROUND_CONCURRENCE, abs=1e-9)
    assert ground_state_concurrence(ModelParams(n=6, j=-0.7, b=0.0))[1] == pytest.approx(
        ground_state_concurrence(ModelParams(n=6, j=0.7, b=0.0))[1], abs=1e-9)


@pytest.mark.parametrize("n,j", [(4, 1e-320), (4, -1e-322), (16, 1e-320)])
def test_ground_accepts_a_subnormal_exchange(n, j, capsys):
    # U = j <kappa> is subnormal here, and U/(n j) carries its rounding: the concurrence is
    # still the one of j = +-1, and ground prints it as thermal --t 0 does
    want = ground_state_concurrence(ModelParams(n=n, j=math.copysign(1.0, j), b=0.0))[1]
    assert ground_state_concurrence(ModelParams(n=n, j=j, b=0.0))[1] == want
    assert main(["ground", "--n", str(n), f"--j={j!r}"]) == 0
    ground = capsys.readouterr().out.splitlines()
    assert main(["thermal", "--n", str(n), f"--j={j!r}", "--b", "0", "--t", "0"]) == 0
    thermal_lines = capsys.readouterr().out.splitlines()
    assert ground[1].split("=")[1] == thermal_lines[-1].split("=")[1]


@pytest.mark.parametrize("j", [1.0, -0.7, 1e-300])
def test_ground_refuses_an_energy_formula_off_by_1e_8(j, monkeypatch):
    # at a normal exchange the rounding allowance is below 1e-15, so the 1e-9 check still bites
    original = experiments._energy_formula
    monkeypatch.setattr(experiments, "_energy_formula", lambda *args: original(*args) + 1e-8)
    with pytest.raises(RuntimeError, match="disagrees"):
        ground_state_concurrence(ModelParams(n=6, j=j, b=0.0))


def test_ground_state_concurrence_is_the_mixture_at_a_crossing():
    # two branches meet at the crossing: the ground state is their uniform mixture, the T = 0 state
    g, c = ground_state_concurrence(ModelParams(n=4, j=1.0, b=B_CROSS_LOW))
    assert g.z_shifted == 2
    assert c == gibbs_concurrence(ring_model(4), 1.0, B_CROSS_LOW, 0.0)[1]


def test_verify_propositions_pass_and_reproduce():
    first = verify_propositions([2, 3, 4], samples=25)
    again = verify_propositions([2, 3, 4], samples=25)
    assert first == again
    assert [rep.proposition for rep in first] == [1, 2, 3]
    assert [rep.rings for rep in first] == [(2, 3, 4), (2, 4), (2, 3, 4)]
    for rep in first:
        assert rep.passed
        assert rep.samples == 25
        assert rep.max_discrepancy < 1e-9


def test_verify_propositions_seed_changes_draws():
    a = verify_propositions([3], samples=10, seed=1)
    b = verify_propositions([3], samples=10, seed=2)
    assert a[0].max_discrepancy != b[0].max_discrepancy


@pytest.mark.parametrize("samples", [1, 8, 200])
def test_block_draws_are_the_one_at_a_time_stream(samples):
    # seeds 1 and 26 redraw their first j, so at one sample the block of three doubles runs out
    for seed in (1, 26):
        assert abs(-2.0 + 4.0 * np.random.default_rng(seed).random()) < 0.05
    for seed in range(51):
        rng = np.random.default_rng(seed)
        want = [np.array(column) for column in zip(*(_draw_parameters(rng) for _ in range(samples)))]
        got = blocks._draw_parameters(np.random.default_rng(seed), samples)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), seed


def test_verify_draws_its_samples_once(capsys, monkeypatch):
    # the propositions and the odd control read the same (j, b, t) draws
    calls = []
    draw = blocks._draw_parameters
    monkeypatch.setattr(blocks, "_draw_parameters",
                        lambda rng, samples: calls.append(samples) or draw(rng, samples))
    assert main(["verify", "--n-list", "2,3", "--samples", "7", "--seed", "11"]) == 0
    assert calls == [7]
    assert "breaks as expected" in capsys.readouterr().out


def test_verify_propositions_validation(monkeypatch):
    def no_draw(rng, samples):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(blocks, "_draw_parameters", no_draw)
    with pytest.raises(ValueError):
        verify_propositions([4], samples=0)
    # an empty list would pass every proposition vacuously
    with pytest.raises(ValueError, match="nonempty"):
        verify_propositions([], samples=3)
    # five kernel points per sample on each ring: one sample past the cap is refused
    cap = experiments.MAX_POINTS // 5
    with pytest.raises(ValueError, match=f"{cap + 1} samples make {5 * cap + 5} points per ring, "
                                         f"over cap {experiments.MAX_POINTS}"):
        verify_propositions([4], samples=cap + 1)
    # numpy would refuse it only at the draw, naming neither the seed nor its value
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        verify_propositions([4], samples=3, seed=-1)
    # the list's ring sizes are checked before the control, the control before any draw
    with pytest.raises(ValueError, match=r"ring size must be an integer in \[1, 16\], got 17"):
        verify_propositions([2, 17], samples=3, odd_control=4)
    with pytest.raises(ValueError, match="control requires an odd ring n >= 3, got n=4"):
        verify_propositions([2], samples=3, odd_control=4)
    with pytest.raises(ValueError, match=r"ring size must be an integer in \[1, 16\], got 17"):
        verify_propositions([2], samples=3, odd_control=17)


def test_odd_ring_control_breaks_exchange_sign_symmetry():
    report = verify_propositions([2], samples=20, odd_control=5)[3]
    assert report.proposition == 2 and not report.passed
    assert report.max_discrepancy > 1e-3  # a genuine, macroscopic violation


@pytest.mark.parametrize("seed", [20020901, 7, 12345])
def test_odd_ring_control_breaks_even_at_one_sample(seed):
    # the unclamped X-state value is exchange-even on even rings only, so the
    # control reads a gap even where both signs are unentangled (it shrinks
    # with the ring: one draw of seed 7 reads 4e-11 on ring 9)
    for n in (3, 5, 7):
        for samples in (1, 2, 5):
            report = verify_propositions([2], samples=samples, seed=seed, odd_control=n)[3]
            assert not report.passed and report.max_discrepancy >= 1e-8, (n, samples)
    for n in (2, 4, 6, 8):
        assert verify_propositions([n], samples=5, seed=seed)[1].max_discrepancy <= 1e-15


@pytest.mark.parametrize("branch", [1.0, -1.0])
def test_proposition3_reweights_both_exchange_signs_of_every_draw(monkeypatch, branch):
    # at zero field the suite reweights each draw at +|j| and at -|j|, and
    # its gap reads both: lowering one branch's energies by 400 |j| moves the
    # energy formula (n = 4) by 100 there, and the concurrence not at all
    points = []
    original = blocks.gibbs_concurrence

    def shifted(ring, j, b, t):
        block, concurrence = original(ring, j, b, t)
        j, b, t = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (j, b, t)))
        points.append((j, b, t))
        hit = (b == 0.0) & (np.sign(j) == branch)
        return block._replace(u=np.where(hit, block.u - 400.0 * np.abs(j), block.u)), concurrence

    monkeypatch.setattr(blocks, "gibbs_concurrence", shifted)
    reports = verify_propositions([4], samples=6, seed=5)
    assert len(points) == 1
    zero_field = {(float(jj), float(tt)) for jj, bb, tt in zip(*(a.ravel() for a in points[0]))
                  if bb == 0.0}
    for jj, _, tt in zip(*_draws(6, 5)):
        assert (abs(jj), tt) in zero_field and (-abs(jj), tt) in zero_field
    assert reports[2].max_discrepancy > 10.0 and not reports[2].passed
    assert reports[0].passed and reports[1].passed


def test_odd_ring_control_rejects_even_n():
    with pytest.raises(ValueError):
        verify_propositions([2], samples=3, odd_control=4)


@pytest.mark.parametrize("n", [1, -1])
def test_odd_ring_control_rejects_a_ring_without_a_bond(n):
    # a single site has no bond, so the symmetry would hold vacuously
    with pytest.raises(ValueError, match="odd ring n >= 3"):
        verify_propositions([2], samples=3, odd_control=n)


def test_sweep_concurrence_uses_positive_sum_route():
    # deep in the polarized regime the correlator formula cancels its
    # radicand (it gives 1.779e-8 here); the sweep column must match the
    # brute-force Gibbs state
    n, j = 10, -1.3407092183981204
    b, t = 3.466051805564966, 0.10154588104523678
    concurrence = float(sweep(ModelParams(n=n, j=j, b=0.0), [t], [b])[1][0, 0])
    rho = gibbs_density(full_hamiltonian(ModelParams(n=n, j=j, b=b)), t)
    want = wootters_concurrence(partial_trace_pair(rho, n, (0, 1)))
    assert want == pytest.approx(3.7055e-8, rel=1e-4)
    assert concurrence == pytest.approx(want, abs=1e-12)
    assert concurrence == thermal_concurrence(full_spectrum(ModelParams(n=n, j=j, b=b)), t)
    # the kernel's own bond state reads the same positive-sum corners
    rho = reweight(ring_model(n), j, b, t).pair_density()
    assert concurrence_xstate(rho) == concurrence
    assert concurrence_xstate(rho) == pytest.approx(want, abs=1e-12)
    assert rho.u_plus > 0


@pytest.mark.parametrize("n_list,samples,seed", [
    ([2, 3, 4, 5, 6], 8, 3), ([1, 2], 5, 11), ([4, 7], 12, 20020901), ([6], 1, 5),
    # a repeated ring, and the odd control ring inside the list
    ([5, 3, 5], 6, 4),
])
def test_verify_propositions_equal_pointwise_loop(n_list, samples, seed):
    want = pointwise_propositions(n_list, samples, seed)
    for control in (0, *sorted({n for n in n_list if n % 2 and n >= 3}), 9):
        reports = verify_propositions(n_list, samples=samples, seed=seed, odd_control=control)
        assert len(reports) == (4 if control else 3)
        for report, worst in zip(reports, want):
            assert report.max_discrepancy == pytest.approx(worst, rel=0, abs=1e-14), report
        # a control on an odd ring of the list, or outside it
        if control:
            assert reports[3].max_discrepancy == pytest.approx(
                pointwise_odd_control(control, samples, seed), rel=0, abs=1e-14)


@pytest.mark.parametrize("n,seed", [(3, 1), (5, 20020901), (7, 9)])
def test_odd_control_equals_pointwise_loop(n, seed):
    report = verify_propositions([n], samples=10, seed=seed, odd_control=n)[3]
    assert report.max_discrepancy == pytest.approx(pointwise_odd_control(n, 10, seed),
                                                   rel=0, abs=1e-14)


def _propositions_argv(seed, index):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from workloads import make_op
    finally:
        sys.path.pop(0)
    return list(make_op("propositions", seed, index).argv)


def test_verify_stacks_its_rings_into_few_kernel_calls(capsys, reweight_calls):
    # every verify is one kernel call on one stack: each distinct ring once, in first-listed
    # order, then the control, however many passes the stack takes
    for seed, index in [(1, -1), (1, 0), (3, 17)]:
        reweight_calls.clear()
        assert main(_propositions_argv(seed, index)) == 0
        assert reweight_calls == [((2, 3, 4, 5, 6), (5, 5, 8))]
    capsys.readouterr()
    for n_list, control, samples in [
        ([1, 2, 3, 4, 5, 6], 0, 8), ([5, 3, 5], 5, 8), ([5, 3, 5], 7, 8), ([2, 4], 7, 8), ([1], 0, 3),
        (list(range(2, 17)), 5, 8), (list(range(2, 17)), 0, 60), (list(range(1, 13)), 9, 40),
        (list(range(2, 17)), 15, 200), ([1, 2, 16], 0, 200), ([15, 16], 0, 8), ([15, 16], 0, 200),
        ([6, 2, 16, 2, 4], 3, 20),
    ]:
        reweight_calls.clear()
        verify_propositions(n_list, samples=samples, seed=3, odd_control=control)
        stack = tuple(dict.fromkeys(n_list + ([control] if control else [])))
        assert reweight_calls == [(stack, (len(stack), 5, samples))]


def _draws(samples, seed):
    return blocks._draw_parameters(np.random.default_rng(seed), samples)


def _random_lists():
    rng = np.random.default_rng(17)
    for _ in range(6):
        n_list = rng.integers(1, 17, size=rng.integers(1, 7)).tolist()
        control = int(rng.choice([0, 3, 5, 7, 9, 11, 13, 15]))
        yield n_list, control, int(rng.integers(1, 30)), int(rng.integers(1, 10**6))


_GAP_CASES = [
    ([2, 3, 4, 5, 6], 5, 8, 3), ([1, 2], 3, 3, 11), ([1], 0, 4, 2), ([6, 6, 2, 6], 9, 5, 7),
    (list(range(2, 17)), 5, 8, 1), (list(range(2, 17)), 0, 60, 4), (list(range(1, 13)), 13, 40, 5),
    *_random_lists(),
]


# "rule" checks the stack verify itself hands the kernel: each distinct ring, in first-listed
# order then the control, at the draws of its seed, in one call however many passes that
# takes. "one stack" calls the kernel directly on the case's rings. Each pass holds at most
# 2^20 weights whatever the stack, so the call's memory does not grow with the samples; its
# output does, rings x 5 x samples points, and so does its time. The 40-sample cap on "one
# stack" only keeps the run short
@pytest.mark.parametrize("n_list,control,samples,seed,stacking",
                         [(*case, "rule") for case in _GAP_CASES]
                         + [(*case, "one stack") for case in _GAP_CASES if case[2] <= 40])
def test_stacked_gaps_equal_the_per_ring_reference(n_list, control, samples, seed, stacking, monkeypatch):
    rings = [ring_model(n) for n in dict.fromkeys(n_list + ([control] if control else []))]
    j, b, t = _draws(samples, seed)
    if stacking == "rule":
        calls = []
        original = blocks._ring_gaps

        def recording(stack, *points):
            calls.append((stack, points, original(stack, *points)))
            return calls[-1][-1]

        monkeypatch.setattr(blocks, "_ring_gaps", recording)
        verify_propositions(n_list, samples=samples, seed=seed, odd_control=control)
        monkeypatch.undo()
        [(stack, points, got)] = calls
        assert stack == rings
        assert all(np.array_equal(drawn, want) for drawn, want in zip(points, (j, b, t), strict=True))
    else:
        got = blocks._ring_gaps(rings, j, b, t)
    # a stack changes no number: every gap is the ring's own, bit for bit
    want = {ring.n: blocks._ring_gaps([ring], j, b, t)[ring.n] for ring in rings}
    assert got == want
    # the reports read the same worst gaps, and no pass flag moves
    reports = verify_propositions(n_list, samples=samples, seed=seed, odd_control=control)
    worst = [max(want[n][0] for n in n_list), max((want[n][1] for n in n_list if n % 2 == 0), default=0.0),
             max(want[n][2] for n in n_list)] + ([want[control][1]] if control else [])
    assert [report.max_discrepancy for report in reports] == worst
    evens = tuple(n for n in n_list if n % 2 == 0)
    assert [report.rings for report in reports] == [tuple(n_list), evens, tuple(n_list)] + ([(control,)] if control else [])
    assert [report.passed for report in reports] == [gap < experiments.PROPOSITION_TOL for gap in worst]


_FIELDS = ("z_shifted", "u", "m", "g_xx", "g_zz", "probabilities")


def _assert_stack_is_each_ring_alone(sizes, j, b, t):
    # a ring's lone call, its one-element list (one layout, a stack of one) and its slot
    # in the stack agree bit for bit, and so do its slots in the same stack called
    # again (its layout from the cache) and in the reversed stack
    shape = np.broadcast_shapes(np.shape(j), np.shape(b), np.shape(t))
    rings = [ring_model(n) for n in sizes]
    stacked = reweight(rings, j, b, t)
    hits = blocks._layout.cache_info().hits
    again = reweight(rings, j, b, t)
    assert blocks._layout.cache_info().hits == hits + 1
    backward = reweight(rings[::-1], j, b, t)
    assert stacked.u.shape == again.u.shape == backward.u.shape == (len(sizes),) + shape
    for k, n in enumerate(sizes):
        alone = reweight(ring_model(n), j, b, t)
        hits = blocks._layout.cache_info().hits
        listed = reweight([ring_model(n)], j, b, t)
        assert blocks._layout.cache_info().hits == hits + 1
        assert alone.u.shape == shape and listed.u.shape == (1,) + shape
        for name in _FIELDS:
            want = getattr(alone, name).tobytes()
            assert getattr(stacked, name)[k].tobytes() == want, (sizes, n, name)
            assert getattr(again, name)[k].tobytes() == want, (sizes, n, name)
            assert getattr(backward, name)[-1 - k].tobytes() == want, (sizes, n, name)
            assert getattr(listed, name)[0].tobytes() == want, (sizes, n, name)
    # every layout, a lone ring's too, is read-only
    for stack in (rings, rings[::-1], rings[:1]):
        layout = blocks._layout(tuple(stack))
        arrays = [layout.kappa, layout.sz, layout.starts, layout.sizes, layout.two_n, *layout.tables]
        assert not any(array.flags.writeable for array in arrays), sizes


def test_a_stack_reweights_each_ring_as_alone(monkeypatch):
    # each ring's sums run over exactly its own classes, in a lone call's order: every
    # array of a stacked call is the ring's own call bit for bit, at T > 0 and at T = 0,
    # at a degenerate ground, on the all-zero spectrum and in calls of several passes
    rng = np.random.default_rng(8)
    j = np.append(rng.uniform(-2.0, 2.0, 7), [0.0, 1.0, 0.0])
    b = np.append(rng.uniform(-3.0, 3.0, 7), [0.0, 0.0, 0.7])
    for t in (rng.uniform(0.05, 5.0, 10), np.zeros(10), np.full(10, 1e-310)):
        _assert_stack_is_each_ring_alone([1, 2, 5, 8, 16, 3], j, b, t)
    for _ in range(12):
        sizes = rng.integers(1, 17, size=rng.integers(2, 7)).tolist()
        points = int(rng.integers(1, 400))
        j, b = rng.uniform(-2.0, 2.0, points), rng.uniform(-3.0, 3.0, points)
        b[rng.random(points) < 0.2] = 0.0
        t = np.exp(rng.uniform(math.log(0.01), math.log(50.0), points))
        t[rng.random(points) < 0.3] = 0.0
        _assert_stack_is_each_ring_alone(sizes, j, b, t)
    # one T = 0 point among positive ones, at a nondegenerate ground (b = 0) and at the
    # n = 4 crossing, where the ground mask holds two classes of different sz
    crossing = 2.0 * (math.sqrt(2.0) - 1.0)
    _assert_stack_is_each_ring_alone([4, 6, 4], 1.0, np.array([0.0, crossing, crossing, 2.0]),
                                     np.array([0.7, 0.0, 1.3, 0.4]))
    _assert_stack_is_each_ring_alone([4, 9], 1.0, 0.0, np.array([0.0, 0.5]))
    # a grid, its rows sharing each (j, b) entry
    _assert_stack_is_each_ring_alone([16, 15, 4], 1.3, np.linspace(-2.0, 2.0, 30)[:, None], np.linspace(0.0, 3.0, 40))
    # passes of a few points, lone and stacked: every point its own entry (verify's
    # rows, T = 0 among them), and a grid whose passes read a range of entries
    monkeypatch.setattr(blocks, "_BLOCK_WEIGHTS", 100)
    j, b = rng.uniform(-2.0, 2.0, (5, 8)), rng.uniform(-3.0, 3.0, (5, 8))
    t = np.exp(rng.uniform(math.log(0.05), math.log(50.0), 8))
    t[[2, 5]] = 0.0
    _assert_stack_is_each_ring_alone([2, 3, 4, 5, 6], j, b, t)
    _assert_stack_is_each_ring_alone([6, 2], -0.8, np.linspace(-1.0, 1.0, 7)[:, None], np.linspace(0.0, 2.0, 9))


@pytest.mark.parametrize("n,j,b,tol", [
    (2, 1.0, 0.0, 1e-6), (3, -0.8, 0.4, 1e-6), (4, 1.0, 0.0, 1e-6), (4, 1.0, 1.3, 1e-7),
    (4, -1.0, 2.5, 1e-6), (5, 1.7, -0.9, 1e-5), (6, 1.0, 2.0, 1e-6), (8, -0.6, 0.3, 1e-9),
    (4, 1.0, 0.0, 10.0), (4, 0.0, 1.0, 1e-6), (1, 1.0, 1.0, 1e-6), (4, 1e-323, 0.0, 1e-6),
    (16, -1.2, 0.7, 1e-6),
])
def test_threshold_equals_the_pointwise_loop(n, j, b, tol):
    params = ModelParams(n=n, j=j, b=b)
    got, want = threshold_temperature(params, tol=tol), sequential_threshold(params, tol=tol)
    if want is None:
        assert got is None
    else:
        assert got == pytest.approx(want, rel=0, abs=1e-12)
        # the bytes `threshold` prints
        assert "%.*g" % (_resolved_digits(got, tol), got) == "%.*g" % (_resolved_digits(want, tol), want)


def test_threshold_scans_in_one_call_then_bisects_one_midpoint_per_call(reweight_calls, point_calls):
    # the scan 0.05 * 2^k, k = 0..15, runs up past 1e3 max(1, |j|, |b|) and is read from the top,
    # one single-point kernel call per temperature, down to the first entangled point, 1.6
    # (k = 5): 11 calls. T_c lies in the bracket above it, [1.6, 3.2]: halving the width 1.6
    # down to tol = 1e-6 takes ceil(log2(1.6e6)) = 21 steps, each one call at one point
    assert 1.6 < threshold_temperature(ModelParams(n=12, j=1.0, b=0.5), tol=1e-6) < 3.2
    assert point_calls[:11] == [(12, 0.05 * 2.0 ** k) for k in range(15, 4, -1)]
    assert len(point_calls) == 11 + 21 and all(1.6 < t < 3.2 for _, t in point_calls[11:])
    assert reweight_calls == []


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_threshold_at_the_largest_couplings_reads_tens_of_points(point_calls, sign):
    # at 4n|j| = MAX_ENERGY the scan range [0.05, 1e3 |j|] holds 1,058 points, but T_c = 1.94 |j|
    # lies 10 halvings below its top: the scan reads 11 points, and the bisection of a factor-2
    # bracket down to adjacent doubles (tol is far below their spacing) at most 53 midpoints
    n = 16
    j = sign * MAX_ENERGY / (4 * n)
    tc = threshold_temperature(ModelParams(n=n, j=j, b=0.0))
    t = [point[1] for point in point_calls]
    assert t[0] > 1e3 * abs(j) and all(t[k + 1] == t[k] / 2.0 for k in range(10))
    assert t[10] < tc < t[9] and all(t[10] < mid < t[9] for mid in t[11:])
    assert 11 < len(t) <= 11 + 53


def test_threshold_refusals_read_the_top_first_and_an_unentangled_scan_whole(point_calls, monkeypatch):
    # a ring still entangled at the top of the scan is refused at its first point, the top
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "POSITIVE_CONCURRENCE", -1.0)
        with pytest.raises(RuntimeError, match=r"still entangled at the top of the scan range \(1638.4\)"):
            threshold_temperature(ModelParams(n=4, j=1.0, b=0.0))
    assert point_calls == [(4, 1638.4)]
    # far beyond the entangled fields no point is entangled: every point of the scan
    # 0.05 * 2^k up past 1e3 |b| = 1e5 is read, from the top, and there is no threshold
    point_calls.clear()
    assert threshold_temperature(ModelParams(n=4, j=1.0, b=100.0)) is None
    assert point_calls == [(4, 0.05 * 2.0 ** k) for k in range(21, -1, -1)]


def test_sequential_bisection_stops_at_adjacent_doubles():
    # a tol below the spacing of doubles ends both loops at adjacent doubles,
    # down to the subnormals
    params = ModelParams(4, 1.0, 0.0)
    for tol in (1e-17, 1e-310, 5e-324):
        want = threshold_temperature(params, tol=tol)
        assert sequential_threshold(params, tol=tol) == want, tol


def test_largest_accepted_energies_stay_finite():
    # at the bound every command's sums stay finite: 4n|j| + n|b| = MAX_ENERGY
    n = 16
    for j, b in [(MAX_ENERGY / (4 * n), 0.0), (0.0, MAX_ENERGY / n),
                 (MAX_ENERGY / (8 * n), -MAX_ENERGY / (2 * n))]:
        params = ModelParams(n=n, j=j, b=b)
        spectrum = full_spectrum(params)
        assert np.isfinite(eigenvalues(spectrum).sum())
        block, concurrence = blocks.gibbs_concurrence(ring_model(n), j, b, [1.0, abs(j) + abs(b)])
        assert all(np.all(np.isfinite(a)) for a in (block.u, block.m, block.z_shifted, concurrence))
        assert all(map(math.isfinite, level_crossings(n, j, math.inf)))
        threshold_temperature(params)
