"""Drivers: temperature/field sweeps, threshold-temperature bisection,
ground-level crossing finder, ground-state concurrence, and randomized
verification of the model's symmetry propositions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import concurrence_from_correlators, concurrence_xstate
from .eigensolver import Spectrum, full_spectrum, ring_model
from .hamiltonian import ModelParams
from .thermal import PairDensity, ground_state_reduced, observables, reduced_pair_density, reweight

# Below this, the clamped concurrence is indistinguishable from roundoff.
POSITIVE_CONCURRENCE = 1e-12
PROPOSITION_TOL = 1e-9
DEFAULT_SEED = 20020901
MAX_SWEEP_ROWS = 2_000_000

_SCAN_T_MIN = 0.05
_SCAN_T_MAX = 1.0e3


class CrossingResolutionError(RuntimeError):
    """Scan resolution too coarse to separate neighboring level crossings."""


class DegenerateGroundError(RuntimeError):
    """Ground level is degenerate (field sits exactly on a crossing)."""


@dataclass(frozen=True)
class SweepRow:
    """One grid point of the concurrence-vs-(T, B) sweep.

    concurrence is the same number `thermal_concurrence` gives at the point:
    the X-state closed form of `PairDensity.from_bond` on the grid's
    positive-sum pair probabilities.
    """

    t: float
    b: float
    j: float
    n: int
    z_shifted: float
    u: float
    m: float
    g_xx: float
    g_zz: float
    concurrence: float


@dataclass(frozen=True)
class PropositionReport:
    proposition: int
    samples: int
    max_discrepancy: float
    passed: bool


def thermal_concurrence(spectrum: Spectrum, t: float) -> float:
    """Nearest-neighbor concurrence of the Gibbs state at temperature t.

    The X-state closed form of `reduced_pair_density`, whose corner
    populations are positive spectral sums; this agrees with the correlator
    formula but stays relatively accurate deep in the polarized regime, where
    the correlator route loses its radicand to cancellation. A single site
    has no bond and reports 0.
    """
    if spectrum.ring.bond is None:
        return 0.0
    return concurrence_xstate(reduced_pair_density(spectrum, t))


def sweep(params: ModelParams, t_grid, b_grid, max_rows: int = MAX_SWEEP_ROWS) -> list[SweepRow]:
    """Evaluate observables and concurrence on the (t, b) grid.

    The whole grid is one reweighting of the cached ring spectrum. Rows come
    out in grid order: b outer, t inner. The concurrence column comes from
    the same positive-sum probabilities as `thermal_concurrence`, so a row
    agrees with `observables` and `thermal_concurrence` at its point; a
    single site has no bond and reports 0.
    """
    t_values = [float(t) for t in t_grid]
    b_values = [float(b) for b in b_grid]
    if not t_values or not b_values:
        raise ValueError("temperature and field grids must be nonempty")
    if any(t <= 0 for t in t_values):
        raise ValueError("temperature grid entries must be positive")
    if len(t_values) * len(b_values) > max_rows:
        raise ValueError(f"grid of {len(t_values) * len(b_values)} rows exceeds cap {max_rows}")
    ring = ring_model(params.n)
    block = reweight(ring, params.j, b_values, t_values, ring.bond)
    columns = [a.tolist() for a in (block.z_shifted, block.u, block.m, block.g_xx, block.g_zz)]
    probabilities = block.probabilities.tolist()
    rows = []
    for k_b, b in enumerate(b_values):
        z, u, m, g_xx, g_zz = (column[k_b] for column in columns)
        for k_t, t in enumerate(t_values):
            c = (concurrence_xstate(PairDensity.from_bond(*probabilities[k_b][k_t], g_xx[k_t]))
                 if ring.bond else 0.0)
            rows.append(SweepRow(t=t, b=b, j=params.j, n=params.n, z_shifted=z[k_t],
                                 u=u[k_t], m=m[k_t], g_xx=g_xx[k_t], g_zz=g_zz[k_t],
                                 concurrence=c))
    return rows


def threshold_temperature(params: ModelParams, tol: float = 1e-6) -> float | None:
    """Largest temperature with positive nearest-neighbor concurrence.

    Coarse factor-2 upward scan over [0.05, 1e3], read from one `sweep` of
    the grid, followed by bisection of the last positive bracket; None when
    nothing in the scan is entangled.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    grid = []
    t = _SCAN_T_MIN
    while t <= _SCAN_T_MAX:
        grid.append(t)
        t *= 2.0
    grid.append(t)
    entangled = [row.concurrence > POSITIVE_CONCURRENCE for row in sweep(params, grid, [params.b])]
    if not any(entangled):
        return None
    last = max(i for i, flag in enumerate(entangled) if flag)
    if last == len(grid) - 1:
        raise RuntimeError(f"still entangled at the top of the scan range ({grid[-1]})")
    lo, hi = grid[last], grid[last + 1]
    spectrum = full_spectrum(params)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if thermal_concurrence(spectrum, mid) > POSITIVE_CONCURRENCE:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _sector_floor_lines(n: int, j: float) -> list[tuple[float, int]]:
    """Per-sector ground-energy lines E_r(b) = eps_r + sz_r * b.

    Within a sector the field term is a constant shift, so each sector's
    minimum is exactly linear in b: intercept from the zero-field block,
    slope equal to the sector magnetization.
    """
    spectrum = full_spectrum(ModelParams(n=n, j=j, b=0.0))
    return [(float(sec.eig.values[0]), sec.sz) for sec in spectrum.sectors]


def level_crossings(n: int, j: float, b_max: float, resolution: float = 0.01) -> list[float]:
    """Fields in (0, b_max) where the ground level changes branch.

    Scans the per-sector ground-energy lines on a grid of the given
    resolution and bisects each branch change to 1e-9. Raises
    CrossingResolutionError if a third branch undercuts a located crossing,
    which means two crossings hid inside one scan cell.
    """
    if not b_max > 0:
        raise ValueError("b_max must be positive")
    if not 0 < resolution <= b_max:
        raise ValueError("resolution must be in (0, b_max]")
    lines = _sector_floor_lines(n, j)

    def energy(r, b):
        eps, sz = lines[r]
        return eps + sz * b

    def argmin_sector(b):
        return min(range(n + 1), key=lambda r: energy(r, b))

    steps = int(math.ceil(b_max / resolution))
    grid = np.linspace(0.0, b_max, steps + 1)
    crossings = []
    scale = max(1.0, abs(j), b_max)
    for lo, hi in zip(grid[:-1], grid[1:]):
        r_lo, r_hi = argmin_sector(lo), argmin_sector(hi)
        if r_lo == r_hi:
            continue
        a, c = float(lo), float(hi)
        # energy(r_lo) - energy(r_hi) changes sign on [a, c]; both are linear
        while c - a > 1e-9:
            mid = 0.5 * (a + c)
            if energy(r_lo, mid) <= energy(r_hi, mid):
                a = mid
            else:
                c = mid
        b_star = 0.5 * (a + c)
        if b_star <= 1e-9 * scale:
            continue  # a tie at b = 0 is a scan boundary, not an interior crossing
        floor = min(energy(r, b_star) for r in range(n + 1))
        if min(energy(r_lo, b_star), energy(r_hi, b_star)) > floor + 1e-9 * scale:
            raise CrossingResolutionError(
                f"another branch undercuts the crossing near b={b_star}; "
                f"decrease resolution={resolution}")
        crossings.append(b_star)
    return crossings


def ground_state_concurrence(params: ModelParams) -> float:
    """Nearest-neighbor concurrence of the ground state.

    Uses the reduced-density route for any field; at b = 0 the zero-field
    energy formula C = max(0, -+ E0/(n j) - g_zz - 1) / 2 (sign by the sign
    of j) is evaluated as well and must agree to 1e-9. A degenerate ground
    level sits exactly on a crossing and is refused; a single site has no
    bond and reports 0.
    """
    spectrum = full_spectrum(params)
    if spectrum.ground_mask().sum() > 1:
        raise DegenerateGroundError(
            f"ground level of {params} is degenerate; the field sits on a crossing")
    if spectrum.ring.bond is None:
        return 0.0
    rho = ground_state_reduced(spectrum)
    value = concurrence_xstate(rho)
    if params.b == 0.0 and params.j != 0.0:
        g_zz0 = 1.0 - 4.0 * rho.w
        branch = -1.0 if params.j > 0 else 1.0
        formula = 0.5 * max(0.0, branch * spectrum.ground_energy / (params.n * params.j)
                            - g_zz0 - 1.0)
        if abs(formula - value) > 1e-9:
            raise RuntimeError(
                f"zero-field energy formula ({formula}) disagrees with the "
                f"reduced-density route ({value})")
    return value


def _draw_parameters(rng: np.random.Generator) -> tuple[float, float, float]:
    # j stays clear of zero so energy-based relations keep a safe denominator
    j = 0.0
    while abs(j) < 0.05:
        j = float(rng.uniform(-2.0, 2.0))
    b = float(rng.uniform(-3.0, 3.0))
    t = float(math.exp(rng.uniform(math.log(0.05), math.log(50.0))))
    return j, b, t


def _worst_gap(n: int, draws, mirror) -> float:
    """Largest |C(j, b, t) - C(mirror(j, b), t)| over the draws on the n-ring,
    every point through `thermal_concurrence` on its own spectrum."""
    worst = 0.0
    for j, b, t in draws:
        j2, b2 = mirror(j, b)
        gap = (thermal_concurrence(full_spectrum(ModelParams(n=n, j=j, b=b)), t)
               - thermal_concurrence(full_spectrum(ModelParams(n=n, j=j2, b=b2)), t))
        worst = max(worst, abs(gap))
    return worst


def verify_propositions(n_list, samples: int = 200, seed: int = DEFAULT_SEED) -> list[PropositionReport]:
    """Randomized checks of the three symmetry propositions.

    1: concurrence is even in the field for every ring size.
    2: concurrence is even in the exchange constant for even rings.
    3: at zero field the concurrence equals the halved energy formula,
       with the sign branch chosen by the sign of the exchange constant.

    Each proposition is checked on `samples` draws of (j, b, t) per
    applicable ring size; a report passes when the worst discrepancy stays
    below 1e-9. Proposition 2 on odd rings is deliberately not covered here,
    see proposition2_odd_control.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n_list = list(n_list)
    rng = np.random.default_rng(seed)
    draws = [_draw_parameters(rng) for _ in range(samples)]

    worst1 = max((_worst_gap(n, draws, lambda j, b: (j, -b)) for n in n_list), default=0.0)
    worst2 = max((_worst_gap(n, draws, lambda j, b: (-j, b)) for n in n_list if n % 2 == 0),
                 default=0.0)

    worst3 = 0.0
    for n in n_list:
        for j, _, t in draws:
            for branch_j in (abs(j), -abs(j)):  # both exchange signs per draw
                spectrum = full_spectrum(ModelParams(n=n, j=branch_j, b=0.0))
                obs = observables(spectrum, t)
                c5 = concurrence_from_correlators(obs.g_xx, obs.g_zz, obs.m / n)
                sign = -1.0 if branch_j > 0 else 1.0
                c10 = 0.5 * max(0.0, sign * obs.u / (n * branch_j) - obs.g_zz - 1.0)
                worst3 = max(worst3, abs(c5 - c10))

    return [
        PropositionReport(1, samples, worst1, worst1 < PROPOSITION_TOL),
        PropositionReport(2, samples, worst2, worst2 < PROPOSITION_TOL),
        PropositionReport(3, samples, worst3, worst3 < PROPOSITION_TOL),
    ]


def proposition2_odd_control(n: int, samples: int = 200, seed: int = DEFAULT_SEED) -> PropositionReport:
    """Negative control: exchange-sign symmetry on an odd ring.

    Odd rings are outside the proposition's claim; this report documents that
    the symmetry genuinely breaks there (expect a failing flag) and must
    never be used as a pass criterion.
    """
    if n % 2 == 0:
        raise ValueError(f"control requires an odd ring, got n={n}")
    rng = np.random.default_rng(seed)
    draws = [_draw_parameters(rng) for _ in range(samples)]
    worst = _worst_gap(n, draws, lambda j, b: (-j, b))
    return PropositionReport(2, samples, worst, worst < PROPOSITION_TOL)
