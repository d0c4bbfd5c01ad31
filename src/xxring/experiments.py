"""Drivers: temperature/field sweeps, threshold-temperature bisection,
ground-level crossings (exact, from the lower envelope of the sector-floor
lines), ground-state concurrence, and randomized verification of the
model's symmetry propositions. Only `sweep` and `verify_propositions`
reweight a block of points (`gibbs_concurrence`) and import numpy; the
rest work on single points (`gibbs_concurrence_point`)."""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import TYPE_CHECKING, NamedTuple

from .entanglement import concurrence_xstate, concurrence_xstate_point
from .eigensolver import GROUND_RTOL, RingModel, Spectrum, full_spectrum, ring_model, same_level
from .hamiltonian import ModelParams
from .thermal import GibbsBlock, PairDensity, reweight, reweight_point

if TYPE_CHECKING:
    import numpy as np

# Below this, the clamped concurrence is indistinguishable from roundoff.
POSITIVE_CONCURRENCE = 1e-12
PROPOSITION_TOL = 1e-9
DEFAULT_SEED = 20020901
MAX_POINTS = 2_000_000

_SCAN_T_MIN = 0.05
_SCAN_T_MAX = 1.0e3


class PropositionReport(NamedTuple):
    proposition: int
    rings: tuple[int, ...]
    samples: int
    max_discrepancy: float
    passed: bool


def gibbs_concurrence(ring: RingModel | Sequence[RingModel], j, b, t) -> tuple[GibbsBlock, np.ndarray | float]:
    """Gibbs averages and nearest-neighbor concurrence at the broadcast
    points (j, b, t) of one ring, or of a stack of rings, from one
    `reweight` call on its bond.

    The concurrence is the X-state closed form of the block's positive-sum
    pair probabilities (`GibbsBlock.pair_density`): a float at a single
    point of one ring, else an array of the block's shape. A single site has
    no bond and reports 0, never reaching the state checks.
    """
    import numpy as np
    block = reweight(ring, j, b, t)
    rho = block.pair_density()
    lone = isinstance(ring, RingModel)
    bonded = [r.n > 1 for r in ([ring] if lone else ring)]
    if all(bonded):
        return block, concurrence_xstate(rho)
    bonded = np.array(bonded[0] if lone else bonded)
    concurrence = np.zeros(block.g_xx.shape)
    concurrence[bonded] = concurrence_xstate(PairDensity(*(x[bonded] for x in (
        rho.u_plus, rho.u_minus, rho.w, rho.z))))
    return block, concurrence[()]


def gibbs_concurrence_point(ring: RingModel, j: float, b: float, t: float) -> tuple[GibbsBlock, float]:
    """`gibbs_concurrence` at the single point (j, b, t) of one ring, as
    floats and without numpy (`reweight_point`, `concurrence_xstate_point`).
    A single site has no bond and reports 0, never reaching the state checks."""
    block = reweight_point(ring, j, b, t)
    return block, concurrence_xstate_point(block.pair_density()) if ring.n > 1 else 0.0


def thermal_concurrence(spectrum: Spectrum, t: float) -> float:
    """Nearest-neighbor concurrence of the Gibbs state at temperature t.

    The X-state closed form of the bond state at the point
    (`gibbs_concurrence_point`), whose corner populations are positive
    spectral sums, so it stays relatively accurate deep in the polarized
    regime. A single site has no bond and reports 0.
    """
    params = spectrum.params
    return gibbs_concurrence_point(spectrum.ring, params.j, params.b, t)[1]


def sweep(params: ModelParams, t_grid, b_grid) -> tuple[GibbsBlock, np.ndarray]:
    """Observables and concurrence on the (t, b) grid, in one reweighting of
    the cached ring.

    Returns the Gibbs block and its concurrence, both of shape
    (fields, temperatures): entry [k_b, k_t] is the point (b_grid[k_b],
    t_grid[k_t]). The grids are any sequences of real numbers, read in the
    order given; the CLI passes the ascending tuples of floats its axis memo
    keeps, which are read, never changed. The concurrence is the same number
    `thermal_concurrence` gives at the point; a single site has no bond and
    reports 0. A grid of more than MAX_POINTS points is refused before any
    reweighting.
    """
    t_values = [float(t) for t in t_grid]
    b_values = [float(b) for b in b_grid]
    if not t_values or not b_values:
        raise ValueError("temperature and field grids must be nonempty")
    if not all(map(math.isfinite, t_values + b_values)):
        raise ValueError("temperature and field grid entries must be finite")
    # the grid's strongest field must pass the energy bound of a single point
    ModelParams(n=params.n, j=params.j, b=max(map(abs, b_values)))
    if len(t_values) * len(b_values) > MAX_POINTS:
        raise ValueError(f"grid of {len(t_values) * len(b_values)} rows exceeds cap {MAX_POINTS}")
    import numpy as np
    return gibbs_concurrence(ring_model(params.n), params.j, np.array(b_values)[:, None], t_values)


def _splits(lo: float, hi: float, tol: float) -> bool:
    """Whether bisection still narrows [lo, hi]: wider than tol, with a midpoint
    strictly inside (for adjacent doubles the midpoint is lo or hi)."""
    return hi - lo > tol and lo < 0.5 * (lo + hi) < hi


def threshold_temperature(params: ModelParams, tol: float = 1e-6) -> float | None:
    """Largest temperature with positive nearest-neighbor concurrence.

    Coarse factor-2 upward scan, then bisection of the last positive
    bracket down to tol (or to adjacent doubles, if tol is finer), one
    `gibbs_concurrence_point` call per temperature; None when nothing in the
    scan is entangled, and at j = 0, where every Gibbs state is a product state.
    The threshold scales with the couplings, so the scan covers
    [0.05 min(1, |j|), 1e3 max(1, |j|, |b|)]: the top of the entangled
    window lay between 0.6 |j| and 4.6 |j| on rings n = 2..12 with
    |b| <= 100 |j|, and no ring was entangled beyond |b| = 56 |j|.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if params.j == 0.0:
        return None
    grid = []
    # below |j| ~ 1e-322 the product rounds to 0: start at the least positive double instead
    t = max(_SCAN_T_MIN * min(1.0, abs(params.j)), math.ulp(0.0))
    t_max = _SCAN_T_MAX * max(1.0, abs(params.j), abs(params.b))
    while t <= t_max:
        grid.append(t)
        t *= 2.0
    grid.append(t)
    ring = ring_model(params.n)
    entangled = [gibbs_concurrence_point(ring, params.j, params.b, t)[1] > POSITIVE_CONCURRENCE for t in grid]
    if not any(entangled):
        return None
    last = max(k for k, flag in enumerate(entangled) if flag)
    if last == len(grid) - 1:
        raise RuntimeError(f"still entangled at the top of the scan range ({grid[-1]})")
    lo, hi = grid[last], grid[last + 1]
    while _splits(lo, hi, tol):
        mid = 0.5 * (lo + hi)
        if gibbs_concurrence_point(ring, params.j, params.b, mid)[1] > POSITIVE_CONCURRENCE:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def level_crossings(n: int, j: float, b_max: float) -> list[float]:
    """Fields in (0, b_max) where the ground level changes branch.

    Within a sector the field only shifts every level by sz * b, so sector
    r's ground energy is the line floor_r + (n - 2r) * b, with floor_r its
    lowest zero-field level, and the ground level is the lower envelope of
    these lines. The envelope is walked upward from b = 0, starting on the
    lowest line there: each crossing is where the first line of smaller
    slope meets the current one, and the walk moves on to that line. Tied lines go
    to the smallest slope: zero-field floors of one level (`same_level`), a zero-field
    degeneracy and no crossing, and meeting fields within GROUND_RTOL * |j|. Slopes
    fall at every step, so there are at most n steps; b_max may be infinite.
    """
    if not b_max > 0:
        raise ValueError("b_max must be positive")
    spectrum = full_spectrum(ModelParams(n=n, j=j, b=0.0))
    slopes = [n - 2.0 * r for r in range(n + 1)]
    # sector r holds the classes of sz = n - 2r
    floors = [math.inf] * (n + 1)
    for e, sz in zip(spectrum.class_energies(), spectrum.ring.class_sz):
        r = (n - int(sz)) // 2
        floors[r] = min(floors[r], e)
    lowest = min(floors)
    # slopes descend with r, so the last of several tied lines is the smallest slope
    branch = max(r for r, floor in enumerate(floors) if same_level(floor, lowest, lowest))
    # meeting fields are fields, not energies, in units of j: they tie within GROUND_RTOL * |j|
    tie = GROUND_RTOL * abs(j)
    crossings = []
    while branch < n:
        meets = [(floors[r] - floors[branch]) / (slopes[branch] - slopes[r]) for r in range(branch + 1, n + 1)]
        b = min(meets)
        if not b < b_max:
            break
        crossings.append(b)
        branch += 1 + max(k for k, meet in enumerate(meets) if meet <= b + tie)
    return crossings


def _energy_formula(energy, n: int, j, g_zz):
    """The zero-field energy formula for the concurrence,
    max(0, -+ energy/(n j) - g_zz - 1) / 2, its sign branch by the sign of j;
    arrays broadcast, and floats give a float without numpy (a formula of 0
    may be -0)."""
    excess = (1.0 - 2.0 * (j > 0)) * energy / (n * j) - g_zz - 1.0
    return 0.5 * (excess > 0.0) * excess


def ground_state_concurrence(params: ModelParams) -> tuple[GibbsBlock, float]:
    """The ground state and its nearest-neighbor concurrence: the Gibbs block
    at T = 0 and its concurrence, from one `gibbs_concurrence_point` call.

    A degenerate ground level (a field on a crossing, or the +-k mode pair of
    an odd ring) gives the uniform mixture over the level, the T -> 0 limit,
    and the block's z_shifted is its degeneracy. At b = 0 the zero-field
    energy formula C = max(0, -+ U/(n j) - g_zz - 1) / 2 (sign by the sign of
    j) must agree to 1e-9 + ulp(U)/(n |j|): below |j| ~ 1e-308 the energy
    U = j <kappa> is a subnormal double of few bits, and U/(n j) carries its
    rounding. A single site has no bond and reports 0.
    """
    g, value = gibbs_concurrence_point(ring_model(params.n), params.j, params.b, 0.0)
    if params.b == 0.0 and params.j != 0.0:
        formula = _energy_formula(g.u, params.n, params.j, g.g_zz)
        if abs(formula - value) > 1e-9 + math.ulp(g.u) / (params.n * abs(params.j)):
            raise RuntimeError(
                f"zero-field energy formula ({formula}) disagrees with the "
                f"reduced-density route ({value})")
    return g, value


def _draw_parameters(rng: np.random.Generator, samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`samples` draws of (j, b, t) from one block of the generator's doubles.

    Each draw reads j = uniform(-2, 2), redrawn while |j| < 0.05 so that
    energy-based relations keep a safe denominator, then b = uniform(-3, 3)
    and t = exp(uniform(log 0.05, log 50)). `Generator.uniform(low, high)`
    maps the generator's next double u to low + (high - low) * u, so walking
    one `rng.random` block with the same maps reads the same doubles, in the
    same order, as one `uniform` call per value; redraws that use up the
    block draw more doubles.
    """
    import numpy as np
    u = rng.random(3 * samples).tolist()
    # high - low as a double: 4 and 6 exactly, and the log span rounded once
    log_t_low = math.log(0.05)
    log_t_span = math.log(50.0) - log_t_low
    j, b, t = [], [], []
    k = 0
    for left in range(samples, 0, -1):
        j_k = 0.0
        while abs(j_k) < 0.05:
            if len(u) - k < 3:
                u += rng.random(3 * left).tolist()
            j_k = -2.0 + 4.0 * u[k]
            k += 1
        j.append(j_k)
        b.append(-3.0 + 6.0 * u[k])
        t.append(math.exp(log_t_low + log_t_span * u[k + 1]))
        k += 2
    return np.array(j), np.array(b), np.array(t)


def _ring_gaps(rings: list[RingModel], j: np.ndarray, b: np.ndarray,
               t: np.ndarray) -> dict[int, tuple[float, float, float]]:
    """Worst gaps of the three propositions on each of the rings over the
    draws (j, b, t), by ring size, from one kernel call on the rings as one
    stack at the rows (j, b), (j, -b), (-j, b), (|j|, 0) and (-|j|, 0): the
    field mirror of the concurrence (rows 0 and 1), the exchange mirror
    (rows 0 and 2), and at zero field the gap between the concurrence and
    the halved energy formula (rows 3 and 4, whose sign branch follows the
    sign of j). Every concurrence is the clamped X-state value the program
    prints. The exchange mirror compares the unclamped X-state value
    2 (|z| - sqrt(u+ u-)), which is the concurrence wherever that is
    positive: its evenness implies the concurrence's, and on odd rings it
    breaks even where both signs are unentangled. It is computed on every
    ring, so the odd control reads it too."""
    import numpy as np
    abs_j = np.abs(j)
    rows_j = np.array([j, j, -j, abs_j, -abs_j])
    rows_b = np.zeros((5, b.size))
    rows_b[0] = rows_b[2] = b
    rows_b[1] = -b
    g, concurrence = gibbs_concurrence(rings, rows_j, rows_b, t)
    n = np.array([float(ring.n) for ring in rings])[:, None, None]
    mirror_b = np.abs(concurrence[:, 0] - concurrence[:, 1]).max(axis=1)
    # 2 (|z| - sqrt(u+ u-)) of rows 0 and 2, with z = g_xx / 2 and corners p00 and p11
    p = g.probabilities[:, 0:3:2]
    unclamped = np.abs(g.g_xx[:, 0:3:2]) - 2.0 * np.sqrt(p[..., 0] * p[..., 3])
    mirror_j = np.abs(unclamped[:, 0] - unclamped[:, 1]).max(axis=1)
    zero_field = slice(3, 5)
    formula = _energy_formula(g.u[:, zero_field], n, rows_j[zero_field], g.g_zz[:, zero_field])
    energy_gap = np.abs(concurrence[:, zero_field] - formula).max(axis=(1, 2))
    return {ring.n: gaps for ring, gaps in zip(rings, zip(mirror_b.tolist(), mirror_j.tolist(), energy_gap.tolist()))}


def verify_propositions(n_list, samples: int = 200, seed: int = DEFAULT_SEED,
                        odd_control: int = 0) -> list[PropositionReport]:
    """Randomized checks of the three symmetry propositions.

    1: concurrence is even in the field for every ring size.
    2: concurrence is even in the exchange constant for even rings.
    3: at zero field the concurrence, the X-state value every command
       prints, equals the halved energy formula, with the sign branch
       chosen by the sign of the exchange constant.

    Each proposition is checked on `samples` draws of (j, b, t) per
    applicable ring size. Each report names its rings (`rings`: the list as
    given for 1 and 3, its even rings for 2) and holds their worst
    discrepancy, 0 for no ring; it passes below 1e-9. The draws are made
    once, in one generator call (`_draw_parameters`), and the distinct
    rings, in first-listed order and then the control, are reweighted as one
    stack at the same 5 * samples points (at most MAX_POINTS) serving all
    three: one kernel call (`_ring_gaps`), whose passes bound its memory. An
    empty ring list is refused: it would pass every proposition vacuously.

    A nonzero odd_control adds a fourth report, proposition 2 on the rings
    (odd_control,), an odd ring n >= 3 outside the claim: the symmetry
    breaks there (expect a failing flag), so it is never a pass criterion.
    Every argument is checked, the list's rings before the control, before
    any draw.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if 5 * samples > MAX_POINTS:
        raise ValueError(f"{samples} samples make {5 * samples} points per ring, over cap {MAX_POINTS}")
    # numpy's own refusal names neither the argument nor its value
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    n_list = list(n_list)
    if not n_list:
        raise ValueError("ring list must be nonempty")
    import numpy as np
    rings = {n: ring_model(n) for n in n_list}
    if odd_control:
        if odd_control < 3 or odd_control % 2 == 0:
            raise ValueError(f"control requires an odd ring n >= 3, got n={odd_control}")
        rings[odd_control] = ring_model(odd_control)
    rng = np.random.default_rng(seed)
    j, b, t = _draw_parameters(rng, samples)
    gaps = _ring_gaps(list(rings.values()), j, b, t)
    scopes = [(1, tuple(n_list)), (2, tuple(n for n in n_list if n % 2 == 0)), (3, tuple(n_list))]
    if odd_control:
        scopes.append((2, (odd_control,)))
    reports = []
    for k, scope in scopes:
        gap = max((gaps[n][k - 1] for n in scope), default=0.0)
        reports.append(PropositionReport(k, scope, samples, gap, gap < PROPOSITION_TOL))
    return reports
