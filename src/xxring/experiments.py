"""Drivers: temperature/field sweeps, threshold-temperature bisection,
ground-level crossings (exact, from the lower envelope of the sector-floor
lines), ground-state concurrence, and randomized verification of the
model's symmetry propositions."""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .entanglement import concurrence_from_correlators, concurrence_xstate
from .eigensolver import GROUND_RTOL, RingModel, Spectrum, full_spectrum, ring_model, same_level
from .hamiltonian import ModelParams
from .thermal import GibbsBlock, PairDensity, reweight

# Below this, the clamped concurrence is indistinguishable from roundoff.
POSITIVE_CONCURRENCE = 1e-12
PROPOSITION_TOL = 1e-9
DEFAULT_SEED = 20020901
MAX_POINTS = 2_000_000

_SCAN_T_MIN = 0.05
_SCAN_T_MAX = 1.0e3
# Bisection steps per kernel call: a batch evaluates 2**depth - 1 midpoints.
# At n = 12 an extra point costs about a seventh of a call's fixed cost, and
# depth 3 ran a threshold fastest (depth 1, one midpoint per call, took about
# 1.4 times as long, depths 4 and 5 wasted more points than they saved calls).
_BISECTION_DEPTH = 3
# A verify stack (`_stacks`) holds fewer (ring, point, class) weights than
# this, padding included: about one kernel call's fixed cost. On a 2-CPU
# machine a `_ring_gaps` call on the 2-site ring at one sample took 180 us and
# each further weight 10-16 ns, a fixed cost of 11k-19k weights. Bounding the
# whole stack also bounds the padding a ring adds: a bound on the padding
# alone stacked the n = 15 and 16 rings at 8 samples into 2.6 MB arrays that
# faulted in 1,224 fresh pages per call, 5.0 ms against 3.0 ms for two calls.
# Bounds of 16k, 32k and 64k ran verify on rings 2..6, 2..12 and 2..16 alike.
_STACK_WEIGHTS = 1 << 14


class DegenerateGroundError(RuntimeError):
    """Ground level is degenerate (field sits exactly on a crossing)."""


@dataclass(frozen=True)
class PropositionReport:
    proposition: int
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
    block = reweight(ring, j, b, t)
    rho = block.pair_density()
    bonded = np.array(ring.n > 1 if isinstance(ring, RingModel) else [r.n > 1 for r in ring])
    if bonded.all():
        return block, concurrence_xstate(rho)
    concurrence = np.zeros(block.g_xx.shape)
    concurrence[bonded] = concurrence_xstate(PairDensity(*(x[bonded] for x in (
        rho.u_plus, rho.u_minus, rho.w, rho.z))))
    return block, concurrence[()]


def thermal_concurrence(spectrum: Spectrum, t: float) -> float:
    """Nearest-neighbor concurrence of the Gibbs state at temperature t.

    The X-state closed form of the bond state of `reweight` at the point
    (`GibbsBlock.pair_density`), whose corner populations are positive
    spectral sums; this agrees with the correlator
    formula but stays relatively accurate deep in the polarized regime, where
    the correlator route loses its radicand to cancellation. A single site
    has no bond and reports 0.
    """
    params = spectrum.params
    return float(gibbs_concurrence(spectrum.ring, params.j, params.b, t)[1])


def sweep(params: ModelParams, t_grid, b_grid) -> tuple[GibbsBlock, np.ndarray]:
    """Observables and concurrence on the (t, b) grid, in one reweighting of
    the cached ring.

    Returns the Gibbs block and its concurrence, both of shape
    (fields, temperatures): entry [k_b, k_t] is the point (b_grid[k_b],
    t_grid[k_t]). The concurrence is the same number `thermal_concurrence`
    gives at the point; a single site has no bond and reports 0. A grid of
    more than MAX_POINTS points is refused before any reweighting.
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
    return gibbs_concurrence(ring_model(params.n), params.j, np.array(b_values)[:, None], t_values)


def _bisection_tree(lo: float, hi: float, depth: int) -> list[float]:
    """Midpoints of every bracket bisection can reach from [lo, hi] in depth
    steps, in heap order: the midpoints of the lower and upper halves of
    entry k's bracket are entries 2k + 1 and 2k + 2."""
    brackets = [(lo, hi)]
    midpoints = []
    for _ in range(depth):
        children = []
        for a, c in brackets:
            mid = 0.5 * (a + c)
            midpoints.append(mid)
            children += [(a, mid), (mid, c)]
        brackets = children
    return midpoints


def _splits(lo: float, hi: float, tol: float) -> bool:
    """Whether bisection still narrows [lo, hi]: wider than tol, with a midpoint
    strictly inside (for adjacent doubles the midpoint is lo or hi)."""
    return hi - lo > tol and lo < 0.5 * (lo + hi) < hi


def threshold_temperature(params: ModelParams, tol: float = 1e-6) -> float | None:
    """Largest temperature with positive nearest-neighbor concurrence.

    Coarse factor-2 upward scan in one kernel call, then bisection of the
    last positive bracket down to tol (or to adjacent doubles, if tol is
    finer); None when nothing in the scan is entangled, and at j = 0, where
    every Gibbs state is a product state. The threshold scales with the
    couplings, so the scan covers [0.05 min(1, |j|), 1e3 max(1, |j|, |b|)]:
    the top of the entangled window lay between 0.6 |j| and 4.6 |j| on rings
    n = 2..12 with |b| <= 100 |j|, and no ring was entangled beyond
    |b| = 56 |j|.
    The bisection runs in batches: each batch evaluates the whole tree of
    midpoints the next _BISECTION_DEPTH steps can reach in one kernel call,
    then walks it. That takes exactly the steps, and returns exactly the
    value, of one midpoint at a time.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if params.j == 0.0:
        return None
    grid = []
    # a subnormal j would start the scan at 0
    t = max(_SCAN_T_MIN * min(1.0, abs(params.j)), sys.float_info.min)
    t_max = _SCAN_T_MAX * max(1.0, abs(params.j), abs(params.b))
    while t <= t_max:
        grid.append(t)
        t *= 2.0
    grid.append(t)
    ring = ring_model(params.n)
    entangled = gibbs_concurrence(ring, params.j, params.b, grid)[1] > POSITIVE_CONCURRENCE
    if not entangled.any():
        return None
    last = int(np.nonzero(entangled)[0][-1])
    if last == len(grid) - 1:
        raise RuntimeError(f"still entangled at the top of the scan range ({grid[-1]})")
    lo, hi = grid[last], grid[last + 1]
    while _splits(lo, hi, tol):
        # steps left if every halving were exact, so the last batch is no deeper than needed;
        # the ratio is capped, as below tol ~ 1e-308 it overflows, and the depth only sizes a batch
        depth = max(1, math.ceil(math.log2(min((hi - lo) / tol, 2 ** _BISECTION_DEPTH))))
        midpoints = _bisection_tree(lo, hi, depth)
        positive = gibbs_concurrence(ring, params.j, params.b, midpoints)[1] > POSITIVE_CONCURRENCE
        node = 0
        while node < len(midpoints) and _splits(lo, hi, tol):
            if positive[node]:
                lo, node = midpoints[node], 2 * node + 2
            else:
                hi, node = midpoints[node], 2 * node + 1
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
    slopes = n - 2.0 * np.arange(n + 1)
    # classes run by sz ascending: the floors by ascending sz, reversed, are the floors by r
    starts = np.searchsorted(spectrum.ring.class_sz, slopes[::-1])
    floors = np.minimum.reduceat(spectrum.class_energies(), starts)[::-1]
    # slopes descend with r, so the last of several tied lines is the smallest slope
    branch = int(np.nonzero(same_level(floors, floors.min(), floors.min()))[0][-1])
    # meeting fields are fields, not energies, in units of j: they tie within GROUND_RTOL * |j|
    tie = GROUND_RTOL * abs(j)
    crossings = []
    while branch < n:
        meets = (floors[branch + 1:] - floors[branch]) / (slopes[branch] - slopes[branch + 1:])
        b = float(meets.min())
        if not b < b_max:
            break
        crossings.append(b)
        branch += 1 + int(np.nonzero(meets <= b + tie)[0][-1])
    return crossings


def _energy_formula(energy, n: int, j, g_zz):
    """The zero-field energy formula for the concurrence,
    max(0, -+ energy/(n j) - g_zz - 1) / 2, its sign branch by the sign of j;
    arrays broadcast."""
    sign = np.where(j > 0, -1.0, 1.0)
    return 0.5 * np.maximum(0.0, sign * energy / (n * j) - g_zz - 1.0)


def ground_state_concurrence(params: ModelParams) -> float:
    """Nearest-neighbor concurrence of the ground state: the Gibbs state at
    T = 0, from one `reweight` call.

    A degenerate ground level sits exactly on a crossing and is refused, its
    degeneracy in the message; at b = 0 the zero-field energy formula
    C = max(0, -+ U/(n j) - g_zz - 1) / 2 (sign by the sign of j) must agree
    to 1e-9. A single site has no bond and reports 0.
    """
    g, value = gibbs_concurrence(ring_model(params.n), params.j, params.b, 0.0)
    if g.z_shifted > 1:
        raise DegenerateGroundError(
            f"ground level is {int(g.z_shifted)}-fold degenerate (field sits on a level crossing)")
    if params.b == 0.0 and params.j != 0.0:
        formula = _energy_formula(g.u, params.n, params.j, g.g_zz)
        if abs(formula - value) > 1e-9:
            raise RuntimeError(
                f"zero-field energy formula ({formula}) disagrees with the "
                f"reduced-density route ({value})")
    return float(value)


def _draw_parameters(rng: np.random.Generator) -> tuple[float, float, float]:
    # j stays clear of zero so energy-based relations keep a safe denominator
    j = 0.0
    while abs(j) < 0.05:
        j = float(rng.uniform(-2.0, 2.0))
    b = float(rng.uniform(-3.0, 3.0))
    t = float(math.exp(rng.uniform(math.log(0.05), math.log(50.0))))
    return j, b, t


def _stacks(rings: list[RingModel], points: int) -> list[list[RingModel]]:
    """The rings in kernel stacks, by ascending class count: a ring joins the
    current stack while the stack's (ring, point, class) weights, padding
    included, stay under _STACK_WEIGHTS; a ring that cannot join starts the
    next stack."""
    stacks: list[list[RingModel]] = []
    for ring in sorted(rings, key=lambda r: r.class_kappa.size):
        if stacks and points * (len(stacks[-1]) + 1) * ring.class_kappa.size < _STACK_WEIGHTS:
            stacks[-1].append(ring)
        else:
            stacks.append([ring])
    return stacks


def _ring_gaps(rings: list[RingModel], j: np.ndarray, b: np.ndarray,
               t: np.ndarray) -> dict[int, tuple[float, float, float]]:
    """Worst gaps of the three propositions on each ring of a stack over the
    draws (j, b, t), by ring size, from one kernel call on the stacked
    rows (j, b), (j, -b), (-j, b), (|j|, 0) and (-|j|, 0): the field mirror
    of the concurrence (rows 0 and 1), the exchange mirror (rows 0 and 2),
    and at zero field the gap between the correlator formula and the halved
    energy formula for the concurrence (rows 3 and 4, whose sign branch
    follows the sign of j). The exchange mirror compares the unclamped
    X-state value 2 (|z| - sqrt(u+ u-)), which is the concurrence wherever
    that is positive: its evenness implies the concurrence's, and on odd
    rings it breaks even where both signs are unentangled. It is computed on
    every ring, so the odd control reads it too."""
    rows_j = np.stack([j, j, -j, np.abs(j), -np.abs(j)])
    rows_b = np.stack([b, -b, b, np.zeros_like(b), np.zeros_like(b)])
    g, concurrence = gibbs_concurrence(rings, rows_j, rows_b, t)
    n = np.array([float(ring.n) for ring in rings])[:, None, None]
    mirror_b = np.max(np.abs(concurrence[:, 0] - concurrence[:, 1]), axis=1)
    # 2 (|z| - sqrt(u+ u-)) of rows 0 and 2, with z = g_xx / 2 and corners p00 and p11
    p = g.probabilities[:, 0:3:2]
    unclamped = np.abs(g.g_xx[:, 0:3:2]) - 2.0 * np.sqrt(p[..., 0] * p[..., 3])
    mirror_j = np.max(np.abs(unclamped[:, 0] - unclamped[:, 1]), axis=1)
    zero_field = slice(3, 5)
    c5 = concurrence_from_correlators(g.g_xx[:, zero_field], g.g_zz[:, zero_field], g.m[:, zero_field] / n)
    c10 = _energy_formula(g.u[:, zero_field], n, rows_j[zero_field], g.g_zz[:, zero_field])
    c5_c10 = np.max(np.abs(c5 - c10), axis=(1, 2))
    return {ring.n: gaps for ring, gaps in zip(rings, zip(mirror_b.tolist(), mirror_j.tolist(), c5_c10.tolist()))}


def verify_propositions(n_list, samples: int = 200, seed: int = DEFAULT_SEED,
                        odd_control: int = 0) -> list[PropositionReport]:
    """Randomized checks of the three symmetry propositions.

    1: concurrence is even in the field for every ring size.
    2: concurrence is even in the exchange constant for even rings.
    3: at zero field the concurrence equals the halved energy formula,
       with the sign branch chosen by the sign of the exchange constant.

    Each proposition is checked on `samples` draws of (j, b, t) per
    applicable ring size; a report passes when the worst discrepancy stays
    below 1e-9. The draws are made once, and the distinct rings are
    reweighted at the same 5 * samples points (at most MAX_POINTS) serving
    all three: one kernel call per stack of rings (`_stacks`), a single call
    for a few small rings at few samples. An empty ring list is refused: it
    would pass every proposition vacuously.

    A nonzero odd_control adds a fourth report, proposition 2 on that odd
    ring n >= 3, outside the claim: the symmetry breaks there (expect a
    failing flag), so it is never a pass criterion. Every argument is
    checked, the list's rings before the control, before any draw.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if 5 * samples > MAX_POINTS:
        raise ValueError(f"{samples} samples make {5 * samples} points per ring, over cap {MAX_POINTS}")
    n_list = list(n_list)
    if not n_list:
        raise ValueError("ring list must be nonempty")
    rings = {n: ring_model(n) for n in n_list}
    if odd_control:
        if odd_control < 3 or odd_control % 2 == 0:
            raise ValueError(f"control requires an odd ring n >= 3, got n={odd_control}")
        rings[odd_control] = ring_model(odd_control)
    rng = np.random.default_rng(seed)
    j, b, t = (np.array(column) for column in zip(*(_draw_parameters(rng) for _ in range(samples))))
    gaps = {}
    for stack in _stacks(list(rings.values()), 5 * samples):
        gaps.update(_ring_gaps(stack, j, b, t))
    worst = [(1, max(gaps[n][0] for n in n_list)),
             (2, max((gaps[n][1] for n in n_list if n % 2 == 0), default=0.0)),
             (3, max(gaps[n][2] for n in n_list))]
    if odd_control:
        worst.append((2, gaps[odd_control][1]))
    return [PropositionReport(k, samples, gap, gap < PROPOSITION_TOL) for k, gap in worst]
