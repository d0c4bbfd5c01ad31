"""Drivers on single points: thermal concurrence, threshold-temperature
bisection, ground-level crossings (exact, from the lower envelope of the
sector-floor lines) and ground-state concurrence, each through the
pure-Python point kernel (`gibbs_concurrence_point`). The drivers that
reweight a block of points, (T, B) sweeps and the randomized verification
of the model's symmetry propositions, are in `blocks`, with numpy."""

from __future__ import annotations

import math
from typing import NamedTuple

from .entanglement import concurrence_xstate_point
from .eigensolver import GROUND_RTOL, RingModel, Spectrum, full_spectrum, ring_model, same_level
from .hamiltonian import ModelParams
from .thermal import GibbsBlock, point_levels, reweight_point

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


def gibbs_concurrence_point(ring: RingModel, j: float, b: float, t: float, levels=None) -> tuple[GibbsBlock, float]:
    """`blocks.gibbs_concurrence` at the single point (j, b, t) of one ring,
    as floats and without numpy (`reweight_point`, given the `point_levels`
    of (j, b) where a caller has formed them, and `concurrence_xstate_point`).
    A single site has no bond and reports 0, never reaching the state checks."""
    block = reweight_point(ring, j, b, t, levels)
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


def _splits(lo: float, hi: float, tol: float) -> bool:
    """Whether bisection still narrows [lo, hi]: wider than tol, with a midpoint
    strictly inside (for adjacent doubles the midpoint is lo or hi)."""
    return hi - lo > tol and lo < 0.5 * (lo + hi) < hi


def threshold_temperature(params: ModelParams, tol: float = 1e-6) -> float | None:
    """Largest temperature with positive nearest-neighbor concurrence.

    A factor-2 scan over [0.05 min(1, |j|), 1e3 max(1, |j|, |b|)], read
    from the top down to the first entangled point, then bisection of the
    bracket above it down to tol (or to adjacent doubles, if tol is finer):
    one `gibbs_concurrence_point` call per temperature, on the class gaps of
    (j, b) formed once (`point_levels`). None when no scan point is
    entangled, and at j = 0, where every Gibbs state is a product state. The
    threshold scales with the couplings: the top of the entangled window lay
    between 0.6 |j| and 4.6 |j| on rings n = 2..12 with |b| <= 100 |j|, and
    no ring was entangled beyond |b| = 56 |j|.
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
    levels = point_levels(ring, float(params.j), float(params.b))

    def entangled(t: float) -> bool:
        return gibbs_concurrence_point(ring, params.j, params.b, t, levels)[1] > POSITIVE_CONCURRENCE

    if entangled(grid[-1]):
        raise RuntimeError(f"still entangled at the top of the scan range ({grid[-1]})")
    last = next((k for k in range(len(grid) - 2, -1, -1) if entangled(grid[k])), None)
    if last is None:
        return None
    lo, hi = grid[last], grid[last + 1]
    while _splits(lo, hi, tol):
        mid = 0.5 * (lo + hi)
        if entangled(mid):
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
