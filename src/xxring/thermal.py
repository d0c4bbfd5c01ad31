"""Gibbs-state observables and the nearest-neighbor reduced density matrix.

Everything thermal is a reweighting of one cached ring by a kernel that
reads only the ring's class table (`RingModel.classes`), where levels of one
energy at every (j, b) are one class: `reweight_point` here, in pure Python
at a single point, or `blocks.reweight`, in numpy at a block of points. At a
point (j, b, t) both form the class energies E = j * kappa + b * sz,
subtract the ground energy, divide by -t, apply exp and contract the weights
with the class table (multiplicity, kappa, sum(sigma_z) and the pair-pattern
probabilities, each summed over the class). Every level is translation
invariant, so one table serves every bond and every bond carries the same
state; no function takes a bond. A bond's X-form state
(`GibbsBlock.pair_density`) has the pattern probabilities p00 and p11 as
corners: positive sums, accurate however small.

Shifting by the ground energy keeps every weight at most 1, and the shifted
energies are divided by -T itself, so every positive temperature is safe,
down to the subnormals: there a positive gap over T overflows to -inf
(expected and not reported) and weighs exactly 0, and the ground level, a
gap of 0, weighs 1. At T = 0 the weights are exact, never a large-beta
limit: each class of the degenerate ground level (`same_level`: within
GROUND_RTOL * |E0| of the ground energy E0, so scaling j and b together
moves no weight) weighs 1 and every other class 0, so the state is the
uniform mixture over the ground level and z_shifted is its degeneracy.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING, NamedTuple

from .eigensolver import RingModel, same_level

if TYPE_CHECKING:
    import numpy as np


class PairDensity(NamedTuple):
    """The four real parameters of the symmetric X-form two-qubit state."""

    u_plus: float
    u_minus: float
    w: float
    z: float


class GibbsBlock(NamedTuple):
    """Gibbs averages at a block of points (j, b, t) of one ring, or of a
    stack of rings.

    Every array has the broadcast shape of the points, led by a ring axis for
    a stack, except probabilities, which adds a trailing axis of four: a
    bond's pair patterns 00, 01, 10, 11. z_shifted is sum_n exp(-(E_n -
    E0)/t) with E0 the ring's ground energy at the point's (j, b), so it is
    at least 1. At a single point of `reweight_point` every field is a
    float, and probabilities the tuple of the four patterns.
    """

    z_shifted: np.ndarray
    u: np.ndarray
    m: np.ndarray
    g_xx: np.ndarray
    g_zz: np.ndarray
    probabilities: np.ndarray

    def pair_density(self) -> PairDensity:
        """The bond's X-form state at every point of the block: the pattern
        probabilities p00 and p11 as corners, p01 (= p10) as the center and
        half the flip-flop correlator <sigma_x sigma_x> as the coherence."""
        p = self.probabilities
        if not isinstance(p, tuple):
            p = tuple(p[..., k] for k in range(4))
        return PairDensity(u_plus=p[0], u_minus=p[3], w=p[1], z=self.g_xx / 2.0)


def point_levels(ring: RingModel, j: float, b: float) -> tuple[list[float], list[float]]:
    """Each class's energy E = j * kappa + b * sz at (j, b), in class order,
    and its gap e0 - E to the ring's ground energy e0, the least E: what
    `reweight_point` weighs, formed once by a caller that reweights one
    (j, b) at many temperatures."""
    energies = [j * kappa + b * sz for kappa, sz in zip(ring.class_kappa, ring.class_sz)]
    e0 = min(energies)
    return energies, [e0 - e for e in energies]


def reweight_point(ring: RingModel, j: float, b: float, t: float, levels=None) -> GibbsBlock:
    """`blocks.reweight` of one ring at the single point (j, b, t), in pure
    Python and as floats: the same ground-energy shift, T = 0 rule and
    refusals, and each sum over the classes correctly rounded (`math.fsum`).
    levels are the `point_levels` of (j, b), formed here unless given."""
    j, b, t = float(j), float(b), float(t)
    if not t >= 0:
        raise ValueError("temperature must be a number" if math.isnan(t) else "temperature must be nonnegative")
    energies, gaps = point_levels(ring, j, b) if levels is None else levels
    if t == 0:
        # each class of the ground level weighs exactly 1, every other class 0
        e0 = min(energies)
        weights = [float(same_level(e, e0, e0)) for e in energies]
    else:
        # a gap over a subnormal T overflows to -inf, which weighs exactly 0
        weights = [math.exp(gap / t) for gap in gaps]
    z, kappa, m, p00, p01, p11 = (math.fsum(map(operator.mul, weights, column)) for column in ring.classes)
    if not 1.0 <= z < math.inf:
        raise FloatingPointError("non-finite shifted partition sum")
    kappa, m, p00, p01, p11 = (x / z for x in (kappa, m, p00, p01, p11))
    u = j * kappa + b * m
    if not all(map(math.isfinite, (u, kappa, m, p00, p01, p11))):
        raise FloatingPointError("non-finite thermal observable")
    return GibbsBlock(z_shifted=z, u=u, m=m, g_xx=kappa / (2.0 * ring.n), g_zz=p00 - p01 - p01 + p11,
                      probabilities=(p00, p01, p01, p11))
