"""Gibbs-state observables and the nearest-neighbor reduced density matrix.

Everything thermal is a reweighting of one cached ring: `reweight` reads
only the ring's class table (`RingModel.classes`), where levels of one
energy at every (j, b) are one class. At any broadcast block of points
(j, b, t) it forms the class energies E = j * kappa + b * sz, subtracts each
(j, b)'s ground energy, scales by -1/t, applies one exp and contracts the
weights with the class table (multiplicity, kappa, sum(sigma_z) and the
pair-pattern probabilities, each summed over the class). Every level is
translation invariant, so one table serves every bond and every bond
carries the same state; no function takes a bond. A bond's X-form state is
formed in one place, `PairDensity.from_bond`, with the pattern
probabilities p00 and p11 as corners: positive sums, accurate however
small.

Shifting by the ground energy keeps every weight at most 1, and -1/T is
clamped to a finite value, so every positive temperature is safe, down to the
subnormals: there a positive gap weighs exactly 0 (its overflow to -inf is
expected and not reported), and the ground level weighs 1. T = 0 is
a separate code path (`ground_state_reduced`: the uniform mixture over the
degenerate ground subspace), never a large-beta limit: at level crossings
the limit state is the degenerate mixture, and beta ~ 1e6 exponentials are
ill-conditioned anyway.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .eigensolver import RingModel, Spectrum

# A kernel pass holds at most this many (point, class) weights; larger blocks
# of points are reweighted a pass at a time. A point weighs each level class
# of the ring once (203 classes at n = 10, 4,029 at n = 16), never each of
# its 2^n levels, so a pass takes at least 260 points.
_BLOCK_WEIGHTS = 1 << 20


@dataclass(frozen=True)
class PairDensity:
    """The four real parameters of the symmetric X-form two-qubit state."""

    u_plus: float
    u_minus: float
    w: float
    z: float

    @classmethod
    def from_bond(cls, p00: float, p01: float, p10: float, p11: float, g_xx: float) -> PairDensity:
        """The X form of a bond from its pattern probabilities (bit of the
        first site first) and its flip-flop correlator <sigma_x sigma_x>."""
        return cls(u_plus=p00, u_minus=p11, w=(p01 + p10) / 2.0, z=g_xx / 2.0)


@dataclass(frozen=True)
class GibbsBlock:
    """Gibbs averages at a block of points (j, b, t) of one ring.

    Every array has the broadcast shape of the points, except probabilities,
    which adds a trailing axis of four: a bond's pair patterns 00, 01, 10,
    11. z_shifted is sum_n exp(-(E_n - E0)/t) with E0 the ground energy at
    the point's (j, b), so it is at least 1.
    """

    z_shifted: np.ndarray
    u: np.ndarray
    m: np.ndarray
    g_xx: np.ndarray
    g_zz: np.ndarray
    probabilities: np.ndarray

    def pair_density(self) -> PairDensity:
        """The bond's X-form state at every point of the block."""
        p = self.probabilities
        return PairDensity.from_bond(p[..., 0], p[..., 1], p[..., 2], p[..., 3], self.g_xx)


def reweight(ring: RingModel, j, b, t) -> GibbsBlock:
    """Boltzmann averages of one ring at the broadcast points (j, b, t).

    j, b and t are scalars or arrays that broadcast together, and every
    output array has their broadcast shape; a (fields x temperatures) grid is
    b[:, None] against t[None, :]. The kernel reads only the ring's class
    table (`RingModel.classes`): the members of a class share one energy, so
    one weight per class, times the class's sums, is the class's share of
    every Boltzmann sum. Class energies j * kappa + b * sz are formed and
    shifted by the ground energy once for each entry of the broadcast (j, b),
    not for each temperature. The points are then reweighted a pass at a
    time (at most _BLOCK_WEIGHTS weights per pass): one multiply by -1/T,
    one exp, and one contraction with the class table gives z, <kappa>, M
    and the pair probabilities; U = j <kappa> + b M, g_xx = <kappa> / (2n)
    and g_zz = p00 - p01 - p10 + p11. Every bond has the same averages; on a
    single site the bond averages are 0.
    """
    j, b = np.broadcast_arrays(np.asarray(j, dtype=float), np.asarray(b, dtype=float))
    # each point's row of class energies (one row per (j, b) entry), and its temperature
    field, t = np.broadcast_arrays(np.arange(j.size).reshape(j.shape), np.asarray(t, dtype=float))
    if t.size == 0:
        raise ValueError("no points to reweight")
    if not (t > 0).all():
        raise ValueError("temperature must be positive; use ground_state_reduced at T = 0")
    # -1/T, kept finite below T ~ 5.6e-309 so that a zero energy gap never gives 0 * inf = nan
    with np.errstate(over="ignore"):
        shape, field, scales = t.shape, field.ravel(), np.maximum(-1.0 / t.ravel(), -sys.float_info.max)
    j, b = j.ravel(), b.ravel()
    energies = j[:, None] * ring.class_kappa + b[:, None] * ring.class_sz
    energies -= energies.min(axis=1, keepdims=True)
    moments = np.empty((scales.size, ring.classes.shape[0]))
    step = max(1, _BLOCK_WEIGHTS // ring.class_kappa.size)
    for lo in range(0, scales.size, step):
        rows = slice(lo, lo + step)
        # the pass's one (points x classes) array: a second one per pass made
        # the allocator hand the memory back and fault it in again each call
        weights = energies[field[rows]]
        # below T ~ 5.6e-309 a positive gap times the clamped -1/T overflows to
        # -inf, which exp turns into the exact weight 0
        with np.errstate(over="ignore"):
            weights *= scales[rows, None]
        np.exp(weights, out=weights)
        # einsum, not a BLAS product, so the sums round alike at any BLAS thread count
        moments[rows] = np.einsum("pc,rc->pr", weights, ring.classes)
    z = moments[:, 0]
    if not (np.isfinite(z).all() and (z >= 1.0).all()):
        raise FloatingPointError("non-finite shifted partition sum")
    moments[:, 1:] /= z[:, None]
    u = j[field] * moments[:, 1] + b[field] * moments[:, 2]
    if not (np.isfinite(u).all() and np.isfinite(moments).all()):
        raise FloatingPointError("non-finite thermal observable")
    p = moments[:, [3, 4, 4, 5]].reshape(shape + (4,))
    return GibbsBlock(z_shifted=z.reshape(shape), u=u.reshape(shape), m=moments[:, 2].reshape(shape),
                      g_xx=(moments[:, 1] / (2.0 * ring.n)).reshape(shape),
                      g_zz=p[..., 0] - p[..., 1] - p[..., 2] + p[..., 3], probabilities=p)


def ground_state_reduced(spectrum: Spectrum) -> PairDensity:
    """Two-qubit reduced density of the T -> 0+ Gibbs limit: the uniform
    mixture over the full degenerate ground subspace, the sums of its classes
    (`Spectrum.ground_classes`) over its degeneracy."""
    ring = spectrum.ring
    sums = ring.classes[:, spectrum.ground_classes()].sum(axis=1)
    kappa, _, p00, p01, p11 = (sums[1:] / sums[0]).tolist()
    return PairDensity.from_bond(p00, p01, p01, p11, kappa / (2.0 * ring.n))
