"""Gibbs-state observables and the nearest-neighbor reduced density matrix.

Everything thermal is a reweighting of one cached ring: `reweight` reads
only the ring's class table (`RingModel.classes`), where levels of one
energy at every (j, b) are one class. At any broadcast block of points
(j, b, t) it forms the class energies E = j * kappa + b * sz, subtracts each
(j, b)'s ground energy, scales by -1/t, applies one exp and contracts the
weights with the class table (multiplicity, kappa, sum(sigma_z) and the
pair-pattern probabilities, each summed over the class). Every level is
translation invariant, so one table serves every bond and every bond
carries the same state; no function takes a bond. A bond's X-form state
(`GibbsBlock.pair_density`) has the pattern probabilities p00 and p11 as
corners: positive sums, accurate however small.

Shifting by the ground energy keeps every weight at most 1, and -1/T is
clamped to a finite value, so every positive temperature is safe, down to the
subnormals: there a positive gap weighs exactly 0 (its overflow to -inf is
expected and not reported), and the ground level weighs 1. At T = 0 the
weights are exact, never a large-beta limit: each class of the degenerate
ground level (`same_level`: within GROUND_RTOL * |E0| of the ground energy
E0, so scaling j and b together moves no weight) weighs 1 and every other
class 0, so the state is the uniform mixture over the ground level and
z_shifted is its degeneracy.

Several rings reweight at the same points in one pass as a stack: their
class tables, padded with empty classes to the widest, gain a leading ring
axis, and a lone ring is a stack of one. A pad has multiplicity 0, every
class sum 0 and kappa = sz = 0. Its energy 0 never lies below its ring's
ground energy, since a ring's levels sum to energy 0, and its weight, at
most 1, multiplies only zeros: a pad changes no ground energy, no partition
sum and no moment, at T = 0 too.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .eigensolver import RingModel, same_level

# A kernel pass holds at most this many (ring, point, class) weights; larger
# blocks of points are reweighted a pass at a time. A point weighs each level
# class of each ring of the stack once (203 classes at n = 10, 4,029 at
# n = 16), never each of its 2^n levels, so a pass of one ring takes at least
# 260 points. Only passes are bounded: the (rings x (j, b) entries x classes) energy
# table and a product temporary of its size come first, whole (tracemalloc peaks at
# n = 16: `verify` 16.2 MiB at 50 samples, 61.5 MiB at 200; a 1,000-field `sweep` 61.6 MiB).
_BLOCK_WEIGHTS = 1 << 20


@dataclass(frozen=True)
class PairDensity:
    """The four real parameters of the symmetric X-form two-qubit state."""

    u_plus: float
    u_minus: float
    w: float
    z: float


@dataclass(frozen=True)
class GibbsBlock:
    """Gibbs averages at a block of points (j, b, t) of one ring, or of a
    stack of rings.

    Every array has the broadcast shape of the points, led by a ring axis for
    a stack, except probabilities, which adds a trailing axis of four: a
    bond's pair patterns 00, 01, 10, 11. z_shifted is sum_n exp(-(E_n -
    E0)/t) with E0 the ring's ground energy at the point's (j, b), so it is
    at least 1.
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
        return PairDensity(u_plus=p[..., 0], u_minus=p[..., 3], w=p[..., 1], z=self.g_xx / 2.0)


def _stack(rings: Sequence[RingModel]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rings' class tables, class kappas and class sz with a leading ring
    axis, shapes (rings, 6, classes), (rings, classes) and (rings, classes):
    views of a lone ring's own arrays, else padded with empty classes to the
    widest table."""
    if len(rings) == 1:
        return rings[0].classes[None], rings[0].class_kappa[None], rings[0].class_sz[None]
    width = max(ring.class_kappa.size for ring in rings)
    classes = np.zeros((len(rings), 6, width))
    kappa, sz = np.zeros((2, len(rings), width))
    for k, ring in enumerate(rings):
        size = ring.class_kappa.size
        classes[k, :, :size], kappa[k, :size], sz[k, :size] = ring.classes, ring.class_kappa, ring.class_sz
    return classes, kappa, sz


def reweight(ring: RingModel | Sequence[RingModel], j, b, t) -> GibbsBlock:
    """Boltzmann averages of one ring, or of a stack of rings, at the
    broadcast points (j, b, t).

    j, b and t are scalars or arrays that broadcast together, and every
    output array has their broadcast shape; a (fields x temperatures) grid is
    b[:, None] against t[None, :]. A sequence of rings is a stack: each ring
    is reweighted at every point, and every output array gains a leading
    ring axis. The kernel reads only the rings' class tables
    (`RingModel.classes`): the members of a class share one energy, so
    one weight per class, times the class's sums, is the class's share of
    every Boltzmann sum. Class energies j * kappa + b * sz are formed and
    shifted by the ground energy once for each ring and each entry of the
    broadcast (j, b), not for each temperature. The points are then
    reweighted a pass at a time (at most _BLOCK_WEIGHTS weights per pass; the
    energies of all (j, b) entries are held at once, ~64 KB per entry at n = 16):
    one multiply by -1/T, one exp, and one contraction with the class tables
    gives z, <kappa>, M and the pair probabilities; U = j <kappa> + b M,
    g_xx = <kappa> / (2n) with each ring's own n, and g_zz = p00 - p01 - p10
    + p11. t may be 0 (or -0): there each class of the point's ground level
    weighs exactly 1 and every other class 0, so z_shifted is the ground
    degeneracy. Every bond has the same averages; on a single site the bond
    averages are 0.
    """
    lone = isinstance(ring, RingModel)
    rings = [ring] if lone else ring
    classes, kappa, sz = _stack(rings)
    j, b = np.broadcast_arrays(np.asarray(j, dtype=float), np.asarray(b, dtype=float))
    # each point's row of class energies (one row per (j, b) entry), and its temperature
    field, t = np.broadcast_arrays(np.arange(j.size).reshape(j.shape), np.asarray(t, dtype=float))
    if t.size == 0:
        raise ValueError("no points to reweight")
    if not (t >= 0).all():
        raise ValueError("temperature must be nonnegative")
    shape, field, t = t.shape, field.ravel(), t.ravel()
    # -1/T, kept finite below T ~ 5.6e-309 so that a zero energy gap never gives 0 * inf = nan;
    # at T = 0 (+ 0.0 turns -0 into 0) it is clamped alike, and the ground mask sets the weights
    with np.errstate(over="ignore", divide="ignore"):
        scales = np.maximum(-1.0 / (t + 0.0), -sys.float_info.max)
    zero = t == 0
    j, b = j.ravel(), b.ravel()
    # (rings, (j, b) entries, classes)
    energies = j[:, None] * kappa[:, None, :] + b[:, None] * sz[:, None, :]
    e0 = energies.min(axis=2, keepdims=True)
    # each (j, b)'s ground level, by unshifted class energies, built only for a point at T = 0
    ground = same_level(energies, e0, e0) if zero.any() else None
    energies -= e0
    moments = np.empty((len(rings), scales.size, classes.shape[1]))
    step = max(1, _BLOCK_WEIGHTS // kappa.size)
    for lo in range(0, scales.size, step):
        rows = slice(lo, lo + step)
        # the pass's one (rings x points x classes) array: a second one per pass
        # made the allocator hand the memory back and fault it in again each call
        weights = energies[:, field[rows]]
        # below T ~ 5.6e-309 a positive gap times the clamped -1/T overflows to
        # -inf, which exp turns into the exact weight 0
        with np.errstate(over="ignore"):
            weights *= scales[rows, None]
        np.exp(weights, out=weights)
        if ground is not None:
            # at T = 0 each class of the ground level weighs exactly 1, every other class 0
            at_zero = zero[rows]
            weights[:, at_zero] = ground[:, field[rows][at_zero]]
        # einsum, not a BLAS product, so the sums round alike at any BLAS thread count
        moments[:, rows] = np.einsum("gpc,grc->gpr", weights, classes)
    z = moments[..., 0]
    if not (np.isfinite(z).all() and (z >= 1.0).all()):
        raise FloatingPointError("non-finite shifted partition sum")
    moments[..., 1:] /= z[..., None]
    u = j[field] * moments[..., 1] + b[field] * moments[..., 2]
    if not (np.isfinite(u).all() and np.isfinite(moments).all()):
        raise FloatingPointError("non-finite thermal observable")
    shape = shape if lone else (len(rings),) + shape
    n = np.array([[float(r.n)] for r in rings])
    p = moments[..., [3, 4, 4, 5]].reshape(shape + (4,))
    return GibbsBlock(z_shifted=z.reshape(shape), u=u.reshape(shape), m=moments[..., 2].reshape(shape),
                      g_xx=(moments[..., 1] / (2.0 * n)).reshape(shape),
                      g_zz=p[..., 0] - p[..., 1] - p[..., 2] + p[..., 3], probabilities=p)
