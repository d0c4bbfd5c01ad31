"""Gibbs-state observables and the nearest-neighbor reduced density matrix.

Everything thermal is a reweighting of one cached ring, by one of two
kernels that read only the ring's class table (`RingModel.classes`), where
levels of one energy at every (j, b) are one class: `reweight` for a block
of points, in numpy, and `reweight_point` for a single point, in pure
Python, so that a command that asks about one point never imports numpy.
Both follow the rules below. At any broadcast block of points (j, b, t)
`reweight` forms the class energies E = j * kappa + b * sz, subtracts each
(j, b)'s ground energy, divides by -t, applies one exp and contracts the
weights with the class table (multiplicity, kappa, sum(sigma_z) and the
pair-pattern probabilities, each summed over the class). Every level is
translation invariant, so one table serves every bond and every bond
carries the same state; no function takes a bond. A bond's X-form state
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

Several rings reweight at the same points in one call as a stack: their
classes' kappa and sz lie side by side on the class axis, each ring's ground
energy is the least over its own classes, and each ring's sums run over
exactly its own classes, with its own class table, in the order a lone call
uses, so a stacked ring's every number is bit-identical to its lone call.
What a pass reads of a stack (`_layout`) is built once per stack and kept
in a bounded cache keyed by the tuple of rings; a lone ring (alone or a list
of one) is a stack of one, so its layout is the same entry either way.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Sequence
from typing import TYPE_CHECKING, NamedTuple

from .eigensolver import RingModel, same_level

if TYPE_CHECKING:
    import numpy as np

# A kernel pass holds at most this many (point, class) weights; larger
# blocks of points are reweighted a pass at a time, so the passes bound the
# memory of a stack of any size (a `verify` call stacks every ring it
# checks). A point weighs each level class of each ring of the stack once
# (188 classes at n = 10, 2,901 at n = 16), never each of its 2^n levels, so
# a pass of one ring takes at least 361 points. A pass forms the class
# energies of the (j, b) entries it reads and frees them before the next
# pass: its points' own where every point has its own entry (a `verify`
# call, a single point), else those from the lowest to the highest its
# points read. Every caller's entries come in order (a grid b[:, None]
# against t, a threshold scan), so that is at most one entry per point, and
# memory is flat in the point count (tracemalloc peaks at n = 16: `verify`
# 16.3 MiB at 100 samples, 16.5 MiB at 400; a 1,000-field `sweep` 16.4 MiB).
# `reweight` reads it on every call.
_BLOCK_WEIGHTS = 1 << 20


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


def _flat(x: np.ndarray, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """x broadcast to shape, as a new flat array."""
    import numpy as np
    out = np.empty(shape, dtype)
    out[...] = x
    return out.ravel()


class _Layout(NamedTuple):
    """What a kernel pass reads of a stack of rings; every array is read-only."""

    kappa: np.ndarray  # the rings' classes side by side on one class axis
    sz: np.ndarray
    starts: np.ndarray  # where each ring's classes start, and how many
    sizes: np.ndarray
    tables: tuple[np.ndarray, ...]  # each ring's own class table, and its slice of the class axis
    segments: tuple[slice, ...]
    two_n: np.ndarray  # each ring's 2n, a column


@functools.lru_cache(maxsize=64)
def _layout(rings: tuple[RingModel, ...]) -> _Layout:
    """The layout of a stack of rings, built on its first call from the
    rings' class tables: their kappa and sz concatenated, and each table as
    one (6, classes) array, a lone ring being a stack of one."""
    import numpy as np
    kappa = np.concatenate([r.class_kappa for r in rings])
    sz = np.concatenate([r.class_sz for r in rings])
    sizes = np.array([len(r.class_kappa) for r in rings])
    bounds = [0, *itertools.accumulate(sizes.tolist())]
    starts = np.array(bounds[:-1])
    segments = tuple(slice(lo, hi) for lo, hi in itertools.pairwise(bounds))
    two_n = np.array([[2.0 * r.n] for r in rings])
    tables = tuple(np.array(r.classes) for r in rings)
    for array in (kappa, sz, starts, sizes, two_n, *tables):
        array.setflags(write=False)
    return _Layout(kappa, sz, starts, sizes, tables, segments, two_n)


def reweight(ring: RingModel | Sequence[RingModel], j, b, t) -> GibbsBlock:
    """Boltzmann averages of one ring, or of a stack of rings, at the
    broadcast points (j, b, t).

    j, b and t are scalars or arrays that broadcast together, and every
    output array has their broadcast shape; a (fields x temperatures) grid is
    b[:, None] against t[None, :]. A sequence of rings is a stack: each ring
    is reweighted at every point, and every output array gains a leading
    ring axis. The kernel reads only the rings' class tables
    (`RingModel.classes`), through the stack's layout (`_layout`, built once
    per stack; a lone ring is a stack of one). The members of a class share
    one energy, so one weight per class, times the class's sums, is the
    class's share of every Boltzmann sum. The points are reweighted a pass
    at a time (at most _BLOCK_WEIGHTS (point, class) weights per pass, for a
    stack of any size). A pass forms the class energies j * kappa + b * sz
    of the (j, b) entries it reads, once per entry, not per temperature:
    where j and b have the points' shape, each point is its own entry and
    the class energies are the pass's weights, with no gather (every
    `verify` call, every single point); otherwise each point gathers
    its entry's row from the lowest to the highest entry the pass reads.
    Which of these a call takes depends only on the shapes of j, b and t.
    Each ring's energies are shifted by its ground energy, the least over
    its own classes; then one division by -T and one exp, and a contraction
    of each ring's weights with its own class table gives z, <kappa>, M and
    the pair probabilities, summed over exactly that ring's classes, as a
    lone call sums them, so a stack changes no number; U = j <kappa> + b M,
    g_xx = <kappa> / (2n) with each ring's own n, and g_zz = p00 - p01 - p10
    + p11. t may be 0 (or -0): there each class of the point's ground level
    weighs exactly 1 and every other class 0, so z_shifted is the ground
    degeneracy. Every bond has the same averages; on a single site the bond
    averages are 0.
    """
    import numpy as np
    lone = isinstance(ring, RingModel)
    layout = _layout((ring,) if lone else tuple(ring))
    kappa, sz, starts = layout.kappa, layout.sz, layout.starts
    j, b, t = np.asarray(j, dtype=float), np.asarray(b, dtype=float), np.asarray(t, dtype=float)
    # the (j, b) entries, each a row of class energies, and the points' shape
    pairs = np.broadcast(j, b)
    shape = np.broadcast(j, b, t).shape
    # each (j, b) entry's j and b and each point's temperature, flat; where the points
    # outnumber the entries, each point's entry too
    own = pairs.shape == shape
    field = None if own else _flat(np.arange(pairs.size).reshape(pairs.shape), shape, np.intp)
    j, b, t = _flat(j, pairs.shape), _flat(b, pairs.shape), _flat(t, shape)
    if t.size == 0:
        raise ValueError("no points to reweight")
    coldest = t.min()
    if not coldest >= 0:
        # a nan is the least (min carries it) and is not negative: it is named on the refusal
        # path only, which an accepted call never takes
        raise ValueError("temperature must be a number" if np.isnan(coldest)
                         else "temperature must be nonnegative")
    # the points at T = 0, where there is one
    zero = t == 0 if coldest == 0 else None
    moments = np.empty((len(layout.tables), t.size, 6))
    step = max(1, _BLOCK_WEIGHTS // kappa.size)
    for lo in range(0, t.size, step):
        rows = slice(lo, lo + step)
        # the pass's (j, b) entries and each point's entry among them: point k's own entry k,
        # else the lowest to the highest read
        if own:
            entries, entry = rows, None
        else:
            read = field[rows]
            entries = slice(read.min(), read.max() + 1)
            entry = read - entries.start
        # (entries, classes), and each class's ring's ground energy at each entry
        energies = j[entries, None] * kappa + b[entries, None] * sz
        e0 = (energies.min(axis=1, keepdims=True) if len(layout.segments) == 1
              else np.repeat(np.minimum.reduceat(energies, starts, axis=1), layout.sizes, axis=1))
        at_zero = None if zero is None else zero[rows]
        # each entry's ground level, by unshifted class energies, built only for a point at T = 0
        ground = same_level(energies, e0, e0) if at_zero is not None and at_zero.any() else None
        # e0 - E is exactly -(E - e0), so dividing it by T is dividing E - e0 by -T
        np.subtract(e0, energies, out=energies)
        # freed before the weights are gathered, so a pass holds two arrays of its size at a time
        del e0
        # the pass's one (points x classes) array: where each point has its own entry, the
        # class energies themselves; a second one per pass made the allocator hand the memory
        # back and fault it in again each call
        weights = energies if entry is None else energies[entry]
        # at a small enough T a negative e0 - E over T overflows to -inf, which exp
        # turns into the exact weight 0; at T = 0 the quotients are infinite or nan,
        # and the ground mask below replaces them
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            weights /= t[rows, None]
        np.exp(weights, out=weights)
        if ground is not None:
            # at T = 0 each class of the ground level weighs exactly 1, every other class 0
            weights[at_zero] = ground[at_zero] if entry is None else ground[entry[at_zero]]
        # einsum, not a BLAS product, so the sums round alike at any BLAS thread count
        for table, segment, out in zip(layout.tables, layout.segments, moments[:, rows]):
            np.einsum("pc,rc->pr", weights[:, segment], table, out=out)
        # freed before the next pass forms its own, so a call holds one pass's arrays at a time
        del energies, weights
    # one moment per row from here on, so every step below runs over contiguous points
    moments = moments.transpose(2, 0, 1).copy()
    z = moments[0]
    # min and max carry a nan
    if not (z.min() >= 1.0 and z.max() < np.inf):
        raise FloatingPointError("non-finite shifted partition sum")
    moments[1:] /= z
    if field is not None:
        j, b = j[field], b[field]
    u = j * moments[1] + b * moments[2]
    if not (np.isfinite(u).all() and np.isfinite(moments).all()):
        raise FloatingPointError("non-finite thermal observable")
    shape = shape if lone else (len(layout.tables),) + shape
    # the pair patterns 00, 01, 10 (= 01) and 11 on a trailing axis
    p = moments[[3, 4, 4, 5]].transpose(1, 2, 0).reshape(shape + (4,))
    return GibbsBlock(z_shifted=z.reshape(shape), u=u.reshape(shape), m=moments[2].reshape(shape),
                      g_xx=(moments[1] / layout.two_n).reshape(shape),
                      g_zz=(moments[3] - moments[4] - moments[4] + moments[5]).reshape(shape), probabilities=p)


def reweight_point(ring: RingModel, j: float, b: float, t: float) -> GibbsBlock:
    """`reweight` of one ring at the single point (j, b, t), in pure Python
    and as floats: the same ground-energy shift, T = 0 rule and refusals,
    and each sum over the classes correctly rounded (`math.fsum`)."""
    j, b, t = float(j), float(b), float(t)
    if not t >= 0:
        raise ValueError("temperature must be a number" if math.isnan(t) else "temperature must be nonnegative")
    energies = [j * kappa + b * sz for kappa, sz in zip(ring.class_kappa, ring.class_sz)]
    e0 = min(energies)
    if t == 0:
        # each class of the ground level weighs exactly 1, every other class 0
        weights = [float(same_level(e, e0, e0)) for e in energies]
    else:
        # a gap over a subnormal T overflows to -inf, which weighs exactly 0
        weights = [math.exp((e0 - e) / t) for e in energies]
    z, kappa, m, p00, p01, p11 = (math.fsum(map(operator.mul, weights, column)) for column in ring.classes)
    if not 1.0 <= z < math.inf:
        raise FloatingPointError("non-finite shifted partition sum")
    kappa, m, p00, p01, p11 = (x / z for x in (kappa, m, p00, p01, p11))
    u = j * kappa + b * m
    if not all(map(math.isfinite, (u, kappa, m, p00, p01, p11))):
        raise FloatingPointError("non-finite thermal observable")
    return GibbsBlock(z_shifted=z, u=u, m=m, g_xx=kappa / (2.0 * ring.n), g_zz=p00 - p01 - p01 + p11,
                      probabilities=(p00, p01, p01, p11))
