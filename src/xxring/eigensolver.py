"""The per-ring spectral cache, built from Jordan-Wigner modes.

Within the magnetization sector with N down spins the Hamiltonian is
j * K_N + b * sz_N, and the Jordan-Wigner map turns K_N into N free fermions
on the ring: a down spin is an occupied mode k on the Lieb-Schultz-Mattis
grid of its parity (Ann. Phys. 16, 407 (1961)), k = 2 pi (m + 1/2) / n for
even N and k = 2 pi m / n for odd N. Every occupation set S of N modes is an
exact eigenstate, with kappa(S) = 4 sum_{k in S} cos k, so nothing is
diagonalized. Fock states are translation invariant, so one table serves
every bond, and levels of equal (kappa, sz) fold into one class of a class
table, which each ring builds from the +-k count keys of its modes without
enumerating its 2^n levels (`ring_model`); the thermal kernel reads only
that table. The spectrum at any (j, b) is a view of it with class energies
j * kappa + b * sz (`full_spectrum`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .basis import _check_ring_size
from .hamiltonian import ModelParams

# The width of one level relative to the ground energy (`same_level`).
GROUND_RTOL = 1e-8


def same_level(energies, lowest, e0):
    """Whether each energy lies in the level whose lowest energy is `lowest`: within
    GROUND_RTOL * |e0| above it, e0 the ring's ground energy at the same (j, b). It
    scales with the couplings and needs no floor: the levels sum to 0, so e0 = 0 only if all are."""
    return energies <= lowest + GROUND_RTOL * abs(e0)


def _count_keys(n: int, parity: int) -> tuple[np.ndarray, np.ndarray]:
    """The count keys of one grid parity (odd for an odd number of down
    spins), one row per key, and the grid's modes per +-k class.

    The grid's modes k = pi * p / n (p = 2m, +1 for an even number of down
    spins) fold into the +-k classes q = min(p, 2n - p), so that k = pi q / n
    or 2 pi - pi q / n; a class holds 2 modes, or 1 for the self-paired
    q = 0 (k = 0) and q = n (k = pi). A key counts the occupied modes of each
    class; on this grid the total count has the grid's parity."""
    q = np.arange(n + 1)
    grid = (((q - parity) % 2 == 1) * (2 - (q == 0) - (q == n))).astype(np.int8)
    counts = np.indices(grid + 1, dtype=np.int8).reshape(n + 1, -1).T
    return counts[counts.sum(axis=1) % 2 == parity], grid


def _class_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The class table of the n-site ring, shape (6, classes), with each
    class's sz and kappa (`RingModel`), built from the count keys of both grids."""
    keys, grids = zip(*(_count_keys(n, parity) for parity in (0, 1)))
    counts = np.concatenate(keys)
    grid = np.concatenate([np.broadcast_to(g, k.shape) for g, k in zip(grids, keys)])
    counted = counts.sum(axis=1)
    # a key stands for prod C(g_q, c_q) levels: 2 choices for each half-filled +-k pair
    multiplicity = 2.0 ** ((counts == 1) & (grid == 2)).sum(axis=1)
    q = np.arange(n + 1)
    # cos(pi q / n) as a sine, so that cos(pi/2) is exactly 0 and cos(pi - k) exactly -cos k
    cosines = np.sin(np.pi * (n - 2 * q) / (2 * n))
    if n > 1:
        # the cosines of a whole grid sum to 0, so a set more than half full sums its holes:
        # kappa(S) = -kappa(holes of S), exactly 0 for a full grid (+ 0.0 turns -0.0 into 0)
        more_than_half = 2 * counted > n
        summed = np.where(more_than_half[:, None], grid - counts, counts)
        kappa = np.where(more_than_half, -4.0, 4.0) * (summed * cosines).sum(axis=1) + 0.0
    else:  # a single site has no bond
        kappa = np.zeros(counted.size)
    # n^2 times a key's mean pair sums, as sums of nonnegative terms over ordered mode pairs:
    # over the key's +-k choices a pair from classes q != q' weighs on average
    # sin^2(pi (q - q') / 2n) + sin^2(pi (q + q') / 2n) = 1 - cos(pi q / n) cos(pi q' / n),
    # exact where the cosines are, and a pair within class q weighs 2 sin^2(pi q / n), with
    # c_q (c_q - 1) such pairs filled, h_q (h_q - 1) empty and c_q h_q filled-empty (c filled
    # and h = g - c empty modes)
    weights = 1.0 - np.outer(cosines, cosines)
    np.fill_diagonal(weights, 0.0)
    within = 2.0 * np.sin(np.pi * q / n) ** 2
    filled, empty = counts.astype(float), (grid - counts).astype(float)
    pairs = [np.einsum("kr,kr->k", a @ weights, b) + np.einsum("kq,kq,q->k", a, pairs_within, within)
             for a, b, pairs_within in ((empty, empty, empty - 1.0), (filled, empty, empty),
                                        (filled, filled, filled - 1.0))]
    sz = n - 2.0 * counted
    # count keys with bit-identical kappa and sz share every energy too: one class
    classes, members = np.unique(np.stack([sz, kappa], axis=1), axis=0, return_inverse=True)
    table = np.stack([np.bincount(members, multiplicity * column)
                      for column in (np.ones(sz.size), kappa, sz, *pairs)])
    table[3:] /= n ** 2
    return table, classes[:, 0].copy(), classes[:, 1].copy()


class RingModel:
    """The n-site ring as its class table, one Fock state per occupation set.

    Within the sector with N down spins each level is an occupation set S of
    N modes on its grid, with kappa(S) = 4 sum_{k in S} cos k, sz = n - 2N
    and level energy j * kappa + b * sz. Fock states are translation
    invariant, so every bond carries the same pair-pattern probabilities
    p00, p01 (= p10) and p11, sums of nonnegative terms (2/n^2)
    sin^2((k - k')/2) over mode pairs: both filled for p11, both empty for
    p00, and one filled, one empty for p01; kappa / (2n) is the bond's
    flip-flop element <sigma_x sigma_x>. A single site has no bond: its
    kappa and pair sums are 0.

    Modes k and 2 pi - k share cos k, so a level's kappa and sz depend only
    on its grid parity and its count key: the number of occupied modes in
    each +-k class (0, 1 or 2; 0 or 1 for the self-paired k = 0 and k = pi).
    The table is built from the keys alone, never from the 2^n levels: a key
    stands for prod C(g_q, c_q) levels (g_q the class's modes, c_q its
    count), its kappa is summed once over the classes (over the holes for a
    set more than half full, since the cosines of a whole grid sum to 0, so
    a full grid has kappa exactly 0), and its members' pair sums are
    positive quadratic forms in the counts and holes. Keys with bit-identical
    kappa and sz have bit-identical energies at every (j, b) and form one
    class, ordered by sz, then kappa. `classes` is the class table, shape
    (6, classes): the sums over each class's levels of 1 (its multiplicity),
    kappa, sz, p00, p01 and p11; `class_kappa` and `class_sz` are each
    class's own kappa and sz. The n = 10 ring has 284 count keys in 203
    classes; the n = 16 ring has 7,655 in 4,029.
    """

    def __init__(self, n: int):
        _check_ring_size(n)
        self.n = n
        self.classes, self.class_sz, self.class_kappa = _class_table(n)
        for array in (self.classes, self.class_kappa, self.class_sz):
            array.setflags(write=False)


@functools.cache
def ring_model(n: int) -> RingModel:
    """The cached `RingModel` of the n-site ring, kept for the process.

    A ring holds its class table with each class's kappa and sz (64 bytes
    per class): 0.26 MB for the n = 16 ring, 0.82 MB for all N_MAX = 16
    rings at once. Measured on a 2-CPU machine (median of 15 builds, peak
    by tracemalloc), the n = 16 ring builds in 17-25 ms with a 6.1 MB peak,
    and the n = 12 ring in 1.9-2.7 ms.
    """
    return RingModel(n)


@dataclass(frozen=True)
class Spectrum:
    """The ring's spectrum at (j, b): a view of its cached `RingModel`, with
    class energies j * kappa + b * sz in the ring's class order."""

    params: ModelParams
    ring: RingModel = field(repr=False, compare=False)

    def class_energies(self) -> np.ndarray:
        """The energy of each class's levels."""
        return self.params.j * self.ring.class_kappa + self.params.b * self.ring.class_sz

    @property
    def ground_energy(self) -> float:
        # + 0.0 reads the all-zero spectrum (j = b = 0) as 0, never -0
        return float(self.class_energies().min()) + 0.0


def full_spectrum(params: ModelParams) -> Spectrum:
    """Spectrum of the ring at (j, b), a view of the cached ring: the ring's
    class table is built once per ring size."""
    return Spectrum(params=params, ring=ring_model(params.n))
