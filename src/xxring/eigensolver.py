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
enumerating its 2^n levels (`ring_model`), in pure Python: numpy's import
is left to the commands that form arrays. Both thermal kernels read only
that table. The spectrum at any (j, b) is a view of it with class energies
j * kappa + b * sz (`full_spectrum`).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .basis import _check_ring_size
from .hamiltonian import ModelParams

# The width of one level relative to the ground energy (`same_level`). On rings
# n <= 16, classes that are one level in exact arithmetic lie at most 1.2e-16 |E0|
# apart at B = 0 (the spin-flip partners of odd rings, built on the other grid,
# included) and 2.3e-16 |E0| at random |J|, |B| in [1e-3, 1e3]: a margin of about
# 4,000. Every splitting wider than 1e-12 |E0| is resolved.
GROUND_RTOL = 1e-12


def same_level(energies, lowest, e0):
    """Whether each energy lies in the level whose lowest energy is `lowest`: within
    GROUND_RTOL * |e0| above it, e0 the ring's ground energy at the same (j, b). It
    scales with the couplings and needs no floor: the levels sum to 0, so e0 = 0 only if all are."""
    return energies <= lowest + GROUND_RTOL * abs(e0)


def _class_table(n: int) -> tuple[tuple[tuple[float, ...], ...], tuple[float, ...], tuple[float, ...]]:
    """The class table of the n-site ring, six columns of one float per
    class, with each class's sz and kappa (`RingModel`), from a depth-first
    walk over each grid's count keys, one +-k class per level.

    Grid parity 1 (an odd number of down spins) has the modes k = pi p / n
    with p = 2m, parity 0 those with p = 2m + 1; they fold into the +-k
    classes q = min(p, 2n - p) of 2 modes, or 1 for the self-paired q = 0
    and q = n. A key counts the occupied modes of each class of its grid,
    with a total of the grid's parity."""
    # cos(pi q / n) as a sine, so that cos(pi/2) is exactly 0 and cos(pi - k) exactly -cos k
    cosines = [math.sin(math.pi * (n - 2 * q) / (2 * n)) for q in range(n + 1)]
    classes: dict[tuple[float, float], list[float]] = {}
    for parity in (0, 1):
        grid = [q for q in range(n + 1) if (q - parity) % 2 == 1]
        sizes = [2 - (q == 0) - (q == n) for q in grid]
        cos = [cosines[q] for q in grid]
        # a pair within class q weighs 2 sin^2(pi q / n)
        within = [2.0 * math.sin(math.pi * q / n) ** 2 for q in grid]
        # over a key's +-k choices a pair from classes q != q' weighs on average
        # sin^2(pi (q - q') / 2n) + sin^2(pi (q + q') / 2n) = 1 - cos(pi q / n) cos(pi q' / n):
        # class i's row against the classes after it
        against = [[1.0 - x * y for y in cos[i + 1:]] for i, x in enumerate(cos)]
        last = len(grid) - 1

        def visit(i, counts, filled, empty, p00, p01, p11, multiplicity):
            # filled[k], empty[k]: the key's filled and empty modes so far, weighed against class i + k
            size, f, h, row = sizes[i], filled[0], empty[0], against[i]
            # at the last class only the counts that give the key the grid's parity
            first, step = ((parity - sum(counts)) % 2, 2) if i == last else (0, 1)
            for c in range(first, size + 1, step):
                e, key = size - c, counts + (c,)
                # n^2 times the key's mean pair sums, nonnegative terms over ordered mode pairs
                q00 = p00 + 2 * e * h + e * (e - 1) * within[i]
                q01 = p01 + c * h + e * f + c * e * within[i]
                q11 = p11 + 2 * c * f + c * (c - 1) * within[i]
                # a key stands for prod C(g_q, c_q) levels: 2 choices for each half-filled +-k pair
                weight = 2.0 * multiplicity if c == 1 == e else multiplicity
                if i < last:
                    visit(i + 1, key, [a + c * r for a, r in zip(filled[1:], row)],
                          [a + e * r for a, r in zip(empty[1:], row)], q00, q01, q11, weight)
                    continue
                down = sum(key)
                # the cosines of a whole grid sum to 0, so a set more than half full sums its holes:
                # kappa(S) = -kappa(holes of S), exactly 0 for a full grid (+ 0.0 turns -0.0 into 0)
                if 2 * down > n:
                    kappa = -4.0 * math.fsum([(g - k) * x for g, k, x in zip(sizes, key, cos)]) + 0.0
                else:
                    kappa = 4.0 * math.fsum([k * x for k, x in zip(key, cos)]) + 0.0
                sz = float(n - 2 * down)
                # keys with one correctly rounded kappa and one sz share every energy: one class
                sums = classes.setdefault((sz, kappa), [0.0] * 6)
                # unrolled: a loop over the six sums took half the build
                sums[0] += weight
                sums[1] += weight * kappa
                sums[2] += weight * sz
                sums[3] += weight * q00
                sums[4] += weight * q01
                sums[5] += weight * q11

        visit(0, (), [0.0] * len(grid), [0.0] * len(grid), 0.0, 0.0, 0.0, 1.0)
    keys, rows = zip(*sorted(classes.items()))
    columns = list(zip(*rows))
    columns[3:] = [tuple(x / n ** 2 for x in column) for column in columns[3:]]
    return tuple(columns), tuple(sz for sz, _ in keys), tuple(kappa for _, kappa in keys)


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
    count), its kappa is summed once over the classes, correctly rounded
    (`math.fsum`; over the holes for a set more than half full, since the
    cosines of a whole grid sum to 0, so a full grid has kappa exactly 0),
    and its members' pair sums are positive quadratic forms in the counts
    and holes, every term of them nonnegative. Keys with bit-identical kappa
    and sz have bit-identical energies at every (j, b) and form one class,
    ordered by sz, then kappa. `classes` is the class table, six tuples of
    one float per class: the sums over each class's levels of 1 (its
    multiplicity), kappa, sz, p00, p01 and p11; `class_kappa` and `class_sz`
    are each class's own kappa and sz. The n = 10 ring has 284 count keys in
    188 classes; the n = 12 ring has 443 classes, and the n = 16 ring 7,655
    keys in 2,901.
    """

    def __init__(self, n: int):
        _check_ring_size(n)
        self.n = n
        self.classes, self.class_sz, self.class_kappa = _class_table(n)


@functools.cache
def ring_model(n: int) -> RingModel:
    """The cached `RingModel` of the n-site ring, kept for the process.

    A ring holds its class table with each class's kappa and sz as tuples
    of floats: 1.5 MB for the n = 16 ring. Measured on a 2-CPU machine
    (medians of 21 builds at n = 16 and 61 at n = 12, peak by tracemalloc),
    the n = 16 ring builds in 56 ms with a 1.6 MB peak, the n = 12 ring in
    6.0 ms and the n = 10 ring in about 2 ms.
    """
    return RingModel(n)


class Spectrum(NamedTuple):
    """The ring's spectrum at (j, b): a view of its cached `RingModel`, with
    class energies j * kappa + b * sz in the ring's class order."""

    params: ModelParams
    ring: RingModel

    def class_energies(self) -> list[float]:
        """The energy of each class's levels."""
        j, b = self.params.j, self.params.b
        return [j * kappa + b * sz for kappa, sz in zip(self.ring.class_kappa, self.ring.class_sz)]


def full_spectrum(params: ModelParams) -> Spectrum:
    """Spectrum of the ring at (j, b), a view of the cached ring: the ring's
    class table is built once per ring size."""
    return Spectrum(params=params, ring=ring_model(params.n))
