"""The per-ring spectral cache, built from Jordan-Wigner modes.

Within the magnetization sector with N down spins the Hamiltonian is
j * K_N + b * sz_N, and the Jordan-Wigner map turns K_N into N free fermions
on the ring: a down spin is an occupied mode k on the Lieb-Schultz-Mattis
grid of its parity (Ann. Phys. 16, 407 (1961)), k = 2 pi (m + 1/2) / n for
even N and k = 2 pi m / n for odd N. Every occupation set S of N modes is an
exact eigenstate, with kappa(S) = 4 sum_{k in S} cos k, so each ring's levels
and their bond expectations are sums over modes and nothing is diagonalized
(`ring_model`). Fock states are translation invariant, so one per-level
table serves every bond, and levels of equal (kappa, sz) fold into one
class of a class table, which is all the thermal kernel reads. The spectrum
at any (j, b) is a view of that entry with level energies
j * kappa + b * sz (`full_spectrum`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import _check_ring_size, embed_in_full_space, enumerate_sector
from .hamiltonian import ModelParams

# Levels within GROUND_RTOL * max(1, |E0|) of the ground energy E0 count as
# the degenerate ground level.
GROUND_RTOL = 1e-8

# Rings kept resident. Six covers the proposition suites (rings 2..6 and an
# odd control) with one to spare.
RING_CACHE_SIZE = 6


def _bits(values, n: int) -> np.ndarray:
    """Bits 0..n-1 of each value, one row per value."""
    return (np.asarray(values)[..., None] >> np.arange(n)) & 1


def _grid(n: int, particles: int) -> np.ndarray:
    """The mode grid k_m = pi * p_m / n (m = 0..n-1) of a sector with this
    many down spins, as the integers p_m = 2m (+1 for even N)."""
    return 2 * np.arange(n) + (particles + 1) % 2


def _folded(n: int, particles: int) -> np.ndarray:
    """Each mode's +-k class on a sector's grid: q_m = min(p_m, 2n - p_m), so
    that k_m = pi * q_m / n or 2 pi - pi * q_m / n; q = 0 and q = n are the
    self-paired modes k = 0 and k = pi."""
    p = _grid(n, particles)
    return np.minimum(p, 2 * n - p)


def _level_classes(n: int, occupied: np.ndarray, particles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each level's class, and each class's (sz, kappa), from the levels'
    occupied modes (`RingModel`); the build's temporaries end here."""
    # a level's count key: a base-3 digit per +-k class counting its occupied modes, then its grid parity
    parity = particles % 2
    digits = np.where(parity == 1, occupied @ 3 ** _folded(n, 1), occupied @ 3 ** _folded(n, 0))
    keys, members = np.unique(2 * digits + parity, return_inverse=True)
    counts = keys[:, None] // 2 // 3 ** np.arange(n + 1) % 3
    counted = counts.sum(axis=1)
    if n > 1:
        # cos(pi q / n) as a sine, so that cos(pi/2) is exactly 0 and cos(pi - k) exactly -cos k
        q = np.arange(n + 1)
        cosines = np.sin(np.pi * (n - 2 * q) / (2 * n))
        # the cosines of a whole grid sum to 0, so a set more than half full sums its holes:
        # kappa(S) = -kappa(holes of S), exactly 0 for a full grid (+ 0.0 turns -0.0 into 0)
        grid = ((q - counted[:, None]) % 2 == 1) * (2 - (q == 0) - (q == n))  # modes per class
        holes = 2 * counted > n
        summed = np.where(holes[:, None], grid - counts, counts)
        kappa = np.where(holes, -4.0, 4.0) * (summed * cosines).sum(axis=1) + 0.0
    else:  # a single site has no bond
        kappa = np.zeros(keys.size)
    # count keys with bit-identical kappa and sz share every energy too: one class
    pairs, merged = np.unique(np.stack([n - 2.0 * counted, kappa], axis=1), axis=0,
                              return_inverse=True)
    return merged[members], pairs


class RingModel:
    """The 2^n levels of the n-site ring, one Fock state per occupation set.

    Levels are laid out sector by sector (N = 0..n down spins, sector N
    starting at level `sector_starts[N]`) and ascending in kappa within a
    sector, and `modes` holds each level's occupation set as a bit mask over
    the mode index m. `levels` is the one per-level table, shape (levels, 5):
    kappa, sz, and the probabilities p00, p01 (= p10) and p11 of the pair
    patterns on a bond; `kappa` and `sz` are its first two columns, so the
    level energies at (j, b) are j * kappa + b * sz. Fock states are
    translation invariant, so every bond has these probabilities, and
    kappa / (2n) is the bond's flip-flop element <sigma_x sigma_x>. A single
    site has no bond: its kappa and pair columns are 0.

    The pair probabilities are sums of nonnegative terms (2/n^2)
    sin^2((k - q)/2): over k, q in S for p11, over empty k, q for p00, and
    over k in S, q not in S for p01. Mode differences are multiples of
    2 pi / n on either grid.

    Modes k and 2 pi - k have the same cos k, so a level's kappa and sz
    depend only on its grid parity and the number of occupied modes in each
    +-k class (0, 1 or 2; 0 or 1 for the self-paired k = 0 and k = pi).
    kappa is computed once per such count vector, and every level with it
    carries that value; a set more than half full sums its holes instead
    (the cosines of a whole grid sum to 0), so a full grid has kappa exactly
    0 and nearly full sets are as accurate as nearly empty ones. Levels with
    bit-identical kappa and sz then have bit-identical energies at every
    (j, b), and form one class, ordered by sz, then kappa. `classes` is the
    class table, shape (6, classes): the sums over each class's members of 1
    (its multiplicity), kappa, sz, p00, p01 and p11; `class_kappa` and
    `class_sz` are each class's own kappa and sz. The n = 10 ring's 1,024
    levels have 284 count vectors and fall into 203 classes; the n = 16
    ring's 65,536 levels have 7,655 and fall into 4,029.
    """

    def __init__(self, n: int):
        _check_ring_size(n)
        masks = np.arange(1 << n)
        occupied = _bits(masks, n)
        particles = occupied.sum(axis=1)
        members, pairs = _level_classes(n, occupied, particles)
        kappa = pairs[members, 1]
        order = np.lexsort((kappa, particles))
        filled = occupied[order].astype(float)
        del occupied  # the bits of all 2^n levels are the largest arrays of a build
        empty = 1.0 - filled
        gaps = np.arange(n)
        weights = (2.0 / n ** 2) * np.sin(np.pi * (gaps[:, None] - gaps[None, :]) / n) ** 2
        filled_weights = filled @ weights
        levels = np.empty((masks.size, 5))
        levels[:, 0] = kappa[order]
        levels[:, 1] = n - 2 * particles[order]
        levels[:, 2] = np.einsum("lk,lk->l", empty @ weights, empty)
        levels[:, 3] = np.einsum("lk,lk->l", filled_weights, empty)
        levels[:, 4] = np.einsum("lk,lk->l", filled_weights, filled)
        members = members[order]
        self.n = n
        self.levels = levels
        self.kappa, self.sz = levels[:, 0], levels[:, 1]
        self.modes = masks[order]
        self.sector_starts = np.searchsorted(particles[order], np.arange(n + 1))
        self.classes = np.stack([np.bincount(members).astype(float)]
                                + [np.bincount(members, column) for column in levels.T])
        self.class_sz, self.class_kappa = pairs.T.copy()
        for array in (levels, self.modes, self.sector_starts, self.classes, self.class_kappa,
                      self.class_sz):
            array.setflags(write=False)

    def energies(self, j, b) -> np.ndarray:
        """Level energies j * kappa + b * sz; one row per point if j or b is an array."""
        return (np.asarray(j, dtype=float)[..., None] * self.kappa
                + np.asarray(b, dtype=float)[..., None] * self.sz)


@functools.lru_cache(maxsize=RING_CACHE_SIZE)
def ring_model(n: int) -> RingModel:
    """The cached `RingModel` of the n-site ring, least recently used first out.

    A ring holds its level table (40 * 2^n bytes), its mode masks
    (8 * 2^n bytes) and its class table with each class's kappa and sz
    (64 bytes per class). Measured with tracemalloc: 3.4 MB for the n = 16
    ring (39 MB peak while it is built) and 7.0 MB for rings 11..16 all
    resident.
    """
    return RingModel(n)


@dataclass(frozen=True)
class Spectrum:
    """The ring's spectrum at (j, b): a view of its cached `RingModel`, with
    level energies j * kappa + b * sz in the ring's flat level order."""

    params: ModelParams
    ring: RingModel = field(repr=False, compare=False)

    @property
    def ground_energy(self) -> float:
        # + 0.0 reads the all-zero spectrum (j = b = 0) as 0, never -0
        return float(self.ring.energies(self.params.j, self.params.b).min()) + 0.0

    def eigenvalues(self) -> np.ndarray:
        """All 2^n eigenvalues, sorted ascending."""
        return np.sort(self.ring.energies(self.params.j, self.params.b))

    def ground_mask(self) -> np.ndarray:
        """Levels of the degenerate ground level, over the ring's flat level
        order: those within GROUND_RTOL * max(1, |E0|) of E0."""
        e0 = self.ground_energy
        tol = GROUND_RTOL * max(1.0, abs(e0))
        return self.ring.energies(self.params.j, self.params.b) <= e0 + tol


def full_spectrum(params: ModelParams) -> Spectrum:
    """Spectrum of the ring at (j, b), a view of the cached ring: the ring's
    levels are built once per ring size."""
    return Spectrum(params=params, ring=ring_model(params.n))


def ground_state_vector(spectrum: Spectrum) -> np.ndarray:
    """Full-space amplitudes of the unique ground state.

    The ground Fock state with down spins at sites x_1 < ... < x_N has the
    Slater amplitude det[exp(i k_a x_b)] / n^(N/2) on the label of those
    sites, with its global phase fixed so the vector is real. Raises
    ValueError when the ground level is degenerate; degenerate ground
    spaces have no preferred state and must be handled as mixtures.
    """
    mask = spectrum.ground_mask()
    if mask.sum() != 1:
        raise ValueError(f"ground level is {int(mask.sum())}-fold degenerate")
    ring = spectrum.ring
    level = int(np.argmax(mask))
    n, particles = ring.n, (ring.n - int(ring.sz[level])) // 2
    k = np.pi / n * _grid(n, particles)[_bits(ring.modes[level], n) == 1]
    basis = enumerate_sector(n, particles)
    sites = np.nonzero(_bits(basis.labels, n))[1].reshape(len(basis), particles)
    amplitudes = np.linalg.det(np.exp(1j * k[None, :, None] * sites[:, None, :]))
    amplitudes /= math.sqrt(n) ** particles
    pivot = amplitudes[np.argmax(np.abs(amplitudes))]
    return embed_in_full_space(basis, (amplitudes * (abs(pivot) / pivot)).real)
