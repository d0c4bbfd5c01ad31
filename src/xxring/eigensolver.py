"""Dense symmetric eigendecompositions, and the per-ring spectral cache.

Within the magnetization sector with r down spins the Hamiltonian is
j * K_r + b * sz_r * I, where K_r is the exchange block at j = 1, b = 0. So
the eigenvectors depend only on the ring size: each ring's K_r blocks are
diagonalized once (`ring_model`), and the spectrum at any (j, b) is a view
of that entry with eigenvalues j * kappa + b * sz (`full_spectrum`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .basis import SectorBasis, embed_in_full_space
from .hamiltonian import ModelParams, build_sector_hamiltonian

_SYMMETRY_RTOL = 1e-12

# Levels within GROUND_RTOL * max(1, |E0|) of the ground energy E0 count as
# the degenerate ground level.
GROUND_RTOL = 1e-8

# Rings kept resident. Six covers the proposition suites (rings 2..6 and an
# odd control) with one to spare.
RING_CACHE_SIZE = 6


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues ascending; vectors[:, k] is the unit eigenvector of values[k]."""

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class SectorSpectrum:
    sz: int
    basis: SectorBasis
    eig: EigenDecomposition


class RingModel:
    """The exchange blocks K_r of the n-site ring, diagonalized once.

    Levels are laid out sector by sector (r = 0..n) and ascending in kappa
    within a sector; `kappa` and `sz` are the flat per-level arrays, so the
    level energies at (j, b) are j * kappa + b * sz. Per-level bond
    expectations are computed the first time a bond is asked for and kept.
    """

    def __init__(self, n: int):
        sectors = []
        for r in range(n + 1):
            block = build_sector_hamiltonian(ModelParams(n=n, j=1.0, b=0.0), r)
            sectors.append(SectorSpectrum(sz=block.basis.sz, basis=block.basis,
                                          eig=eigh_symmetric(block.entries)))
        self.n = n
        self.sectors = tuple(sectors)
        self.kappa = np.concatenate([sec.eig.values for sec in sectors])
        self.sz = np.concatenate([np.full(len(sec.basis), float(sec.sz)) for sec in sectors])
        self.kappa.setflags(write=False)
        self.sz.setflags(write=False)
        self._bond_columns: dict[tuple[int, int] | None, np.ndarray] = {}

    @property
    def bond(self) -> tuple[int, int] | None:
        """The bond ring-level averages are read on; a single site has none."""
        return (0, 1) if self.n > 1 else None

    def energies(self, j, b) -> np.ndarray:
        """Level energies j * kappa + b * sz; one row per point if j or b is an array."""
        return (np.asarray(j, dtype=float)[..., None] * self.kappa
                + np.asarray(b, dtype=float)[..., None] * self.sz)

    def bond_columns(self, bond: tuple[int, int] | None) -> np.ndarray:
        """Per-level expectations on a bond (i, j), shape (levels, 6).

        Columns: sum(sigma_z), the flip-flop element <sigma_x(i) sigma_x(j)>,
        and the probabilities of the pair patterns 00, 01, 10, 11 (bit of i
        first). bond=None (no bond, as on a single site) gives sum(sigma_z)
        and zeros.
        """
        columns = self._bond_columns.get(bond)
        if columns is None:
            columns = np.zeros((self.kappa.size, 6))
            columns[:, 0] = self.sz
            if bond is not None:
                start = 0
                for sec in self.sectors:
                    stop = start + len(sec.basis)
                    columns[start:stop, 1:] = _sector_bond_expectations(sec, *bond)
                    start = stop
            columns.setflags(write=False)
            self._bond_columns[bond] = columns
        return columns


def _sector_bond_expectations(sec: SectorSpectrum, i: int, j: int) -> np.ndarray:
    """Flip-flop element and pair-pattern probabilities of every eigenvector
    of a sector, shape (dim, 5).

    Only the magnetization-preserving part of sigma_x(i) sigma_x(j) (the
    01 <-> 10 swap) has matrix elements inside a sector.
    """
    labels = np.array(sec.basis.labels, dtype=np.int64)
    vectors = sec.eig.vectors
    bit_i, bit_j = (labels >> i) & 1, (labels >> j) & 1
    out = np.zeros((labels.size, 5))
    rows = np.nonzero((bit_i == 1) & (bit_j == 0))[0]
    if rows.size:
        partners = np.searchsorted(labels, labels[rows] ^ ((1 << i) | (1 << j)))
        out[:, 0] = 2.0 * np.einsum("lk,lk->k", vectors[rows, :], vectors[partners, :])
    pattern = 2 * bit_i + bit_j
    squares = vectors ** 2
    for p in range(4):
        hits = pattern == p
        if hits.any():
            out[:, 1 + p] = squares[hits, :].sum(axis=0)
    return out


@functools.lru_cache(maxsize=RING_CACHE_SIZE)
def ring_model(n: int) -> RingModel:
    """The cached `RingModel` of the n-site ring, least recently used first out.

    Eigenvectors take 8 * binomial(2n, n) bytes and the flat level arrays
    and bond columns up to 8 * 2^n * (2 + 6n) more, so the worst case, rings
    11..16 all resident with every bond asked for, retains about 6.6 GB
    (4.9 GB of it the n = 16 entry). Rings 2..6 retain under 50 kB together.
    """
    return RingModel(n)


@dataclass(frozen=True)
class Spectrum:
    """The ring's spectrum at (j, b): a view of its cached `RingModel`, with
    level energies j * kappa + b * sz in the ring's flat level order. The
    per-sector views (`sectors`) are built the first time they are read.
    """

    params: ModelParams
    ring: RingModel = field(repr=False, compare=False)

    @functools.cached_property
    def sectors(self) -> tuple[SectorSpectrum, ...]:
        """Per-sector eigendecompositions, ascending: for j < 0 the ring's columns run backwards."""
        j, b = self.params.j, self.params.b
        sectors = []
        for sec in self.ring.sectors:
            values = j * sec.eig.values + b * sec.sz
            vectors = sec.eig.vectors
            if j < 0:
                values, vectors = values[::-1], vectors[:, ::-1]
            values.setflags(write=False)
            sectors.append(SectorSpectrum(sz=sec.sz, basis=sec.basis,
                                          eig=EigenDecomposition(values=values, vectors=vectors)))
        return tuple(sectors)

    @property
    def ground_energy(self) -> float:
        # + 0.0 reads the all-zero spectrum (j = b = 0) as 0, never -0
        return float(self.ring.energies(self.params.j, self.params.b).min()) + 0.0

    def eigenvalues(self) -> np.ndarray:
        """All 2^n eigenvalues, sorted ascending."""
        return np.sort(self.ring.energies(self.params.j, self.params.b))

    def ground_mask(self, tol: float | None = None) -> np.ndarray:
        """Levels of the degenerate ground level, over the ring's flat level
        order: those within tol (default GROUND_RTOL * max(1, |E0|)) of E0."""
        e0 = self.ground_energy
        if tol is None:
            tol = GROUND_RTOL * max(1.0, abs(e0))
        return self.ring.energies(self.params.j, self.params.b) <= e0 + tol

    def ground_states(self, tol: float | None = None) -> list[tuple[SectorSpectrum, int]]:
        """(sector, column) pairs spanning the degenerate ground subspace."""
        step = 1 if self.params.j >= 0 else -1  # columns ascend in energy, flat levels in kappa
        bounds = np.cumsum([len(sec.basis) for sec in self.sectors])[:-1]
        hits = []
        for sec, sector_mask in zip(self.sectors, np.split(self.ground_mask(tol), bounds)):
            hits.extend((sec, int(k)) for k in np.nonzero(sector_mask[::step])[0])
        return hits


def eigh_symmetric(matrix: np.ndarray) -> EigenDecomposition:
    """Diagonalize a dense real symmetric matrix (LAPACK divide and conquer).

    Input must be square and symmetric to 1e-12 relative; convergence failure
    surfaces as numpy.linalg.LinAlgError, which signals numerical pathology.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > _SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    values, vectors = np.linalg.eigh(a)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenDecomposition(values=values, vectors=vectors)


def full_spectrum(params: ModelParams) -> Spectrum:
    """Spectrum of the ring at (j, b), a view of the cached ring: no
    diagonalization once the ring size has been seen, and no per-sector work
    until `Spectrum.sectors` is read."""
    return Spectrum(params=params, ring=ring_model(params.n))


def ground_state_vector(spectrum: Spectrum, tol: float | None = None) -> np.ndarray:
    """Full-space amplitudes of the unique ground state.

    Raises ValueError when the ground level is degenerate; degenerate ground
    spaces have no preferred state and must be handled as mixtures.
    """
    states = spectrum.ground_states(tol)
    if len(states) != 1:
        raise ValueError(f"ground level is {len(states)}-fold degenerate")
    sec, k = states[0]
    return embed_in_full_space(sec.basis, sec.eig.vectors[:, k])
