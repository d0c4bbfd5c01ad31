"""Oracles and cross-checks that only the tests use.

- Brute force on the full 2^n space, independent of the Jordan-Wigner
  levels it checks: the complex tensor-product route (Gibbs and ground
  densities, partial traces, `wootters_concurrence`) and the real
  `full_hamiltonian`.
- The dense exact-diagonalization (ED) oracle: sector blocks
  (`build_sector_hamiltonian`), `eigh_symmetric`, the dense ring cache
  (`dense_ring`, with per-bond columns from its own eigenvectors), its own
  Boltzmann reweighting (`dense_reweight`), its per-sector views
  (`dense_sectors`, `dense_ground_states`) and the crossings of its sector
  floors (`dense_floor_crossings`).
- The 2^n views of the package's ring: the bitstring basis
  (`enumerate_sector`, `embed_in_full_space`), the per-level build the
  class table is checked against (`level_table`), every eigenvalue
  (`eigenvalues`), the Slater ground vector (`ground_state_vector`) and
  the 2^n-amplitude tangle (`n_tangle`), and a bond state as a dense 4x4
  matrix (`pair_matrix`).
- The ring symmetry operators on basis labels.
- `concurrence_wootters`, the general spin-flip construction through
  `eigh_symmetric`, kept apart from `wootters_concurrence` so that the two
  can be compared.
- `gxx_from_energy`, which recovers g_xx from energy and magnetization.
- The per-sector reference route, which diagonalizes each (j, b) block on
  its own to check the spectral cache and the batched thermal kernel, and
  the per-point drivers, which check the batched drivers one kernel call
  per point.
"""

import functools
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from xxring.basis import N_MAX, _check_ring_size
from xxring.eigensolver import full_spectrum, ring_model, same_level
from xxring.entanglement import _clamp_unit, concurrence_from_correlators
from xxring.experiments import POSITIVE_CONCURRENCE, _splits, gibbs_concurrence, thermal_concurrence
from xxring.hamiltonian import ModelParams
from xxring.thermal import reweight

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def site_operator(n, ops):
    """Tensor product placing site n-1 as the most significant label bit."""
    out = np.array([[1.0 + 0.0j]])
    for site in reversed(range(n)):
        out = np.kron(out, ops.get(site, ID2))
    return out


def ring_hamiltonian(n, j, b):
    """The ring Hamiltonian assembled from explicit Pauli tensor products."""
    dim = 1 << n
    h = np.zeros((dim, dim), dtype=complex)
    for i, k in bonds(n):
        h += j * (site_operator(n, {i: SX, k: SX}) + site_operator(n, {i: SY, k: SY}))
    for i in range(n):
        h += b * site_operator(n, {i: SZ})
    return h


def gibbs_density(h, t):
    values, vectors = np.linalg.eigh(h)
    weights = np.exp(-(values - values[0]) / t)
    weights /= weights.sum()
    return (vectors * weights) @ vectors.conj().T


def log_partition(h, t):
    values = np.linalg.eigvalsh(h)
    shifted = -(values - values[0]) / t
    return float(np.log(np.exp(shifted).sum()) - values[0] / t)


def ground_mixture_density(h):
    """Uniform mixture over the degenerate ground subspace, by the package's
    rule for one level (`same_level`)."""
    values, vectors = np.linalg.eigh(h)
    keep = same_level(values, values[0], values[0])
    cols = vectors[:, keep]
    return (cols @ cols.conj().T) / int(keep.sum())


def partial_trace_pair(rho, n, pair):
    """Reduce a 2^n density matrix onto (site_i, site_j), site i first."""
    i, k = pair
    full = rho.reshape([2] * (2 * n))
    ax_i, ax_k = n - 1 - i, n - 1 - k
    rest = [ax for ax in range(n) if ax not in (ax_i, ax_k)]
    perm = [ax_i, ax_k] + rest + [n + ax_i, n + ax_k] + [n + ax for ax in rest]
    moved = np.transpose(full, perm).reshape(4, 1 << (n - 2), 4, 1 << (n - 2))
    return np.einsum("arbr->ab", moved)


def wootters_concurrence(rho):
    """Spin-flip concurrence of a two-qubit density matrix.

    Real symmetric input goes through |eig(sqrt(rho) YY sqrt(rho))|, which
    keeps the near-zero spin-flip eigenvalues at full precision; anything
    genuinely complex falls back to the plain eigenvalue route.
    """
    rho = np.asarray(rho, dtype=complex)
    yy = np.kron(SY, SY)
    if np.abs(rho.imag).max() < 1e-13:
        a = rho.real
        values, vectors = np.linalg.eigh(a)
        sqrt_a = (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.T
        lam = np.sort(np.abs(np.linalg.eigvalsh(sqrt_a @ yy.real @ sqrt_a)))[::-1]
    else:
        product = rho @ yy @ rho.conj() @ yy
        lam = np.sqrt(np.abs(np.sort(np.linalg.eigvals(product).real)))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def reference_spectrum_n4(j, b):
    """The sixteen closed-form levels of the four-site ring, sorted."""
    s2 = np.sqrt(2.0)
    return np.sort([
        4 * b, -4 * b,
        2 * b, 2 * b, -2 * b, -2 * b,
        4 * j + 2 * b, -4 * j + 2 * b, 4 * j - 2 * b, -4 * j - 2 * b,
        4 * s2 * j, -4 * s2 * j,
        0.0, 0.0, 0.0, 0.0,
    ])


def state_from_terms(n, terms):
    """Pure state from (coefficient, label) pairs; must come out normalized."""
    vec = np.zeros(1 << n, dtype=complex)
    for coeff, label in terms:
        vec[label] += coeff
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
    return vec


def four_site_singletlike_ground():
    """The zero-field four-site ground state: equal weights on the four
    adjacent-pair strings minus sqrt(2)-weighted alternating strings."""
    a = 1.0 / (2.0 * np.sqrt(2.0))
    return state_from_terms(4, [
        (a, 0b0011), (a, 0b0110), (a, 0b1100), (a, 0b1001),
        (-0.5, 0b0101), (-0.5, 0b1010),
    ])


def four_site_w_prime():
    """Three-down-spin W-type state: the mid-field four-site ground state."""
    return state_from_terms(4, [
        (-0.5, 0b1110), (0.5, 0b1101), (-0.5, 0b1011), (0.5, 0b0111),
    ])


# The bitstring basis. Site i of the ring maps to bit i of an integer label;
# bit value 1 means the spin at that site points down. A label with r set
# bits lives in the magnetization sector with sum(sigma_z) = n - 2r.


@dataclass(frozen=True)
class SectorBasis:
    """All n-bit labels with exactly r down spins, ascending as integers."""

    n: int
    r: int
    labels: tuple[int, ...]
    index: dict[int, int] = field(repr=False)

    @property
    def sz(self) -> int:
        """Eigenvalue of sum(sigma_z) shared by every member label."""
        return self.n - 2 * self.r

    def __len__(self) -> int:
        return len(self.labels)


def enumerate_sector(n: int, r: int) -> SectorBasis:
    """Enumerate the sector with r down spins, in canonical ascending order."""
    _check_ring_size(n)
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r} for n={n}")
    labels = tuple(sorted(sum(1 << i for i in sites) for sites in combinations(range(n), r)))
    index = {label: pos for pos, label in enumerate(labels)}
    return SectorBasis(n=n, r=r, labels=labels, index=index)


def embed_in_full_space(basis: SectorBasis, coeffs: np.ndarray) -> np.ndarray:
    """Lift sector coefficients (in canonical label order) to a 2^n vector."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (len(basis),):
        raise ValueError(f"expected {len(basis)} coefficients, got shape {coeffs.shape}")
    full = np.zeros(1 << basis.n, dtype=coeffs.dtype)
    full[list(basis.labels)] = coeffs
    return full


# The per-level build: every one of the 2^n Fock levels of a ring, with its
# occupied modes, kappa, sz and pair sums, folded into level classes. This
# is the package's ring as it stood before the class table was built from
# count keys, kept to check that table level by level.


def _bits(values, n: int) -> np.ndarray:
    """Bits 0..n-1 of each value, one row per value."""
    return (np.asarray(values)[..., None] >> np.arange(n)) & 1


def _grid(n: int, particles: int) -> np.ndarray:
    """The mode grid k_m = pi * p_m / n (m = 0..n-1) of a sector with this
    many down spins, as the integers p_m = 2m (+1 for even N)."""
    return 2 * np.arange(n) + (particles + 1) % 2


def _folded(n: int, particles: int) -> np.ndarray:
    """Each mode's +-k class on a sector's grid: q_m = min(p_m, 2n - p_m)."""
    p = _grid(n, particles)
    return np.minimum(p, 2 * n - p)


def _level_classes(n, occupied, particles):
    """Each level's class, and each class's (sz, kappa), from the levels'
    occupied modes."""
    # a level's count key: a base-3 digit per +-k class counting its occupied modes, then its grid parity
    parity = particles % 2
    digits = np.where(parity == 1, occupied @ 3 ** _folded(n, 1), occupied @ 3 ** _folded(n, 0))
    keys, members = np.unique(2 * digits + parity, return_inverse=True)
    counts = keys[:, None] // 2 // 3 ** np.arange(n + 1) % 3
    counted = counts.sum(axis=1)
    if n > 1:
        q = np.arange(n + 1)
        cosines = np.sin(np.pi * (n - 2 * q) / (2 * n))
        grid = ((q - counted[:, None]) % 2 == 1) * (2 - (q == 0) - (q == n))  # modes per class
        holes = 2 * counted > n
        summed = np.where(holes[:, None], grid - counts, counts)
        kappa = np.where(holes, -4.0, 4.0) * (summed * cosines).sum(axis=1) + 0.0
    else:  # a single site has no bond
        kappa = np.zeros(keys.size)
    pairs, merged = np.unique(np.stack([n - 2.0 * counted, kappa], axis=1), axis=0,
                              return_inverse=True)
    return merged[members], pairs


class LevelTable:
    """The 2^n levels of the n-site ring, sector by sector (N = 0..n down
    spins, sector N starting at level `sector_starts[N]`) and ascending in
    kappa within a sector. `modes` holds each level's occupation set as a
    bit mask over the mode index m, and `levels` is the per-level table,
    shape (levels, 5): kappa, sz, p00, p01 (= p10) and p11, the pair sums
    (2/n^2) sin^2((k - q)/2) over filled, filled-empty and empty mode pairs.
    `members` is each level's class, the levels of one bit-identical
    (sz, kappa), and `class_sz` and `class_kappa` are each class's own sz and
    kappa, ordered by sz, then kappa."""

    def __init__(self, n: int):
        _check_ring_size(n)
        masks = np.arange(1 << n)
        occupied = _bits(masks, n)
        particles = occupied.sum(axis=1)
        members, pairs = _level_classes(n, occupied, particles)
        kappa = pairs[members, 1]
        order = np.lexsort((kappa, particles))
        filled = occupied[order].astype(float)
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
        self.n = n
        self.levels = levels
        self.kappa, self.sz = levels[:, 0], levels[:, 1]
        self.modes = masks[order]
        self.sector_starts = np.searchsorted(particles[order], np.arange(n + 1))
        self.members = members[order]
        self.class_sz, self.class_kappa = pairs.T.copy()

    def energies(self, j, b) -> np.ndarray:
        """Level energies j * kappa + b * sz; one row per point if j or b is an array."""
        return (np.asarray(j, dtype=float)[..., None] * self.kappa
                + np.asarray(b, dtype=float)[..., None] * self.sz)

    def ground_mask(self, params: ModelParams) -> np.ndarray:
        """The levels of the ground level (`same_level` at the ground energy E0)."""
        energies = self.energies(params.j, params.b)
        e0 = float(energies.min()) + 0.0
        return same_level(energies, e0, e0)


@functools.lru_cache(maxsize=4)
def level_table(n: int) -> LevelTable:
    return LevelTable(n)


def eigenvalues(spectrum) -> np.ndarray:
    """All 2^n eigenvalues of a package spectrum, sorted ascending: each
    class energy repeated by its multiplicity."""
    multiplicity = spectrum.ring.classes[0].astype(int)
    return np.sort(np.repeat(spectrum.class_energies(), multiplicity))


def ground_state_vector(spectrum) -> np.ndarray:
    """Full-space amplitudes of the unique ground state.

    The ground Fock state with down spins at sites x_1 < ... < x_N has the
    Slater amplitude det[exp(i k_a x_b)] / n^(N/2) on the label of those
    sites, with its global phase fixed so the vector is real. Raises
    ValueError when the ground level is degenerate.
    """
    table = level_table(spectrum.params.n)
    mask = table.ground_mask(spectrum.params)
    if mask.sum() != 1:
        raise ValueError(f"ground level is {int(mask.sum())}-fold degenerate")
    level = int(np.argmax(mask))
    n, particles = table.n, (table.n - int(table.sz[level])) // 2
    k = np.pi / n * _grid(n, particles)[_bits(table.modes[level], n) == 1]
    basis = enumerate_sector(n, particles)
    sites = np.nonzero(_bits(basis.labels, n))[1].reshape(len(basis), particles)
    amplitudes = np.linalg.det(np.exp(1j * k[None, :, None] * sites[:, None, :]))
    amplitudes /= math.sqrt(n) ** particles
    pivot = amplitudes[np.argmax(np.abs(amplitudes))]
    return embed_in_full_space(basis, (amplitudes * (abs(pivot) / pivot)).real)


def n_tangle(psi: np.ndarray) -> float:
    """Multiqubit tangle |<psi| sigma_y^(x n) |psi*>|^2 of a normalized pure
    state over an even number of qubits.

    sigma_y^(x n) |x> = i^n (-1)^popcount(x) |~x>, and for even n the phase
    collapses to the real sign (-1)^(n/2 + popcount(x)).
    """
    amp = np.asarray(psi, dtype=complex).ravel()
    dim = amp.size
    n = dim.bit_length() - 1
    if dim < 2 or (1 << n) != dim:
        raise ValueError(f"amplitude count must be a power of two >= 2, got {dim}")
    if n % 2:
        raise ValueError(f"tangle is defined for an even number of qubits, got n={n}")
    norm = float(np.linalg.norm(amp))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state is not normalized: |psi| = {norm}")
    counts = np.array([x.bit_count() for x in range(dim)])
    signs = np.where((n // 2 + counts) % 2, -1.0, 1.0)
    # reversal maps index x to its bit complement
    flipped_conj = signs * np.conj(amp)[::-1]
    overlap = np.vdot(amp, flipped_conj)
    return _clamp_unit(float(abs(overlap)) ** 2, "tangle")


def pair_matrix(rho) -> np.ndarray:
    """A bond's X-form state (`PairDensity`) as a dense 4x4 matrix in the
    basis {|00>, |01>, |10>, |11>}."""
    return np.array([
        [rho.u_plus, 0.0, 0.0, 0.0],
        [0.0, rho.w, rho.z, 0.0],
        [0.0, rho.z, rho.w, 0.0],
        [0.0, 0.0, 0.0, rho.u_minus],
    ])


# The real 2^n Hamiltonian from explicit tensor products. Its exchange and
# field parts are built once per ring size (the last four sizes are kept),
# so each call is one j * X + b * Z.

# Largest ring worth materializing as a dense 2^n matrix.
FULL_ORACLE_N_MAX = 12

_ID2 = np.eye(2)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_ISY = np.array([[0.0, 1.0], [-1.0, 0.0]])  # i * sigma_y, kept real
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


def _site_product(n: int, ops: dict[int, np.ndarray]) -> np.ndarray:
    # Site n-1 is the most significant bit of a label, so it comes first
    # in the tensor product chain.
    out = np.array([[1.0]])
    for site in reversed(range(n)):
        out = np.kron(out, ops.get(site, _ID2))
    return out


@functools.lru_cache(maxsize=4)
def _full_parts(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only exchange part (j = 1, b = 0) and field part (j = 0, b = 1)."""
    exchange = np.zeros((1 << n, 1 << n))
    field = np.zeros((1 << n, 1 << n))
    for i, k in bonds(n):
        # sigma_y x sigma_y = -(i sigma_y) x (i sigma_y), all-real arithmetic
        exchange += _site_product(n, {i: _SX, k: _SX}) - _site_product(n, {i: _ISY, k: _ISY})
    for i in range(n):
        field += _site_product(n, {i: _SZ})
    exchange.setflags(write=False)
    field.setflags(write=False)
    return exchange, field


def full_hamiltonian(params: ModelParams) -> np.ndarray:
    """Dense 2^n Hamiltonian built from explicit tensor products.

    Brute-force oracle that bypasses sector blocking entirely; only sensible
    for small rings (n <= 12).
    """
    if params.n > FULL_ORACLE_N_MAX:
        raise ValueError(f"full matrix limited to n <= {FULL_ORACLE_N_MAX}, got {params.n}")
    exchange, field = _full_parts(params.n)
    return params.j * exchange + params.b * field


# The dense ED oracle: each magnetization sector's block assembled from its
# labels and diagonalized with LAPACK. This is the package's spectral cache
# as it stood before the Jordan-Wigner levels replaced it. Its per-level
# columns are computed per bond from the eigenvectors, and `dense_reweight`
# reweights them without the package's kernel, so nothing on the ED side
# assumes that every bond carries the same state.

_SYMMETRY_RTOL = 1e-12


def bonds(n: int) -> list[tuple[int, int]]:
    """Ring bonds (i, i+1 mod n) exactly as the periodic sum visits them."""
    if n == 1:
        return []
    return [(i, (i + 1) % n) for i in range(n)]


@dataclass(frozen=True)
class SectorMatrix:
    """Dense real symmetric Hamiltonian block on one magnetization sector."""

    basis: SectorBasis
    entries: np.ndarray


def build_sector_hamiltonian(params: ModelParams, r: int) -> SectorMatrix:
    """Assemble the Hamiltonian block acting on the sector with r down spins.

    The diagonal is the uniform field term b * (n - 2r); the exchange is
    purely off-diagonal, contributing 2j per bond traversal between labels
    that differ by swapping an adjacent 10/01 pair.
    """
    basis = enumerate_sector(params.n, r)
    dim = len(basis)
    h = np.zeros((dim, dim))
    np.fill_diagonal(h, params.b * basis.sz)
    ring = bonds(params.n)
    for pos, label in enumerate(basis.labels):
        for i, k in ring:
            if ((label >> i) & 1) != ((label >> k) & 1):
                partner = label ^ ((1 << i) | (1 << k))
                h[pos, basis.index[partner]] += 2.0 * params.j
    h.setflags(write=False)
    return SectorMatrix(basis=basis, entries=h)


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues ascending; vectors[:, k] is the unit eigenvector of values[k]."""

    values: np.ndarray
    vectors: np.ndarray


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


@dataclass(frozen=True)
class SectorSpectrum:
    sz: int
    basis: SectorBasis
    eig: EigenDecomposition


class DenseRing:
    """The exchange blocks K_r of the n-site ring, diagonalized once.

    Levels are laid out sector by sector (r = 0..n) and ascending in kappa
    within a sector, as in the package's `RingModel`; per-level bond
    expectations are computed per bond, from the eigenvectors, the first
    time a bond is asked for.
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
        self._bond_columns = {}

    def energies(self, j, b):
        return (np.asarray(j, dtype=float)[..., None] * self.kappa
                + np.asarray(b, dtype=float)[..., None] * self.sz)

    def bond_columns(self, bond):
        """Per-level sum(sigma_z), flip-flop element and pattern probabilities
        00, 01, 10, 11 on the bond (i, j), bit of i first."""
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


def dense_reweight(n: int, j, b, t, bond) -> dict[str, np.ndarray]:
    """Gibbs averages of the ED ring at the broadcast points (j, b, t) on one
    bond (None: no bond), from its own per-bond columns: z_shifted, u, m,
    g_xx and the probabilities of the patterns 00, 01, 10, 11 (trailing
    axis of four)."""
    ring = dense_ring(n)
    j, b, t = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (j, b, t)))
    energies = ring.energies(j, b)
    weights = np.exp(-(energies - energies.min(axis=-1, keepdims=True)) / t[..., None])
    z = weights.sum(axis=-1)
    moments = weights @ ring.bond_columns(bond) / z[..., None]
    return {"z_shifted": z, "u": (weights * energies).sum(axis=-1) / z, "m": moments[..., 0],
            "g_xx": moments[..., 1], "probabilities": moments[..., 2:]}


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


@functools.cache
def dense_ring(n: int) -> DenseRing:
    """The ED ring of size n, kept for the whole session (rings 2..12 hold
    38 MB together, bond (0, 1) included)."""
    return DenseRing(n)


def dense_sectors(params: ModelParams) -> tuple[SectorSpectrum, ...]:
    """Per-sector eigendecompositions at (j, b), ascending: for j < 0 the
    ring's columns run backwards."""
    j, b = params.j, params.b
    sectors = []
    for sec in dense_ring(params.n).sectors:
        values = j * sec.eig.values + b * sec.sz
        vectors = sec.eig.vectors
        if j < 0:
            values, vectors = values[::-1], vectors[:, ::-1]
        sectors.append(SectorSpectrum(sz=sec.sz, basis=sec.basis,
                                      eig=EigenDecomposition(values=values, vectors=vectors)))
    return tuple(sectors)


def dense_floor_crossings(n: int, j: float) -> list[float]:
    """Fields b > 0 where the ground sector of the ED ring changes, by brute
    force: every pairwise intersection of the sector-floor lines
    E_r(b) = floor_r + sz_r * b (floor_r the lowest eigenvalue of sector r
    at b = 0) where the lowest line just below differs from the one just
    above. Intersections closer than 1e-9 are one point."""
    sectors = dense_sectors(ModelParams(n=n, j=j, b=0.0))
    floors = np.array([sec.eig.values[0] for sec in sectors])
    slopes = np.array([float(sec.sz) for sec in sectors])
    points = sorted((floors[r] - floors[s]) / (slopes[s] - slopes[r])
                    for r in range(n + 1) for s in range(r + 1, n + 1))
    merged = []
    for b in points:
        if b > 1e-9 and not (merged and b - merged[-1] <= 1e-9):
            merged.append(b)
    crossings = []
    for k, b in enumerate(merged):
        gaps = [abs(b - other) for other in merged[max(0, k - 1):k + 2] if other != b]
        h = min([1e-6] + [g / 3.0 for g in gaps])
        below = np.argmin(floors + slopes * (b - h))
        above = np.argmin(floors + slopes * (b + h))
        if below != above:
            crossings.append(float(b))
    return crossings


def dense_ground_states(params: ModelParams) -> list[tuple[SectorSpectrum, int]]:
    """(sector, column) pairs spanning the degenerate ground subspace, by the
    package's rule for one level (`same_level`)."""
    energies = dense_ring(params.n).energies(params.j, params.b)
    e0 = float(energies.min()) + 0.0
    step = 1 if params.j >= 0 else -1  # columns ascend in energy, flat levels in kappa
    sectors = dense_sectors(params)
    bounds = np.cumsum([len(sec.basis) for sec in sectors])[:-1]
    hits = []
    for sec, sector_mask in zip(sectors, np.split(same_level(energies, e0, e0), bounds)):
        hits.extend((sec, int(k)) for k in np.nonzero(sector_mask[::step])[0])
    return hits


# Ring symmetry operators on basis labels (bit i is site i, 1 = spin down).


def popcount(bits: int) -> int:
    return bits.bit_count()


def _check_label(label: int, n: int) -> None:
    if not 0 <= label < (1 << n):
        raise ValueError(f"label {label} out of range for {n} sites")


def translate(label: int, n: int) -> int:
    """Cyclic shift: the content of site i moves to site (i + 1) mod n."""
    _check_ring_size(n)
    _check_label(label, n)
    mask = (1 << n) - 1
    return ((label << 1) | (label >> (n - 1))) & mask


def lambda_x(label: int, n: int) -> int:
    """All-sites spin flip: bitwise complement within n bits."""
    _check_ring_size(n)
    _check_label(label, n)
    return label ^ ((1 << n) - 1)


# sigma_z applied on every other site (sites 0, 2, ..., n-2). The alternating
# pattern only closes around the ring when n is even.
_ALTERNATING_MASKS = {n: sum(1 << i for i in range(0, n, 2)) for n in range(2, N_MAX + 1, 2)}


def lambda_z_sign(label: int, n: int) -> int:
    """Sign (+1 or -1) picked up by a basis label under the alternating
    sigma_z string; the label itself is unchanged (diagonal action)."""
    _check_ring_size(n)
    if n % 2:
        raise ValueError("alternating sigma_z string requires an even ring")
    _check_label(label, n)
    return -1 if popcount(label & _ALTERNATING_MASKS[n]) % 2 else 1


# The general spin-flip concurrence (Wootters, PRL 80, 2245 (1998)) of a real
# 4x4 density matrix, through the ED oracle's eigensolver and the package's
# clamp. It is kept
# apart from wootters_concurrence above so that tests can compare the two.

# sigma_y x sigma_y is real in the computational basis.
_YY = np.array([
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
])


def concurrence_wootters(rho: np.ndarray) -> float:
    """Concurrence of an arbitrary real 4x4 density matrix.

    Square roots of the eigenvalues of rho * (YY rho YY) are taken from the
    equivalent symmetric product sqrt(rho) * (YY rho YY) * sqrt(rho), which
    keeps everything inside the real symmetric eigensolver; the spin-flip
    conjugation is a no-op for real input.
    """
    a = np.asarray(rho)
    if a.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {a.shape}")
    if np.iscomplexobj(a):
        if float(np.abs(a.imag).max()) > 1e-9:
            raise ValueError("only real density matrices are supported")
        a = a.real.copy()
    if float(np.abs(a - a.T).max()) > 1e-9:
        raise ValueError("density matrix is not symmetric")
    if abs(float(np.trace(a)) - 1.0) > 1e-9:
        raise ValueError("density matrix trace differs from one")
    eig = eigh_symmetric(a)
    if float(eig.values[0]) < -1e-9:
        raise ValueError("density matrix is not positive semidefinite")
    vals = np.where(eig.values < 1e-14, 0.0, eig.values)
    sqrt_rho = (eig.vectors * np.sqrt(vals)) @ eig.vectors.T
    # sqrt(rho) rho_tilde sqrt(rho) is the square of the symmetric matrix
    # sqrt(rho) YY sqrt(rho), so its eigenvalue square roots are available
    # as absolute eigenvalues directly, without halving the precision of
    # the near-zero ones
    core = sqrt_rho @ _YY @ sqrt_rho
    lam = np.sort(np.abs(eigh_symmetric(core).values))[::-1]
    return _clamp_unit(max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3])), "concurrence")


def gxx_from_energy(obs, params) -> float:
    """Transverse correlator from energy and magnetization alone:
    (U/n - b * M/n) / (2 j), with obs anything that has u and m, such as a
    `GibbsBlock`. Equals the directly computed correlator; the relation is
    undefined at j = 0, where callers must read g_xx itself."""
    if params.j == 0:
        raise ValueError("relation undefined for j = 0; read g_xx directly")
    return (obs.u / params.n - params.b * obs.m / params.n) / (2.0 * params.j)


# Per-sector reference route: each (j, b) block diagonalized on its own, and
# every expectation summed sector by sector in Python loops. This is the
# thermal pipeline as it stood before the spectral cache and the batched
# kernel replaced it, kept to check them against.


def reference_sectors(n, j, b):
    """(sz, labels, eigenvalues, eigenvectors) of every sector of H(j, b)."""
    out = []
    for r in range(n + 1):
        block = build_sector_hamiltonian(ModelParams(n=n, j=j, b=b), r)
        values, vectors = np.linalg.eigh(block.entries)
        out.append((block.basis.sz, block.basis.labels, values, vectors))
    return out


def _zz_expectations(labels, vectors, i, k):
    labels = np.asarray(labels, dtype=np.int64)
    diag = (1 - 2 * ((labels >> i) & 1)) * (1 - 2 * ((labels >> k) & 1))
    return np.einsum("lk,l,lk->k", vectors, diag.astype(float), vectors)


def _flipflop_expectations(labels, vectors, i, k):
    mask = (1 << i) | (1 << k)
    index = {label: pos for pos, label in enumerate(labels)}
    rows, cols = [], []
    for label in labels:
        if ((label >> i) & 1) and not ((label >> k) & 1):
            rows.append(index[label])
            cols.append(index[label ^ mask])
    if not rows:
        return np.zeros(vectors.shape[1])
    return 2.0 * np.einsum("lk,lk->k", vectors[rows, :], vectors[cols, :])


def _pattern_probability_expectations(labels, vectors, i, k):
    labels = np.asarray(labels, dtype=np.int64)
    pattern = 2 * ((labels >> i) & 1) + ((labels >> k) & 1)
    v2 = vectors ** 2
    out = np.zeros((4, vectors.shape[1]))
    for p in range(4):
        rows = pattern == p
        if rows.any():
            out[p] = v2[rows, :].sum(axis=0)
    return out


def reference_thermal(n, j, b, t, bond=(0, 1)):
    """Gibbs averages from per-sector Boltzmann sums: u, m and, when the
    ring has a bond, g_xx, g_zz and the pair probabilities p00..p11."""
    sectors = reference_sectors(n, j, b)
    e0 = min(values[0] for _, _, values, _ in sectors)
    weights = [np.exp(-(values - e0) / t) for _, _, values, _ in sectors]
    z = sum(w.sum() for w in weights)
    out = {
        "u": sum(values @ w for (_, _, values, _), w in zip(sectors, weights)) / z,
        "m": sum(sz * w.sum() for (sz, _, _, _), w in zip(sectors, weights)) / z,
    }
    if n > 1:
        i, k = bond
        probs = sum(_pattern_probability_expectations(labels, vectors, i, k) @ w
                    for (_, labels, _, vectors), w in zip(sectors, weights)) / z
        out.update({
            "g_xx": sum(_flipflop_expectations(labels, vectors, i, k) @ w
                        for (_, labels, _, vectors), w in zip(sectors, weights)) / z,
            "g_zz": sum(_zz_expectations(labels, vectors, i, k) @ w
                        for (_, labels, _, vectors), w in zip(sectors, weights)) / z,
            "p00": probs[0], "p01": probs[1], "p10": probs[2], "p11": probs[3],
        })
    return out


def reference_ground_reduced(n, j, b, pair=(0, 1)):
    """(u_plus, u_minus, w, z) of the uniform mixture over the degenerate
    ground subspace (`same_level`), from per-eigenvector sector expectations."""
    sectors = reference_sectors(n, j, b)
    e0 = min(values[0] for _, _, values, _ in sectors)
    i, k = pair
    m_bar = g_zz = g_xx = 0.0
    count = 0
    for sz, labels, values, vectors in sectors:
        for col in np.nonzero(same_level(values, e0, e0))[0]:
            m_bar += sz / n
            g_zz += _zz_expectations(labels, vectors, i, k)[col]
            g_xx += _flipflop_expectations(labels, vectors, i, k)[col]
            count += 1
    m_bar, g_zz, g_xx = m_bar / count, g_zz / count, g_xx / count
    return ((1.0 + 2.0 * m_bar + g_zz) / 4.0, (1.0 - 2.0 * m_bar + g_zz) / 4.0,
            (1.0 - g_zz) / 4.0, g_xx / 2.0)


# Per-point drivers: the proposition suites and the threshold bisection as
# they stood before each became a few batched kernel calls, one kernel call
# per point. Kept to check the batched drivers.
# The exchange mirror compares the unclamped X-state value, as the suites do.


def _draw_parameters(rng):
    j = 0.0
    while abs(j) < 0.05:
        j = float(rng.uniform(-2.0, 2.0))
    b = float(rng.uniform(-3.0, 3.0))
    t = math.exp(rng.uniform(math.log(0.05), math.log(50.0)))
    return j, b, t


def _unclamped_xstate(spectrum, t):
    """2 (|z| - sqrt(u+ u-)) of the bond state: the concurrence where positive."""
    params = spectrum.params
    if params.n == 1:
        return 0.0
    rho = reweight(spectrum.ring, params.j, params.b, t).pair_density()
    return 2.0 * float(abs(rho.z) - math.sqrt(rho.u_plus * rho.u_minus))


def _pointwise_worst_gap(n, draws, mirror, value=thermal_concurrence):
    worst = 0.0
    for j, b, t in draws:
        j2, b2 = mirror(j, b)
        gap = (value(full_spectrum(ModelParams(n=n, j=j, b=b)), t)
               - value(full_spectrum(ModelParams(n=n, j=j2, b=b2)), t))
        worst = max(worst, abs(gap))
    return worst


def pointwise_propositions(n_list, samples, seed):
    """Worst discrepancies (proposition 1, 2, 3) of the suites, one point at a time."""
    rng = np.random.default_rng(seed)
    draws = [_draw_parameters(rng) for _ in range(samples)]
    worst1 = max((_pointwise_worst_gap(n, draws, lambda j, b: (j, -b)) for n in n_list),
                 default=0.0)
    worst2 = max((_pointwise_worst_gap(n, draws, lambda j, b: (-j, b), _unclamped_xstate)
                  for n in n_list if n % 2 == 0), default=0.0)
    worst3 = 0.0
    for n in n_list:
        for j, _, t in draws:
            for branch_j in (abs(j), -abs(j)):
                obs = reweight(ring_model(n), branch_j, 0.0, t)
                c5 = concurrence_from_correlators(obs.g_xx, obs.g_zz, obs.m / n)
                sign = -1.0 if branch_j > 0 else 1.0
                c10 = 0.5 * max(0.0, sign * obs.u / (n * branch_j) - obs.g_zz - 1.0)
                worst3 = max(worst3, float(abs(c5 - c10)))
    return worst1, worst2, worst3


def pointwise_odd_control(n, samples, seed):
    """Worst exchange-sign gap of the unclamped X-state value on an odd ring,
    one point at a time."""
    rng = np.random.default_rng(seed)
    draws = [_draw_parameters(rng) for _ in range(samples)]
    return _pointwise_worst_gap(n, draws, lambda j, b: (-j, b), _unclamped_xstate)


def per_ring_gaps(ring, j, b, t):
    """Worst gaps (field mirror, unclamped exchange mirror, zero-field
    correlator vs energy formula) of one ring over the draws (j, b, t), from
    one kernel call on the ring alone: the suites' gaps as they stood before
    the rings of a run were stacked into shared kernel calls."""
    rows_j = np.stack([j, j, -j, np.abs(j), -np.abs(j)])
    rows_b = np.stack([b, -b, b, np.zeros_like(b), np.zeros_like(b)])
    g, concurrence = gibbs_concurrence(ring, rows_j, rows_b, t)
    mirror_b = float(np.max(np.abs(concurrence[0] - concurrence[1])))
    p = g.probabilities[0:3:2]
    unclamped = np.abs(g.g_xx[0:3:2]) - 2.0 * np.sqrt(p[..., 0] * p[..., 3])
    mirror_j = float(np.max(np.abs(unclamped[0] - unclamped[1])))
    zero_field = slice(3, 5)
    c5 = concurrence_from_correlators(g.g_xx[zero_field], g.g_zz[zero_field], g.m[zero_field] / ring.n)
    sign = np.where(rows_j[zero_field] > 0, -1.0, 1.0)
    c10 = 0.5 * np.maximum(0.0, sign * g.u[zero_field] / (ring.n * rows_j[zero_field])
                           - g.g_zz[zero_field] - 1.0)
    return mirror_b, mirror_j, float(np.max(np.abs(c5 - c10)))


def sequential_threshold(params, tol=1e-6):
    """Threshold temperature by a factor-2 scan over
    [0.05 min(1, |j|), 1e3 max(1, |j|, |b|)] and one midpoint per step, down
    to tol or to adjacent doubles, whichever comes first; None at j = 0."""
    if params.j == 0.0:
        return None
    spectrum = full_spectrum(params)
    grid = [0.05 * min(1.0, abs(params.j))]
    while grid[-1] <= 1.0e3 * max(1.0, abs(params.j), abs(params.b)):
        grid.append(grid[-1] * 2.0)
    entangled = [thermal_concurrence(spectrum, t) > POSITIVE_CONCURRENCE for t in grid]
    if not any(entangled):
        return None
    last = max(i for i, flag in enumerate(entangled) if flag)
    lo, hi = grid[last], grid[last + 1]
    while _splits(lo, hi, tol):
        mid = 0.5 * (lo + hi)
        if thermal_concurrence(spectrum, mid) > POSITIVE_CONCURRENCE:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
