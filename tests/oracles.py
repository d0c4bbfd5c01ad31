"""Oracles and cross-checks that only the tests use, one oracle per
independent route.

- Full space, brute force on all 2^n amplitudes: Pauli strings
  (`site_operator`, real or complex), the real `full_hamiltonian`, its
  Gibbs and ground densities (`gibbs_density`, `log_partition`,
  `ground_mixture_density`), `partial_trace_pair`, the spin-flip
  concurrence of a 4x4 state (`wootters_concurrence`; Wootters, PRL 80,
  2245 (1998)) and the tangle of a pure state (`n_tangle`).
- Dense exact diagonalization (ED): each magnetization sector's block on
  its bitstring basis (`enumerate_sector`, `build_sector_hamiltonian`),
  diagonalized once per ring (`dense_ring`, with per-bond columns from its
  own eigenvectors) and reweighted without the package's kernel
  (`dense_reweight`); its per-sector views (`dense_sectors`,
  `dense_ground_states`, lifted to 2^n by `embed_in_full_space`) and the
  crossings of its sector floors (`dense_floor_crossings`).
- Per-level table: all 2^n Jordan-Wigner Fock levels (`level_table`) and
  the Slater ground vector (`ground_state_vector`).
- Four-site closed forms: the sixteen levels (`reference_spectrum_n4`) and
  the zero-field and mid-field ground states
  (`four_site_singletlike_ground`, `four_site_w_prime`).
- Correlator formula: the concurrence in g_xx, g_zz and the per-site
  magnetization (`concurrence_from_correlators`).
- Per-point drivers: the proposition suites (`pointwise_propositions`,
  `pointwise_odd_control`) and the threshold scan and bisection
  (`sequential_threshold`), one kernel call per point.

`eigenvalues` and `pair_matrix` put a package result in an oracle's form,
and `gxx_from_energy` recovers g_xx from energy and magnetization.

The tests that hold each quantity to each independent reference (module.test;
where a reference has two, they take different inputs; the acceptance
criteria hold some at looser bounds):
- spectrum: dense ED, test_jordan_wigner.test_sorted_levels_equal_the_ed_eigenvalues;
  full space, test_acceptance.test_criterion_08_oracle_equivalences;
  four-site closed forms, test_eigensolver.test_full_spectrum_n4_matches_reference_levels;
- Gibbs u, m, g_xx, g_zz and p: dense ED on every bond,
  test_jordan_wigner.test_gibbs_blocks_match_the_ed_kernel (n = 1..12) and
  test_reweight.test_views_match_reference_on_every_bond (drawn points); four-site closed
  forms, test_acceptance.test_criterion_02_closed_form_oracle_agreement;
  their 50-digit values, test_thermal.test_observables_match_frozen_closed_forms;
- Gibbs bond state: full-space partial trace on every bond,
  test_thermal.test_reduced_density_matches_partial_trace;
- partition function: full space, test_thermal.test_log_partition_matches_oracle;
  its derivatives U and M, test_acceptance.test_criterion_09_thermodynamic_identities;
- ground mixture (T = 0): dense ED, test_reweight.test_ground_state_reduced_matches_reference
  and, at both four-site crossings, test_jordan_wigner.test_ground_mixture_at_both_n4_crossings_matches_ed;
  per-level table, test_jordan_wigner.test_ground_mixture_is_the_mean_of_the_ground_levels;
  full space, test_thermal.test_ground_state_reduced_degenerate_mixture_matches_oracle;
  four-site closed forms, test_thermal.test_ground_state_reduced_matches_the_closed_form_ground;
- concurrence: Wootters on the package's bond state and on the full-space
  partial trace, test_acceptance.test_criterion_08_oracle_equivalences;
  correlator formula, test_entanglement.test_three_routes_agree_on_thermal_states;
  four-site closed forms, test_acceptance.test_criterion_03_ground_state_concurrence_plateaus;
- tangle: per-level Slater vector, test_jordan_wigner.test_closed_form_tangle_is_the_slater_vector_tangle;
  closed-form states, test_entanglement.test_tangle_of_zero_field_ground_state_is_maximal
  and test_entanglement.test_tangle_of_w_band_and_polarized_states_vanishes;
- crossings: dense ED, test_experiments.test_level_crossings_are_the_ed_floor_intersections;
  four-site closed forms, test_acceptance.test_criterion_05_level_crossings;
- threshold: full space, test_experiments.test_threshold_brackets_the_positivity_boundary;
  one kernel call per point, test_experiments.test_threshold_equals_the_pointwise_loop;
- proposition gaps: one kernel call per point,
  test_experiments.test_verify_propositions_equal_pointwise_loop.
"""

import functools
import math
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from xxring.basis import _check_ring_size
from xxring.blocks import _clamp_unit, _first, reweight
from xxring.eigensolver import full_spectrum, same_level
from xxring.experiments import POSITIVE_CONCURRENCE, _splits, thermal_concurrence
from xxring.hamiltonian import ModelParams

# The full-space route.

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
ID2 = np.eye(2)
_ISY = np.array([[0.0, 1.0], [-1.0, 0.0]])  # i * sigma_y, kept real

# Largest ring worth materializing as a dense 2^n matrix.
FULL_ORACLE_N_MAX = 12


def site_operator(n, ops):
    """Tensor product placing site n-1 as the most significant label bit;
    real unless one of ops is complex."""
    out = np.array([[1.0]])
    for site in reversed(range(n)):
        out = np.kron(out, ops.get(site, ID2))
    return out


def bonds(n: int) -> list[tuple[int, int]]:
    """Ring bonds (i, i+1 mod n) exactly as the periodic sum visits them."""
    if n == 1:
        return []
    return [(i, (i + 1) % n) for i in range(n)]


@functools.lru_cache(maxsize=4)
def _full_parts(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only exchange part (j = 1, b = 0) and field part (j = 0, b = 1),
    built once per ring size (the last four are kept), so that each
    `full_hamiltonian` call is one j * X + b * Z."""
    exchange = np.zeros((1 << n, 1 << n))
    field = np.zeros((1 << n, 1 << n))
    for i, k in bonds(n):
        # sigma_y x sigma_y = -(i sigma_y) x (i sigma_y), all-real arithmetic
        exchange += site_operator(n, {i: SX, k: SX}) - site_operator(n, {i: _ISY, k: _ISY})
    for i in range(n):
        field += site_operator(n, {i: SZ})
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


def n_tangle(psi: np.ndarray) -> float:
    """Multiqubit tangle |<psi| sigma_y^(x n) |psi*>|^2 of a normalized pure
    state over an even number of qubits.

    sigma_y^(x n) |x> = i^n (-1)^|x| |~x>, |x> holding |x| down spins, and
    for even n the phase collapses to the real sign (-1)^(n/2 + |x|).
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


# The four-site closed forms.


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


def _level_kappa(n, occupied, particles):
    """Each level's kappa from its occupied modes, summed once per count key."""
    # a level's count key: a base-3 digit per +-k class counting its occupied modes, then its grid parity
    parity = particles % 2
    digits = np.where(parity == 1, occupied @ 3 ** _folded(n, 1), occupied @ 3 ** _folded(n, 0))
    keys, members = np.unique(2 * digits + parity, return_inverse=True)
    counts = keys[:, None] // 2 // 3 ** np.arange(n + 1) % 3
    counted = counts.sum(axis=1)
    if n == 1:  # a single site has no bond
        return np.zeros(members.size)
    q = np.arange(n + 1)
    cosines = np.sin(np.pi * (n - 2 * q) / (2 * n))
    grid = ((q - counted[:, None]) % 2 == 1) * (2 - (q == 0) - (q == n))  # modes per class
    holes = 2 * counted > n
    summed = np.where(holes[:, None], grid - counts, counts)
    return (np.where(holes, -4.0, 4.0) * (summed * cosines).sum(axis=1) + 0.0)[members]


class LevelTable:
    """The 2^n levels of the n-site ring, sector by sector (N = 0..n down
    spins, sector N starting at level `sector_starts[N]`) and ascending in
    kappa within a sector. `modes` holds each level's occupation set as a
    bit mask over the mode index m, and `levels` is the per-level table,
    shape (levels, 5): kappa, sz, p00, p01 (= p10) and p11, the pair sums
    (2/n^2) sin^2((k - q)/2) over filled, filled-empty and empty mode pairs.
    Levels of one count key share one bit-identical kappa."""

    def __init__(self, n: int):
        _check_ring_size(n)
        masks = np.arange(1 << n)
        occupied = _bits(masks, n)
        particles = occupied.sum(axis=1)
        kappa = _level_kappa(n, occupied, particles)
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
    multiplicity = np.array(spectrum.ring.classes[0]).astype(int)
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


# The dense ED oracle: each magnetization sector's block assembled from its
# labels and diagonalized with LAPACK. This is the package's spectral cache
# as it stood before the Jordan-Wigner levels replaced it. Its per-level
# columns are computed per bond from the eigenvectors, and `dense_reweight`
# reweights them without the package's kernel, so nothing on the ED side
# assumes that every bond carries the same state.


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
class SectorSpectrum:
    """One sector's eigenvalues, ascending, and unit eigenvectors (columns)."""

    sz: int
    basis: SectorBasis
    values: np.ndarray
    vectors: np.ndarray


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
            sectors.append(SectorSpectrum(block.basis.sz, block.basis, *np.linalg.eigh(block.entries)))
        self.n = n
        self.sectors = tuple(sectors)
        self.kappa = np.concatenate([sec.values for sec in sectors])
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
    vectors = sec.vectors
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
        values, vectors = j * sec.values + b * sec.sz, sec.vectors
        if j < 0:
            values, vectors = values[::-1], vectors[:, ::-1]
        sectors.append(replace(sec, values=values, vectors=vectors))
    return tuple(sectors)


def dense_floor_crossings(n: int, j: float) -> list[float]:
    """Fields b > 0 where the ground sector of the ED ring changes, by brute
    force: every pairwise intersection of the sector-floor lines
    E_r(b) = floor_r + sz_r * b (floor_r the lowest eigenvalue of sector r
    at b = 0) where the lowest line just below differs from the one just
    above. Intersections closer than 1e-9 are one point."""
    sectors = dense_sectors(ModelParams(n=n, j=j, b=0.0))
    floors = np.array([sec.values[0] for sec in sectors])
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


def gxx_from_energy(obs, params) -> float:
    """Transverse correlator from energy and magnetization alone:
    (U/n - b * M/n) / (2 j), with obs anything that has u and m, such as a
    `GibbsBlock`. Equals the directly computed correlator; the relation is
    undefined at j = 0, where callers must read g_xx itself."""
    if params.j == 0:
        raise ValueError("relation undefined for j = 0; read g_xx directly")
    return (obs.u / params.n - params.b * obs.m / params.n) / (2.0 * params.j)


# The correlator formula: the concurrence written in the bond correlators
# and the per-site magnetization, algebraically the X-state closed form.


def concurrence_from_correlators(g_xx, g_zz, m_bar):
    """Nearest-neighbor concurrence from the bond correlators and the
    per-site magnetization:

        C = max(0, |g_xx| - sqrt((1 + g_zz)^2 - 4 m_bar^2) / 2).

    Arguments broadcast: scalars give a float, arrays an array of their
    broadcast shape. Raises if any point's radicand is negative beyond
    roundoff.
    """
    g_xx, g_zz, m_bar = (np.asarray(x, dtype=float) for x in (g_xx, g_zz, m_bar))
    radicand = (1.0 + g_zz) ** 2 - 4.0 * m_bar ** 2
    # a test that a nan fails
    physical = radicand >= -1e-12
    if not physical.all():
        raise ValueError(f"unphysical inputs: (1+g_zz)^2 - 4 m_bar^2 = {_first(~physical, radicand)[0]}")
    value = np.abs(g_xx) - 0.5 * np.sqrt(np.maximum(radicand, 0.0))
    return _clamp_unit(np.maximum(0.0, value), "concurrence")


# Per-point drivers: the proposition suites and the threshold's scan and
# bisection, one kernel call per point. The package evaluates each suite and
# the threshold's scan as a block of points in one call; these check it.
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
                spectrum = full_spectrum(ModelParams(n=n, j=branch_j, b=0.0))
                obs = reweight(spectrum.ring, branch_j, 0.0, t)
                sign = -1.0 if branch_j > 0 else 1.0
                formula = 0.5 * max(0.0, sign * obs.u / (n * branch_j) - obs.g_zz - 1.0)
                worst3 = max(worst3, abs(thermal_concurrence(spectrum, t) - float(formula)))
    return worst1, worst2, worst3


def pointwise_odd_control(n, samples, seed):
    """Worst exchange-sign gap of the unclamped X-state value on an odd ring,
    one point at a time."""
    rng = np.random.default_rng(seed)
    draws = [_draw_parameters(rng) for _ in range(samples)]
    return _pointwise_worst_gap(n, draws, lambda j, b: (-j, b), _unclamped_xstate)


def sequential_threshold(params, tol=1e-6):
    """Threshold temperature by a factor-2 scan over
    [0.05 min(1, |j|), 1e3 max(1, |j|, |b|)] and one midpoint per step, down
    to tol or to adjacent doubles, whichever comes first; None at j = 0."""
    if params.j == 0.0:
        return None
    spectrum = full_spectrum(params)
    # below |j| ~ 1e-322 the product rounds to 0: start at the least positive double instead
    grid = [max(0.05 * min(1.0, abs(params.j)), math.ulp(0.0))]
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
