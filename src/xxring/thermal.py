"""Gibbs-state observables and the nearest-neighbor reduced density matrix.

Everything thermal is a reweighting of one cached ring spectrum: `reweight`
takes the level energies E = j * kappa + b * sz for a whole block of fields
and temperatures, subtracts each field's ground energy, applies one exp and
contracts the weights with the ring's per-level columns (sum(sigma_z), the
flip-flop element and the four pair-pattern probabilities) in one matrix
product. `observables`, `reduced_pair_density`, `pair_state_probabilities`
and `correlator_xx_direct` are that kernel at a single point. A bond's X-form
state is formed in one place, `PairDensity.from_bond`, with the pattern
probabilities p00 and p11 as corners: positive sums, accurate however small.

Shifting by the ground energy keeps temperatures down to 1e-3 safe. T = 0 is
a separate code path (`ground_state_reduced`: the uniform mixture over the
degenerate ground subspace), never a large-beta limit: at level crossings
the limit state is the degenerate mixture, and beta ~ 1e6 exponentials are
ill-conditioned anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigensolver import RingModel, Spectrum

# A kernel pass holds at most this many (field, temperature, level) weights;
# larger grids are reweighted a few fields at a time.
_BLOCK_WEIGHTS = 1 << 20


class NonAdjacentPairError(ValueError):
    """Reduced densities are only offered for ring bonds; anything else is
    available solely through the brute-force partial-trace oracle in tests."""


@dataclass(frozen=True)
class ThermalObservables:
    """Observables of the Gibbs state at temperature t (k_B = 1).

    log_z_shifted is ln sum_n exp(-(E_n - E0)/t); the true ln Z is recovered
    as log_z_shifted - E0/t. g_xx and g_zz are the nearest-neighbor
    correlators on the canonical bond (0, 1).
    """

    t: float
    log_z_shifted: float
    u: float
    m: float
    g_xx: float
    g_zz: float


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

    def matrix(self) -> np.ndarray:
        """Dense 4x4 matrix in the basis {|00>, |01>, |10>, |11>}."""
        return np.array([
            [self.u_plus, 0.0, 0.0, 0.0],
            [0.0, self.w, self.z, 0.0],
            [0.0, self.z, self.w, 0.0],
            [0.0, 0.0, 0.0, self.u_minus],
        ])


def _require_adjacent(n: int, pair: tuple[int, int]) -> tuple[int, int]:
    i, j = pair
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"pair {pair} out of range for {n} sites")
    if i == j or (j - i) % n not in (1, n - 1):
        raise NonAdjacentPairError(f"pair {pair} is not a ring bond for n={n}")
    return i, j


@dataclass(frozen=True)
class GibbsBlock:
    """Gibbs averages on a grid: one row per field, one column per temperature.

    z_shifted is sum_n exp(-(E_n - E0(b))/t) with E0(b) the ground energy at
    that field. Every array has shape (B, T), except probabilities, (B, T, 4),
    which holds the bond's pair patterns 00, 01, 10, 11.
    """

    z_shifted: np.ndarray
    u: np.ndarray
    m: np.ndarray
    g_xx: np.ndarray
    g_zz: np.ndarray
    probabilities: np.ndarray


def reweight(ring: RingModel, j: float, b_values, t_values,
             bond: tuple[int, int] | None = (0, 1)) -> GibbsBlock:
    """Boltzmann averages of one ring over a (fields x temperatures) grid.

    The (B, L) level energies j * kappa + b * sz are shifted by each field's
    ground energy, one exp gives the (B, T, L) weights, and one matrix
    product with the ring's (L, 6) bond columns gives M, g_xx and the pair
    probabilities; g_zz = p00 - p01 - p10 + p11. bond=None (a single site)
    leaves the bond averages at zero.
    """
    if bond is not None:
        bond = _require_adjacent(ring.n, bond)
    b = np.asarray(b_values, dtype=float).ravel()
    t = np.asarray(t_values, dtype=float).ravel()
    if b.size == 0 or t.size == 0:
        raise ValueError("field and temperature grids must be nonempty")
    if not np.all(t > 0):
        raise ValueError("temperature must be positive; use ground_state_reduced at T = 0")
    energies = ring.energies(j, b)
    columns = ring.bond_columns(bond)
    shifted = energies - energies.min(axis=1, keepdims=True)
    z = np.empty((b.size, t.size))
    u = np.empty((b.size, t.size))
    moments = np.empty((b.size, t.size, columns.shape[1]))
    step = max(1, _BLOCK_WEIGHTS // (t.size * ring.kappa.size))
    for lo in range(0, b.size, step):
        rows = slice(lo, lo + step)
        weights = np.exp(-shifted[rows, None, :] / t[:, None])
        z[rows] = weights.sum(axis=-1)
        u[rows] = (weights @ energies[rows, :, None])[..., 0]
        moments[rows] = weights @ columns
    if not (np.all(np.isfinite(z)) and np.all(z >= 1.0)):
        raise FloatingPointError("non-finite shifted partition sum")
    u /= z
    moments /= z[..., None]
    p = moments[..., 2:]
    out = GibbsBlock(z_shifted=z, u=u, m=moments[..., 0], g_xx=moments[..., 1],
                     g_zz=p[..., 0] - p[..., 1] - p[..., 2] + p[..., 3], probabilities=p)
    if not all(np.all(np.isfinite(a)) for a in (out.u, out.m, out.g_xx, out.g_zz)):
        raise FloatingPointError("non-finite thermal observable")
    return out


def _at(spectrum: Spectrum, t: float, bond: tuple[int, int] | None) -> GibbsBlock:
    params = spectrum.params
    return reweight(spectrum.ring, params.j, [params.b], [t], bond)


def correlator_xx_direct(spectrum: Spectrum, t: float, bond: tuple[int, int] = (0, 1)) -> float:
    """Thermal <sigma_x(i) sigma_x(j)> on a ring bond, from the sector spectra."""
    return float(_at(spectrum, t, bond).g_xx[0, 0])


def observables(spectrum: Spectrum, t: float) -> ThermalObservables:
    """Partition data, internal energy, magnetization, and bond correlators.

    U and M are spectral sums (sum of E_n resp. sector sum(sigma_z) against
    Boltzmann weights), not symbolic derivatives of Z.
    """
    g = _at(spectrum, t, spectrum.ring.bond)
    return ThermalObservables(t=t, log_z_shifted=math.log(g.z_shifted[0, 0]),
                              u=float(g.u[0, 0]), m=float(g.m[0, 0]),
                              g_xx=float(g.g_xx[0, 0]), g_zz=float(g.g_zz[0, 0]))


def gxx_from_energy(obs: ThermalObservables, params) -> float:
    """Transverse correlator from energy and magnetization alone:
    (U/n - b * M/n) / (2 j). Equals the directly computed correlator; the
    relation is undefined at j = 0, where callers must use the direct path."""
    if params.j == 0:
        raise ValueError("relation undefined for j = 0; use correlator_xx_direct")
    return (obs.u / params.n - params.b * obs.m / params.n) / (2.0 * params.j)


def reduced_pair_density(spectrum: Spectrum, t: float, pair: tuple[int, int] = (0, 1)) -> PairDensity:
    """Thermal two-qubit reduced density matrix on a ring bond."""
    g = _at(spectrum, t, pair)
    return PairDensity.from_bond(*g.probabilities[0, 0].tolist(), float(g.g_xx[0, 0]))


def pair_state_probabilities(spectrum: Spectrum, t: float,
                             pair: tuple[int, int] = (0, 1)) -> tuple[float, float, float, float]:
    """Thermal probabilities (p00, p01, p10, p11) of the pair patterns.

    Each probability is a sum of positive terms, so it keeps relative
    accuracy even when exponentially small. The corner populations of the
    X form are (p00, p11); recovering them from magnetization and g_zz
    instead cancels catastrophically in the nearly polarized regime.
    """
    p00, p01, p10, p11 = _at(spectrum, t, pair).probabilities[0, 0]
    return float(p00), float(p01), float(p10), float(p11)


def ground_state_reduced(spectrum: Spectrum, pair: tuple[int, int] = (0, 1)) -> PairDensity:
    """Two-qubit reduced density of the T -> 0+ Gibbs limit: the uniform
    mixture over the full degenerate ground subspace (`Spectrum.ground_mask`)."""
    pair = _require_adjacent(spectrum.params.n, pair)
    moments = spectrum.ring.bond_columns(pair)[spectrum.ground_mask()].mean(axis=0)
    return PairDensity.from_bond(*moments[2:].tolist(), float(moments[1]))
