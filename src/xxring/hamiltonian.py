"""XX ring Hamiltonian, assembled one magnetization sector at a time.

H = J * sum_i (sigma_x(i) sigma_x(i+1) + sigma_y(i) sigma_y(i+1))
    + B * sum_i sigma_z(i),        site n identified with site 0.

The periodic sum is taken literally: for n = 2 the single physical bond is
traversed twice, so the effective two-site coupling is 2J. For n = 1 there is
no exchange bond at all (a self-bond would be a constant shift, not exchange).
The package never forms the dense 2^n matrix: every spectrum is built from
these sector blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import N_MAX, SectorBasis, enumerate_sector


@dataclass(frozen=True)
class ModelParams:
    """Ring size n, exchange constant j, and magnetic field b (k_B = 1)."""

    n: int
    j: float
    b: float

    def __post_init__(self):
        if not isinstance(self.n, int) or not 1 <= self.n <= N_MAX:
            raise ValueError(f"ring size must be an integer in [1, {N_MAX}], got {self.n}")
        if not (math.isfinite(self.j) and math.isfinite(self.b)):
            raise ValueError(f"j and b must be finite, got j={self.j}, b={self.b}")


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

