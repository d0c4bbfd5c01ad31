"""The XX ring model and its parameters.

H = J * sum_i (sigma_x(i) sigma_x(i+1) + sigma_y(i) sigma_y(i+1))
    + B * sum_i sigma_z(i),        site n identified with site 0.

The periodic sum is taken literally: for n = 2 the single physical bond is
traversed twice, so the effective two-site coupling is 2J. For n = 1 there is
no exchange bond at all (a self-bond would be a constant shift, not exchange).
The package forms no Hamiltonian matrix: every level comes from the
Jordan-Wigner modes of `eigensolver`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .basis import N_MAX

# The largest accepted level-energy scale 4n|j| + n|b|. Energy gaps reach twice
# it and a `spectrum` cluster sums multiplicity times energy over at most 2^16
# levels, so this leaves every sum the program forms well inside the doubles.
MAX_ENERGY = 1e300


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
        scale = 4 * self.n * abs(self.j) + self.n * abs(self.b)
        if not scale <= MAX_ENERGY:
            raise ValueError(f"level energies up to 4n|j| + n|b| = {scale:g} exceed {MAX_ENERGY:g}")
