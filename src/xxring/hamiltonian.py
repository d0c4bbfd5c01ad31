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
from typing import NamedTuple

from .basis import _check_ring_size

# The largest accepted level-energy scale 4n|j| + n|b|. Energy gaps reach twice
# it and a `spectrum` cluster sums multiplicity times energy over at most 2^16
# levels, so this leaves every sum the program forms well inside the doubles.
MAX_ENERGY = 1e300


class ModelParams(NamedTuple("ModelParams", [("n", int), ("j", float), ("b", float)])):
    """Ring size n, exchange constant j, and magnetic field b (k_B = 1).

    Construction refuses a bad ring size, a non-finite j or b, and level
    energies beyond MAX_ENERGY. `_replace` and `_make` skip these checks, so
    a changed point is built afresh: ModelParams(params.n, params.j, b).
    """

    __slots__ = ()

    def __new__(cls, n: int, j: float, b: float) -> ModelParams:
        _check_ring_size(n)
        if not (math.isfinite(j) and math.isfinite(b)):
            raise ValueError(f"j and b must be finite, got j={j}, b={b}")
        scale = 4 * n * abs(j) + n * abs(b)
        if not scale <= MAX_ENERGY:
            raise ValueError(f"level energies up to 4n|j| + n|b| = {scale:g} exceed {MAX_ENERGY:g}")
        return super().__new__(cls, n, j, b)
