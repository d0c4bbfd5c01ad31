"""Closed-form thermal observables for the four-site ring.

The 16-level spectrum of the four-site ring is known in closed form, so its
partition function and the derived observables reduce to fixed combinations
of hyperbolic functions. This module evaluates them independently of the
spectral pipeline and serves as its oracle.

Each quantity is represented as a list of (coefficient, exponent) pairs
meaning coeff * exp(exponent); every hyperbolic product is expanded into such
pairs first. Ratios are then evaluated with all exponents shifted by the
largest one, the same overflow strategy the thermal module uses, so beta up
to 1e3 stays finite.
"""

from __future__ import annotations

import math
from typing import NamedTuple

_SQRT2 = math.sqrt(2.0)


class ClosedFormN4(NamedTuple):
    """Partition function, per-site energy and magnetization, correlators."""

    z: float
    u_bar: float
    m_bar: float
    g_zz: float
    g_xx: float


def _shifted_sum(terms, shift: float) -> float:
    return sum(c * math.exp(a - shift) for c, a in terms)


def closed_forms(j: float, b: float, beta: float) -> ClosedFormN4:
    """Evaluate the four-site closed forms at inverse temperature beta.

    Z = 4 + 2 cosh(4 sqrt(2) beta j) + 2 cosh(4 beta b)
        + 4 [1 + cosh(4 beta j)] cosh(2 beta b),
    with u_bar, m_bar, g_zz, g_xx given by the matching hyperbolic sums.
    The returned z may overflow to inf for extreme beta; the ratio-valued
    fields are always finite.
    """
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not all(math.isfinite(v) for v in (j, b, beta)):
        raise ValueError("j, b, beta must be finite")

    a2 = 4.0 * _SQRT2 * beta * j   # the +-4*sqrt(2)*j levels
    a4b = 4.0 * beta * b           # the fully polarized levels
    a2b = 2.0 * beta * b
    a4j = 4.0 * beta * j

    z_terms = [
        (4.0, 0.0),
        (1.0, a2), (1.0, -a2),
        (1.0, a4b), (1.0, -a4b),
        (2.0, a2b), (2.0, -a2b),
        (1.0, a4j + a2b), (1.0, a4j - a2b), (1.0, -a4j + a2b), (1.0, -a4j - a2b),
    ]
    # -Z * u_bar
    neg_zu_terms = [
        (_SQRT2 * j, a2), (-_SQRT2 * j, -a2),
        (b, a4b), (-b, -a4b),
        (b, a2b), (-b, -a2b),
        (0.5 * b + j, a4j + a2b), (-0.5 * b + j, a4j - a2b),
        (0.5 * b - j, -a4j + a2b), (-0.5 * b - j, -a4j - a2b),
    ]
    # -Z * m_bar
    neg_zm_terms = [
        (1.0, a4b), (-1.0, -a4b),
        (1.0, a2b), (-1.0, -a2b),
        (0.5, a4j + a2b), (-0.5, a4j - a2b), (0.5, -a4j + a2b), (-0.5, -a4j - a2b),
    ]
    # Z * g_zz
    zgzz_terms = [
        (1.0, a4b), (1.0, -a4b),
        (-0.5, a2), (-0.5, -a2),
        (-1.0, 0.0),
    ]
    # Z * g_xx
    zgxx_terms = [
        (-0.5 * _SQRT2, a2), (0.5 * _SQRT2, -a2),
        (-0.5, a4j + a2b), (-0.5, a4j - a2b), (0.5, -a4j + a2b), (0.5, -a4j - a2b),
    ]

    shift = max(a for _, a in z_terms)
    z_shifted = _shifted_sum(z_terms, shift)
    u_bar = -_shifted_sum(neg_zu_terms, shift) / z_shifted
    m_bar = -_shifted_sum(neg_zm_terms, shift) / z_shifted
    g_zz = _shifted_sum(zgzz_terms, shift) / z_shifted
    g_xx = _shifted_sum(zgxx_terms, shift) / z_shifted

    try:
        z = math.exp(math.log(z_shifted) + shift)
    except OverflowError:
        z = math.inf
    return ClosedFormN4(z=z, u_bar=u_bar, m_bar=m_bar, g_zz=g_zz, g_xx=g_xx)
