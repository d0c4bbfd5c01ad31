"""Entanglement measures: pairwise concurrence by two routes.

The ring conserves sum(sigma_z), so every bond state is X-form and its
concurrence has a closed form (`concurrence_xstate`, the production route).
The correlator formula (`concurrence_from_correlators`) is algebraically the
same, written in M, g_xx and g_zz; Proposition 3 checks it against the energy
formula.
"""

from __future__ import annotations

import numpy as np

from .thermal import PairDensity

# Outputs within this distance outside [0, 1] are roundoff and get clamped;
# larger excursions are bugs and raise.
_CLAMP_TOL = 1e-9


def _first(bad: np.ndarray, *arrays) -> tuple[float, ...]:
    """The values of arrays (of bad's shape) at the first point where bad holds."""
    index = np.unravel_index(np.argmax(bad), bad.shape)
    return tuple(float(a[index]) for a in arrays)


def _clamp_unit(value, what: str):
    """Clamp roundoff excursions out of [0, 1]; scalar in gives float out,
    array in gives array out. Raises if any point lies further out."""
    value = np.asarray(value, dtype=float)
    bad = (value < -_CLAMP_TOL) | (value > 1.0 + _CLAMP_TOL)
    if bad.any():
        raise ValueError(f"{what} = {_first(bad, value)[0]} lies outside [0, 1] beyond roundoff")
    value = np.minimum(np.maximum(value, 0.0), 1.0)
    return float(value) if value.ndim == 0 else value


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
    bad = radicand < -1e-12
    if bad.any():
        raise ValueError(f"unphysical inputs: (1+g_zz)^2 - 4 m_bar^2 = {_first(bad, radicand)[0]}")
    value = np.abs(g_xx) - 0.5 * np.sqrt(np.maximum(radicand, 0.0))
    return _clamp_unit(np.maximum(0.0, value), "concurrence")


def _validated(rho: PairDensity) -> tuple[np.ndarray, ...]:
    """(u_plus, u_minus, w, |z|) as arrays, after checking that every point
    is a state; the message names the first point that is not."""
    u_plus, u_minus, w, z = (np.asarray(x, dtype=float) for x in (rho.u_plus, rho.u_minus, rho.w, rho.z))
    abs_z = np.abs(z)
    for bad, problem in (
        (np.minimum(np.minimum(u_plus, u_minus), w) < -1e-10, "negative population beyond tolerance"),
        (abs_z > w + 1e-10, "central block not positive semidefinite"),
        (np.abs(u_plus + u_minus + 2.0 * w - 1.0) > 1e-8, "trace differs from one"),
    ):
        if bad.any():
            bad, *fields = np.broadcast_arrays(bad, u_plus, u_minus, w, z)
            raise ValueError(f"{problem}: {PairDensity(*_first(bad, *fields))}")
    return u_plus, u_minus, w, abs_z


def concurrence_xstate(rho: PairDensity):
    """Closed form for the symmetric X-form state: 2 max(0, |z| - sqrt(u+ u-)).

    The fields of rho may be arrays of one shape: the concurrence is then an
    array of that shape, and any point that is not a state raises.
    """
    u_plus, u_minus, _, abs_z = _validated(rho)
    value = 2.0 * (abs_z - np.sqrt(np.maximum(u_plus * u_minus, 0.0)))
    return _clamp_unit(np.maximum(0.0, value), "concurrence")
