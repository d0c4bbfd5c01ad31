"""Entanglement measures: pairwise concurrence by three routes, and the
even-N multiqubit tangle of a pure state.

The three concurrence routes (correlator formula, X-state closed form, full
spin-flip construction) are algebraically equivalent on the states this
package produces and are kept separate precisely so tests can cross-check
them against each other.
"""

from __future__ import annotations

import numpy as np

from .eigensolver import eigh_symmetric
from .thermal import PairDensity

# Outputs within this distance outside [0, 1] are roundoff and get clamped;
# larger excursions are bugs and raise.
_CLAMP_TOL = 1e-9

# sigma_y x sigma_y is real in the computational basis.
_YY = np.array([
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
])


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
