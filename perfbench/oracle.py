"""Brute-force reference for checking benchmark outputs.

A copy of the full-space oracle the test suite uses (the ring Hamiltonian
from explicit Pauli tensor products, its Gibbs state, the partial trace onto
one bond and the spin-flip concurrence), plus ``gibbs_row``, which turns it
into one CSV row. It shares no code with the sector-blocked program, and it
is copied rather than imported so that the benchmark's checks do not move
when the tests do.
"""

import numpy as np

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
    pairs = [] if n == 1 else [(i, (i + 1) % n) for i in range(n)]
    for i, k in pairs:
        h += j * (site_operator(n, {i: SX, k: SX}) + site_operator(n, {i: SY, k: SY}))
    for i in range(n):
        h += b * site_operator(n, {i: SZ})
    return h


def gibbs_density(h, t):
    values, vectors = np.linalg.eigh(h)
    weights = np.exp(-(values - values[0]) / t)
    weights /= weights.sum()
    return (vectors * weights) @ vectors.conj().T


def total_sz_diagonal(n):
    """Diagonal of sum_i sigma_z(i); bit value 1 is spin down."""
    labels = np.arange(1 << n)
    down = sum((labels >> i) & 1 for i in range(n))
    return (n - 2 * down).astype(float)


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


def gibbs_row(n, j, b, t):
    """U, M, Gxx, Gzz and concurrence of the Gibbs state, all brute force.

    The ring Hamiltonian is real in the computational basis, so the Gibbs
    state is taken from its real part (four times faster at n = 10) once
    the imaginary part is confirmed to vanish.
    """
    h = ring_hamiltonian(n, j, b)
    if np.abs(h.imag).max() > 0.0:
        raise ValueError("ring Hamiltonian has an imaginary part")
    h = h.real
    rho = gibbs_density(h, t)
    pair = partial_trace_pair(rho, n, (0, 1))
    u = float(np.sum(rho * h.T))
    m = float(np.real(np.diag(rho)) @ total_sz_diagonal(n))
    g_zz = float(np.trace(pair @ np.kron(SZ, SZ)).real)
    g_xx = float(np.trace(pair @ np.kron(SX, SX)).real)
    return {"U": u, "M": m, "Gxx": g_xx, "Gzz": g_zz,
            "concurrence": wootters_concurrence(pair)}
