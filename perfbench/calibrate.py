"""Reference kernels that measure how fast the machine is running right now.

On a small shared machine the same op can take up to twice as long from one
half-minute to the next as other tenants load the cores; back-to-back 30 s
windows of one fixed op spread by 25-45% (quartile distance over median).
So every op is timed next to a fixed reference kernel, and op times are
reported rescaled to the kernel's nominal duration ("ms at nominal speed"):

    scaled = measured * NOMINAL_MS / (median reference around the op)

Each workload's kernel has that workload's instruction mix, because
neighbours slow Python bytecode, small-array numpy and LAPACK by different
amounts: mid-size einsum plus small-array numpy for the in-process workloads,
a Python loop plus a dense ``eigh`` for ``cold_cli``. With the matching
kernel the windows spread by 1-6%. The kernels run no program code, so a
change to the program moves only the measured op time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_RNG = np.random.default_rng(20020901)
_SYM = _RNG.standard_normal((252, 252))
_SYM = _SYM + _SYM.T
_VECS = _RNG.standard_normal((252, 252))
_W = _RNG.random(252)


def _python() -> None:
    total = 0
    for i in range(50_000):
        total += i * i


def _eigh() -> None:
    np.linalg.eigh(_SYM)


def _einsum() -> None:
    for _ in range(40):
        np.einsum("lk,l,lk->k", _VECS, _W, _VECS)
        np.exp(-_W / 0.7).sum()


def _small() -> None:
    head, w = _VECS[:60, :60], _W[:60]
    for _ in range(300):
        np.einsum("lk,l,lk->k", head, w, head)
        np.exp(-_W / 0.7).sum()


_KERNELS = {"python": _python, "eigh": _eigh, "einsum": _einsum, "small": _small}
MIX = {
    "surface": ("einsum", "small"),
    "propositions": ("einsum", "small"),
    "cold_cli": ("python", "eigh"),
}
# Median reference duration on the machine the benchmark was defined on
# (2 vCPU Xeon at 2.0 GHz, one BLAS thread); only fixes the unit.
NOMINAL_MS = {"surface": 8.0, "propositions": 8.0, "cold_cli": 12.0}
# ops on each side of an op whose kernel times set its scale
WINDOW = 2


def reference_seconds(workload: str) -> float:
    """Run the workload's reference kernel once; its duration in seconds."""
    start = time.perf_counter()
    for name in MIX[workload]:
        _KERNELS[name]()
    return time.perf_counter() - start


def scales(workload: str, references: list[float]) -> list[float]:
    """Factors that rescale measured times to nominal speed.

    ``references`` holds one kernel time before each op plus one after the
    last op. Op i is scaled by the median of the kernel times from before op
    i-2 to after op i+2: near enough to follow the machine from one phase to
    the next, wide enough that one noisy kernel time moves no op.
    """
    nominal = NOMINAL_MS[workload] / 1e3
    return [nominal / statistics.median(references[max(0, i - WINDOW): i + WINDOW + 2])
            for i in range(len(references) - 1)]
