"""Exact spectra of XX qubit rings in a magnetic field.

Spectra from Jordan-Wigner modes, Gibbs-state observables, nearest-neighbor
concurrence, and the even-N multiqubit tangle, with closed-form four-site
oracles and randomized symmetry verification. The block path's names resolve
on first use, so `import xxring` loads neither `blocks` nor numpy.
"""

from .eigensolver import RingModel, Spectrum, full_spectrum, ring_model
from .experiments import (
    PropositionReport,
    ground_state_concurrence,
    level_crossings,
    thermal_concurrence,
    threshold_temperature,
)
from .hamiltonian import ModelParams
from .thermal import GibbsBlock, PairDensity

__version__ = "0.1.0"


def __getattr__(name):
    if name in ("concurrence_xstate", "gibbs_concurrence", "reweight", "sweep", "verify_propositions"):
        from . import blocks
        return getattr(blocks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
