"""Exact spectra of XX qubit rings in a magnetic field.

Spectra from Jordan-Wigner modes, Gibbs-state observables, nearest-neighbor
concurrence, and the even-N multiqubit tangle, with closed-form four-site
oracles and randomized symmetry verification.
"""

from .analytic_n4 import ClosedFormN4, closed_forms
from .eigensolver import RingModel, Spectrum, full_spectrum, ring_model
from .entanglement import concurrence_from_correlators, concurrence_xstate
from .experiments import (
    PropositionReport,
    gibbs_concurrence,
    ground_state_concurrence,
    level_crossings,
    sweep,
    thermal_concurrence,
    threshold_temperature,
    verify_propositions,
)
from .hamiltonian import ModelParams
from .thermal import GibbsBlock, PairDensity, reweight

__version__ = "0.1.0"
