"""Entanglement measure: pairwise concurrence.

The ring conserves sum(sigma_z), so every bond state is X-form and its
concurrence has a closed form (`concurrence_xstate_point` at one state of
floats, in pure Python; `blocks.concurrence_xstate` on arrays, with the same
checks in the same order, `_checks`), the one route every command reports
and proposition 3 checks against the energy formula.
"""

from __future__ import annotations

import math

from .thermal import PairDensity

# Outputs within this distance outside [0, 1] are roundoff and get clamped;
# larger excursions are bugs and raise.
_CLAMP_TOL = 1e-9


def _checks(u_plus, u_minus, w, abs_z):
    """The three state checks in order, as (holds, problem): a bool for
    floats, an array for arrays; a nan fails each."""
    return (
        ((u_plus >= -1e-10) & (u_minus >= -1e-10) & (w >= -1e-10), "negative population beyond tolerance"),
        (abs_z <= w + 1e-10, "central block not positive semidefinite"),
        (abs(u_plus + u_minus + 2.0 * w - 1.0) <= 1e-8, "trace differs from one"),
    )


def concurrence_xstate_point(rho: PairDensity) -> float:
    """`blocks.concurrence_xstate` of one state whose fields are floats,
    bit for bit, in pure Python: the same checks, refusals and clamp."""
    abs_z = abs(rho.z)
    for ok, problem in _checks(rho.u_plus, rho.u_minus, rho.w, abs_z):
        if not ok:
            raise ValueError(f"{problem}: {rho}")
    # the state checks leave no nan here
    value = max(0.0, 2.0 * (abs_z - math.sqrt(max(rho.u_plus * rho.u_minus, 0.0))))
    if not value <= 1.0 + _CLAMP_TOL:
        raise ValueError(f"concurrence = {value} lies outside [0, 1] beyond roundoff")
    return min(value, 1.0)
