"""Entanglement measure: pairwise concurrence.

The ring conserves sum(sigma_z), so every bond state is X-form and its
concurrence has a closed form (`concurrence_xstate`; without numpy at one
state of floats, `concurrence_xstate_point`), the one route every command
reports and proposition 3 checks against the energy formula.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .thermal import PairDensity

if TYPE_CHECKING:
    import numpy as np

# Outputs within this distance outside [0, 1] are roundoff and get clamped;
# larger excursions are bugs and raise.
_CLAMP_TOL = 1e-9


def _first(bad: np.ndarray, *arrays) -> tuple[float, ...]:
    """The values of arrays (of bad's shape) at the first point where bad holds."""
    import numpy as np
    index = np.unravel_index(np.argmax(bad), bad.shape)
    return tuple(float(a[index]) for a in arrays)


def _clamp_unit(value, what: str):
    """Clamp roundoff excursions out of [0, 1]; scalar in gives float out,
    array in gives array out. Raises if any point lies further out, or is nan."""
    import numpy as np
    value = np.asarray(value, dtype=float)
    # both bounds in one test, which a nan fails
    inside = (value >= -_CLAMP_TOL) & (value <= 1.0 + _CLAMP_TOL)
    if not inside.all():
        raise ValueError(f"{what} = {_first(~inside, value)[0]} lies outside [0, 1] beyond roundoff")
    value = np.minimum(np.maximum(value, 0.0), 1.0)
    return float(value) if value.ndim == 0 else value


def _checks(u_plus, u_minus, w, abs_z):
    """The three state checks in order, as (holds, problem): a bool for
    floats, an array for arrays; a nan fails each."""
    return (
        ((u_plus >= -1e-10) & (u_minus >= -1e-10) & (w >= -1e-10), "negative population beyond tolerance"),
        (abs_z <= w + 1e-10, "central block not positive semidefinite"),
        (abs(u_plus + u_minus + 2.0 * w - 1.0) <= 1e-8, "trace differs from one"),
    )


def _validated(rho: PairDensity) -> tuple[np.ndarray, ...]:
    """(u_plus, u_minus, w, |z|) as arrays, after checking that every point
    is a state; the message names the first point that is not. A nan is no
    state."""
    import numpy as np
    u_plus, u_minus, w, z = (np.asarray(x, dtype=float) for x in (rho.u_plus, rho.u_minus, rho.w, rho.z))
    abs_z = np.abs(z)
    checks = _checks(u_plus, u_minus, w, abs_z)
    # one test on the accepted path; a refusal names the first check failed, in this order
    if not (checks[0][0] & checks[1][0] & checks[2][0]).all():
        for ok, problem in checks:
            if not ok.all():
                bad, *fields = np.broadcast_arrays(~ok, u_plus, u_minus, w, z)
                raise ValueError(f"{problem}: {PairDensity(*_first(bad, *fields))}")
    return u_plus, u_minus, w, abs_z


def concurrence_xstate(rho: PairDensity):
    """Closed form for the symmetric X-form state: 2 max(0, |z| - sqrt(u+ u-)).

    The fields of rho may be arrays of one shape: the concurrence is then an
    array of that shape, and any point that is not a state raises.
    """
    import numpy as np
    u_plus, u_minus, _, abs_z = _validated(rho)
    value = 2.0 * (abs_z - np.sqrt(np.maximum(u_plus * u_minus, 0.0)))
    return _clamp_unit(np.maximum(0.0, value), "concurrence")


def concurrence_xstate_point(rho: PairDensity) -> float:
    """`concurrence_xstate` of one state whose fields are floats, bit for
    bit, in pure Python: the same checks, refusals and clamp."""
    abs_z = abs(rho.z)
    for ok, problem in _checks(rho.u_plus, rho.u_minus, rho.w, abs_z):
        if not ok:
            raise ValueError(f"{problem}: {rho}")
    # the state checks leave no nan here
    value = max(0.0, 2.0 * (abs_z - math.sqrt(max(rho.u_plus * rho.u_minus, 0.0))))
    if not value <= 1.0 + _CLAMP_TOL:
        raise ValueError(f"concurrence = {value} lies outside [0, 1] beyond roundoff")
    return min(value, 1.0)
