"""Output checks, run after the timed region has ended.

Each check returns None when an op's output is right and a one-line reason
when it is not; an op with a reason counts as failed. The checks use the
program's printed outputs and independent arithmetic, the brute-force
oracle in ``oracle.py`` and the four-site closed forms. Only the threshold
bracket is checked through the program's own thermal route, because a
brute-force Gibbs state at n = 11 or 12 costs minutes.
"""

from __future__ import annotations

import math

from workloads import SURFACE_T_MAX, SURFACE_T_MIN, Op

SURFACE_HEADER = "T,B,J,N,U,M,Gxx,Gzz,concurrence"
# CSV and CLI values carry 12 significant digits
GXX_TOL = 1e-9
GRID_RTOL = 1e-10
ORACLE_TOL = 1e-8
CLOSED_FORM_TOL = 1e-9
# threshold prints 4 decimals; the bracket sits well outside that rounding
THRESHOLD_STEP = 5e-4
POSITIVE_CONCURRENCE = 1e-12
THRESHOLD_SCAN_FLOOR = 0.05


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _gxx_from_energy(u: float, m: float, b: float, n: int, j: float) -> float:
    """The energy relation (U/n - b M/n) / (2 j) for the bond correlator."""
    return (u / n - b * m / n) / (2.0 * j)


def parse_surface(text: str) -> list[dict[str, float]]:
    lines = text.splitlines()
    if not lines or lines[0] != SURFACE_HEADER:
        raise ValueError("missing CSV header")
    columns = SURFACE_HEADER.split(",")
    rows = []
    for line in lines[1:]:
        values = line.split(",")
        if len(values) != len(columns):
            raise ValueError(f"malformed row {line!r}")
        rows.append(dict(zip(columns, map(float, values))))
    return rows


def _t_grid(steps: int) -> list[float]:
    ratio = SURFACE_T_MAX / SURFACE_T_MIN
    return [SURFACE_T_MIN * ratio ** (k / (steps - 1)) for k in range(steps)]


def check_surface(op: Op, rc, out: str, err: str = "") -> str | None:
    """Grid, energy relation to 1e-9, and concurrence within [0, 1]."""
    if rc != 0:
        return f"exit code {rc}: {err.strip()[-200:]}"
    try:
        rows = parse_surface(out)
    except ValueError as exc:
        return f"unparsable CSV: {exc}"
    t_grid = _t_grid(op.t_steps)
    if len(rows) != len(op.b) * len(t_grid):
        return f"{len(rows)} rows, expected {len(op.b) * len(t_grid)}"
    for k, row in enumerate(rows):
        b, t = op.b[k // len(t_grid)], t_grid[k % len(t_grid)]
        if not (_close(row["T"], t, GRID_RTOL) and _close(row["B"], b, GRID_RTOL)
                and row["N"] == op.n and _close(row["J"], op.j, GRID_RTOL)):
            return f"row {k}: grid point {row['T'], row['B'], row['J'], row['N']} is not {t, b, op.j, op.n}"
        relation = _gxx_from_energy(row["U"], row["M"], row["B"], op.n, op.j)
        if abs(row["Gxx"] - relation) > GXX_TOL:
            return f"row {k}: Gxx {row['Gxx']!r} vs energy relation {relation!r}"
        if not 0.0 <= row["concurrence"] <= 1.0:
            return f"row {k}: concurrence {row['concurrence']!r} outside [0, 1]"
        if not -1.0 <= row["Gzz"] <= 1.0:
            return f"row {k}: Gzz {row['Gzz']!r} outside [-1, 1]"
    return None


def check_surface_row_oracle(op: Op, row: dict[str, float]) -> str | None:
    """One CSV row against the full-space Gibbs state and partial trace."""
    from oracle import gibbs_row

    want = gibbs_row(op.n, op.j, row["B"], row["T"])
    for key, value in want.items():
        if not _close(row[key], value, ORACLE_TOL):
            return f"{key} at T={row['T']}, B={row['B']}: {row[key]!r} vs brute force {value!r}"
    return None


def check_n4_closed_forms(op: Op, out: str) -> str | None:
    """Every row of a four-site sweep against ``analytic_n4.closed_forms``."""
    from xxring.analytic_n4 import closed_forms

    for row in parse_surface(out):
        cf = closed_forms(op.j, row["B"], 1.0 / row["T"])
        pairs = ((row["U"] / 4, cf.u_bar), (row["M"] / 4, cf.m_bar),
                 (row["Gzz"], cf.g_zz), (row["Gxx"], cf.g_xx))
        if not all(_close(got, want, CLOSED_FORM_TOL) for got, want in pairs):
            return f"n=4 row at T={row['T']}, B={row['B']} differs from the closed forms"
    return None


def check_propositions(op: Op, rc, out: str, err: str = "") -> str | None:
    """Exit code 0 with all three suites passing and the odd control printed."""
    if rc != 0:
        return f"exit code {rc}: {(out + err).strip()[-200:]}"
    lines = out.splitlines()
    for k in (1, 2, 3):
        if not any(line.startswith(f"proposition {k}: pass") for line in lines):
            return f"proposition {k} not reported as passing"
    if not any("negative control" in line for line in lines):
        return "odd-ring control not reported"
    return None


def _fields(out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def _unit_interval(name: str, value: float) -> str | None:
    return None if 0.0 <= value <= 1.0 else f"{name} {value!r} outside [0, 1]"


def _check_thermal(op: Op, out: str) -> str | None:
    f = {k: float(v) for k, v in _fields(out).items()}
    missing = {"Z_shifted", "U", "M", "Gxx", "Gzz", "concurrence"} - f.keys()
    if missing:
        return f"thermal output lacks {sorted(missing)}"
    relation = _gxx_from_energy(f["U"], f["M"], op.b[0], op.n, op.j)
    if abs(f["Gxx"] - relation) > GXX_TOL:
        return f"Gxx {f['Gxx']!r} vs energy relation {relation!r}"
    if not f["Z_shifted"] >= 1.0:
        return f"shifted partition sum {f['Z_shifted']!r} below 1"
    return _unit_interval("concurrence", f["concurrence"])


def _check_ground(op: Op, out: str) -> str | None:
    f = _fields(out)
    if not math.isfinite(float(f["ground energy"])):
        return "non-finite ground energy"
    if "fold degenerate" in out:
        return None
    bad = _unit_interval("concurrence", float(f["concurrence"]))
    if bad is None and op.n % 2 == 0:
        bad = _unit_interval("tangle", float(f["tangle"]))
    return bad


def _check_threshold(op: Op, out: str) -> str | None:
    from xxring import ModelParams, full_spectrum, thermal_concurrence

    text = out.strip()
    spectrum = full_spectrum(ModelParams(n=op.n, j=op.j, b=op.b[0]))
    if text == "none":
        c = thermal_concurrence(spectrum, THRESHOLD_SCAN_FLOOR)
        return None if c <= POSITIVE_CONCURRENCE else f"'none' but C({THRESHOLD_SCAN_FLOOR}) = {c!r}"
    tc = float(text)
    below = thermal_concurrence(spectrum, tc - THRESHOLD_STEP)
    above = thermal_concurrence(spectrum, tc + THRESHOLD_STEP)
    if below <= POSITIVE_CONCURRENCE or above > POSITIVE_CONCURRENCE:
        return f"T_c {tc} does not bracket: C below {below!r}, C above {above!r}"
    return None


_COLD = {"thermal": _check_thermal, "ground": _check_ground, "threshold": _check_threshold}


def check_cold(op: Op, rc, out: str, err: str = "") -> str | None:
    """Exit code 0 and parsable output; thermal holds the energy relation and
    threshold brackets the sign change of the concurrence."""
    if rc != 0:
        return f"exit code {rc}: {err.strip()[-200:]}"
    try:
        return _COLD[op.command](op, out)
    except (KeyError, ValueError) as exc:
        return f"unparsable {op.command} output ({exc!r}): {out.strip()[:200]!r}"


CHECKS = {"surface": check_surface, "propositions": check_propositions, "cold_cli": check_cold}
