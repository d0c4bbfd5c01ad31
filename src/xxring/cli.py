"""Command-line front end: spectra, thermal observables, ground-state data,
sweeps, threshold/crossing finders, and the proposition verifier.

Exit codes: 0 success, 1 in-claim verification failure, 2 argument and file errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .eigensolver import full_spectrum, ring_model, same_level
from .experiments import (
    DEFAULT_SEED,
    MAX_POINTS,
    DegenerateGroundError,
    gibbs_concurrence,
    ground_state_concurrence,
    level_crossings,
    sweep,
    threshold_temperature,
    verify_propositions,
)
from .hamiltonian import ModelParams

_SWEEP_RECIPE = (
    "concurrence-vs-(T, B) surface at desk scale: "
    "xxring sweep --n 4 --j 1 --t-min 0.05 --t-max 3 --t-steps 60 "
    "--b-min 0 --b-max 4 --b-steps 80"
)

def _fmt(value: float) -> str:
    return format(value, ".12g")


# One sweep CSV row, formatted in one call: "%.12g" writes the bytes of _fmt.
_CSV_ROW = ",".join(["%.12g"] * 3 + ["%d"] + ["%.12g"] * 5)


def _add_model_args(parser, with_b=True):
    parser.add_argument("--n", type=int, required=True, help="ring size")
    parser.add_argument("--j", type=float, required=True, help="exchange constant")
    if with_b:
        parser.add_argument("--b", type=float, default=0.0, help="magnetic field (default 0)")


def _add_grid_args(parser, axis):
    parser.add_argument(f"--{axis}-min", type=float, required=True)
    parser.add_argument(f"--{axis}-max", type=float, required=True)
    parser.add_argument(f"--{axis}-steps", type=int, required=True, help="number of grid points")
    parser.add_argument(f"--{axis}-scale", choices=("linear", "log"), default="linear")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xxring",
        description="Exact spectra, thermal entanglement and ground states of XX qubit "
                    "rings in a magnetic field.",
        epilog=_SWEEP_RECIPE,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="sorted eigenvalues with degeneracies")
    _add_model_args(p)

    p = sub.add_parser("thermal", help="Z(shifted), U, M, Gxx, Gzz, concurrence at (n, j, b, t)")
    _add_model_args(p)
    p.add_argument("--t", type=float, required=True, help="temperature (k_B = 1)")

    p = sub.add_parser("ground", help="ground energy, concurrence, and (even n) tangle")
    _add_model_args(p)

    p = sub.add_parser("sweep", help="CSV of observables over a (t, b) grid")
    _add_model_args(p, with_b=False)
    _add_grid_args(p, "t")
    _add_grid_args(p, "b")
    p.add_argument("--output", "-o", default="-", help="CSV path, '-' for stdout (default)")

    p = sub.add_parser("threshold", help="largest temperature with positive concurrence")
    _add_model_args(p)
    p.add_argument("--tol", type=float, default=1e-6, help="bisection tolerance")

    p = sub.add_parser("crossings", help="fields where the ground level changes branch")
    _add_model_args(p, with_b=False)
    p.add_argument("--b-max", type=float, required=True, help="largest field (may be inf)")

    p = sub.add_parser("verify", help="run the symmetry proposition suites")
    p.add_argument("--n-list", default="2,3,4,5,6", help="comma-separated ring sizes")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--odd-control", type=int, default=5,
                   help="odd ring for the out-of-claim exchange-sign control (0 disables)")
    return parser


def _grid_steps(args, axis) -> int:
    """Check one axis's grid options, building nothing; return its point count."""
    lo, hi, steps, scale = (getattr(args, f"{axis}_{key}") for key in ("min", "max", "steps", "scale"))
    if steps < 1:
        raise ValueError(f"--{axis}-steps must be >= 1")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"--{axis}-min and --{axis}-max must be finite")
    # a span wider than the doubles would overflow inside the grid's spacing
    if not math.isfinite(hi - lo):
        raise ValueError(f"--{axis}-max - --{axis}-min must be finite")
    if hi < lo:
        raise ValueError(f"--{axis}-max must be >= --{axis}-min")
    if steps > 1 and scale == "log" and lo <= 0:
        raise ValueError(f"log scale needs positive --{axis}-min")
    return steps


def _grid(args, axis):
    lo, hi, steps = (getattr(args, f"{axis}_{key}") for key in ("min", "max", "steps"))
    if steps == 1:
        return [lo]
    space = np.geomspace if getattr(args, f"{axis}_scale") == "log" else np.linspace
    return list(space(lo, hi, steps))


def _cmd_spectrum(args) -> int:
    spectrum = full_spectrum(ModelParams(n=args.n, j=args.j, b=args.b))
    energies = spectrum.class_energies()
    order = np.argsort(energies, kind="stable")
    # [lowest energy, sum of multiplicity * energy, levels] of each printed level; the first's lowest is E0
    clusters: list[list[float]] = []
    for e, count in zip(energies[order].tolist(), spectrum.ring.classes[0, order].tolist()):
        if clusters and same_level(e, clusters[-1][0], clusters[0][0]):
            clusters[-1][1] += count * e
            clusters[-1][2] += count
        else:
            clusters.append([e, count * e, count])
    for _, total, count in clusters:
        print(f"{_fmt(total / count):>22}  x{int(count)}")
    return 0


def _cmd_thermal(args) -> int:
    params = ModelParams(n=args.n, j=args.j, b=args.b)
    g, c = gibbs_concurrence(ring_model(params.n), params.j, params.b, args.t)
    for name, value in (("Z_shifted", g.z_shifted), ("U", g.u), ("M", g.m), ("Gxx", g.g_xx), ("Gzz", g.g_zz),
                        ("concurrence", c)):
        print(f"{name:<11} = {_fmt(float(value))}")
    return 0


def _cmd_ground(args) -> int:
    params = ModelParams(n=args.n, j=args.j, b=args.b)
    spectrum = full_spectrum(params)
    print(f"ground energy = {_fmt(spectrum.ground_energy)}")
    try:
        c = ground_state_concurrence(params)
    except DegenerateGroundError as exc:
        print(exc)
        return 0
    print(f"concurrence   = {_fmt(c)}")
    if args.n % 2 == 0:
        # the tangle |<psi| sigma_y^n |psi*>|^2 (Wong and Christensen, PRA 63, 044301
        # (2001)) of the Fock ground state: sigma_y^n maps N down spins to n - N, so it
        # vanishes off half filling; at half filling the nondegenerate ground set holds one
        # mode of each {k, k + pi} pair (cos(k + pi) = -cos k), which makes it exactly 1
        ground_sz = spectrum.ring.class_sz[np.argmin(spectrum.class_energies())]
        print(f"tangle        = {_fmt(1.0 if ground_sz == 0 else 0.0)}")
    return 0


def _cmd_sweep(args) -> int:
    params = ModelParams(n=args.n, j=args.j, b=0.0)
    # checked before any grid is built: a huge grid would exhaust memory first
    rows = _grid_steps(args, "t") * _grid_steps(args, "b")
    if rows > MAX_POINTS:
        raise ValueError(f"grid of {rows} rows exceeds cap {MAX_POINTS}")
    t_values, b_values = sorted(_grid(args, "t")), sorted(_grid(args, "b"))
    block, concurrence = sweep(params, t_values, b_values)
    columns = [a.tolist() for a in (block.u, block.m, block.g_xx, block.g_zz, concurrence)]
    lines = ["T,B,J,N,U,M,Gxx,Gzz,concurrence"]
    # b outer, t inner: one row per grid point, formatted straight from the columns
    for b, *row_columns in zip(b_values, *columns):
        lines += [_CSV_ROW % (t, b, params.j, params.n, u, m, g_xx, g_zz, c)
                  for t, u, m, g_xx, g_zz, c in zip(t_values, *row_columns)]
    text = "\n".join(lines) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", newline="") as handle:
            handle.write(text)
        print(f"wrote {len(lines) - 1} rows to {args.output}", file=sys.stderr)
    return 0


def _cmd_threshold(args) -> int:
    tc = threshold_temperature(ModelParams(n=args.n, j=args.j, b=args.b), tol=args.tol)
    print("none" if tc is None else f"{tc:.4f}")
    return 0


def _cmd_crossings(args) -> int:
    print("\n".join(f"{b:.9f}" for b in level_crossings(args.n, args.j, args.b_max)) or "none")
    return 0


def _cmd_verify(args) -> int:
    try:
        n_list = [int(part) for part in args.n_list.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--n-list must be comma-separated integers, got {args.n_list!r}") from None
    reports = verify_propositions(n_list, samples=args.samples, seed=args.seed, odd_control=args.odd_control)
    scopes = {
        1: f"n in {n_list}",
        2: f"n in {[n for n in n_list if n % 2 == 0]}",
        3: f"n in {n_list}, b = 0, both exchange signs",
    }
    failed = False
    for rep in reports[:3]:
        status = "pass" if rep.passed else "FAIL"
        failed = failed or not rep.passed
        print(f"proposition {rep.proposition}: {status}  "
              f"(max discrepancy {rep.max_discrepancy:.3e}, {rep.samples} samples, {scopes[rep.proposition]})")
    for control in reports[3:]:
        print(f"proposition 2 on n={args.odd_control} (odd, out of claim, negative control): "
              f"symmetry {'UNEXPECTEDLY held' if control.passed else 'breaks as expected'} "
              f"(max discrepancy {control.max_discrepancy:.3e})")
    return 1 if failed else 0


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "thermal": _cmd_thermal,
    "ground": _cmd_ground,
    "sweep": _cmd_sweep,
    "threshold": _cmd_threshold,
    "crossings": _cmd_crossings,
    "verify": _cmd_verify,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of `main` (not at import) and
    reused: parse_args leaves it unchanged and fills a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
