"""Command-line front end: spectra, thermal observables, ground-state data,
sweeps, threshold/crossing finders, and the proposition verifier.

Exit codes: 0 success, 1 in-claim verification failure, 2 argument and file errors,
141 (128 + SIGPIPE, what a shell reports for `cat`) when the reader of stdout
goes away before the output is written. Only the `xxring` process, `entry`,
turns a closed stdout into 141; in-process `main` raises its BrokenPipeError.

Each command's options are stated once, in the table `_COMMANDS`. An argv
that is a command name followed by `--opt=value` and `--opt value` tokens
(exact long options, values that do not start with "-") is read straight
from that table, and imports no argparse; every other argv takes the
argparse parser that `build_parser` makes from the same table, and both
give the same namespace or refusal. The handlers of the single-point
commands are here; those of `sweep` and `verify`, which reweight a block of
points, are in `blocks`, which the table imports on their first call
(`_blocks_command`), so no other command compiles it or imports numpy.
"""

from __future__ import annotations

import functools
import gc
import math
import os
import re
import sys
import types
from typing import TYPE_CHECKING

from .eigensolver import full_spectrum, ring_model, same_level
from .experiments import (
    DEFAULT_SEED,
    gibbs_concurrence_point,
    ground_state_concurrence,
    level_crossings,
    threshold_temperature,
)
from .hamiltonian import ModelParams

if TYPE_CHECKING:
    import argparse

# a token that argparse reads as a value, not an option, though it starts with
# "-": "-" then a digit, or "." and a digit; argparse's own rule,
# ^-\d+$|^-\d*\.\d+$ on Python 3.11, takes "-1e-3" for an option ("-inf" and
# "-nan" still need "--opt=value"). `build_parser` sets it as each parser's
# _negative_number_matcher, the one private argparse attribute the package sets
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _cmd_spectrum(args) -> int:
    spectrum = full_spectrum(ModelParams(n=args.n, j=args.j, b=args.b))
    # the classes by energy, ties in class order
    levels = sorted(zip(spectrum.class_energies(), spectrum.ring.classes[0]), key=lambda level: level[0])
    # [lowest energy, sum of multiplicity * energy, levels] of each printed level; the first's lowest is E0
    clusters: list[list[float]] = []
    for e, count in levels:
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
    g, c = gibbs_concurrence_point(ring_model(params.n), params.j, params.b, args.t)
    for name, value in (("Z_shifted", g.z_shifted), ("U", g.u), ("M", g.m), ("Gxx", g.g_xx), ("Gzz", g.g_zz),
                        ("concurrence", c)):
        print(f"{name:<11} = {_fmt(value)}")
    return 0


def _cmd_ground(args) -> int:
    g, c = ground_state_concurrence(ModelParams(n=args.n, j=args.j, b=args.b))
    # the energy of the T = 0 state; + 0.0 reads the all-zero spectrum (j = b = 0) as 0, never -0
    print(f"ground energy = {_fmt(g.u + 0.0)}")
    if g.z_shifted > 1:
        print(f"ground level is {int(g.z_shifted)}-fold degenerate")
        print(f"concurrence   = {_fmt(c)}  (uniform mixture over the ground level, the T -> 0 limit)")
        return 0
    print(f"concurrence   = {_fmt(c)}")
    if args.n % 2 == 0:
        # the tangle |<psi| sigma_y^n |psi*>|^2 (Wong and Christensen, PRA 63, 044301
        # (2001)) of the Fock ground state: sigma_y^n maps N down spins to n - N, so it
        # vanishes off half filling; at half filling the nondegenerate ground set holds one
        # mode of each {k, k + pi} pair (cos(k + pi) = -cos k), which makes it exactly 1.
        # The level is one class of multiplicity 1, so M is its sz exactly
        print(f"tangle        = {_fmt(1.0 if g.m == 0 else 0.0)}")
    return 0


def _resolved_digits(value: float, tol: float) -> int:
    """The significant digits of a positive bisection result down to the
    place of its tolerance, floor(log10 value) - floor(log10 tol) + 1, in
    [1, 17]: the final bracket fixes all but the last, which is within tol
    of the root; an infinite tol gives one."""
    return min(17, max(1, math.floor(math.log10(value)) - math.floor(math.log10(min(tol, sys.float_info.max))) + 1))


def _cmd_threshold(args) -> int:
    tc = threshold_temperature(ModelParams(n=args.n, j=args.j, b=args.b), tol=args.tol)
    print("none" if tc is None else "%.*g" % (_resolved_digits(tc, args.tol), tc))
    return 0


def _cmd_crossings(args) -> int:
    print("\n".join(map(_fmt, level_crossings(args.n, args.j, args.b_max))) or "none")
    return 0


def _blocks_command(name: str):
    """The handler `name` of `blocks`, imported on the command's first call."""
    def run(args) -> int:
        from . import blocks
        return getattr(blocks, name)(args)
    return run


# The CLI grammar, read by `_read_options` and by `build_parser`. An option
# row is (option strings, type or tuple of choices, default or _REQUIRED,
# help); a command row is (help, handler, option rows in help order).
_REQUIRED = object()
_N = (("--n",), int, _REQUIRED, "ring size")
_J = (("--j",), float, _REQUIRED, "exchange constant")
_B = (("--b",), float, 0.0, "magnetic field (default 0)")
_SCALES = ("linear", "log")
_COMMANDS = {
    "spectrum": ("sorted eigenvalues with degeneracies", _cmd_spectrum, (_N, _J, _B)),
    "thermal": ("Z(shifted), U, M, Gxx, Gzz, concurrence at (n, j, b, t)", _cmd_thermal,
                (_N, _J, _B, (("--t",), float, _REQUIRED, "temperature (k_B = 1)"))),
    "ground": ("the T = 0 state: energy, concurrence, and (nondegenerate even n) tangle", _cmd_ground,
               (_N, _J, _B)),
    "sweep": ("CSV of observables over a (t, b) grid", _blocks_command("_cmd_sweep"),
              (_N, _J, (("--t-min",), float, _REQUIRED, None), (("--t-max",), float, _REQUIRED, None),
               (("--t-steps",), int, _REQUIRED, "number of grid points"), (("--t-scale",), _SCALES, "linear", None),
               (("--b-min",), float, _REQUIRED, None), (("--b-max",), float, _REQUIRED, None),
               (("--b-steps",), int, _REQUIRED, "number of grid points"), (("--b-scale",), _SCALES, "linear", None),
               (("--output", "-o"), str, "-", "CSV path, '-' for stdout (default)"))),
    "threshold": ("largest temperature with positive concurrence", _cmd_threshold,
                  (_N, _J, _B, (("--tol",), float, 1e-6, "bisection tolerance"))),
    "crossings": ("fields where the ground level changes branch", _cmd_crossings,
                  (_N, _J, (("--b-max",), float, _REQUIRED, "largest field (may be inf)"))),
    "verify": ("run the symmetry proposition suites", _blocks_command("_cmd_verify"),
               ((("--n-list",), str, "2,3,4,5,6", "comma-separated ring sizes"),
                (("--samples",), int, 200, None),
                (("--seed",), int, DEFAULT_SEED, None),
                (("--odd-control",), int, 5, "odd ring for the out-of-claim exchange-sign control (0 disables)"))),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of `_COMMANDS`, for the argvs `_read_options`
    declines: -h, refusals, abbreviations, -o, a value written `--j -1.3`."""
    import argparse

    class StoreOne(argparse.Action):
        """argparse's store of one value, refusing the [] that a value of "--" reads as."""

        def __call__(self, parser, namespace, values, option_string=None):
            if values == []:
                raise argparse.ArgumentError(self, "expected one argument")
            setattr(namespace, self.dest, values)

    parser = argparse.ArgumentParser(
        prog="xxring",
        description="Exact spectra, thermal entanglement and ground states of XX qubit "
                    "rings in a magnetic field.",
        epilog="concurrence-vs-(T, B) surface at desk scale: xxring sweep --n 4 --j 1 --t-min 0.05 "
               "--t-max 3 --t-steps 60 --b-min 0 --b-max 4 --b-steps 80",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (command_help, _, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=command_help)
        for strings, kind, default, option_help in options:
            required = default is _REQUIRED
            choices = kind if isinstance(kind, tuple) else None
            command.add_argument(*strings, action=StoreOne, type=None if choices else kind, choices=choices,
                                 required=required, default=None if required else default, help=option_help)
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first argv that `_read_options` declines
    (not at import) and reused: a parse leaves it and its subparsers
    unchanged and fills a fresh namespace."""
    return build_parser()


def _parse(argv) -> types.SimpleNamespace | argparse.Namespace:
    """`_parser().parse_args(argv)`, read straight from `_COMMANDS`
    (`_read_options`) where argv is a command name and then only
    `--opt=value` or `--opt value` tokens whose value `parse_args` would
    take as given. Any other argv takes `parse_args`, which gives the same
    namespace or refusal."""
    argv = sys.argv[1:] if argv is None else argv
    args = _read_options(argv)
    return _parser().parse_args(argv) if args is None else args


def _read_options(argv) -> types.SimpleNamespace | None:
    """The namespace `parse_args` gives argv, read from its command's row of
    `_COMMANDS`, or None for `parse_args` to read it.

    Each token after the command name is `--opt=value`, or `--opt` followed
    by a value that does not start with "-"; `--opt` is exactly a long
    option string of the command; the value is not "--" (the parser refuses
    it) and passes the option's type or choices; and every required option
    is given. Every other option gets its default. Any other argv returns
    None: an abbreviation, a single-dash option, -h, --, a value that starts
    with "-", a missing or unconvertible value, an unknown option, a missing
    required option."""
    row = _COMMANDS.get(argv[0]) if argv else None
    if row is None:
        return None
    options = {string: option for option in row[2] for string in option[0] if string.startswith("--")}
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        string, equals, value = token.partition("=")
        if not equals:
            value = next(tokens, "-")
        option = options.get(string)
        if option is None or value == "--" or (value.startswith("-") and not equals):
            return None
        kind = option[1]
        if isinstance(kind, tuple):
            if value not in kind:
                return None
        else:
            try:
                value = kind(value)
            except ValueError:
                return None
        given[option[0]] = value
    args = types.SimpleNamespace(command=argv[0])
    for strings, _, default, _ in row[2]:
        value = given.get(strings, default)
        if value is _REQUIRED:
            return None
        setattr(args, strings[0][2:].replace("-", "_"), value)
    return args


def main(argv=None) -> int:
    """Run one command on argv (sys.argv[1:] if None), parsed by `_parse`:
    straight from `_COMMANDS` where every token is a long option and its
    value, otherwise by `parse_args`, to the same namespace or refusal;
    return its exit code."""
    args = _parse(argv)
    try:
        return _COMMANDS[args.command][1](args)
    except BrokenPipeError:
        # the reader of stdout went away: not a file error, `entry` ends the process quietly
        raise
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> int:
    """The `xxring` process, run by `python -m xxring` and by the console
    script: `main` on the process's argv, after `gc.freeze()`.

    Freezing moves every object built so far out of the collector's reach,
    the package's imports, and numpy's for the commands that import it
    (`sweep`, `verify`), so the interpreter's exit no longer collects and
    frees them one by one and the OS reclaims the memory instead; it pays
    without numpy too (README). Library callers call `main`, which leaves
    their heap alone. A closed stdout ends the command quietly with exit
    status 141.
    """
    gc.freeze()
    try:
        try:
            return main()
        finally:
            # flushed here, not at exit, so that a closed pipe reaches the handler below
            sys.stdout.flush()
    except BrokenPipeError:
        # the Python docs' recipe: stdout points at devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
