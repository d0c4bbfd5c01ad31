"""Seeded op lists for the three benchmark workloads.

An op is a pure function of (workload, seed, index). Every (n, j, b, T)
input is drawn here; the program only ever sees the resulting argv.
Index -1 is the warm-up op of an in-process run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("surface", "propositions", "cold_cli")
IN_PROCESS = ("surface", "propositions")

SURFACE_N = 10
SURFACE_T_MIN, SURFACE_T_MAX, SURFACE_T_STEPS = 0.05, 5.0, 40
SURFACE_B_STEPS = 2

PROPOSITION_RINGS = "2,3,4,5,6"
PROPOSITION_SAMPLES = 8

COLD_COMMANDS = ("thermal", "ground", "threshold")
COLD_RINGS = (11, 12)
# Each block of six cold_cli ops runs every command twice: ground and
# threshold at n=12 both times, thermal once at n=11 and once at n=12 in
# seeded order. Two thirds of the ops then cost about the same (ground and
# threshold at n=12, ~1.1 s), and both the median and the tail percentile
# (ten or more ops beyond it in a 30 s run) fall well inside that group. A
# free draw of n would put them on the gaps between cost groups, where they
# jump from run to run with the mix.
COLD_BLOCK = 2 * len(COLD_COMMANDS)


@dataclass(frozen=True)
class Op:
    """One benchmark op: the argv handed to the program plus the drawn inputs."""

    workload: str
    index: int | str
    argv: tuple[str, ...]
    n: int = 0
    j: float = 0.0
    b: tuple[float, ...] = ()
    t: float = 0.0
    t_steps: int = 0

    @property
    def command(self) -> str:
        return self.argv[0]


def _rng(*key) -> random.Random:
    # string seeds hash through sha512, so the stream is the same on every
    # platform and Python version
    return random.Random(":".join(str(part) for part in key))


def _exchange(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)


def _surface(seed: int, index: int, n: int = SURFACE_N, t_steps: int = SURFACE_T_STEPS) -> Op:
    rng = _rng("surface", seed, index)
    j = _exchange(rng)
    width = rng.uniform(0.05, 1.0)
    b_lo = rng.uniform(0.0, 4.0 - width)
    b_hi = b_lo + width
    argv = ("sweep", "--n", str(n), f"--j={j!r}",
            f"--t-min={SURFACE_T_MIN!r}", f"--t-max={SURFACE_T_MAX!r}",
            "--t-steps", str(t_steps), "--t-scale", "log",
            f"--b-min={b_lo!r}", f"--b-max={b_hi!r}", "--b-steps", str(SURFACE_B_STEPS))
    return Op("surface", index, argv, n=n, j=j, b=(b_lo, b_hi), t_steps=t_steps)


def n4_probe_op(seed: int) -> Op:
    """Untimed four-site sweep whose rows the closed forms can check."""
    return _surface(seed, "n4-probe", n=4, t_steps=12)


def _propositions(seed: int, index: int) -> Op:
    rng = _rng("propositions", seed, index)
    verify_seed = rng.randrange(1, 2**31 - 1)
    argv = ("verify", "--n-list", PROPOSITION_RINGS,
            "--samples", str(PROPOSITION_SAMPLES), "--seed", str(verify_seed))
    return Op("propositions", index, argv)


def _cold_cli(seed: int, index: int) -> Op:
    block, pos = divmod(index, COLD_BLOCK)
    command_slot, occurrence = pos % len(COLD_COMMANDS), pos // len(COLD_COMMANDS)
    command = COLD_COMMANDS[command_slot]
    if command == "thermal":
        big_occurrence = _rng("cold_cli", seed, "block", block).randrange(2)
        n = COLD_RINGS[occurrence == big_occurrence]
    else:
        n = COLD_RINGS[1]
    rng = _rng("cold_cli", seed, index)
    j = _exchange(rng)
    b = rng.uniform(0.0, 2.0)
    t = rng.uniform(0.2, 3.0)
    argv = [command, "--n", str(n), f"--j={j!r}", f"--b={b!r}"]
    if command == "thermal":
        argv.append(f"--t={t!r}")
    return Op("cold_cli", index, tuple(argv), n=n, j=j, b=(b,),
              t=t if command == "thermal" else 0.0)


_MAKERS = {"surface": _surface, "propositions": _propositions, "cold_cli": _cold_cli}


def make_op(workload: str, seed: int, index: int) -> Op:
    """The index-th op of a workload under a seed."""
    return _MAKERS[workload](seed, index)
