"""In-process A/B of a benchmark workload: a base commit against the working tree.

Exports the base commit's `src/xxring` with `git archive` into a temporary
directory under another package name, loads it and the working tree's
`src/xxring` in one process, and runs a workload's first 400 ops from
`perfbench/workloads.py` through each side's `cli.main`, alternating which
side runs first. Every workload runs in process here, `cold_cli` too: its
`thermal`, `ground` and `threshold` argvs at n = 11 and 12 run without the
fresh interpreter the benchmark starts per op. Every op's (exit code,
stdout, stderr) must be equal on both sides: every op is checked and timed,
and then one error names how many differ and the first few. The script
prints each side's median time per op in microseconds, the median per-op
time ratio (working tree / base) with its quartiles, and how many ops ran
faster on the working tree. With `--corpus` the ops are the argvs of `tests/test_cli_golden.py`'s
CORPUS, refusals included, in place of a workload's. With `--rtol R` the
exit codes must be equal and the outputs only equal at a stated tolerance:
line by line, the text between numbers must match exactly and each number
must lie within R * max(1, |base|) of the base's (`test_cli_golden.differences`,
the golden test's own comparator, which allows 1e-12).

    python tools/ab_ops.py --workload surface --seed 31
    python tools/ab_ops.py --workload propositions --seed 32 --base HEAD~1
    python tools/ab_ops.py --workload cold_cli --seed 33 --rtol 1e-12
    python tools/ab_ops.py --corpus

With `--base HEAD` and a clean tree it is an A/A control.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import export

ROOT = Path(__file__).resolve().parents[1]
BASE_PACKAGE = "xxring_base"
OPS = 400


def _run(main, argv) -> tuple[int | None, str, str]:
    """One op, as the benchmark's worker runs it: output captured, argparse's exit read as a code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def _timed(main, argv):
    start = time.perf_counter()
    result = _run(main, argv)
    return time.perf_counter() - start, result


def workload_argvs(make_op, workload: str, seed: int, ops: int):
    """The warm-up op's argv (index -1) and the argvs of a workload's first ops."""
    return make_op(workload, seed, -1).argv, [make_op(workload, seed, index).argv for index in range(ops)]


def corpus_argvs():
    """The argvs of the golden test's CORPUS (tests/ on the path), the first one also the warm-up."""
    argvs = [command.split() for command in importlib.import_module("test_cli_golden").CORPUS]
    return argvs[0], argvs


def same(base, work, rtol: float | None) -> bool:
    """Whether two ops' (exit code, stdout, stderr) agree: byte for byte
    where rtol is None, else with equal exit codes and every stdout and
    stderr line equal at the tolerance rtol (`test_cli_golden.differences`)."""
    if rtol is None:
        return base == work
    differences = importlib.import_module("test_cli_golden").differences
    return base[0] == work[0] and not any(differences(w, b, rtol) for b, w in zip(base[1:], work[1:]))


def compare(base_main, work_main, warmup, argvs, rtol: float | None = None) -> list[tuple[float, float]]:
    """Each op's (base, working tree) time in seconds, after one untimed
    warm-up op on each side. Every op runs; if any op's output differs
    (`same`, at the tolerance rtol), one error then gives how many differ,
    the first three by index and argv, and the first one's outputs on both
    sides."""
    for main in (base_main, work_main):
        _run(main, warmup)
    times, moved = [], []
    for index, argv in enumerate(argvs):
        if index % 2:
            work_s, work = _timed(work_main, argv)
            base_s, base = _timed(base_main, argv)
        else:
            base_s, base = _timed(base_main, argv)
            work_s, work = _timed(work_main, argv)
        if not same(base, work, rtol):
            moved.append((index, argv, base, work))
        times.append((base_s, work_s))
    if moved:
        ops = "; ".join(f"op {index} ({' '.join(argv)})" for index, argv, _, _ in moved[:3])
        _, _, base, work = moved[0]
        raise AssertionError(f"{len(moved)} of {len(argvs)} ops differ: {ops}; "
                             f"first: base {base!r}, working tree {work!r}")
    return times


def summary(times: list[tuple[float, float]]) -> str:
    """Each side's median time per op, the median ratio (working tree / base)
    with its quartiles, and the ops faster on the working tree."""
    base_us, work_us = (statistics.median(side) * 1e6 for side in zip(*times))
    ratios = [work / base for base, work in times]
    low, median, high = statistics.quantiles(ratios, n=4)
    wins = sum(ratio < 1.0 for ratio in ratios)
    return (f"{len(times)} ops, outputs equal; median per op: base {base_us:.1f} us, working tree {work_us:.1f} us; "
            f"median ratio {median:.3f} (quartiles {low:.3f}, {high:.3f}), {wins}/{len(times)} faster")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
    workloads = importlib.import_module("workloads")
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    ops = parser.add_mutually_exclusive_group(required=True)
    ops.add_argument("--workload", choices=workloads.WORKLOADS)
    ops.add_argument("--corpus", action="store_true", help="the golden test's commands in place of a workload's ops")
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--base", default="HEAD", help="commit to compare against (default HEAD)")
    parser.add_argument("--rtol", type=float, metavar="R",
                        help="compare each number to R * max(1, |base|) and the text exactly (default: byte for byte)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        # the base commit's src/xxring, imported as BASE_PACKAGE
        export(args.base, Path(tmp), ["src/xxring"])
        (Path(tmp) / "src" / "xxring").rename(Path(tmp) / BASE_PACKAGE)
        sys.path.insert(0, tmp)
        base_cli = importlib.import_module(f"{BASE_PACKAGE}.cli")
        work_cli = importlib.import_module("xxring.cli")
        if args.corpus:
            label, (warmup, argvs) = "corpus", corpus_argvs()
        else:
            label = f"{args.workload} seed {args.seed}"
            warmup, argvs = workload_argvs(workloads.make_op, args.workload, args.seed, OPS)
        times = compare(base_cli.main, work_cli.main, warmup, argvs, args.rtol)
    equal = "byte for byte" if args.rtol is None else f"at rtol {args.rtol:g}"
    print(f"{label} vs {args.base}, outputs compared {equal}: {summary(times)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
