"""Alternated benchmark pairs: a base commit against the working tree.

Runs the benchmark command of BENCHMARK.json (`perfbench/run.py`) with
`--trace 0` on two trees: a `git archive` copy of the base commit's `src`,
`perfbench` and `BENCHMARK.json` in a temporary directory, and the working
tree. Pair k (k = 1, 2, ...) runs seed k on both sides; odd pairs run the
base first, even pairs the working tree. Both sides run for the same
seconds, by default BENCHMARK.json's `run_seconds`. For each end-to-end
metric BENCHMARK.json declares, the script prints each side's median and
quartiles, how many pairs the working tree won (a tie counts for neither
side), and a verdict, the first of these that holds:

- gain: the working tree won at least 9 of every 10 pairs, and its median is
  better than the base's by more than the distance between the base's
  quartiles;
- worse: the working tree's median is worse than the base's by more than the
  metric's bound, a fraction of the base's median;
- unresolved: the distance between the base's quartiles exceeds the bound,
  so the runs spread too widely to tell, and some run of the working tree
  is no better than some base run;
- same.

    python tools/bench_pairs.py --workload surface --pairs 10
    python tools/bench_pairs.py --workload cold_cli --pairs 3 --base HEAD~1 --seconds 10

Each run writes its result file to its own tree's `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARCHIVED = ("src", "perfbench", "BENCHMARK.json")


def export(base: str, directory: Path, paths) -> None:
    """The base commit's copy of paths (files and directories of the repo), unpacked into directory."""
    archive = subprocess.run(["git", "archive", "--format=tar", base, *paths], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory, filter="data")


def _run(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One untraced benchmark run in tree: each metric's value, from the run's last stdout line."""
    done = subprocess.run([*command, "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
                           "--trace", "0"], cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"benchmark in {tree} exited with {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def verdict(better: str, bound: float, base: list[float], work: list[float]) -> tuple[int, str]:
    """The working tree's wins over the pairs (base[k], work[k]) of one metric,
    and the metric's verdict; `better` is "higher" or "lower"."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (w - b) > 0 for b, w in zip(base, work))
    low, base_median, high = statistics.quantiles(base, n=4)
    gap = sign * (statistics.median(work) - base_median)
    scale = abs(base_median) or 1.0
    if 10 * wins >= 9 * len(base) and gap > high - low:
        return wins, "gain"
    if -gap > bound * scale:
        return wins, "worse"
    # a spread wider than the bound tells nothing, unless every working-tree run beats every base run
    if high - low > bound * scale and min(sign * w for w in work) <= max(sign * b for b in base):
        return wins, "unresolved"
    return wins, "same"


def summary(metrics: list[dict], base_runs: list[dict[str, float]], work_runs: list[dict[str, float]]) -> list[str]:
    """One line per end-to-end metric (BENCHMARK.json's `end_to_end` entries)
    over the paired runs: each side's median [quartiles], the working
    tree's wins and the verdict."""
    lines = []
    for metric in metrics:
        name = metric["name"]
        base, work = ([run[name] for run in runs] for runs in (base_runs, work_runs))
        wins, word = verdict(metric["better"], metric["bound"], base, work)
        sides = [f"{label} {median:.4g} [{low:.4g}, {high:.4g}]"
                 for label, (low, median, high) in (("base", statistics.quantiles(base, n=4)),
                                                    ("working tree", statistics.quantiles(work, n=4)))]
        lines.append(f"{name} ({metric['unit']}, {metric['better']} is better, bound {metric['bound']:g}): "
                     f"{', '.join(sides)}; working tree won {wins}/{len(base)}; {word}")
    return lines


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--pairs", type=int, default=10, help="number of pairs, at least 2 (default 10)")
    parser.add_argument("--base", default="HEAD", help="commit to compare against (default HEAD)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help=f"run length of each side (default {spec['run_seconds']})")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    base_runs, work_runs = [], []
    with tempfile.TemporaryDirectory() as tmp:
        export(args.base, Path(tmp), ARCHIVED)
        for seed in range(1, args.pairs + 1):
            sides = [(Path(tmp), base_runs), (ROOT, work_runs)]
            for tree, runs in sides if seed % 2 else sides[::-1]:
                runs.append(_run(tree, spec["command"], args.workload, seed, args.seconds))
            print(f"pair {seed} ({'base' if seed % 2 else 'working tree'} first): "
                  + ", ".join(f"{m['name']} {base_runs[-1][m['name']]:.4g} -> {work_runs[-1][m['name']]:.4g}"
                              for m in spec["end_to_end"]), flush=True)
    print(f"{args.workload}, {args.pairs} pairs of {args.seconds:g} s, base {args.base} -> working tree:")
    print("\n".join(summary(spec["end_to_end"], base_runs, work_runs)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
