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
    python tools/bench_pairs.py --workload cold_cli --write BENCH_label.json

Each run writes its result file to its own tree's `perfbench/results/`.
With `--write PATH` the script also runs one `--trace 1` run per side
(seed 1, the same seconds) and records the workload's entry in the JSON
file PATH, keeping the entries of other workloads already there: every
pair's metrics, each side's median and quartiles, the wins and the verdict
of each end-to-end metric, each side's per-layer self-time shares from its
traced run, and the environment (Python, numpy, nproc, both commits, the
seeds and the seconds).
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


def _run(tree: Path, command: list[str], workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run in tree, read from its stdout: each metric's value
    (`metrics`, from the last line), the environment block (the line before
    it) and, for a traced run, the per-layer self-time shares (`self_share`)."""
    done = subprocess.run([*command, "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
                           "--trace", str(trace)], cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"benchmark in {tree} exited with {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    shares = [json.loads(line.partition(": ")[2]) for line in lines if line.startswith("self_share: ")]
    return {"metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
            "environment": json.loads(lines[-2])["environment"], "self_share": shares[0] if shares else None}


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


def compared(metrics: list[dict], base_runs: list[dict[str, float]],
             work_runs: list[dict[str, float]]) -> dict[str, dict]:
    """Each end-to-end metric (BENCHMARK.json's `end_to_end` entries) over
    the paired runs, by name: its unit, direction and bound, each side's
    runs, median and quartiles, the working tree's wins and the verdict."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        sides = {}
        for side, runs in (("base", base_runs), ("working_tree", work_runs)):
            values = [run[name] for run in runs]
            low, median, high = statistics.quantiles(values, n=4)
            sides[side] = {"runs": values, "median": median, "quartiles": [low, high]}
        wins, word = verdict(metric["better"], metric["bound"], sides["base"]["runs"], sides["working_tree"]["runs"])
        out[name] = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"], **sides,
                     "wins": wins, "pairs": len(base_runs), "verdict": word}
    return out


def summary(metrics: list[dict], base_runs: list[dict[str, float]], work_runs: list[dict[str, float]]) -> list[str]:
    """One line per end-to-end metric over the paired runs (`compared`):
    each side's median [quartiles], the working tree's wins and the verdict."""
    lines = []
    for name, c in compared(metrics, base_runs, work_runs).items():
        sides = [f"{label} {c[side]['median']:.4g} [{c[side]['quartiles'][0]:.4g}, {c[side]['quartiles'][1]:.4g}]"
                 for label, side in (("base", "base"), ("working tree", "working_tree"))]
        lines.append(f"{name} ({c['unit']}, {c['better']} is better, bound {c['bound']:g}): "
                     f"{', '.join(sides)}; working tree won {c['wins']}/{c['pairs']}; {c['verdict']}")
    return lines


def write(path: Path, workload: str, entry: dict) -> None:
    """Record one workload's entry in the BENCH file at path, keeping the other workloads' entries."""
    data = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    data["workloads"][workload] = entry
    path.write_text(json.dumps(data, indent=1) + "\n")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--pairs", type=int, default=10, help="number of pairs, at least 2 (default 10)")
    parser.add_argument("--base", default="HEAD", help="commit to compare against (default HEAD)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help=f"run length of each side (default {spec['run_seconds']})")
    parser.add_argument("--write", type=Path, metavar="PATH",
                        help="record the pairs and one traced run per side in this BENCH JSON file")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    base_runs, work_runs, traced = [], [], {}
    with tempfile.TemporaryDirectory() as tmp:
        export(args.base, Path(tmp), ARCHIVED)
        for seed in range(1, args.pairs + 1):
            sides = [(Path(tmp), base_runs), (ROOT, work_runs)]
            for tree, runs in sides if seed % 2 else sides[::-1]:
                runs.append(_run(tree, spec["command"], args.workload, seed, args.seconds)["metrics"])
            print(f"pair {seed} ({'base' if seed % 2 else 'working tree'} first): "
                  + ", ".join(f"{m['name']} {base_runs[-1][m['name']]:.4g} -> {work_runs[-1][m['name']]:.4g}"
                              for m in spec["end_to_end"]), flush=True)
        if args.write:
            for side, tree in (("base", Path(tmp)), ("working_tree", ROOT)):
                traced[side] = _run(tree, spec["command"], args.workload, 1, args.seconds, trace=1)
    print(f"{args.workload}, {args.pairs} pairs of {args.seconds:g} s, base {args.base} -> working tree:")
    print("\n".join(summary(spec["end_to_end"], base_runs, work_runs)))
    if args.write:
        env = traced["working_tree"]["environment"]
        write(args.write, args.workload, {
            "metrics": compared(spec["end_to_end"], base_runs, work_runs),
            "self_share": {side: run["self_share"] for side, run in traced.items()},
            "environment": {"python": env["python"], "numpy": env["numpy"], "nproc": env["nproc"],
                            "base": _git("rev-parse", args.base),
                            # HEAD, marked when the benchmarked files differ from it
                            "working_tree": _git("rev-parse", "HEAD") + (
                                " with uncommitted changes" if _git("status", "--porcelain", "--", *ARCHIVED) else ""),
                            "seeds": list(range(1, args.pairs + 1)), "trace_seed": 1, "seconds": args.seconds},
        })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
