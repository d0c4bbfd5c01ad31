"""Run the benchmark over several seeds and write one trajectory point.

    python3 perfbench/trajectory.py --label seed --seeds 1-10 --seconds 30 \
        --out perfbench/BENCH_seed.json

For each workload this runs ``run.py --trace 0`` once per seed and reports
every end-to-end metric's median, quartiles and quartile spread (distance
between the quartiles over the median, as ``statistics.quantiles(n=4)``
gives them), then one ``--trace 1`` run on the first seed for the per-layer
metrics. Runs are sequential; nothing else should load the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The result file of one run of ``run.py``."""
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                   capture_output=True, text=True, cwd=ROOT, timeout=900, check=True)
    with open(HERE / "results" / f"{workload}-seed{seed}-trace{trace}.json") as handle:
        return json.load(handle)


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--workloads", default="surface,propositions,cold_cli")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    point = {"label": args.label, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(run_once(workload, seed, args.seconds, 0))
            metrics = runs[-1]["result"]["metrics"]
            print(workload, seed, json.dumps({k: v["value"] for k, v in metrics.items()}),
                  flush=True)
        traced = run_once(workload, _seeds(args.seeds)[0], args.seconds, 1)
        results = [r["result"] for r in runs]
        point["environment"] = {k: v for k, v in runs[0]["environment"].items()
                                if k not in ("workload", "seed", "trace", "ops")}
        point["workloads"][workload] = {
            "runs": len(results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {name: dict(summarize([r["metrics"][name]["value"] for r in results]),
                                      unit=results[0]["metrics"][name]["unit"])
                           for name in results[0]["metrics"]},
            "tail_percentiles": [r["detail"]["tail_percentile"] for r in runs],
            "speed": [r["detail"]["speed"] for r in runs],
            "per_layer": traced["result"]["metrics"],
            "self_share": traced["detail"]["self_share"],
            "eigh_repeat_ratio_by_command": traced["detail"]["eigh_repeat_ratio_by_command"],
        }
    with open(args.out, "w") as handle:
        json.dump(point, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
