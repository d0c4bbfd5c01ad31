"""tools/bench_pairs.py: the verdict and summary of paired benchmark runs,
on fixed numbers; no benchmark runs here."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
try:
    import bench_pairs
finally:
    del sys.path[0]

BASE = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 100.0]


@pytest.mark.parametrize("better, bound, base, work, want", [
    # 10/10 wins by a median gap of 12 over the base's quartile distance of 2.5
    ("higher", 0.2, BASE, [b + 12.0 for b in BASE], (10, "gain")),
    # 9/10 wins is enough, ties and losses count for neither side
    ("higher", 0.2, BASE, [b + 12.0 for b in BASE[:9]] + [BASE[9]], (9, "gain")),
    ("higher", 0.2, BASE, [b + 12.0 for b in BASE[:8]] + [BASE[8] - 1.0, BASE[9]], (8, "same")),
    # 10/10 wins inside the base's own spread are no gain
    ("higher", 0.2, BASE, [b + 1.0 for b in BASE], (10, "same")),
    # lower is better: the same numbers read the other way
    ("lower", 0.2, BASE, [b + 12.0 for b in BASE], (0, "same")),
    ("lower", 0.1, BASE, [b + 12.0 for b in BASE], (0, "worse")),
    ("higher", 0.1, BASE, [b - 12.0 for b in BASE], (0, "worse")),
    # a base spread (2.5 of 100) wider than the bound can tell nothing short of a gain ...
    ("higher", 0.02, BASE, [b - 1.0 for b in BASE], (0, "unresolved")),
    ("higher", 0.02, BASE, [b + 12.0 for b in BASE], (10, "gain")),
    # ... unless every run of the working tree beats every base run (a base spread of 10 of 105)
    ("higher", 0.02, [100.0] * 5 + [110.0] * 5, [111.0] * 10, (10, "same")),
], ids=["gain", "nine_of_ten", "eight_of_ten", "inside_spread", "lower_same", "lower_worse", "higher_worse",
        "unresolved", "gain_over_spread", "every_run_better"])
def test_verdict_counts_wins_and_reads_the_bound(better, bound, base, work, want):
    assert bench_pairs.verdict(better, bound, base, work) == want


def test_summary_gives_each_sides_quartiles_the_wins_and_the_verdict():
    metrics = [m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
               if m["name"] in ("ops_per_s", "op_p50_ms")]
    base = [{"ops_per_s": 700.0, "op_p50_ms": 1.4}, {"ops_per_s": 800.0, "op_p50_ms": 1.2},
            {"ops_per_s": 750.0, "op_p50_ms": 1.3}]
    work = [{"ops_per_s": 900.0, "op_p50_ms": 1.3}, {"ops_per_s": 800.0, "op_p50_ms": 1.3},
            {"ops_per_s": 850.0, "op_p50_ms": 1.3}]
    assert bench_pairs.summary(metrics, base, work) == [
        "ops_per_s (1/s, higher is better, bound 0.2): base 750 [700, 800], working tree 850 [800, 900]; "
        "working tree won 2/3; same",
        "op_p50_ms (ms, lower is better, bound 0.25): base 1.3 [1.2, 1.4], working tree 1.3 [1.3, 1.3]; "
        "working tree won 1/3; same",
    ]


def test_write_records_each_workload_with_its_runs_quartiles_wins_and_verdict(tmp_path):
    metrics = [m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
               if m["name"] in ("ops_per_s", "op_p50_ms")]
    base = [{"ops_per_s": 700.0, "op_p50_ms": 1.4}, {"ops_per_s": 800.0, "op_p50_ms": 1.2},
            {"ops_per_s": 750.0, "op_p50_ms": 1.3}]
    work = [{"ops_per_s": 900.0, "op_p50_ms": 1.3}, {"ops_per_s": 800.0, "op_p50_ms": 1.3},
            {"ops_per_s": 850.0, "op_p50_ms": 1.3}]
    shares = {"base": {"thermal": 0.75, "cli": 0.25}, "working_tree": {"thermal": 0.5, "cli": 0.5}}
    environment = {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "base": "a" * 40,
                   "working_tree": "b" * 40, "seeds": [1, 2, 3], "trace_seed": 1, "seconds": 30.0}
    path = tmp_path / "BENCH_label.json"
    path.write_text(json.dumps({"workloads": {"surface": {"kept": True}}}))
    entry = {"metrics": bench_pairs.compared(metrics, base, work), "self_share": shares, "environment": environment}
    bench_pairs.write(path, "cold_cli", entry)
    data = json.loads(path.read_text())
    assert data["workloads"]["surface"] == {"kept": True}
    written = data["workloads"]["cold_cli"]
    assert written["self_share"] == shares and written["environment"] == environment
    assert written["metrics"]["ops_per_s"] == {
        "unit": "1/s", "better": "higher", "bound": 0.2,
        "base": {"runs": [700.0, 800.0, 750.0], "median": 750.0, "quartiles": [700.0, 800.0]},
        "working_tree": {"runs": [900.0, 800.0, 850.0], "median": 850.0, "quartiles": [800.0, 900.0]},
        "wins": 2, "pairs": 3, "verdict": "same"}
    assert written["metrics"]["op_p50_ms"]["wins"] == 1 and written["metrics"]["op_p50_ms"]["verdict"] == "same"
    # a second write of the workload replaces its entry and keeps the others
    bench_pairs.write(path, "cold_cli", {"metrics": {}})
    assert json.loads(path.read_text())["workloads"] == {"surface": {"kept": True}, "cold_cli": {"metrics": {}}}
