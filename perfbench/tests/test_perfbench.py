"""Self-tests of the benchmark: seeded ops, failure counting, trace accounting.

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from checks import check_cold, parse_surface  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Op, make_op  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_ops(workload):
    first = [make_op(workload, 7, i) for i in range(-1, 40)]
    again = [make_op(workload, 7, i) for i in range(-1, 40)]
    other = [make_op(workload, 8, i) for i in range(-1, 40)]
    assert first == again
    assert first != other


def test_cold_cli_blocks_fix_the_cost_groups():
    for block in range(5):
        ops = [make_op("cold_cli", 3, 6 * block + k) for k in range(6)]
        assert [op.command for op in ops] == ["thermal", "ground", "threshold"] * 2
        assert sorted(op.n for op in ops if op.command == "thermal") == [11, 12]
        assert {op.n for op in ops if op.command != "thermal"} == {12}


def _run_cli(argv):
    from xxring.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(list(argv))
    return rc, out.getvalue()


def _perturb_column(text, row, column, delta):
    lines = text.splitlines()
    col = lines[0].split(",").index(column)
    fields = lines[row + 1].split(",")
    fields[col] = format(float(fields[col]) + delta, ".12g")
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_perturbed_gxx_counts_as_failed_op():
    ops = [make_op("surface", 11, i) for i in range(2)]
    records = []
    for op in ops:
        rc, out = _run_cli(op.argv)
        records.append({"index": op.index, "rc": rc, "out": out, "err": ""})
    assert run.check_records("surface", 11, records) == []

    records[1]["out"] = _perturb_column(records[1]["out"], 17, "Gxx", 1e-6)
    failures = run.check_records("surface", 11, records)
    assert [f["index"] for f in failures] == [1]
    assert "energy relation" in failures[0]["reason"]
    assert [r["ok"] for r in records] == [True, False]


def test_brute_force_oracle_catches_wrong_row():
    op = make_op("surface", 11, 0)
    _, out = _run_cli(op.argv)
    from checks import check_surface_row_oracle

    row = parse_surface(out)[3]
    assert check_surface_row_oracle(op, row) is None
    assert check_surface_row_oracle(op, dict(row, concurrence=row["concurrence"] + 1e-6))


def test_perturbed_cold_thermal_output_fails():
    op = Op("cold_cli", 0, ("thermal", "--n", "6", "--j=-1.25", "--b=0.5", "--t=0.8"),
            n=6, j=-1.25, b=(0.5,), t=0.8)
    rc, out = _run_cli(op.argv)
    assert check_cold(op, rc, out) is None
    lines = [line if not line.startswith("Gxx") else
             f"Gxx         = {float(line.split('=')[1]) + 1e-6:.12g}" for line in out.splitlines()]
    assert "energy relation" in check_cold(op, rc, "\n".join(lines))
    assert check_cold(op, 1, out).startswith("exit code")


def test_threshold_check_brackets():
    op = Op("cold_cli", 0, ("threshold", "--n", "6", "--j=1.0", "--b=0.3"), n=6, j=1.0, b=(0.3,))
    rc, out = _run_cli(op.argv)
    assert check_cold(op, rc, out) is None
    assert check_cold(op, rc, f"{float(out) + 0.01:.4f}\n") is not None


def _stub_package():
    """A two-layer stub package whose call nesting and costs are known."""
    now = [0.0]
    pkg, alpha, beta = (types.ModuleType(name) for name in ("stub", "stub.alpha", "stub.beta"))
    beta.now = alpha.now = now
    exec("def leaf():\n    now[0] += 0.5\n"
         "def inner():\n    now[0] += 2.0\n    _helper()\n    leaf()\n"
         "def _helper():\n    now[0] += 0.25\n", beta.__dict__)
    alpha.inner = beta.inner  # as `from .beta import inner`
    exec("def outer():\n    now[0] += 1.0\n    inner()\n    now[0] += 3.0\n", alpha.__dict__)
    pkg.inner, pkg.outer = beta.inner, alpha.outer  # as the package __init__ does
    return now, pkg, alpha, beta


def test_tracer_self_time_on_stub_nesting():
    now, pkg, alpha, beta = _stub_package()
    tracer = Tracer(clock=lambda: now[0])
    tracer.install({"alpha": alpha, "beta": beta}, [pkg, alpha, beta])
    pkg.outer()
    summary = tracer.flush_op()
    # outer: 1 + 3 of its own; inner: 2 plus the private helper's 0.25,
    # and leaf 0.5 is a separate beta span nested in inner
    assert summary["self_ms"] == pytest.approx({"alpha": 4000.0, "beta": 2750.0})
    assert summary["calls"] == {"alpha": 1, "beta": 2}
    names = [(name, parent) for name, _, _, parent in summary["spans"]]
    assert names == [("alpha.outer", -1), ("beta.inner", 0), ("beta.leaf", 1)]
    start, end = summary["spans"][0][1:3]
    assert sum(summary["self_ms"].values()) == pytest.approx(1e3 * (end - start))

    tracer.uninstall()
    pkg.outer()
    assert tracer.flush_op()["calls"] == {}


def test_tail_percentile_keeps_ten_beyond():
    p, value, beyond = run.tail_percentile([float(k) for k in range(1, 201)])
    assert (p, value, beyond) == (95, 190.0, 10)
    p, value, beyond = run.tail_percentile([float(k) for k in range(1, 56)])
    assert beyond >= 10 and p == 81


@pytest.mark.parametrize("workload, seconds, floor", [("surface", 2, 0.98), ("cold_cli", 3, 0.85)])
def test_traced_run_self_times_cover_op_wall(workload, seconds, floor):
    """Layer self times (plus, per process, interpreter start-up) account for
    the traced op wall time: within 2% in process, and within 15% for a
    fresh process, whose interpreter teardown no span covers."""
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "5", "--seconds", str(seconds), "--trace", "1"],
                          capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    coverage = result["metrics"]["trace.coverage"]["value"]
    assert floor <= coverage <= 1.0 + 1e-9
