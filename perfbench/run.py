"""Benchmark of the xxring program: three seeded workloads, checked outputs.

    python3 perfbench/run.py --workload surface --seed 1 --seconds 30 --trace 0

Workloads (see README.md for the rationale and the layer-to-metric map):

* ``surface``: in-process ``xxring sweep`` at n=10, 2 fields x 40 T per op;
* ``propositions``: in-process ``xxring verify`` on rings 2..6, 8 samples;
* ``cold_cli``: a fresh ``python -m xxring`` process per op, cycling
  ``thermal``, ``ground`` and ``threshold`` at n = 11 and 12.

Each workload is a closed loop with one client. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` spends half the time traced and half
untraced and prints the per-layer metrics. Every op's output is checked
after the timed region. The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the environment block, and a full result file is written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# Linear-algebra threads, fixed here and recorded in every result. One
# thread keeps the second CPU of a small shared machine free for noise; the
# n <= 12 blocks gain little from a second thread.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

from calibrate import NOMINAL_MS, reference_seconds, scales  # noqa: E402
from checks import (CHECKS, check_n4_closed_forms, check_surface,  # noqa: E402
                    check_surface_row_oracle, parse_surface)
from traced_cli import MARKER  # noqa: E402
from tracer import KEEP_SPAN_OPS, LAYERS, layer_metrics  # noqa: E402
from workloads import IN_PROCESS, WORKLOADS, make_op, n4_probe_op  # noqa: E402

SETUP_SAMPLES = 7
OP_TIMEOUT_S = 120
TAIL_BEYOND = 10


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def tail_percentile(latencies: list[float], beyond: int = TAIL_BEYOND) -> tuple[int, float, int]:
    """(p, value, samples beyond) for the highest whole percentile p with at
    least ``beyond`` samples above its nearest-rank value."""
    xs = sorted(latencies)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = -(-p * n // 100)  # nearest rank, ceil(p n / 100)
        if n - rank >= beyond:
            return p, xs[rank - 1], n - rank
    # too few samples for any tail: fall back to the median's rank
    rank = -(-n // 2)
    return 50, xs[rank - 1], n - rank


# -- running ---------------------------------------------------------------

def _read_worker(proc) -> tuple[list[dict], list[str]]:
    records, log = [], []
    for line in proc.stdout:
        if line.startswith("{"):
            records.append(json.loads(line))
        else:
            log.append(line.rstrip())
    return records, log


def _spawn_worker(workload, seed, seconds, mode, trace):
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode, "--trace", str(trace)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                            env=child_env())
    try:
        records, log = _read_worker(proc)
        rc = proc.wait(timeout=OP_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if rc != 0:
        raise RuntimeError(f"worker exited with {rc}: {' | '.join(log[-20:])}")
    by_type = {}
    for rec in records:
        by_type.setdefault(rec["type"], []).append(rec)
    ready = by_type["ready"][0]
    if ready["warmup_rc"] != 0:
        raise RuntimeError(f"warm-up op failed: {ready['warmup_err'][-500:]}")
    return spawned, by_type


def run_in_process(workload, seed, seconds, trace) -> dict:
    # set-up samples are (seconds, reference seconds around them)
    setup = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            before = reference_seconds(workload)
            spawned, by_type = _spawn_worker(workload, seed, seconds, "setup", 0)
            ready = by_type["ready"][0]["t"] - spawned
            setup.append((ready, 0.5 * (before + reference_seconds(workload))))
    before = reference_seconds(workload)
    spawned, by_type = _spawn_worker(workload, seed, seconds, "run", trace)
    ops = by_type["op"]
    setup.append((by_type["ready"][0]["t"] - spawned, 0.5 * (before + ops[0]["ref"])))
    startup_s = by_type["imported"][0]["t"] - spawned
    return {"records": ops, "final_ref": by_type["ref"][0]["ref"], "setup": setup,
            "startup_ms_total": 1e3 * startup_s,
            "peak_rss_kb": by_type["end"][0]["peak_rss_kb"],
            "module": by_type["imported"][0]["module"]}


def _cold_op(op, traced, keep_spans) -> dict:
    if traced:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(SRC), "1" if keep_spans else "0"]
    else:
        cmd = [sys.executable, "-m", "xxring"]
    reference = reference_seconds("cold_cli")
    start = time.monotonic()
    done = subprocess.run(cmd + list(op.argv), capture_output=True, text=True,
                          env=child_env(), timeout=OP_TIMEOUT_S)
    end = time.monotonic()
    record = {"type": "op", "index": op.index, "start": start, "end": end, "ref": reference,
              "rc": done.returncode, "out": done.stdout, "err": done.stderr, "traced": traced}
    if traced:
        lines = done.stderr.splitlines()
        summaries = [line for line in lines if line.startswith(MARKER)]
        if summaries:
            record["trace"] = json.loads(summaries[-1][len(MARKER):])
            record["trace"]["startup_ms"] = 1e3 * (record["trace"].pop("imported") - start)
            record["err"] = "\n".join(line for line in lines if not line.startswith(MARKER))
    return record


def _cold_loop(seed, first_index, seconds, traced, records) -> int:
    index = first_index
    deadline = time.monotonic() + seconds
    while True:
        record = _cold_op(make_op("cold_cli", seed, index), traced, index < KEEP_SPAN_OPS)
        records.append(record)
        index += 1
        if record["end"] >= deadline:
            return index


def run_cold_cli(seed, seconds, trace) -> dict:
    setup = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            before = reference_seconds("cold_cli")
            start = time.monotonic()
            subprocess.run([sys.executable, "-c", "import xxring"], env=child_env(),
                           check=True, timeout=OP_TIMEOUT_S)
            took = time.monotonic() - start
            setup.append((took, 0.5 * (before + reference_seconds("cold_cli"))))
    records: list[dict] = []
    if trace:
        next_index = _cold_loop(seed, 0, seconds / 2.0, True, records)
        _cold_loop(seed, next_index, seconds / 2.0, False, records)
    else:
        _cold_loop(seed, 0, seconds, False, records)
    # every child has been waited for, so this is the largest child's peak
    peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"records": records, "final_ref": reference_seconds("cold_cli"), "setup": setup,
            "peak_rss_kb": peak_rss_kb}


# -- checking ---------------------------------------------------------------

def check_records(workload, seed, records) -> list[dict]:
    """Check every op; returns the failures as {index, reason}."""
    check = CHECKS[workload]
    failures = []
    for rec in records:
        reason = check(make_op(workload, seed, rec["index"]), rec["rc"], rec["out"], rec["err"])
        rec["ok"] = reason is None
        if reason is not None:
            failures.append({"index": rec["index"], "reason": reason})
    return failures


def surface_extra_checks(seed, records) -> list[dict]:
    """Brute-force one seeded row of one op, and run the four-site probe
    against the oracle and the closed forms. Both count as ops."""
    from xxring.cli import main as cli_main

    failures = []
    rng = random.Random(f"surface-oracle:{seed}")
    rec = rng.choice(records)
    op = make_op("surface", seed, rec["index"])
    if rec["ok"]:
        row = rng.choice(parse_surface(rec["out"]))
        reason = check_surface_row_oracle(op, row)
        if reason is not None:
            rec["ok"] = False
            failures.append({"index": rec["index"], "reason": f"brute force: {reason}"})

    probe = n4_probe_op(seed)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(list(probe.argv))
    reason = check_surface(probe, rc, out.getvalue())
    if reason is None:
        reason = check_n4_closed_forms(probe, out.getvalue())
    if reason is None:
        reason = check_surface_row_oracle(probe, rng.choice(parse_surface(out.getvalue())))
    if reason is not None:
        failures.append({"index": probe.index, "reason": reason})
    return failures


# -- reporting --------------------------------------------------------------

def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, when it can be asked."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload, seed, seconds, trace, op_count) -> dict:
    commit = "unknown"  # a checkout without .git identifies itself by source_sha256
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "xxring").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "ops": op_count,
    }


def op_scales(workload, run) -> list[float]:
    """Per-op factors to nominal speed, in the order the ops ran."""
    return scales(workload, [r["ref"] for r in run["records"]] + [run["final_ref"]])


def scaled_ms(records, factors) -> list[float]:
    return [1e3 * (r["end"] - r["start"]) * f for r, f in zip(records, factors)]


def end_to_end(workload, run: dict, records: list[dict], attempted: int,
               failed: int) -> tuple[dict, dict]:
    latencies = scaled_ms(records, op_scales(workload, run))
    p, tail_ms, beyond = tail_percentile(latencies)
    nominal_s = NOMINAL_MS[workload] / 1e3
    setup = [took * nominal_s / ref for took, ref in run["setup"]]
    metrics = {
        "ops_per_s": (1e3 * len(records) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024.0, "MB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }
    raw_ms = [1e3 * (r["end"] - r["start"]) for r in records]
    detail = {
        "tail_percentile": p, "tail_samples_beyond": beyond, "timed_ops": len(records),
        "error_rate": failed / attempted,
        "setup_samples_s": setup,
        "speed": statistics.median(op_scales(workload, run)) ** -1,
        "wall_ops_per_s": len(records) / (records[-1]["end"] - records[0]["start"]),
        "wall_op_p50_ms": statistics.median(raw_ms),
        "wall_setup_s": statistics.median(took for took, _ in run["setup"]),
    }
    return metrics, detail


PER_LAYER_UNITS = {
    "self_ms": "ms", "calls": "count", "levels_reweighted": "count", "calls_per_point": "ratio",
    "dim3_sum": "count", "max_dim": "count", "vector_mb": "MB", "repeat_ratio": "ratio",
    "labels": "count", "entries": "count", "bisection_steps": "count", "startup_ms": "ms",
    "overhead": "ratio", "coverage": "ratio",
}


def repeat_ratio_by_command(traces) -> dict[str, float]:
    """eigensolver.repeat_ratio over the traced ops of each command."""
    totals: dict[str, list[int]] = {}
    for t in traces:
        pair = totals.setdefault(t["command"], [0, 0])
        pair[0] += t["counts"].get("eigensolver.repeats", 0)
        pair[1] += t["counts"].get("eigensolver.blocks", 0)
    return {command: repeats / blocks for command, (repeats, blocks) in totals.items() if blocks}


def per_layer(workload, seed, run: dict, records: list[dict]) -> tuple[dict, dict]:
    factors = op_scales(workload, run)
    traced, untraced, traces = [], [], []
    covered_ms = 0.0  # unscaled, to compare with the unscaled op wall time
    for rec, factor in zip(records, factors):
        rec["scale"] = factor
        if not rec["traced"]:
            untraced.append(rec)
        elif "trace" in rec:
            traced.append(rec)
            trace = dict(rec["trace"], command=make_op(workload, seed, rec["index"]).command)
            covered_ms += sum(trace["self_ms"].values()) + trace.get("startup_ms", 0.0)
            trace["self_ms"] = {k: v * factor for k, v in trace["self_ms"].items()}
            trace["startup_ms"] = trace.get("startup_ms", 0.0) * factor
            traces.append(trace)
    values = layer_metrics(traces, [t for t in traces if t["command"] == "threshold"])
    if workload in IN_PROCESS:
        # one worker start serves every op of the run
        values["process.startup_ms"] = run["startup_ms_total"] * factors[0] / len(records)
    else:
        values["process.startup_ms"] = sum(t["startup_ms"] for t in traces) / len(traces)

    def rate(recs):
        return 1e3 * len(recs) / sum(scaled_ms(recs, [r["scale"] for r in recs]))

    values["trace.overhead"] = rate(traced) / rate(untraced)
    values["trace.coverage"] = covered_ms / sum(1e3 * (r["end"] - r["start"]) for r in traced)
    metrics = {name: (value, PER_LAYER_UNITS[name.split(".", 1)[1]]) for name, value in values.items()}
    total_self = sum(values[f"{layer}.self_ms"] for layer in LAYERS)
    detail = {
        "traced_ops": len(traced), "untraced_ops": len(untraced),
        "self_share": {layer: values[f"{layer}.self_ms"] / total_self for layer in LAYERS},
        "eigh_repeat_ratio_by_command": repeat_ratio_by_command(traces),
        "spans_sample": [t["spans"] for t in traces if "spans" in t],
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "xxring" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC / 'xxring'}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    if args.workload in IN_PROCESS:
        run = run_in_process(args.workload, args.seed, args.seconds, args.trace)
        if not run["module"].startswith(str(SRC)):
            print(f"error: imported xxring from {run['module']}, not {SRC}", file=sys.stderr)
            return 2
    else:
        run = run_cold_cli(args.seed, args.seconds, args.trace)
    records = run["records"]

    sys.path.insert(0, str(SRC))
    failures = check_records(args.workload, args.seed, records)
    attempted = len(records)
    if args.workload == "surface":
        failures += surface_extra_checks(args.seed, records)
        attempted += 1  # the four-site probe
    failed = len({f["index"] for f in failures})

    if args.trace:
        metrics, detail = per_layer(args.workload, args.seed, run, records)
    else:
        metrics, detail = end_to_end(args.workload, run, records, attempted, failed)
    env = environment(args.workload, args.seed, args.seconds, args.trace, len(records))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}

    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    ops = [{"index": r["index"], "command": make_op(args.workload, args.seed, r["index"]).command,
            "ms": 1e3 * (r["end"] - r["start"]), "ref_ms": 1e3 * r["ref"], "traced": r["traced"],
            "ok": r["ok"]}
           for r in records]
    with open(RESULTS / name, "w") as handle:
        json.dump({"environment": env, "result": result, "detail": detail,
                   "failures": failures, "ops": ops}, handle, indent=1)
    for failure in failures[:10]:
        print(f"FAILED op {failure['index']}: {failure['reason']}")
    for key, value in detail.items():
        if key != "spans_sample":
            print(f"{key}: {json.dumps(value)}")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
