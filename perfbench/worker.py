"""In-process worker for the ``surface`` and ``propositions`` workloads.

Imports the program, runs one warm-up op, then runs ops of the workload
through ``xxring.cli.main`` in a closed loop (one client: the next op starts
when the previous one returns) and streams one JSON line per op to stdout.
The program's own stdout and stderr are captured in memory. Each op is
preceded by one untimed run of the workload's reference kernel
(``calibrate.py``), whose duration travels with the op, and one more run
follows the last op.

    python3 perfbench/worker.py --src SRC --workload surface --seed 1 \
        --seconds 30 --mode run --trace 0

``--mode setup`` stops after the warm-up op; the parent times it.
``--trace 1`` runs the first half of the time traced and the second half
untraced, so one process yields both the per-layer numbers and the traced
over untraced throughput.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback

from calibrate import reference_seconds
from tracer import KEEP_SPAN_OPS, Tracer
from workloads import make_op


def _emit(stream, record: dict) -> None:
    stream.write(json.dumps(record) + "\n")
    stream.flush()


def _run_op(main, argv) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:  # argparse rejects arguments by exiting
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the op failed; the parent counts it
            rc = None
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def _loop(stream, main, workload, seed, first_index, seconds, tracer):
    index = first_index
    deadline = time.perf_counter() + seconds
    while True:
        op = make_op(workload, seed, index)
        reference = reference_seconds(workload)
        start = time.perf_counter()
        rc, out, err = _run_op(main, op.argv)
        end = time.perf_counter()
        record = {"type": "op", "index": index, "start": start, "end": end, "ref": reference,
                  "rc": rc, "out": out, "err": err, "traced": tracer is not None}
        if tracer is not None:
            summary = tracer.flush_op()
            if index >= KEEP_SPAN_OPS:
                del summary["spans"]
            record["trace"] = summary
        _emit(stream, record)
        index += 1
        if end >= deadline:
            return index


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    stream = sys.stdout
    sys.path.insert(0, args.src)
    import xxring.cli

    _emit(stream, {"type": "imported", "t": time.monotonic(), "module": xxring.__file__})
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install_package()
    # the warm-up op fills lazy state and the page cache; its output is
    # the same kind as every timed op, and it is not timed
    rc, _, err = _run_op(xxring.cli.main, make_op(args.workload, args.seed, -1).argv)
    if tracer is not None:
        tracer.flush_op()
    _emit(stream, {"type": "ready", "t": time.monotonic(), "warmup_rc": rc, "warmup_err": err})
    if args.mode == "setup":
        return 0

    if tracer is None:
        _loop(stream, xxring.cli.main, args.workload, args.seed, 0, args.seconds, None)
    else:
        half = args.seconds / 2.0
        next_index = _loop(stream, xxring.cli.main, args.workload, args.seed, 0, half, tracer)
        tracer.uninstall()
        _loop(stream, xxring.cli.main, args.workload, args.seed, next_index, half, None)
    _emit(stream, {"type": "ref", "ref": reference_seconds(args.workload)})
    _emit(stream, {"type": "end",
                   "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
