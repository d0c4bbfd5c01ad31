"""Traced stand-in for ``python -m xxring``, one fresh process per op.

Installs the layer tracer after the program is imported and before
``xxring.cli.main`` runs, then writes the op's trace summary as the last
line of stderr, prefixed with ``PERFBENCH_TRACE``. With KEEP_SPANS set to 1
the summary carries the op's spans as well.

    python3 perfbench/traced_cli.py SRC KEEP_SPANS thermal --n 12 --j=1 --b=0.5 --t=1
"""

from __future__ import annotations

import json
import sys
import time

MARKER = "PERFBENCH_TRACE "


def main() -> int:
    src, keep_spans, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, src)
    import xxring.cli

    imported = time.monotonic()
    from tracer import Tracer

    tracer = Tracer()
    tracer.install_package()
    try:
        rc = xxring.cli.main(argv)
    finally:
        summary = tracer.flush_op()
        if not keep_spans:
            summary.pop("spans")
        summary["imported"] = imported
        sys.stdout.flush()
        sys.stderr.write(MARKER + json.dumps(summary) + "\n")
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
