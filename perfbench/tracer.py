"""Layer tracer that wraps the program's public functions from outside.

Every public module-level function of each layer module is replaced by a
wrapper that opens a span on entry and closes it on exit. ``from .x import
f`` copies the name ``f`` into the importing module (and into the package
``__init__``), so the wrapper is rebound under every name in every module of
the package that refers to the original function. Calls between public
functions of one module go through module globals and are captured too;
private helpers stay inside their caller's self time.

A span's self time is its duration minus the durations of its direct
children, so the self times of one op sum to the duration of its root span.
Counters are taken at the same boundaries, from the arguments and results of
the wrapped calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("basis", "hamiltonian", "eigensolver", "thermal", "entanglement", "experiments", "cli")
PACKAGE = "xxring"

# thermal entry points whose second argument is a temperature
_THERMAL_AT_T = ("observables", "correlator_xx_direct", "reduced_pair_density",
                 "pair_state_probabilities")
# spans of this many ops per run are kept verbatim for the results file
KEEP_SPAN_OPS = 3


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Spans and counters for one process; ``flush_op`` closes an op."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # [layer, start, child_seconds, span index]
        self._bindings: list[tuple[object, str, object]] = []
        self._hooks = {
            ("basis", "enumerate_sector"): self._on_enumerate,
            ("hamiltonian", "build_sector_hamiltonian"): self._on_build,
            ("eigensolver", "eigh_symmetric"): self._on_eigh,
            ("thermal", "ground_state_reduced"): self._on_ground_reduced,
            ("experiments", "thermal_concurrence"): self._on_thermal_concurrence,
        }
        for name in _THERMAL_AT_T:
            self._hooks[("thermal", name)] = self._on_thermal_at_t
        # (n, r) blocks seen in this process, for the repeat ratios
        self._seen: dict[str, set] = defaultdict(set)
        self._reset_op()

    def _reset_op(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.max_dim = 0
        self._blocks: dict[int, tuple[object, tuple[int, int]]] = {}
        self._points: dict[tuple[int, float], object] = {}

    # -- installation ---------------------------------------------------

    def install(self, layer_modules: dict, namespaces) -> None:
        """Wrap the public functions of each layer module and rebind every
        name under which any of ``namespaces`` holds one of them."""
        wrappers = {}
        for layer, module in layer_modules.items():
            for name, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(layer, name, obj)
        for space in namespaces:
            for attr, value in list(vars(space).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._bindings.append((space, attr, value))
                    setattr(space, attr, wrapper)

    def install_package(self) -> None:
        """Trace every layer module of the imported program package."""
        layer_modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        namespaces = [module for name, module in sorted(sys.modules.items())
                      if name == PACKAGE or name.startswith(PACKAGE + ".")]
        self.install(layer_modules, namespaces)

    def uninstall(self) -> None:
        for space, attr, original in reversed(self._bindings):
            setattr(space, attr, original)
        self._bindings.clear()

    def _wrap(self, layer: str, name: str, fn):
        hook = self._hooks.get((layer, name))
        span_name = f"{layer}.{name}"
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][3] if stack else -1
            self.calls[layer] += 1
            stack.append([layer, clock(), 0.0, len(self.spans)])
            self.spans.append(None)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                _, start, child, index = stack.pop()
                duration = end - start
                self.self_s[layer] += duration - child
                if stack:
                    stack[-1][2] += duration
                self.spans[index] = (span_name, start, end, parent)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # -- counters -------------------------------------------------------

    def _repeat(self, layer: str, key) -> None:
        seen = self._seen[layer]
        self.counts[f"{layer}.blocks"] += 1
        if key in seen:
            self.counts[f"{layer}.repeats"] += 1
        else:
            seen.add(key)

    def _on_enumerate(self, args, kwargs, result):
        self.counts["basis.labels"] += len(result)
        self._repeat("basis", (result.n, result.r))

    def _on_build(self, args, kwargs, result):
        dim = len(result.basis)
        key = (result.basis.n, result.basis.r)
        self.counts["hamiltonian.entries"] += dim * dim
        self._repeat("hamiltonian", key)
        # the block's (n, r) travels with its matrix into eigh_symmetric
        self._blocks[id(result.entries)] = (result.entries, key)

    def _on_eigh(self, args, kwargs, result):
        matrix = _arg(args, kwargs, 0, "matrix")
        dim = int(result.values.shape[0])
        self.counts["eigensolver.dim3_sum"] += dim ** 3
        self.counts["eigensolver.vector_bytes"] += int(result.vectors.nbytes)
        self.max_dim = max(self.max_dim, dim)
        block = self._blocks.get(id(matrix))
        if block is not None and block[0] is matrix:
            self._repeat("eigensolver", block[1])
        else:
            self.counts["eigensolver.blocks"] += 1  # not a sector block: never a repeat

    def _on_thermal_at_t(self, args, kwargs, result):
        spectrum = _arg(args, kwargs, 0, "spectrum")
        t = _arg(args, kwargs, 1, "t")
        self.counts["thermal.levels_reweighted"] += 1 << spectrum.params.n
        # the spectrum is held so its id cannot be reused within the op
        self._points[(id(spectrum), float(t))] = spectrum

    def _on_ground_reduced(self, args, kwargs, result):
        spectrum = _arg(args, kwargs, 0, "spectrum")
        self._points[(id(spectrum), 0.0)] = spectrum

    def _on_thermal_concurrence(self, args, kwargs, result):
        self.counts["experiments.thermal_concurrence"] += 1

    # -- per op ---------------------------------------------------------

    def flush_op(self) -> dict:
        """Summary of the op that just ended; per-op state starts afresh."""
        if self._stack:
            raise RuntimeError("flush_op inside an open span")
        counts = dict(self.counts)
        counts["thermal.points"] = len(self._points)
        summary = {
            "self_ms": {layer: 1e3 * s for layer, s in self.self_s.items()},
            "calls": dict(self.calls),
            "counts": counts,
            "max_dim": self.max_dim,
            "spans": self.spans,
        }
        self._reset_op()
        return summary


def layer_metrics(op_traces: list[dict], threshold_ops: list[dict]) -> dict[str, float]:
    """Per-op layer metrics over the traced ops of a run.

    ``threshold_ops`` are the traces of the ops that ran ``threshold``;
    bisection steps are counted over those alone.
    """
    ops = len(op_traces)
    self_ms: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    max_dim = 0
    for tr in op_traces:
        self_ms.update(tr["self_ms"])
        calls.update(tr["calls"])
        counts.update(tr["counts"])
        max_dim = max(max_dim, tr["max_dim"])

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"{layer}.self_ms": self_ms[layer] / ops for layer in LAYERS}
    out.update({
        "thermal.calls": calls["thermal"] / ops,
        "thermal.levels_reweighted": counts["thermal.levels_reweighted"] / ops,
        "thermal.calls_per_point": ratio(calls["thermal"], counts["thermal.points"]),
        "eigensolver.calls": calls["eigensolver"] / ops,
        "eigensolver.dim3_sum": counts["eigensolver.dim3_sum"] / ops,
        "eigensolver.max_dim": float(max_dim),
        "eigensolver.vector_mb": counts["eigensolver.vector_bytes"] / 1e6 / ops,
        "eigensolver.repeat_ratio": ratio(counts["eigensolver.repeats"], counts["eigensolver.blocks"]),
        "basis.labels": counts["basis.labels"] / ops,
        "basis.repeat_ratio": ratio(counts["basis.repeats"], counts["basis.blocks"]),
        "hamiltonian.entries": counts["hamiltonian.entries"] / ops,
        "hamiltonian.repeat_ratio": ratio(counts["hamiltonian.repeats"], counts["hamiltonian.blocks"]),
        "entanglement.calls": calls["entanglement"] / ops,
        "experiments.bisection_steps": ratio(
            sum(tr["counts"].get("experiments.thermal_concurrence", 0) for tr in threshold_ops),
            len(threshold_ops)),
    })
    return out
