import sys
import types

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20020901)


def _called_from_package(frame) -> str | None:
    """The first xxring module on the call stack above frame, if any."""
    while frame is not None:
        name = frame.f_globals.get("__name__", "")
        if name.split(".")[0] == "xxring":
            return name
        frame = frame.f_back
    return None


@pytest.fixture
def ring_builds(monkeypatch):
    """Empty the ring cache, then record the size of every RingModel the
    package builds (`.builds`) and every numpy.linalg.eigh or eigvalsh call
    made from package code (`.eigh`); such a call also fails at once."""
    import xxring.eigensolver as eigensolver

    record = types.SimpleNamespace(builds=[], eigh=[])
    build = eigensolver.RingModel.__init__

    def counting_build(self, n):
        record.builds.append(n)
        build(self, n)

    def guarded(name, original):
        def call(*args, **kwargs):
            caller = _called_from_package(sys._getframe(1))
            if caller is not None:
                record.eigh.append((caller, name))
                raise AssertionError(f"{caller} called numpy.linalg.{name}")
            return original(*args, **kwargs)
        return call

    eigensolver.ring_model.cache_clear()
    monkeypatch.setattr(eigensolver.RingModel, "__init__", counting_build)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, guarded(name, getattr(np.linalg, name)))
    return record


@pytest.fixture
def reweight_calls(monkeypatch):
    """Record the ring size (a tuple of sizes for a stack) and the output
    shape of every thermal.reweight call, under every name the package's
    modules hold it by."""
    import sys

    import xxring.thermal as thermal

    calls = []
    original = thermal.reweight

    def counting(ring, j, b, t):
        block = original(ring, j, b, t)
        calls.append((ring.n if isinstance(ring, thermal.RingModel) else tuple(r.n for r in ring),
                      block.u.shape))
        return block

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "xxring" and getattr(module, "reweight", None) is original:
            monkeypatch.setattr(module, "reweight", counting)
    return calls
