import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20020901)


@pytest.fixture
def eigh_calls(monkeypatch):
    """Empty the ring cache, then record the dimension of every
    eigh_symmetric call the package makes through its module global."""
    import xxring.eigensolver as eigensolver

    calls = []
    original = eigensolver.eigh_symmetric

    def counting(matrix):
        calls.append(np.shape(matrix)[0])
        return original(matrix)

    eigensolver.ring_model.cache_clear()
    monkeypatch.setattr(eigensolver, "eigh_symmetric", counting)
    return calls


@pytest.fixture
def reweight_calls(monkeypatch):
    """Record the ring size and point shape of every thermal.reweight call,
    under every name the package's modules hold it by."""
    import sys

    import xxring.thermal as thermal

    calls = []
    original = thermal.reweight

    def counting(ring, j, b, t, bond=(0, 1)):
        block = original(ring, j, b, t, bond)
        calls.append((ring.n, block.u.shape))
        return block

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "xxring" and getattr(module, "reweight", None) is original:
            monkeypatch.setattr(module, "reweight", counting)
    return calls
