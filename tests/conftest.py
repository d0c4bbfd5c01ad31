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
