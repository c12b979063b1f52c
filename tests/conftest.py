import numpy as np
import pytest

from balsel import matkernel


@pytest.fixture
def schur_calls(monkeypatch):
    """Record the size of every Schur decomposition made via matkernel."""
    calls = []
    inner = matkernel.schur

    def counting(a):
        calls.append(np.shape(a)[0])
        return inner(a)

    monkeypatch.setattr(matkernel, "schur", counting)
    return calls
