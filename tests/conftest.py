import numpy as np
import pytest


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the matrices ``numpy.linalg.svd`` factors during the test."""
    calls = []
    real_svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls
