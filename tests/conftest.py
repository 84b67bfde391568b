import numpy as np
import pytest


def _shapes_of_calls(monkeypatch, name: str) -> list:
    """Shapes of the arrays ``numpy.linalg.<name>`` factors during the test."""
    calls = []
    real = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes of the matrices ``numpy.linalg.svd`` factors during the test."""
    return _shapes_of_calls(monkeypatch, "svd")


@pytest.fixture
def qr_calls(monkeypatch):
    """Shapes of the arrays ``numpy.linalg.qr`` factors during the test: a
    stack of matrices has a leading count."""
    return _shapes_of_calls(monkeypatch, "qr")
