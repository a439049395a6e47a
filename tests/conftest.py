import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import problems  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def regression_specs():
    return problems.regression_specs()


@pytest.fixture
def smooth_suite():
    return problems.smooth_suite()


@pytest.fixture
def inverse_ffts(monkeypatch):
    """The length of every ``np.fft.ifft`` the package runs while the test does."""
    lengths = []
    inverse = np.fft.ifft

    def counted(a, n=None, axis=-1, *args, **kwargs):
        lengths.append(np.shape(a)[axis] if n is None else n)
        return inverse(a, n, axis, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", counted)
    return lengths
