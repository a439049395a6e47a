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
    """Every inverse FFT the package runs while the test does, as (name,
    length): ``"ifft"`` or ``"irfft"``, and the length of the transform."""
    transforms = []

    def counted(name, length_of):
        inverse = getattr(np.fft, name)

        def run(a, n=None, axis=-1, *args, **kwargs):
            transforms.append((name, length_of(np.shape(a)[axis]) if n is None else n))
            return inverse(a, n, axis, *args, **kwargs)

        return run

    monkeypatch.setattr(np.fft, "ifft", counted("ifft", lambda m: m))
    # irfft's default length is that of the real signal with m Hermitian rows
    monkeypatch.setattr(np.fft, "irfft", counted("irfft", lambda m: 2 * (m - 1)))
    return transforms
