"""Regression problems shared across the test suite.

Every factory returns a fresh ProblemSpec.  The two benchmark families used
by the boundedness diagnostics are:

* lag_pi      : half-strength atom at lag pi inside the neutral part, whose
                scaled symbol difference grows linearly in k;
* nice (2pi)  : period-lag atoms plus an exponential kernel, where every
                tracked sequence stays bounded.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

from specdde import (
    DelayFunctional,
    DistributedDelay,
    KernelSpec,
    PeriodicGridFunction,
    ProblemSpec,
)

TWO_PI = 2.0 * np.pi


def scalar_basic():
    """A = -1, no delays, no kernel, f = cos t; solution (cos t + sin t)/2."""
    return ProblemSpec(
        state_matrix=[[-1.0]],
        forcing=PeriodicGridFunction.from_harmonics(cos=[1.0]),
        truncation=8,
        grid=32,
    )


def scalar_neutral():
    """A = -1, half-strength neutral atom at the period, f = e^{it}."""
    return ProblemSpec(
        state_matrix=[[-1.0]],
        neutral_delay=DelayFunctional(dim=1, atoms=[(0.5, TWO_PI)]),
        forcing=PeriodicGridFunction([0.0, 0.0, 1.0], 16),
        truncation=4,
        grid=16,
    )


def scalar_full():
    """Neutral and reaction period-lag atoms plus an exponential kernel."""
    return ProblemSpec(
        state_matrix=[[-1.0]],
        neutral_delay=DelayFunctional(dim=1, atoms=[(0.5, TWO_PI)]),
        reaction_delay=DelayFunctional(dim=1, atoms=[(0.25, TWO_PI)]),
        kernel=KernelSpec(terms=[(1.0, 0, 1.0)]),
        forcing=PeriodicGridFunction.from_harmonics(cos=[1.0]),
        truncation=8,
        grid=32,
    )


def scalar_lag_pi():
    """Half-strength neutral atom at lag pi: the growing-difference family."""
    return ProblemSpec(
        state_matrix=[[-1.0]],
        neutral_delay=DelayFunctional(dim=1, atoms=[(0.5, np.pi)]),
        forcing=PeriodicGridFunction.from_harmonics(cos=[1.0]),
        truncation=8,
        grid=32,
    )


def mat2_diag():
    """Diagonal A = diag(-1, -2) with a half-mass exponential kernel, no delays.

    Unit kernel mass would cancel the first eigenvalue of -A at mode zero.
    """
    return ProblemSpec(
        state_matrix=np.diag([-1.0, -2.0]),
        kernel=KernelSpec(terms=[(0.5, 0, 1.0)]),
        forcing=PeriodicGridFunction.from_harmonics(
            cos=[[1.0, 0.0]], sin=[[0.0, 0.0], [0.0, 1.0]], dim=2
        ),
        truncation=8,
        grid=32,
    )


def mat2_rich():
    """Upper-triangular A with atoms, a distributed kernel and a two-term memory."""
    # 4,097 samples resolve 0.05 e^theta I to ~7e-15 at every piece midpoint
    theta = np.linspace(-TWO_PI, 0.0, 4097)
    dist = DistributedDelay(0.05 * np.exp(theta)[:, None, None] * np.eye(2), span=TWO_PI)
    return ProblemSpec(
        state_matrix=np.array([[-1.0, 0.25], [0.0, -2.0]]),
        neutral_delay=DelayFunctional(
            dim=2, atoms=[(0.1 * np.eye(2), TWO_PI)], distributed=dist
        ),
        reaction_delay=DelayFunctional(
            dim=2, atoms=[(np.array([[0.1, 0.02], [0.0, 0.1]]), np.pi / 2)]
        ),
        kernel=KernelSpec(terms=[(0.2, 0, 2.0), (0.1, 1, 1.0)]),
        forcing=PeriodicGridFunction.from_harmonics(
            cos=[[1.0, 0.0]], sin=[[0.0, 1.0]], dim=2
        ),
        truncation=8,
        grid=64,
    )


def mat2_sampled():
    """mat2_rich with its distributed kernel given as 65 samples, not 4,097."""
    theta = np.linspace(-TWO_PI, 0.0, 65)
    dist = DistributedDelay(0.05 * np.exp(theta)[:, None, None] * np.eye(2), span=TWO_PI)
    return replace(
        mat2_rich(),
        neutral_delay=DelayFunctional(
            dim=2, atoms=[(0.1 * np.eye(2), TWO_PI)], distributed=dist
        ),
    )


def kernel_values(kernel, t):
    """The memory kernel a(t) = sum c t^m e^{-alpha t} of a KernelSpec at
    t >= 0, summed term by term: the reference for its closed forms.  Real
    for a real kernel; a scalar for a scalar t."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape, dtype=complex)
    for c, m, alpha in kernel.terms:
        out = out + c * t**m * np.exp(-alpha * t)
    if kernel.is_real:
        out = out.real
    return out if out.ndim else out[()]


def regression_specs():
    return {
        "scalar_basic": scalar_basic(),
        "scalar_neutral": scalar_neutral(),
        "scalar_full": scalar_full(),
        "scalar_lag_pi": scalar_lag_pi(),
        "mat2_diag": mat2_diag(),
        "mat2_rich": mat2_rich(),
        "mat2_sampled": mat2_sampled(),
    }


def smooth_suite():
    """Specs with smooth data used for the cross-method convergence study."""
    return {
        "scalar_basic": scalar_basic(),
        "scalar_full": scalar_full(),
        "mat2_rich": mat2_rich(),
    }


def bench_workloads():
    """The benchmark's seeded configuration documents (``bench/workloads.py``)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads
