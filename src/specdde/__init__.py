"""Spectral solver and diagnostics for 2*pi-periodic solutions of neutral
delay integro-differential equations in finite-dimensional state spaces."""

__version__ = "0.1.0"

from .besov import (
    BesovParams,
    besov_norm_report,
    partition_eval,
)
from .config import RunConfig, parse_config
from .exceptions import (
    AliasingError,
    ConfigError,
    DimensionError,
    InvalidKernelError,
    OffGridLagError,
    SingularModeError,
    SingularSystemError,
    TruncationWarning,
)
from .oracle import (
    OracleComparison,
    collocation_solve,
    compare,
    periodize_kernel,
)
from .resolvent import (
    MBoundReport,
    SequenceDiagnostics,
    m_bounded_diagnostics,
)
from .solver import (
    SpectralSolution,
    SweepResult,
    convergence_sweep,
    solve_periodic,
)
from .symbols import (
    DelayFunctional,
    DistributedDelay,
    KernelSpec,
    ModeSymbols,
    PeriodicGridFunction,
    ProblemSpec,
    analyze,
    laplace_symbol,
    mode_range,
)

__all__ = [
    "__version__",
    "AliasingError",
    "BesovParams",
    "ConfigError",
    "DelayFunctional",
    "DimensionError",
    "DistributedDelay",
    "InvalidKernelError",
    "KernelSpec",
    "MBoundReport",
    "ModeSymbols",
    "OffGridLagError",
    "OracleComparison",
    "PeriodicGridFunction",
    "ProblemSpec",
    "RunConfig",
    "SequenceDiagnostics",
    "SingularModeError",
    "SingularSystemError",
    "SpectralSolution",
    "SweepResult",
    "TruncationWarning",
    "analyze",
    "besov_norm_report",
    "collocation_solve",
    "compare",
    "convergence_sweep",
    "laplace_symbol",
    "m_bounded_diagnostics",
    "mode_range",
    "parse_config",
    "partition_eval",
    "periodize_kernel",
    "solve_periodic",
]
