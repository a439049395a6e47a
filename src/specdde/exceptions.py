"""Exception and warning types shared across the package."""

from __future__ import annotations


class DimensionError(ValueError):
    """Matrix or vector dimensions are inconsistent with the state dimension."""


class InvalidKernelError(ValueError):
    """Memory kernel not integrable on [0, inf) (needs alpha > 0, m >= 0), or a
    distributed kernel with non-finite values."""


class AliasingError(ValueError):
    """Grid too coarse for the requested bandwidth (needs N >= 2K+1)."""


class SingularModeError(RuntimeError):
    """One or more modal matrices are numerically singular.

    Attributes
    ----------
    modes : list of int
        Offending mode indices k.
    conditions : list of float
        Estimated condition numbers at those modes (may be inf/nan); a
        command's report writes a non-finite one as null.
    """

    def __init__(self, modes, conditions):
        self.modes = [int(k) for k in modes]
        self.conditions = [float(c) for c in conditions]
        pairs = ", ".join(
            f"k={k} (cond={c:.3e})" for k, c in zip(self.modes, self.conditions)
        )
        super().__init__(f"modal matrix numerically singular at {pairs}")


class SingularSystemError(RuntimeError):
    """The assembled collocation system is numerically singular.

    Attributes
    ----------
    condition : float
        Its estimated condition number (may be inf/nan); a command's report
        writes a non-finite one as null.
    """

    def __init__(self, condition):
        self.condition = float(condition)
        super().__init__(
            f"collocation system numerically singular (cond~{self.condition:.3e})"
        )


class OffGridLagError(ValueError):
    """A delay of the oracle, an atom's lag or a distributed delay's span, is
    5e8 collocation steps or more: from there on, every lag is within the
    oracle's 1e-9 of a whole number of steps."""


class ConfigError(ValueError):
    """Configuration document failed schema validation.

    Attributes
    ----------
    violations : list of (path, message)
    """

    def __init__(self, violations):
        self.violations = [(str(p), str(m)) for p, m in violations]
        lines = "; ".join(f"{p}: {m}" for p, m in self.violations)
        super().__init__(f"invalid configuration: {lines}")


class TruncationWarning(UserWarning):
    """Forcing has energy beyond the solver truncation; the tail is dropped."""
