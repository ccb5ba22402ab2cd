"""Exception types shared across the package."""


class DefectLaserError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(DefectLaserError, ValueError):
    """A physical parameter violates its documented invariant."""


class SingularParameterError(DefectLaserError, ArithmeticError):
    """A closed-form expression hit a vanishing denominator."""


class UnitError(DefectLaserError, ValueError):
    """A quantity string could not be parsed in the expected unit class."""


class ConfigError(DefectLaserError, ValueError):
    """A parameter file is malformed.  Carries key and line context."""

    def __init__(self, message, key=None, line=None):
        self.key = key
        self.line = line
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if key is not None:
            prefix += f"key '{key}': "
        super().__init__(prefix + message)


class DivergenceError(DefectLaserError, ArithmeticError):
    """The integrator produced a non-finite state.

    Expected above the lasing threshold, where the mean-field model grows
    without bound; use a windowed growth-rate fit instead of integrating
    for long times.  ``time`` is the integration time of blow-up.
    """

    def __init__(self, time, message=None, partial=None):
        self.time = time
        self.partial = partial  # Trajectory up to the last finite state
        super().__init__(message or f"non-finite state at t = {time:.6g} s")


class SweepError(DefectLaserError, ValueError):
    """A sweep specification is invalid."""


class UnknownPresetError(SweepError, KeyError):
    """No figure preset has the requested name."""
