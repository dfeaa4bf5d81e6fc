"""Exception types shared across the package."""


class TripodError(Exception):
    """Base class for all errors raised by this package."""


class NonHermitianInput(TripodError):
    """Matrix fails the Hermiticity pre-check."""


class DimensionMismatch(TripodError):
    """Operands have incompatible dimensions."""


class InvalidDuration(TripodError):
    """Non-positive duration or total time."""


class InvalidOrder(TripodError):
    """Loop order n or revival index k below 1."""


class UnsupportedLoop(TripodError):
    """Loop is outside the pole/meridian/equator wedge family."""


class StepCountTooSmall(TripodError):
    """Integrator resolution too low or result unusable: a Magnus step with
    h ||A||_F >= pi, checked before integrating, or a mean fidelity that is
    not finite (as from an exact propagator past an overflowed loop time)
    or lies outside [0, 1]."""


class NoPeakInWindow(TripodError):
    """Peak search found no maximum: it climbed out of its window, or the window is empty."""


class CalibrationFailed(TripodError):
    """Noise calibration did not reach its F2 tolerance."""


class UnderdeterminedFit(TripodError):
    """Fewer data points than free fit coefficients plus one."""


class ModelMismatch(TripodError):
    """Fit results passed to a routine expecting different models."""


class ConfigError(TripodError):
    """Invalid run configuration, or a channel past STEP_CEILING or its plan's float range."""
