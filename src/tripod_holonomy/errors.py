"""Exception types shared across the package: one per CLI exit code."""


class ConfigError(Exception):
    """Invalid input (exit 2): a run configuration, loop, Omega*tau grid,
    revival index or fit request that the code does not accept, or a
    channel past STEP_CEILING or its plan's float range."""


class NumericalError(Exception):
    """A result that failed validation (exit 3): a Magnus step with
    h ||A||_F >= pi, a mean fidelity that is not finite or lies outside
    [0, 1], a loop time or third revival time past the float range, a peak
    search with no maximum in its window, or a noise calibration that
    missed its F2 target."""
