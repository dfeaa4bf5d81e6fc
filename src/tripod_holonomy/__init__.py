"""Simulator and analysis toolkit for non-adiabatic holonomic one-qubit
gates on the four-level tripod system."""

__version__ = "0.1.0"

from .analysis import (
    FitResult,
    OptimalPoint,
    SweepCurve,
    calibrate_noise,
    f_of_tau_relation,
    find_optimal_point,
    fit_noise_response,
    mean_fidelity,
    robustness,
    sweep,
)
from .lindblad import (
    NoiseModel,
    high_temperature_noise,
    loop_channel,
)
from .linalg import exp_i_hermitian
from .loops import (
    ArcKind,
    ArcSegment,
    LoopSpec,
    optimal_time,
    solid_angle,
    wedge_loop,
    with_total_time,
)
from .propagators import (
    GatePropagator,
    adiabatic_gate,
    adiabatic_holonomy,
    loop_propagator,
    schrodinger_oracle,
)
from .tripod import (
    EigenFrame,
    eigenframe,
    hamiltonian,
)

__all__ = [
    "ArcKind",
    "ArcSegment",
    "EigenFrame",
    "FitResult",
    "GatePropagator",
    "LoopSpec",
    "NoiseModel",
    "OptimalPoint",
    "SweepCurve",
    "adiabatic_gate",
    "adiabatic_holonomy",
    "calibrate_noise",
    "eigenframe",
    "exp_i_hermitian",
    "f_of_tau_relation",
    "find_optimal_point",
    "fit_noise_response",
    "hamiltonian",
    "high_temperature_noise",
    "loop_channel",
    "loop_propagator",
    "mean_fidelity",
    "optimal_time",
    "robustness",
    "schrodinger_oracle",
    "solid_angle",
    "sweep",
    "wedge_loop",
    "with_total_time",
]
