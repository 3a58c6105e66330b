"""Few-photon simulator and closed-form analytics for nonlinearity-boosted
photonic entangling protocols."""

from .analytics import (
    OptimalPhaseResult,
    ScalingFit,
    find_optimal_phase,
    fit_scaling_exponent,
    p_bell_measurement,
    p_cnot,
    p_evl_bell_measurement,
    p_factorization,
    p_ghz,
)
from .fock import FockState, ModeId, NonlinearMediumSpec, OutcomeRecord
from .protocols import (
    BELL_STATES,
    ProtocolResult,
    bell_state,
    run_bell_measurement,
    run_evl_bell_measurement,
    run_ghz,
    run_router,
    simulated_cnot_success,
    simulated_factorization_success,
)
from .rydberg import CirclePoint, DetunedParams, detuned_params, loss_from_phase

__version__ = "0.1.0"

__all__ = [
    "BELL_STATES",
    "CirclePoint",
    "DetunedParams",
    "FockState",
    "ModeId",
    "NonlinearMediumSpec",
    "OptimalPhaseResult",
    "OutcomeRecord",
    "ProtocolResult",
    "ScalingFit",
    "bell_state",
    "detuned_params",
    "find_optimal_phase",
    "fit_scaling_exponent",
    "loss_from_phase",
    "p_bell_measurement",
    "p_cnot",
    "p_evl_bell_measurement",
    "p_factorization",
    "p_ghz",
    "run_bell_measurement",
    "run_evl_bell_measurement",
    "run_ghz",
    "run_router",
    "simulated_cnot_success",
    "simulated_factorization_success",
    "__version__",
]
