"""Entanglement of parametric down-conversion with phase mismatch at
finite temperature: closed-form two-mode Gaussian dynamics, invariant
based separability analysis, and brute-force oracles."""

from .analysis import (
    BteResult,
    PhasePoint,
    WitnessValue,
    birth_time,
    critical_temperature,
    phase_boundary,
    s0_threshold,
    witness,
)
from .errors import (
    IntegrationError,
    NumericalDomainError,
    TruncationError,
    ValidationError,
)
from .fock_oracle import (
    FockState,
    MomentTrajectory,
    evolve_fock,
    evolve_moments_ode,
    fock_log_negativity,
    moments_from_fock,
)
from .gaussian_core import (
    CovarianceMatrix,
    EntanglementReport,
    SymplecticInvariants,
    entanglement_report,
    log_negativity,
    physicality_check,
    symplectic_invariants,
)
from .pdc_dynamics import (
    HBAR,
    K_B,
    PdcParams,
    ThermalInit,
    covariance_matrix,
    det_gamma_closed_form,
    mean_photon_numbers,
    pair_invariants,
    thermal_init,
    thermal_occupation,
)

__version__ = "0.1.0"

__all__ = [
    "BteResult",
    "CovarianceMatrix",
    "EntanglementReport",
    "FockState",
    "HBAR",
    "IntegrationError",
    "K_B",
    "MomentTrajectory",
    "NumericalDomainError",
    "PdcParams",
    "PhasePoint",
    "SymplecticInvariants",
    "ThermalInit",
    "TruncationError",
    "ValidationError",
    "WitnessValue",
    "birth_time",
    "covariance_matrix",
    "critical_temperature",
    "det_gamma_closed_form",
    "entanglement_report",
    "evolve_fock",
    "evolve_moments_ode",
    "fock_log_negativity",
    "log_negativity",
    "mean_photon_numbers",
    "moments_from_fock",
    "pair_invariants",
    "phase_boundary",
    "physicality_check",
    "s0_threshold",
    "symplectic_invariants",
    "thermal_init",
    "thermal_occupation",
    "witness",
]
