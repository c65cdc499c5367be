"""Force sensing with a pair of entangled mechanical probes.

The package models the full protocol as Gaussian quadrature dynamics:
a cavity-mediated coupling squeezes a collective mode of two identical
mechanical oscillators (``dynamics``), an optional local phase rotation
re-shuffles the squeezing between quadratures, and a back-action-evading
readout accumulates a common force into the summed meter phase
(``metrology``).  ``oracle`` integrates the same stages as moment ODEs
and cross-checks every closed form; ``sweep`` produces sensitivity
curves and optimizes the readout coupling; ``cli`` exposes everything on
the command line.

Conventions: quadrature ordering (q1, p1, q2, p2, ...), [q, p] = i, so
vacuum variance is 1/2.  Times tagged ``_scaled`` are in units of
1/omega.
"""

from .dynamics import (
    EntanglementReport,
    EntanglerOutput,
    ProbeParams,
    UnstableRegimeError,
    entangled_covariance,
    is_entangled,
    occupation_from_temperature,
    prepare,
    relative_mode_frequency,
    rotate,
    squeeze_ratio,
    thermal_covariance,
    transfer_matrix,
)
from .gaussian import (
    CovarianceMatrix,
    QuadratureVector,
    ValidationReport,
    congruence,
    direct_sum,
    vacuum,
    validate,
)
from .metrology import (
    SIGNAL_CONSISTENT,
    SIGNAL_PRINTED,
    DecoherenceBudget,
    MeterParams,
    UndetectableForceError,
    decoherence_budget,
    f_min,
    noise,
    phi_opt,
    signal_coeff,
    sql,
)
from .oracle import (
    IntegrationDivergedError,
    LinearSystem,
    VerificationReport,
    VerifyGrid,
    build_entangler_system,
    build_measurement_system,
    full_model_deviation,
    hamiltonian_defect,
    integrate_moments,
    verify_closed_forms,
)
from .sweep import (
    KappaOptimum,
    SweepSpec,
    fig1_spec,
    fig2_spec,
    fmin_curve,
    optimal_kappa,
)

__version__ = "0.1.0"

__all__ = [
    "CovarianceMatrix",
    "DecoherenceBudget",
    "EntanglementReport",
    "EntanglerOutput",
    "IntegrationDivergedError",
    "KappaOptimum",
    "LinearSystem",
    "MeterParams",
    "ProbeParams",
    "QuadratureVector",
    "SIGNAL_CONSISTENT",
    "SIGNAL_PRINTED",
    "SweepSpec",
    "UndetectableForceError",
    "UnstableRegimeError",
    "ValidationReport",
    "VerificationReport",
    "VerifyGrid",
    "build_entangler_system",
    "build_measurement_system",
    "congruence",
    "decoherence_budget",
    "direct_sum",
    "entangled_covariance",
    "f_min",
    "fig1_spec",
    "fig2_spec",
    "fmin_curve",
    "full_model_deviation",
    "hamiltonian_defect",
    "integrate_moments",
    "is_entangled",
    "noise",
    "occupation_from_temperature",
    "optimal_kappa",
    "phi_opt",
    "prepare",
    "relative_mode_frequency",
    "rotate",
    "signal_coeff",
    "sql",
    "squeeze_ratio",
    "thermal_covariance",
    "transfer_matrix",
    "vacuum",
    "validate",
    "verify_closed_forms",
    "__version__",
]
