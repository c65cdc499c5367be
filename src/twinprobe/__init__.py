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

Importing the package loads no submodule: each exported name is looked up
in its home module on first use, so ``import twinprobe`` and the command
line front end start without numpy.

Conventions: quadrature ordering (q1, p1, q2, p2, ...), [q, p] = i, so
vacuum variance is 1/2.  Times tagged ``_scaled`` are in units of
1/omega.
"""

import importlib

_EXPORTS = {
    "_common": ("SIGNAL_CONSISTENT", "SIGNAL_PRINTED"),
    "dynamics": (
        "EntanglementReport", "EntanglerOutput", "ProbeParams", "UnstableRegimeError",
        "entangled_covariance", "is_entangled", "occupation_from_temperature", "prepare",
        "relative_mode_frequency", "rotate", "thermal_covariance", "transfer_matrix",
    ),
    "gaussian": ("CovarianceMatrix", "ValidationReport", "direct_sum", "vacuum", "validate"),
    "metrology": (
        "DecoherenceBudget", "MeterParams", "UndetectableForceError", "decoherence_budget",
        "f_min", "noise", "phi_opt", "signal_coeff", "sql",
    ),
    "oracle": (
        "IntegrationDivergedError", "LinearSystem", "VerificationReport", "VerifyGrid",
        "build_entangler_system", "build_measurement_system", "full_model_deviation",
        "integrate_moments", "verify_closed_forms",
    ),
    "sweep": (
        "KappaOptimum", "SweepSpec", "fig1_spec", "fig2_spec", "fmin_curve", "optimal_kappa",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """Import a submodule, or an exported name's home module, on first access (PEP 562)."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
