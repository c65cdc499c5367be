"""Covariance-matrix algebra for Gaussian quadrature states.

Conventions used throughout the package: quadratures are ordered as
conjugate pairs (q1, p1, q2, p2, ...), the commutator is [q_j, p_k] =
i delta_jk, and the vacuum variance is 1/2 per quadrature.  Covariances
are the symmetrized second moments C_jk = <v_j v_k + v_k v_j>/2 about
the mean, held as read-only float arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PSD_TOLERANCE",
    "UNCERTAINTY_TOLERANCE",
    "VACUUM_VARIANCE",
    "ValidationReport",
    "vacuum",
    "validate",
    "direct_sum",
]

PSD_TOLERANCE = 1e-10
UNCERTAINTY_TOLERANCE = 1e-10
VACUUM_VARIANCE = 0.5


def _read_only(m: np.ndarray) -> np.ndarray:
    """``m`` itself, write-protected: how every covariance leaves its producer."""
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class ValidationReport:
    """Physicality diagnostics for a covariance matrix.

    ``symmetry_defect`` is the largest |C - C^T| entry; the eigenvalues are
    those of the symmetric part.  ``uncertainty_products`` holds
    Var(q_k) * Var(p_k) per mode; the check against 1/4 is a necessary
    condition only, not the full multimode uncertainty relation.
    """

    dim: int
    symmetry_defect: float
    min_eigenvalue: float
    uncertainty_products: tuple[float, ...]
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def vacuum(n_modes: int) -> np.ndarray:
    """Vacuum covariance of ``n_modes`` modes: variance 1/2 per quadrature."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    return _read_only(VACUUM_VARIANCE * np.eye(2 * n_modes))


def validate(c) -> ValidationReport:
    """Check symmetry, positivity and per-mode uncertainty products of a covariance."""
    m = np.asarray(c, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"covariance must be square, got shape {m.shape}")
    dim = m.shape[0]
    if dim == 0 or dim % 2 != 0:
        raise ValueError(f"dimension must be a positive even integer, got {dim}")
    defect = float(np.max(np.abs(m - m.T)))
    min_eig = float(np.linalg.eigvalsh(0.5 * (m + m.T))[0])
    products = tuple(float(m[k, k] * m[k + 1, k + 1]) for k in range(0, dim, 2))
    failures = []
    if defect > PSD_TOLERANCE:
        failures.append(f"symmetry defect {defect:.3e}")
    if min_eig < -PSD_TOLERANCE:
        failures.append(f"negative eigenvalue {min_eig:.3e}")
    for k, prod in enumerate(products):
        if prod < 0.25 - UNCERTAINTY_TOLERANCE:
            failures.append(f"mode {k} uncertainty product {prod:.6f} < 1/4")
    return ValidationReport(dim, defect, min_eig, products, tuple(failures))


def direct_sum(a, b) -> np.ndarray:
    """Block-diagonal covariance of two uncorrelated subsystems."""
    na, nb = len(a), len(b)
    out = np.zeros((na + nb, na + nb))
    out[:na, :na] = a
    out[na:, na:] = b
    return _read_only(out)
