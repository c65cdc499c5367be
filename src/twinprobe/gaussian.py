"""Covariance-matrix algebra for Gaussian quadrature states.

Conventions used throughout the package: quadratures are ordered as
conjugate pairs (q1, p1, q2, p2, ...), the commutator is [q_j, p_k] =
i delta_jk, and the vacuum variance is 1/2 per quadrature.  Covariances
are the symmetrized second moments C_jk = <v_j v_k + v_k v_j>/2 about
the mean.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PSD_TOLERANCE",
    "UNCERTAINTY_TOLERANCE",
    "VACUUM_VARIANCE",
    "CovarianceMatrix",
    "ValidationReport",
    "vacuum",
    "validate",
    "direct_sum",
]

PSD_TOLERANCE = 1e-10
UNCERTAINTY_TOLERANCE = 1e-10
VACUUM_VARIANCE = 0.5


class CovarianceMatrix:
    """Symmetrized covariance of an even number of quadratures.

    The stored matrix is the symmetric part of the input; the maximum
    asymmetry of the raw input is kept as ``symmetry_defect`` so that
    validation can report how much symmetrization discarded.
    """

    __slots__ = ("_matrix", "symmetry_defect")

    def __init__(self, entries) -> None:
        m = np.array(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"covariance must be square, got shape {m.shape}")
        dim = m.shape[0]
        if dim == 0 or dim % 2 != 0:
            raise ValueError(f"dimension must be a positive even integer, got {dim}")
        self.symmetry_defect = float(np.max(np.abs(m - m.T)))
        sym = 0.5 * (m + m.T)
        sym.setflags(write=False)
        self._matrix = sym

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    @property
    def n_modes(self) -> int:
        return self.dim // 2

    def variance(self, index: int) -> float:
        return float(self._matrix[index, index])

    def __repr__(self) -> str:
        return f"CovarianceMatrix(dim={self.dim})"


@dataclass(frozen=True)
class ValidationReport:
    """Physicality diagnostics for a covariance matrix.

    ``uncertainty_products`` holds Var(q_k) * Var(p_k) per mode; the check
    against 1/4 is a necessary condition only, not the full multimode
    uncertainty relation.
    """

    dim: int
    symmetry_defect: float
    min_eigenvalue: float
    uncertainty_products: tuple[float, ...]
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def vacuum(n_modes: int) -> CovarianceMatrix:
    """Vacuum covariance of ``n_modes`` modes: variance 1/2 per quadrature."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    return CovarianceMatrix(VACUUM_VARIANCE * np.eye(2 * n_modes))


def validate(c: CovarianceMatrix) -> ValidationReport:
    """Check positivity and per-mode uncertainty products of a covariance."""
    eigs = np.linalg.eigvalsh(c.matrix)
    min_eig = float(eigs[0])
    products = tuple(
        c.variance(2 * k) * c.variance(2 * k + 1) for k in range(c.n_modes)
    )
    failures = []
    if c.symmetry_defect > PSD_TOLERANCE:
        failures.append(f"symmetry defect {c.symmetry_defect:.3e}")
    if min_eig < -PSD_TOLERANCE:
        failures.append(f"negative eigenvalue {min_eig:.3e}")
    for k, prod in enumerate(products):
        if prod < 0.25 - UNCERTAINTY_TOLERANCE:
            failures.append(f"mode {k} uncertainty product {prod:.6f} < 1/4")
    return ValidationReport(
        dim=c.dim,
        symmetry_defect=c.symmetry_defect,
        min_eigenvalue=min_eig,
        uncertainty_products=products,
        failures=tuple(failures),
    )


def direct_sum(a: CovarianceMatrix, b: CovarianceMatrix) -> CovarianceMatrix:
    """Block-diagonal covariance of two uncorrelated subsystems."""
    out = np.zeros((a.dim + b.dim, a.dim + b.dim))
    out[: a.dim, : a.dim] = a.matrix
    out[a.dim :, a.dim :] = b.matrix
    return CovarianceMatrix(out)
