"""Covariance-matrix algebra for Gaussian quadrature states.

Conventions used throughout the package: quadratures are ordered as
conjugate pairs (q1, p1, q2, p2, ...), and the vacuum variance is 1/2 per
quadrature.  Distinct pairs commute; within a pair the commutator, as the
drifts of ``oracle`` are coded, is

    probes q_k, p_k          [q, p] = i
    cavity x_c, y_c          [x, y] = i/2
    meters X_k, Y_k          [X, Y] = i/2

``vacuum`` and ``validate`` take every pair as [q, p] = i.  Covariances
are the symmetrized second moments C_jk = <v_j v_k + v_k v_j>/2 about
the mean, held as read-only float arrays.
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np

from ._common import check_domain

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


class ValidationReport(
    namedtuple(
        "ValidationReport",
        "dim symmetry_defect min_eigenvalue uncertainty_products min_symplectic_eigenvalue"
        " failures",
    )
):
    """Physicality diagnostics for a covariance matrix.

    ``symmetry_defect`` is the largest |C - C^T| entry; the eigenvalues are
    those of the symmetric part.  ``uncertainty_products`` holds
    Var(q_k) * Var(p_k) per mode, a necessary condition only.  The full
    multimode uncertainty relation C + i Omega / 2 >= 0, with Omega the
    symplectic form of [q, p] = i, holds iff ``min_symplectic_eigenvalue``,
    the least |eigenvalue| of i Omega C, is at least 1/2 (Simon, Mukunda &
    Dutta, PRA 49, 1567, 1994).
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures


def vacuum(n_modes: int) -> np.ndarray:
    """Vacuum covariance of ``n_modes`` modes: variance 1/2 per quadrature."""
    check_domain(("n_modes", n_modes))
    return _read_only(VACUUM_VARIANCE * np.eye(2 * n_modes))


def validate(c) -> ValidationReport:
    """Check symmetry, positivity and the uncertainty relation of a covariance."""
    m = np.asarray(c, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"covariance must be square, got shape {m.shape}")
    dim = m.shape[0]
    if dim == 0 or dim % 2 != 0:
        raise ValueError(f"dimension must be a positive even integer, got {dim}")
    defect = float(np.max(np.abs(m - m.T)))
    sym = 0.5 * (m + m.T)
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    products = tuple(float(m[k, k] * m[k + 1, k + 1]) for k in range(0, dim, 2))
    omega = np.kron(np.eye(dim // 2), [[0.0, 1.0], [-1.0, 0.0]])
    # |eigenvalues| of i Omega C are those of the real Omega C
    nu = float(np.min(np.abs(np.linalg.eigvals(omega @ sym))))
    failures = []
    if defect > PSD_TOLERANCE:
        failures.append(f"symmetry defect {defect:.3e}")
    if min_eig < -PSD_TOLERANCE:
        failures.append(f"negative eigenvalue {min_eig:.3e}")
    for k, prod in enumerate(products):
        if prod < 0.25 - UNCERTAINTY_TOLERANCE:
            failures.append(f"mode {k} uncertainty product {prod:.6f} < 1/4")
    if nu < VACUUM_VARIANCE - UNCERTAINTY_TOLERANCE:
        failures.append(f"least symplectic eigenvalue {nu:.6f} < 1/2")
    return ValidationReport(dim, defect, min_eig, products, nu, tuple(failures))


def direct_sum(a, b) -> np.ndarray:
    """Block-diagonal covariance of two uncorrelated subsystems."""
    na, nb = len(a), len(b)
    out = np.zeros((na + nb, na + nb))
    out[:na, :na] = a
    out[na:, na:] = b
    return _read_only(out)
