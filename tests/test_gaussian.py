import math

import numpy as np
import pytest

from conftest import symplectic_form
from twinprobe.gaussian import CovarianceMatrix, direct_sum, vacuum, validate


def random_symplectic(rng, n_modes):
    # interleave local rotations, local squeezers, and a mode mixer
    dim = 2 * n_modes
    m = np.eye(dim)
    for k in range(n_modes):
        phi = rng.uniform(0, 2 * math.pi)
        s = math.exp(rng.uniform(-0.8, 0.8))
        block = np.array(
            [[math.cos(phi), math.sin(phi)], [-math.sin(phi), math.cos(phi)]]
        ) @ np.diag([s, 1.0 / s])
        full = np.eye(dim)
        full[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
        m = full @ m
    if n_modes == 2:
        theta = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(theta), math.sin(theta)
        mixer = np.kron(np.array([[c, s], [-s, c]]), np.eye(2))
        m = mixer @ m
    return m


def test_vacuum_is_valid_and_half():
    v = vacuum(2)
    assert v.dim == 4
    assert v.n_modes == 2
    assert np.allclose(np.diag(v.matrix), 0.5)
    report = validate(v)
    assert report.passed
    assert report.min_eigenvalue == pytest.approx(0.5)
    assert report.uncertainty_products == (0.25, 0.25)


def test_covariance_rejects_bad_shapes():
    with pytest.raises(ValueError):
        CovarianceMatrix(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        CovarianceMatrix(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        CovarianceMatrix(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        vacuum(0)


def test_symmetrization_records_defect():
    m = 0.5 * np.eye(2)
    m[0, 1] = 1e-3
    c = CovarianceMatrix(m)
    assert c.symmetry_defect == pytest.approx(1e-3)
    assert np.array_equal(c.matrix, c.matrix.T)
    report = validate(c)
    assert not report.passed
    assert any("symmetry" in f for f in report.failures)


def test_matrix_is_write_protected():
    c = vacuum(1)
    with pytest.raises(ValueError):
        c.matrix[0, 0] = 2.0


def test_validate_flags_negative_eigenvalue():
    report = validate(CovarianceMatrix(np.diag([1.0, -0.5])))
    assert not report.passed
    assert any("eigenvalue" in f for f in report.failures)


def test_validate_flags_uncertainty_violation():
    # positive matrix but q*p product below the 1/4 floor
    report = validate(CovarianceMatrix(np.diag([0.4, 0.4])))
    assert report.min_eigenvalue > 0
    assert not report.passed
    assert any("uncertainty" in f for f in report.failures)


def test_random_symplectic_states_stay_valid():
    rng = np.random.default_rng(7)
    j = symplectic_form(2)
    for _ in range(50):
        base = CovarianceMatrix(np.diag(0.5 + rng.uniform(0.0, 3.0, size=4)))
        m = random_symplectic(rng, 2)
        assert np.max(np.abs(m @ j @ m.T - j)) < 1e-12
        c = CovarianceMatrix(m @ base.matrix @ m.T)
        report = validate(c)
        assert report.passed, report.failures


def test_direct_sum_blocks():
    a = CovarianceMatrix(np.diag([1.0, 2.0]))
    b = vacuum(1)
    c = direct_sum(a, b)
    assert c.dim == 4
    assert np.allclose(c.matrix[:2, :2], a.matrix)
    assert np.allclose(c.matrix[2:, 2:], b.matrix)
    assert np.all(c.matrix[:2, 2:] == 0.0)
