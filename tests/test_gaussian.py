import math

import numpy as np
import pytest

from conftest import symplectic_form
from twinprobe.dynamics import (
    ProbeParams,
    entangled_covariance,
    prepare,
    rotate,
    thermal_covariance,
)
from twinprobe.gaussian import direct_sum, vacuum, validate
from twinprobe.oracle import build_entangler_system, integrate_moments


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
    assert v.shape == (4, 4)
    assert np.array_equal(v, 0.5 * np.eye(4))
    report = validate(v)
    assert report.passed
    assert report.dim == 4
    assert report.min_eigenvalue == pytest.approx(0.5)
    assert report.uncertainty_products == (0.25, 0.25)


def test_covariance_rejects_bad_shapes():
    for shape in ((3, 3), (2, 4), (0, 0)):
        with pytest.raises(ValueError):
            validate(np.zeros(shape))
    with pytest.raises(ValueError):
        vacuum(0)


def test_symmetrization_records_defect():
    m = 0.5 * np.eye(2)
    m[0, 1] = 1e-3
    report = validate(m)
    assert report.symmetry_defect == pytest.approx(1e-3)
    assert not report.passed
    assert any("symmetry" in f for f in report.failures)


def test_matrix_is_write_protected():
    p = ProbeParams.from_squeeze_ratio(1.0, 2.0, n_th=1.0)
    _, integrated = integrate_moments(
        build_entangler_system(p), None, thermal_covariance(1.0), 0.0, 0.5, 0.01
    )
    for c in (
        vacuum(1),
        direct_sum(vacuum(1), vacuum(1)),
        thermal_covariance(1.0),
        entangled_covariance(2.0, 1.0),
        rotate(entangled_covariance(2.0, 1.0), 0.3),
        prepare(p).covariance,
        integrated.matrix,
    ):
        with pytest.raises(ValueError):
            c[0, 0] = 2.0


def test_producers_are_exactly_symmetric():
    a = entangled_covariance(3.0, 5.0)
    for c in (thermal_covariance(7.0), a, direct_sum(a, rotate(a, 0.3))):
        assert np.array_equal(c, c.T)


def test_validate_flags_negative_eigenvalue():
    report = validate(np.diag([1.0, -0.5]))
    assert not report.passed
    assert any("eigenvalue" in f for f in report.failures)


def test_validate_flags_uncertainty_violation():
    # positive matrix but q*p product below the 1/4 floor
    report = validate(np.diag([0.4, 0.4]))
    assert report.min_eigenvalue > 0
    assert not report.passed
    assert any("uncertainty" in f for f in report.failures)


def test_validate_flags_the_multimode_uncertainty_relation():
    # every diagonal block is a vacuum, the matrix is positive, but q1 q2 and
    # p1 p2 correlate alike: the symplectic eigenvalues are 0.05 and 0.95
    c = 0.5 * np.array(
        [[1, 0, 0.9, 0], [0, 1, 0, 0.9], [0.9, 0, 1, 0], [0, 0.9, 0, 1]], dtype=float
    )
    report = validate(c)
    assert report.min_eigenvalue == pytest.approx(0.05)
    assert report.uncertainty_products == (0.25, 0.25)
    assert report.min_symplectic_eigenvalue == pytest.approx(0.05)
    assert report.failures == ("least symplectic eigenvalue 0.050000 < 1/2",)
    # a symplectic map keeps the symplectic eigenvalues: 1/2 + n_th here
    for state, nu in (
        (vacuum(3), 0.5),
        (thermal_covariance(4.0), 4.5),
        (rotate(entangled_covariance(3.0, 5.0), 0.3), 5.5),
    ):
        report = validate(state)
        assert report.passed, report.failures
        assert report.min_symplectic_eigenvalue == pytest.approx(nu, rel=1e-12)


def test_random_symplectic_states_stay_valid():
    rng = np.random.default_rng(7)
    j = symplectic_form(2)
    for _ in range(50):
        base = np.diag(0.5 + rng.uniform(0.0, 3.0, size=4))
        m = random_symplectic(rng, 2)
        assert np.max(np.abs(m @ j @ m.T - j)) < 1e-12
        # the product's rounding asymmetry is within validate's tolerance
        report = validate(m @ base @ m.T)
        assert report.passed, report.failures


def test_direct_sum_blocks():
    a = np.diag([1.0, 2.0])
    b = vacuum(1)
    c = direct_sum(a, b)
    assert c.shape == (4, 4)
    assert np.array_equal(c[:2, :2], a)
    assert np.array_equal(c[2:, 2:], b)
    assert np.all(c[:2, 2:] == 0.0)
    assert np.all(c[2:, :2] == 0.0)
