import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mp_expm, symplectic_form
from twinprobe import oracle
from twinprobe.dynamics import (
    ProbeParams,
    entangled_covariance,
    relative_mode_frequency,
    rotate,
    thermal_covariance,
    transfer_matrix,
)
from twinprobe.gaussian import direct_sum, vacuum
from twinprobe.metrology import MeterParams, noise, phi_opt, signal_coeff
from twinprobe.oracle import (
    IntegrationDivergedError,
    LinearSystem,
    VerifyGrid,
    build_entangler_system,
    build_measurement_system,
    full_model_deviation,
    integrate_moments,
    propagator,
    verify_closed_forms,
)

PI = math.pi

SMALL_GRID = VerifyGrid(
    taus=(PI / 2, PI),
    kappas=(1.0,),
    ratios=(1.0, 2.0),
    n_ths=(0.0,),
    phi_modes=("zero", "opt"),
    transfer_times=(0.7,),
)


def test_linear_system_validation():
    with pytest.raises(ValueError):
        LinearSystem(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        LinearSystem(np.zeros((2, 2)), np.zeros(3))
    bad = np.zeros((2, 2))
    bad[0, 0] = math.nan
    with pytest.raises(ValueError):
        LinearSystem(bad, np.zeros(2))


def test_adiabatic_drift_eigenfrequencies():
    # coupling 1.5 splits the modes into frequencies 1 (common) and 2 (relative)
    p = ProbeParams(omega=1.0, coupling=1.5)
    eigs = np.linalg.eigvals(build_entangler_system(p).drift)
    assert np.max(np.abs(eigs.real)) < 1e-12
    assert sorted(np.round(eigs.imag, 9)) == [-2.0, -1.0, 1.0, 2.0]


def hamiltonian_defect(system):
    """Asymmetry of J^T A: zero iff the drift A is J H with H symmetric (a Hamiltonian flow)."""
    h = symplectic_form(system.dim // 2).T @ system.drift
    return float(np.max(np.abs(h - h.T)))


def test_hamiltonian_defects():
    p = ProbeParams(omega=1.0, coupling=1.5, delta=100.0)
    assert hamiltonian_defect(build_entangler_system(p)) < 1e-12
    # the kept-cavity and readout generators are asymmetric by design:
    # the feed rate is half the push-back rate
    full_defect = hamiltonian_defect(build_entangler_system(p, adiabatic=False))
    assert full_defect == pytest.approx(math.sqrt(2.0) * math.sqrt(p.coupling * p.delta) / 2.0)
    assert hamiltonian_defect(build_measurement_system(1.3)) == pytest.approx(1.3)


def test_full_model_requires_detuning():
    with pytest.raises(ValueError):
        build_entangler_system(ProbeParams(omega=1.0), adiabatic=False)


def test_free_evolution_is_periodic():
    sys0 = build_entangler_system(ProbeParams(omega=1.0))
    mean0 = np.array([1.0, 0.5, -0.3, 0.2])
    cov0 = thermal_covariance(3.0)
    mean, cov = integrate_moments(sys0, mean0, cov0, 0.0, 2 * PI, step=1e-3)
    assert np.max(np.abs(mean - mean0)) < 1e-8
    assert np.max(np.abs(cov.matrix - cov0)) < 1e-8


def test_rk4_is_fourth_order():
    p = ProbeParams.from_squeeze_ratio(1.0, 2.0)
    system = build_entangler_system(p)
    mean0 = np.array([1.0, 0.0, 0.0, 0.0])
    cov0 = thermal_covariance(1.0)
    t = 1.0
    exact = transfer_matrix(p, t) @ mean0

    def err(step):
        mean, _ = integrate_moments(system, mean0, cov0, 0.0, t, step=step)
        return np.max(np.abs(mean - exact))

    ratio = err(1e-2) / err(5e-3)
    assert 12.0 < ratio < 20.0


def test_moments_match_transfer_closed_form():
    rng = np.random.default_rng(5)
    p = ProbeParams.from_squeeze_ratio(1.0, 2.0, n_th=2.0)
    system = build_entangler_system(p)
    t = 0.7
    m = transfer_matrix(p, t)
    for _ in range(5):
        mean0 = rng.normal(size=4)
        c0 = np.diag(0.5 + rng.uniform(0.0, 2.0, size=4))
        mean, cov = integrate_moments(system, mean0, c0, 0.0, t, step=1e-4)
        assert np.max(np.abs(mean - m @ mean0)) < 1e-9
        assert np.max(np.abs(cov.matrix - m @ c0 @ m.T)) < 1e-9


def test_measurement_moments_match_closed_forms():
    kappa, tau, ratio, n_th = 1.0, PI / 2, 2.0, 20.0
    phi = phi_opt(tau)
    m = MeterParams(kappa=kappa, tau_scaled=tau, phi=phi)
    system = build_measurement_system(kappa)
    c0 = direct_sum(rotate(entangled_covariance(ratio, n_th), phi), vacuum(2))
    mean, cov = integrate_moments(system, None, c0, 1.0, tau, step=1e-4)
    w = np.zeros(8)
    w[5] = w[7] = 1.0
    assert w @ mean == pytest.approx(signal_coeff(m), rel=1e-9)
    assert w @ cov.matrix @ w == pytest.approx(noise(m, ratio, n_th), rel=1e-9)


def test_integration_divergence_detected():
    runaway = LinearSystem(5.0 * np.eye(2), np.zeros(2), label="runaway")
    with pytest.raises(IntegrationDivergedError):
        integrate_moments(runaway, np.ones(2), vacuum(1), 0.0, 200.0, step=0.01)


def test_full_model_guard_halves_past_a_diverged_step(monkeypatch):
    p = ProbeParams.from_squeeze_ratio(1.0, 2.0, delta=100.0, n_th=20.0)
    settled, _ = full_model_deviation(p)
    real, steps = oracle.integrate_moments, []

    def diverge_at_first_step(system, mean0, cov0, force, t_final, step):
        steps.append(step)
        if len(steps) == 1:
            raise IntegrationDivergedError("diverged")
        return real(system, mean0, cov0, force, t_final, step)

    monkeypatch.setattr(oracle, "integrate_moments", diverge_at_first_step)
    deviation, _ = full_model_deviation(p)
    assert steps == [steps[0] / 2**k for k in range(3)]
    assert deviation == pytest.approx(settled, rel=1e-3)


def test_integrate_moments_argument_checks():
    sys0 = build_entangler_system(ProbeParams(omega=1.0))
    with pytest.raises(ValueError):
        integrate_moments(sys0, None, vacuum(2), 0.0, -1.0, 0.01)
    with pytest.raises(ValueError):
        integrate_moments(sys0, None, vacuum(2), 0.0, 1.0, step=0.0)
    with pytest.raises(ValueError):
        integrate_moments(sys0, np.zeros(3), vacuum(2), 0.0, 1.0, 0.01)
    with pytest.raises(ValueError):
        integrate_moments(sys0, None, vacuum(3), 0.0, 1.0, 0.01)
    mean, cov = integrate_moments(sys0, None, vacuum(2), 0.0, 0.0, 0.01)
    assert np.array_equal(mean, np.zeros(4))
    assert np.array_equal(cov.matrix, vacuum(2))
    mean0 = np.ones(4)
    mean, _ = integrate_moments(sys0, mean0, vacuum(2), 0.0, 1.0, 0.01)
    with pytest.raises(ValueError):
        mean[0] = 9.0  # the returned mean is read-only
    assert np.array_equal(mean0, np.ones(4))


def test_verify_small_grid_passes():
    report = verify_closed_forms(SMALL_GRID)
    assert report.passed
    assert [c.name for c in report.checks] == [
        "entangler-transfer",
        "switch-off-covariance",
        "readout-moments",
    ]
    assert all(c.points > 0 for c in report.checks)
    assert max(c.max_rel_error for c in report.checks) < 1e-8


def test_verify_grid_with_a_zero_reference():
    # the signal at tau 0 is exactly 0, so its error is the absolute gap
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_closed_forms(VerifyGrid(taus=(0.0,), kappas=(1.0,)))
    assert report.passed
    assert report.checks[-1].name == "readout-moments"
    assert report.checks[-1].max_rel_error == 0.0


def test_verify_printed_signal_is_informational():
    report = verify_closed_forms(SMALL_GRID, include_printed_signal=True)
    printed = report.checks[-1]
    assert printed.name == "readout-signal-printed"
    assert printed.informational
    assert not printed.passed  # the printed convention disagrees mid-period
    assert report.passed  # without affecting the overall verdict
    errs = dict(printed.samples)
    assert errs["kappa=1 tau_scaled=1.5708"] == pytest.approx(
        3.50387678776821732, rel=1e-6
    )


def test_verify_unattainable_tolerance_fails():
    # the guard refines the readout until it is within ~3e-16 of the closed
    # forms here, so only a tolerance below double rounding is out of reach
    report = verify_closed_forms(SMALL_GRID, tolerance=1e-17)
    assert not report.passed
    readout = report.checks[-1]
    assert readout.failures
    assert any("FAIL" in check.summary() for check in report.checks)


@pytest.mark.parametrize(
    "grid, empty",
    [
        (VerifyGrid(kappas=(), n_ths=()), {"switch-off-covariance", "readout-moments"}),
        (VerifyGrid(transfer_times=(), kappas=()), {"entangler-transfer", "readout-moments"}),
        (VerifyGrid(transfer_times=()), {"entangler-transfer"}),
    ],
)
def test_verify_grid_with_an_empty_family(grid, empty):
    report = verify_closed_forms(grid)
    assert report.passed
    for check in report.checks:
        assert (check.points == 0) == (check.name in empty), check.name
        if check.points == 0:
            assert check.passed and not check.failures
            assert (check.max_rel_error, check.worst_case, check.guard_margin) == (0.0, "", 0.0)


@pytest.mark.parametrize(
    "grid, unused",
    [
        (VerifyGrid(kappas=(), transfer_times=(), n_ths=()), ("propagator", "noise")),
        (VerifyGrid(kappas=()), ("noise", "signal_coeff", "phi_opt", "mode_rotation")),
    ],
)
def test_an_empty_family_builds_nothing(monkeypatch, grid, unused):
    def refuse(*args, **kwargs):
        raise AssertionError("an empty family built an oracle or closed-form value")

    for name in unused:
        monkeypatch.setattr(oracle, name, refuse)
    assert verify_closed_forms(grid, include_printed_signal=True).passed


def test_verify_failure_lines_keep_grid_order():
    # a negative tolerance fails every guard and every comparison
    readout = verify_closed_forms(SMALL_GRID, tolerance=-1.0).checks[-1]
    labels = [re.sub(r"[-+.e0-9]+$", "", line) for line in readout.failures]
    want = []
    for tau in ("1.5708", "3.14159"):
        case = f"kappa=1 tau_scaled={tau}"
        want += [f"{case}: step robustness ", f"{case} signal: rel_err="]
        want += [
            f"{case} ratio={ratio} n_th=0 phi={mode} noise: rel_err="
            for ratio in (1, 2)
            for mode in ("zero", "opt")
        ]
    assert labels == want


def test_verify_points_and_python_floats():
    grid = VerifyGrid()
    report = verify_closed_forms(grid, include_printed_signal=True)
    k, t = len(grid.kappas), len(grid.taus)
    variants = len(grid.ratios) * len(grid.n_ths) * len(grid.phi_modes)
    points = {c.name: c.points for c in report.checks}
    assert points["readout-moments"] == k * t * (1 + variants) == 1250
    assert points["readout-signal-printed"] == k * t
    for check in report.checks:
        assert type(check.max_rel_error) is float, check.name
        assert type(check.guard_margin) is float, check.name


def rk4_steps(a, n, h):
    """Reference: n classical RK4 steps of dX/dt = a @ X from X = I, one at a time."""
    x = np.eye(a.shape[0])
    for _ in range(n):
        k1 = a @ x
        k2 = a @ (x + 0.5 * h * k1)
        k3 = a @ (x + 0.5 * h * k2)
        k4 = a @ (x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


@pytest.mark.parametrize("drive", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1000])
def test_propagator_matches_stepwise_rk4(n, drive):
    rng = np.random.default_rng(1000 * n + drive)
    drift = rng.normal(size=(4, 4))
    system = LinearSystem(drift, rng.normal(size=4) if drive else np.zeros(4))
    a = system.augmented(1.0) if drive else system.drift
    t = 1.3
    # a step a hair above t/n keeps ceil(t/step) at exactly n
    x = propagator(a, t, (t / n) * (1.0 + 1e-12))
    want = rk4_steps(a, n, t / n)
    assert np.max(np.abs(x - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


RATIO_1E3 = ProbeParams.from_squeeze_ratio(1.0, 1e3)
ENTANGLER_1E3 = (
    build_entangler_system(RATIO_1E3).drift,
    (2.0 * PI / relative_mode_frequency(RATIO_1E3)) / 2048.0,
    oracle.ENTANGLER_TOLERANCE / 10.0,
)
READOUT_KAPPA_5 = (build_measurement_system(5.0).augmented(1.0), PI / 2048.0, 1e-7)


# verify's corners, each with its check's starting step and guard: the
# entangler at ratio 1e3, and the kappa=5 readout at the shortest and longest tau
@pytest.mark.parametrize(
    "t, case",
    [
        (PI / 2.0, ENTANGLER_1E3),
        (5.9, ENTANGLER_1E3),
        (1e-6, READOUT_KAPPA_5),
        (2.0 * PI, READOUT_KAPPA_5),
    ],
    ids=["entangler-t=pi/2", "entangler-t=5.9", "readout-tau=1e-6", "readout-tau=2pi"],
)
def test_settled_propagator_matches_arbitrary_precision_expm(t, case):
    # at the step its guard settles on, the oracle is within the guard's own
    # h vs h/2 difference of a 40-digit expm
    a, step, rtol = case
    value, diff, settled = oracle._settle(lambda h: propagator(a, t, h), step, t, rtol)
    error = oracle._rel(value, mp_expm(a, t))
    assert settled and diff <= rtol
    assert error <= diff


@pytest.mark.parametrize("step", [math.nan, math.inf, -1.0, 0.0, 1e-320])
def test_step_must_be_finite_positive_and_bounded(step):
    sys0 = build_entangler_system(ProbeParams(omega=1.0))
    with pytest.raises(ValueError, match="step"):
        integrate_moments(sys0, None, vacuum(2), 0.0, 1.0, step=step)
    with pytest.raises(ValueError, match="step"):
        propagator(sys0.drift, 1.0, step)


def test_guard_margin_recorded_per_check():
    tolerances = {
        "entangler-transfer": 1e-8,
        "switch-off-covariance": 1e-8,
        "readout-moments": 1e-6,
    }
    report = verify_closed_forms()
    assert [c.name for c in report.checks] == list(tolerances)
    for check in report.checks:
        assert 0.0 < check.guard_margin <= tolerances[check.name] / 10.0, check.name
        assert "guard" not in check.summary()


@pytest.mark.parametrize("taus", [oracle._TAU_GRID + (1e-3,), (1e-6,)])
def test_readout_guard_sees_the_signal_step_error(taus):
    # The signal starts as kappa*tau^3/6, far below 1, and 1e-6 is shorter
    # than the default step: each tau starts at 1/8 of itself if that is
    # finer, and the guard is relative to each quantity it compares.
    grid = VerifyGrid(taus=taus)
    readout = verify_closed_forms(grid).checks[2]
    worst = 0.0
    for kappa in grid.kappas:
        a = build_measurement_system(kappa).augmented(1.0)
        for tau in taus:
            step = min(PI / 2048.0, tau / 8.0)
            s_h, s_fine = (propagator(a, tau, h) for h in (step, step / 2.0))
            s_h, s_fine = s_h[5, 8] + s_h[7, 8], s_fine[5, 8] + s_fine[7, 8]
            worst = max(worst, abs(s_h - s_fine) / abs(s_fine))
    assert readout.name == "readout-moments"
    assert 0.0 < readout.guard_margin and worst <= readout.guard_margin
    assert readout.max_rel_error < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    ratio=st.floats(1.0, 10.0),
    n_th=st.floats(0.0, 20.0),
    kappa=st.floats(0.05, 5.0),
    tau=st.floats(0.05, 2.0 * PI),
)
def test_oracle_matches_closed_forms_everywhere(ratio, n_th, kappa, tau):
    def rel(got, want):
        return np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))

    # 1e4 steps per period of the fastest mode: the relative one, then the probes'
    p = ProbeParams.from_squeeze_ratio(1.0, ratio, n_th=n_th)
    system = build_entangler_system(p)
    theta = relative_mode_frequency(p)
    step = 2.0 * PI / theta / 1e4
    columns = [integrate_moments(system, e, vacuum(2), 0.0, tau, step)[0] for e in np.eye(4)]
    assert rel(np.column_stack(columns), transfer_matrix(p, tau)) <= 1e-8

    t_star = PI / (2.0 * theta)
    _, cov = integrate_moments(system, None, thermal_covariance(n_th), 0.0, t_star, step)
    assert rel(cov.matrix, entangled_covariance(ratio, n_th)) <= 1e-8

    phi = phi_opt(tau)
    m = MeterParams(kappa=kappa, tau_scaled=tau, phi=phi)
    c0 = direct_sum(rotate(entangled_covariance(ratio, n_th), phi), vacuum(2))
    readout = build_measurement_system(kappa)
    mean, cov = integrate_moments(readout, None, c0, 1.0, tau, 2.0 * PI / 1e4)
    w = np.zeros(8)
    w[5] = w[7] = 1.0
    assert w @ mean == pytest.approx(signal_coeff(m), rel=1e-8)
    assert w @ cov.matrix @ w == pytest.approx(noise(m, ratio, n_th), rel=1e-8)
