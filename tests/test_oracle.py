import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mp_expm, symplectic_form
from twinprobe import oracle
from twinprobe._common import DomainError
from twinprobe.dynamics import (
    ProbeParams,
    entangled_covariance,
    prepare,
    relative_mode_frequency,
    rotate,
    thermal_covariance,
    transfer_matrix,
)
from twinprobe.gaussian import VACUUM_VARIANCE, direct_sum, vacuum, validate
from twinprobe.metrology import MeterParams, noise, phi_opt, signal_coeff
from twinprobe.oracle import (
    VerifyGrid,
    build_entangler_system,
    build_measurement_system,
    full_model_deviation,
    integrate_moments,
    propagator,
    verify_closed_forms,
)
from twinprobe.sweep import fmin_columns

PI = math.pi

SMALL_GRID = VerifyGrid(
    taus=(PI / 2, PI),
    kappas=(1.0,),
    ratios=(1.0, 2.0),
    n_ths=(0.0,),
    phi_modes=("zero", "opt"),
    transfer_times=(0.7,),
)


def test_drift_validation():
    # a drift must match cov0, or cov0 and one force coordinate
    for drift, cov0 in ((np.zeros((2, 3)), vacuum(1)), (np.zeros((4, 4)), vacuum(1))):
        with pytest.raises(ValueError, match="drift shape"):
            integrate_moments(drift, None, cov0, 0.0, 1.0, 0.01)
    with pytest.raises(ValueError, match="finite"):
        build_entangler_system(ProbeParams(omega=1e308, coupling=1e308))  # omega + chi overflows
    p = ProbeParams(omega=1.0, coupling=1.5, delta=100.0)
    for drift in (
        build_entangler_system(p),
        build_entangler_system(p, adiabatic=False),
        build_measurement_system(1.3),
    ):
        assert drift.dtype == float and not drift.flags.writeable


def test_adiabatic_drift_eigenfrequencies():
    # coupling 1.5 splits the modes into frequencies 1 (common) and 2 (relative)
    p = ProbeParams(omega=1.0, coupling=1.5)
    eigs = np.linalg.eigvals(build_entangler_system(p))
    assert np.max(np.abs(eigs.real)) < 1e-12
    assert sorted(np.round(eigs.imag, 9)) == [-2.0, -1.0, 1.0, 2.0]


def hamiltonian_defect(a):
    """Asymmetry of J^T A: zero iff the drift A is J H with H symmetric (a Hamiltonian flow).

    A readout drift's last coordinate, the force, is left out.
    """
    n = len(a) // 2
    h = symplectic_form(n).T @ a[: 2 * n, : 2 * n]
    return float(np.max(np.abs(h - h.T)))


def test_hamiltonian_defects():
    p = ProbeParams(omega=1.0, coupling=1.5, delta=100.0)
    assert hamiltonian_defect(build_entangler_system(p)) < 1e-12
    # the kept-cavity and readout generators are asymmetric by design:
    # the feed rate is half the push-back rate
    full_defect = hamiltonian_defect(build_entangler_system(p, adiabatic=False))
    assert full_defect == pytest.approx(math.sqrt(2.0) * math.sqrt(p.coupling * p.delta) / 2.0)
    assert hamiltonian_defect(build_measurement_system(1.3)) == pytest.approx(1.3)


# [X, Y] / i of each mode, as the drifts are coded
PROBE, CAVITY, METER = 1.0, 0.5, 0.5


@pytest.mark.parametrize(
    "system, weights, step, unit_defect",
    [
        ("adiabatic", (PROBE, PROBE), 1e-3, 0.0),
        ("full", (PROBE, PROBE, CAVITY), 1e-4, math.sqrt(75.0)),  # the feed rate, sqrt(2) g beta
        ("readout", (PROBE, PROBE, METER, METER), 1e-3, 1.3),  # kappa
    ],
)
def test_drifts_follow_the_commutator_table(system, weights, step, unit_defect):
    # each drift is Omega' H with H symmetric, for the form Omega' of the
    # table, so each propagator preserves Omega'
    p = ProbeParams(omega=1.0, coupling=1.5, delta=100.0)
    a = {
        "adiabatic": build_entangler_system(p),
        "full": build_entangler_system(p, adiabatic=False),
        "readout": build_measurement_system(1.3)[:8, :8],  # without the force column
    }[system]
    omega = symplectic_form(len(weights), weights)
    h = np.linalg.inv(omega) @ a
    assert np.array_equal(h, h.T)
    x = propagator(a, 1.0, step)
    assert np.max(np.abs(x @ omega @ x.T - omega)) <= 1e-8 * np.max(np.abs(omega))
    # with [X, Y] = i for every mode, the cavity and meter couplings are not Hamiltonian
    h = np.linalg.inv(symplectic_form(len(weights))) @ a
    assert np.max(np.abs(h - h.T)) == pytest.approx(unit_defect)


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
    # the force is the drift's last coordinate: the Y1 + Y2 mean is linear in
    # it, and the covariance does not see it
    kappa, tau, ratio, n_th = 1.0, PI / 2, 2.0, 20.0
    phi = phi_opt(tau)
    m = MeterParams(kappa=kappa, tau_scaled=tau, phi=phi)
    a = build_measurement_system(kappa)
    assert a.shape == (9, 9)
    c0 = direct_sum(rotate(entangled_covariance(ratio, n_th), phi), vacuum(2))
    w = np.zeros(8)
    w[5] = w[7] = 1.0
    _, cov_0 = integrate_moments(a, None, c0, 0.0, tau, step=1e-4)
    assert w @ cov_0.matrix @ w == pytest.approx(noise(m, ratio, n_th), rel=1e-9)
    for force in (0.0, 1.0, -2.5):
        mean, cov = integrate_moments(a, None, c0, force, tau, step=1e-4)
        assert w @ mean == pytest.approx(force * signal_coeff(m), rel=1e-9, abs=0.0)
        assert np.array_equal(cov.matrix, cov_0.matrix)


def test_integration_divergence_detected():
    with pytest.raises(DomainError):
        integrate_moments(5.0 * np.eye(2), np.ones(2), vacuum(1), 0.0, 200.0, step=0.01)


def test_full_model_guard_halves_past_a_diverged_step(monkeypatch):
    p = ProbeParams.from_squeeze_ratio(1.0, 2.0, delta=100.0, n_th=20.0)
    settled, _ = full_model_deviation(p)
    real, steps = oracle.propagator, []

    def diverge_at_first_step(a, t, step):
        steps.append(step)
        x = real(a, t, step)
        return np.full_like(x, math.inf) if len(steps) == 1 else x

    monkeypatch.setattr(oracle, "propagator", diverge_at_first_step)
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
    quarter = verify_closed_forms(
        VerifyGrid(kappas=(1.0,), taus=(PI / 2,)), include_printed_signal=True
    ).checks[-1]
    assert quarter.worst_case == "kappa=1 tau_scaled=1.5708"
    assert quarter.max_rel_error == pytest.approx(3.50387678776821732, rel=1e-6)


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
        (
            VerifyGrid(kappas=(), transfer_times=(), n_ths=()),
            ("oracle.propagator", "metrology.noise"),
        ),
        (
            VerifyGrid(kappas=()),
            (
                "metrology.noise",
                "metrology.signal_coeff",
                "metrology.phi_opt",
                "oracle.mode_rotation",
            ),
        ),
    ],
)
def test_an_empty_family_builds_nothing(monkeypatch, grid, unused):
    def refuse(*args, **kwargs):
        raise AssertionError("an empty family built an oracle or closed-form value")

    # the readout check imports the closed forms from metrology when it runs
    for name in unused:
        monkeypatch.setattr(f"twinprobe.{name}", refuse)
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


# Every field of the default grid's checks, floats as float.hex and the failure
# lines as the sha256 of their newline-joined text.  Pinned from the propagator
# that ran one case per call; powering the cases as a stack changes no bit.
DEFAULT_GRID_CHECKS = [
    (
        "entangler-transfer", 20, "0x1.0e7e7fff454b8p-34", "ratio=1000 t=1.5708",
        True, False, 0, hashlib.sha256(b"").hexdigest(), "0x1.6079afff3deacp-32",
    ),
    (
        "switch-off-covariance", 12, "0x1.88b2b65a5cd7ep-46", "ratio=2 n_th=1000",
        True, False, 0, hashlib.sha256(b"").hexdigest(), "0x1.6f41960fa124cp-42",
    ),
    (
        "readout-moments", 1250, "0x1.ad99fdf3ec66bp-41", "kappa=5 tau_scaled=0.001 signal",
        True, False, 0, hashlib.sha256(b"").hexdigest(), "0x1.92a8a8ef2c007p-37",
    ),
    (
        "readout-signal-printed", 50, "0x1.5d3f0309afd33p+42", "kappa=0.05 tau_scaled=1e-06",
        False, True, 40, "09f4f3f2c517c68a0d897ab6ea41d76e7b935b90c823df860fda8c2eb5f977bf",
        "0x1.92a8a8ef2c007p-37",
    ),
]


@pytest.mark.parametrize("printed", [False, True])
def test_default_grid_checks_keep_every_bit(printed):
    report = verify_closed_forms(include_printed_signal=printed)
    got = [
        (
            c.name, c.points, c.max_rel_error.hex(), c.worst_case, c.passed, c.informational,
            len(c.failures), hashlib.sha256("\n".join(c.failures).encode()).hexdigest(),
            c.guard_margin.hex(),
        )
        for c in report.checks
    ]
    assert got == DEFAULT_GRID_CHECKS[: 3 + printed]


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
    a = rng.normal(size=(4, 4))
    if drive:  # the drive as the column of a constant last coordinate
        a = np.block([[a, rng.normal(size=(4, 1))], [np.zeros((1, 5))]])
    t = 1.3
    # a step a hair above t/n keeps ceil(t/step) at exactly n
    x = propagator(a, t, (t / n) * (1.0 + 1e-12))
    want = rk4_steps(a, n, t / n)
    assert np.max(np.abs(x - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_batched_propagator_matches_each_case_bitwise():
    # a (3, 2) stack of drifts under one end time and step each: from 0
    # (t = 0) to 2000 steps, so the bit patterns differ at every squaring
    rng = np.random.default_rng(23)
    a = rng.normal(size=(3, 2, 5, 5))
    for t, step in ((0.0, 0.1), (0.3, 0.1), (1.3, 0.013), (2.0, 1e-3)):
        x = propagator(a, t, step)
        assert x.shape == (3, 2, 5, 5)
        for i, j in np.ndindex(3, 2):
            assert x[i, j].tobytes() == propagator(a[i, j], t, step).tobytes(), (t, i, j)
    assert np.array_equal(propagator(a, 0.0, 0.1), np.broadcast_to(np.eye(5), (3, 2, 5, 5)))
    # one case of the stack overflows at 200 steps; the others stay finite
    c = rng.normal(size=(4, 4, 4))
    c[2] *= 50.0
    with np.errstate(over="ignore", invalid="ignore"):
        stack = propagator(c, 50.0, 0.25)
        alone = [propagator(c_i, 50.0, 0.25) for c_i in c]
    assert [np.isfinite(x_i).all() for x_i in stack] == [True, True, False, True]
    for i, x_i in enumerate(alone):
        assert stack[i].tobytes() == x_i.tobytes(), i


# float.hex of (deviation, delta) from full_model_deviation at (r, n_th, delta,
# step): the eight full-model commands of the oracle bench's seeds 1 and 2, one
# at the default detuning and one with a step finer than the detuning's.
# Pinned from the propagator that tracked each case of a stack by index lists.
FULL_MODEL_BITS = [
    (9.92118, 4.96185, 2480.3, None, "0x1.a87529e9824cap-14", "0x1.360999999999ap+11"),
    (1.0095, 19.2681, 252.375, None, "0x1.3ab11a8432fddp-19", "0x1.f8c0000000000p+7"),
    (2.44422, 2.7128, 611.055, None, "0x1.91355c3c354cep-12", "0x1.31870a3d70a3dp+9"),
    (1.30406, 12.2728, 326.015, None, "0x1.2e450e3b5a555p-14", "0x1.4603d70a3d70ap+8"),
    (4.84521, 16.404, 1211.3, None, "0x1.feab35fcb868dp-15", "0x1.2ed3333333333p+10"),
    (6.12721, 5.76742, 1531.8, None, "0x1.e76facd131213p-14", "0x1.7ef3333333333p+10"),
    (1.18042, 14.2642, 295.105, None, "0x1.74dee1be24721p-15", "0x1.271ae147ae148p+8"),
    (1.71718, 15.7236, 429.295, None, "0x1.6a300b2a7b7bfp-14", "0x1.ad4b851eb851fp+8"),
    (3.7, 0.0, None, None, "0x1.4b7e75771740ap-8", "0x1.7200000000000p+8"),
    (2.0, 5.0, 500.0, 1e-05, "0x1.ee41d285a7905p-13", "0x1.f400000000000p+8"),
]


@pytest.mark.parametrize("ratio, n_th, delta, step, dev, delta_out", FULL_MODEL_BITS)
def test_full_model_deviation_keeps_every_bit(ratio, n_th, delta, step, dev, delta_out):
    p = ProbeParams.from_squeeze_ratio(1.0, ratio, delta=delta, n_th=n_th)
    got = full_model_deviation(p, step)
    assert (got[0].hex(), got[1].hex()) == (dev, delta_out)


@pytest.mark.parametrize(
    "t, step, message",
    [
        (1.0, -1.0, "step must be finite and positive, got -1.0"),
        (1.0, math.nan, "step must be finite and positive, got nan"),
        (math.nan, 0.1, "t must be nonnegative, got nan"),
        (-1.0, 0.1, "t must be nonnegative, got -1.0"),
        (1.0, 1e-320, "step 1e-320 needs over 1099511627776 RK4 steps for t=1"),
        (math.inf, 0.1, "step 0.1 needs over 1099511627776 RK4 steps for t=inf"),
        # numpy scalars, as the step guard passes them, print as Python floats
        (np.float64(-2.0), 0.1, "t must be nonnegative, got -2.0"),
        (
            np.float64(3.0),
            np.float64(1e-300),
            "step 1e-300 needs over 1099511627776 RK4 steps for t=3",
        ),
    ],
)
def test_propagator_refusals_name_the_case(t, step, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        propagator(np.zeros((4, 4)), t, step)


RATIO_1E3 = ProbeParams.from_squeeze_ratio(1.0, 1e3)
ENTANGLER_1E3 = (
    build_entangler_system(RATIO_1E3),
    (2.0 * PI / relative_mode_frequency(RATIO_1E3)) / 2048.0,
    oracle.ENTANGLER_TOLERANCE / 10.0,
)
READOUT_KAPPA_5 = (build_measurement_system(5.0), PI / 2048.0, 1e-7)


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
        propagator(sys0, 1.0, step)


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
        a = build_measurement_system(kappa)
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


def entangler_stage(ratio, n_th, adiabatic=True):
    """Drift, switch-off time, start step and initial state of the entangling stage.

    The full model keeps the cavity at delta = 100 theta, starts it in
    vacuum beside the thermal probes, and starts the step at 1/300 of the
    detuning period, as ``full_model_deviation`` does by default.
    """
    p = ProbeParams.from_squeeze_ratio(1.0, ratio)
    theta = relative_mode_frequency(p)
    t_off, period, c0 = PI / (2.0 * theta), 2.0 * PI / theta, thermal_covariance(n_th)
    if adiabatic:
        return build_entangler_system(p), t_off, period / 2048.0, c0
    full = build_entangler_system(p._replace(delta=100.0 * theta), adiabatic=False)
    return full, t_off, period / 100.0 / 300.0, direct_sum(c0, vacuum(1))


def switch_off_state(ratio, n_th, adiabatic=True):
    """The probes' X C0 X^T at switch-off, settled as the verify check settles it."""
    drift, span, step, c0 = entangler_stage(ratio, n_th, adiabatic)

    def measure(h):
        x = propagator(drift, span, h)[:4]
        c = x @ c0 @ x.T
        return 0.5 * (c + c.T)

    value, _, settled = oracle._settle(measure, step, span, oracle.ENTANGLER_TOLERANCE / 10.0)
    assert settled
    return value


def staged_fmin(ratio, n_th, kappa, tau, phi, adiabatic=True):
    """f_min of one run composed from the oracle's stages alone, at the settled step.

    The thermal state goes through the entangler to switch-off (with the
    cavity kept unless ``adiabatic``, and only the probes kept after it),
    rotates by free evolution for (phi mod 2 pi) / omega, and is read out;
    the meters start in vacuum.  Each stage starts at its verify check's step.
    """
    *entangler, c0 = entangler_stage(ratio, n_th, adiabatic)
    drifts, spans, steps = zip(
        entangler,
        (build_entangler_system(ProbeParams(1.0)), phi % (2.0 * PI), PI / 2048.0),
        (build_measurement_system(kappa), tau, PI / 2048.0),
    )

    def measure(h):
        entangler, rotation, readout = map(propagator, drifts, spans, h)
        x = rotation @ entangler[:4]
        v = readout[5] + readout[7]  # Y1 + Y2 over (q1, p1, q2, p2, X1, Y1, X2, Y2, f)
        variance = v[:4] @ x @ c0 @ x.T @ v[:4] + VACUUM_VARIANCE * v[4:8] @ v[4:8]
        return np.full((1, 1), math.sqrt(variance) / abs(v[8]))

    value, _, settled = oracle._settle(measure, np.array(steps), np.array(spans), 1e-9)
    assert settled
    return float(value[0, 0])


@settings(max_examples=100, deadline=None)
@given(
    ratio=st.floats(1.0, 1e3),
    n_th=st.floats(0.0, 1e3),
    kappa=st.floats(0.05, 5.0),
    tau=st.floats(1e-6, 2.0 * PI),
    phi=st.floats(-PI, PI),
)
# a subnormal rotation time, whose eighth rounds to 0 in the step guard
@example(ratio=1.0, n_th=0.0, kappa=1.0, tau=1.0, phi=5e-324)
def test_one_run_through_the_oracle_stages_matches_fmin_columns(ratio, n_th, kappa, tau, phi):
    # no closed form enters the run: a sign or ordering slip between the
    # stages would show here although every verify family passes
    closed = fmin_columns(tau, kappa, ratio, n_th, phi)
    assert staged_fmin(ratio, n_th, kappa, tau, phi) == pytest.approx(closed["f_min"], rel=1e-8)
    # f_sql is f_min of uncoupled ground-state probes
    assert staged_fmin(1.0, 0.0, kappa, tau, phi) == pytest.approx(closed["f_sql"], rel=1e-8)


@settings(max_examples=100, deadline=None)
@given(
    ratio=st.floats(1.0, 10.0),
    n_th=st.floats(0.0, 100.0),
    kappa=st.floats(0.05, 5.0),
    tau=st.floats(0.05, 2.0 * PI),
    phi=st.floats(-PI, PI),
)
# a readout near phi_opt (-0.232) at large kappa: 3.3 times the deviation
@example(ratio=5.91, n_th=7.64, kappa=4.65, tau=0.464, phi=-0.229)
def test_full_model_run_through_the_oracle_stages_stays_near_fmin_columns(
    ratio, n_th, kappa, tau, phi
):
    # The kept cavity moves f_min only through the switch-off state, C + dC
    # in place of C.  For every readout row v, v^T (C + dC) v lies within
    # (1 -/+ rho) v^T C v, rho the spectral radius of C^-1 dC (Rayleigh-Ritz
    # on the pencil (dC, C)), and the meter term is unchanged, so f_min moves
    # by a factor within sqrt(1 -/+ rho), exactly rather than to first order.
    state = entangled_covariance(ratio, n_th)
    shift = np.linalg.solve(state, switch_off_state(ratio, n_th, adiabatic=False) - state)
    rho = np.max(np.abs(np.linalg.eigvals(shift)))
    closed = fmin_columns(tau, kappa, ratio, n_th, phi)["f_min"]
    full = staged_fmin(ratio, n_th, kappa, tau, phi, adiabatic=False)
    assert math.sqrt(1.0 - rho) - 1e-8 <= full / closed <= math.sqrt(1.0 + rho) + 1e-8


def test_full_model_deviation_understates_the_squeezed_variance():
    # The kept cavity's vacuum adds ~1e-3 to Var(q1 - q2) at any n_th.  At
    # ratio 10, n_th 0 that is 20% of the squeezed variance, so rho is 0.2,
    # while the deviation, relative to the largest entry, reads 2.4e-3:
    # rho/2 is 41.5 times it, so only rho bounds the test above.
    closed = entangled_covariance(10.0, 0.0)
    shift = np.linalg.solve(closed, switch_off_state(10.0, 0.0, adiabatic=False) - closed)
    rho = np.max(np.abs(np.linalg.eigvals(shift)))
    dev, _ = full_model_deviation(ProbeParams.from_squeeze_ratio(1.0, 10.0))
    assert rho == pytest.approx(0.2, rel=1e-2)
    assert rho / 2.0 / dev == pytest.approx(41.5, rel=1e-2)


# p2 -> -p2: the partial transpose of the pair's Gaussian state
PARTIAL_TRANSPOSE = np.diag([1.0, 1.0, 1.0, -1.0])


@pytest.mark.parametrize("n_th", [0.0, 0.3, 20.0, 1e3])
@pytest.mark.parametrize("ratio", [1.0, 1.5, 2.0, 10.0, 100.0, 1e3])
def test_ppt_of_the_oracle_switch_off_state(ratio, n_th):
    # Simon, PRL 84, 2726 (2000): a two-mode Gaussian state is entangled iff
    # its partial transpose has a symplectic eigenvalue below 1/2
    c = switch_off_state(ratio, n_th)
    nu = validate(PARTIAL_TRANSPOSE @ c @ PARTIAL_TRANSPOSE).min_symplectic_eigenvalue
    assert nu == pytest.approx((VACUUM_VARIANCE + n_th) / ratio, rel=1e-8)
    # for this state PPT is the EPR product test; on the boundary ratio =
    # 1 + 2 n_th nu rounds either way while the product is exactly 1
    if ratio != 1.0 + 2.0 * n_th:
        product = prepare(ProbeParams.from_squeeze_ratio(1.0, ratio, n_th=n_th)).variance_product
        assert (nu < VACUUM_VARIANCE) == (product < 1.0)


def test_squeeze_margin_verdict_is_not_ppt():
    # `entangled`, the squeeze-margin test ratio**2 > 1 + 2 n_th, says yes,
    # while PPT says separable: nu = (1/2 + 20) / 10 is above 1/2
    c = switch_off_state(10.0, 20.0)
    nu = validate(PARTIAL_TRANSPOSE @ c @ PARTIAL_TRANSPOSE).min_symplectic_eigenvalue
    assert prepare(ProbeParams.from_squeeze_ratio(1.0, 10.0, n_th=20.0)).entangled
    assert nu == pytest.approx(2.05, rel=1e-8)
