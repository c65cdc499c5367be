"""Moment-ODE oracle for the closed forms in dynamics and metrology.

Every stage of the pipeline is a linear system v' = A v + b f, so the
mean obeys m' = A m + b f and the covariance C' = A C + C A^T.  This
module builds the drift/drive pairs for the entangling stage (with and
without adiabatic elimination of the cavity) and for the readout stage,
integrates the moments with a fixed-step classical Runge-Kutta scheme,
and checks the closed-form transfer matrix, switch-off covariance, and
readout signal/noise against the integrated values.

One RK4 step of v' = A v is the matrix polynomial P(hA), so n steps are
P(hA)^n, computed by repeated squaring (``propagator``).  The drive is an
extra column of the drift, and the covariance is X C0 X^T for the
propagator X (C. Van Loan, IEEE TAC 23:395, 1978).

The integration route shares no trigonometry with the closed forms; a
step-halving (h vs h/2) guard must pass before any comparison counts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._common import DomainError
from .dynamics import (
    ProbeParams,
    coupling_strength,
    entangled_covariance,
    prepare,
    relative_mode_frequency,
    rotate,
    thermal_covariance,
    transfer_matrix,
)
from .gaussian import CovarianceMatrix, QuadratureVector, direct_sum, vacuum
from .metrology import (
    SIGNAL_CONSISTENT,
    SIGNAL_PRINTED,
    MeterParams,
    noise,
    phi_opt,
    signal_coeff,
)

__all__ = [
    "MAX_STEPS",
    "IntegrationDivergedError",
    "LinearSystem",
    "VerifyGrid",
    "CheckResult",
    "VerificationReport",
    "build_entangler_system",
    "build_measurement_system",
    "symplectic_form",
    "hamiltonian_defect",
    "propagator",
    "integrate_moments",
    "full_model_deviation",
    "verify_closed_forms",
]


class IntegrationDivergedError(DomainError, RuntimeError):
    """The fixed-step integration produced non-finite moments."""


@dataclass(frozen=True)
class LinearSystem:
    """Constant-coefficient quadrature dynamics v' = drift @ v + drive * f."""

    drift: np.ndarray
    drive: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        drift = np.array(self.drift, dtype=float)
        drive = np.array(self.drive, dtype=float)
        if drift.ndim != 2 or drift.shape[0] != drift.shape[1]:
            raise ValueError(f"drift must be square, got shape {drift.shape}")
        if drive.shape != (drift.shape[0],):
            raise ValueError(
                f"drive shape {drive.shape} does not match drift dim {drift.shape[0]}"
            )
        if not (np.isfinite(drift).all() and np.isfinite(drive).all()):
            raise ValueError("drift and drive must be finite")
        drift.setflags(write=False)
        drive.setflags(write=False)
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "drive", drive)

    @property
    def dim(self) -> int:
        return self.drift.shape[0]

    def augmented(self, force: float) -> np.ndarray:
        """The drift with ``drive * force`` as an extra column: v' = A v + b f, f' = 0."""
        column = (self.drive * force)[:, None]
        return np.block([[self.drift, column], [np.zeros((1, self.dim + 1))]])


def build_entangler_system(p: ProbeParams, adiabatic: bool = True) -> LinearSystem:
    """Drift of the entangling stage, ordering (q1, p1, q2, p2[, x_c, y_c]).

    With ``adiabatic=True`` the cavity is eliminated and the coupling
    acts as a spring on the relative coordinate.  Otherwise the cavity
    quadratures (x_c, y_c) are kept: they precess at the detuning, the
    relative coordinate drives y_c, and x_c pushes back on the momenta.
    """
    w = p.omega
    if adiabatic:
        chi = coupling_strength(p)
        a = np.array(
            [
                [0.0, w, 0.0, 0.0],
                [-(w + chi), 0.0, chi, 0.0],
                [0.0, 0.0, 0.0, w],
                [chi, 0.0, -(w + chi), 0.0],
            ]
        )
        return LinearSystem(a, np.zeros(4), label="entangler-adiabatic")
    if p.delta is None or p.delta == 0:
        raise ValueError("full entangler model requires nonzero delta")
    gb = p.g_opt * p.beta_abs
    push = 2.0 * math.sqrt(2.0) * gb  # cavity amplitude -> probe momentum
    feed = math.sqrt(2.0) * gb  # relative coordinate -> cavity phase
    d = p.delta
    a = np.array(
        [
            [0.0, w, 0.0, 0.0, 0.0, 0.0],
            [-w, 0.0, 0.0, 0.0, -push, 0.0],
            [0.0, 0.0, 0.0, w, 0.0, 0.0],
            [0.0, 0.0, -w, 0.0, push, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, -d],
            [-feed, 0.0, feed, 0.0, d, 0.0],
        ]
    )
    return LinearSystem(a, np.zeros(6), label="entangler-full")


def build_measurement_system(
    m: MeterParams,
    force: float = 1.0,
    omega: float = 1.0,
) -> LinearSystem:
    """Drift and drive of the readout stage, ordering (q1,p1,q2,p2,X1,Y1,X2,Y2).

    Each probe position feeds its meter phase quadrature Y_j at rate
    g*gamma (opposite signs for the two probes) while the static meter
    amplitude X_j pushes back on the probe momentum at rate 2*g*gamma.
    The force enters the two momenta with weight +/- sqrt(2)*omega, so
    that the summed meter phase accumulates it.
    """
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    gg = m.kappa * omega  # composite g*gamma
    a = np.zeros((8, 8))
    for qi, pi, xi, yi, sign in [(0, 1, 4, 5, +1.0), (2, 3, 6, 7, -1.0)]:
        a[qi, pi] = omega
        a[pi, qi] = -omega
        a[pi, xi] = sign * 2.0 * gg
        a[yi, qi] = sign * gg
    b = np.zeros(8)
    b[1] = math.sqrt(2.0) * omega * force
    b[3] = -math.sqrt(2.0) * omega * force
    return LinearSystem(a, b, label="measurement")


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form for (q, p) pairs, [q, p] = i."""
    j = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        j[2 * k, 2 * k + 1] = 1.0
        j[2 * k + 1, 2 * k] = -1.0
    return j


def hamiltonian_defect(system: LinearSystem) -> float:
    """Asymmetry of the quadratic form generating the drift.

    Zero (to roundoff) iff the drift is J @ H with H symmetric, i.e. the
    flow is Hamiltonian and the propagator symplectic.
    """
    if system.dim % 2 != 0:
        raise ValueError("hamiltonian check needs an even dimension")
    j = symplectic_form(system.dim // 2)
    h = j.T @ system.drift
    return float(np.max(np.abs(h - h.T)))


def _default_step(a: np.ndarray) -> float:
    # 1e4 steps per period of the fastest oscillation in the drift
    fast = float(np.max(np.abs(np.linalg.eigvals(a).imag)))
    if fast == 0.0:
        fast = max(float(np.linalg.norm(a, 2)), 1.0)
    return (2.0 * math.pi / fast) / 1e4


MAX_STEPS = 2**40  # per interval: a finer step is an input error, not hours of work


def _check_step(step: float) -> None:
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step!r}")


def _rk4_power(z: np.ndarray, n: int) -> np.ndarray:
    """P(z)^n in O(log n) products; P(hA) = 1 + hA + ... + (hA)^4/24 is one RK4 step.

    Powers are carried as E = P^k - 1, (1 + E)(1 + F) = 1 + E + F + EF, so
    a small step's increment is not rounded away against the identity.
    """
    eye = np.eye(z.shape[0])
    base = z @ (eye + z @ (eye + z @ (eye + z / 4.0) / 3.0) / 2.0)
    result = None
    while True:
        if n & 1:
            result = base if result is None else result + base + result @ base
        n >>= 1
        if not n:
            return eye + result
        base = 2.0 * base + base @ base


def propagator(a, times, step: float) -> list[np.ndarray]:
    """Fixed-step RK4 propagators of v' = a @ v at nondecreasing ``times``.

    Each interval between consecutive times (from 0) is split into
    n = ceil(dt / step) <= MAX_STEPS equal steps.
    """
    _check_step(step)
    a = np.asarray(a, dtype=float)
    x = np.eye(a.shape[0])
    out = []
    prev = 0.0
    for t in times:
        dt = t - prev
        if not dt >= 0:  # also catches nan
            raise ValueError(f"times must be nondecreasing, got {t!r} after {prev!r}")
        if dt > 0:
            if dt / step > MAX_STEPS:
                raise ValueError(f"step {step!r} needs over {MAX_STEPS} RK4 steps for t={dt:g}")
            n = math.ceil(dt / step)
            x = _rk4_power((dt / n) * a, n) @ x
        out.append(x)
        prev = t
    return out


def integrate_moments(
    system: LinearSystem,
    mean0,
    cov0: CovarianceMatrix,
    force: float = 0.0,
    t_final: float = 0.0,
    step: float | None = None,
) -> tuple[QuadratureVector, CovarianceMatrix]:
    """Propagate mean and covariance to ``t_final`` with fixed-step RK4.

    ``mean0`` may be None (zero mean), a QuadratureVector, or an array.
    The drive is ``system.drive * force``.  The step defaults to 1e4
    steps per period of the fastest drift oscillation; the actual step
    divides t_final exactly.
    """
    if not (math.isfinite(t_final) and t_final >= 0):
        raise ValueError(f"t_final must be finite and nonnegative, got {t_final}")
    if step is not None:
        _check_step(step)
    if mean0 is None:
        mean = np.zeros(system.dim)
    elif isinstance(mean0, QuadratureVector):
        mean = mean0.values.copy()
    else:
        mean = np.array(mean0, dtype=float)
    if mean.shape != (system.dim,):
        raise ValueError(f"mean0 shape {mean.shape} does not match dim {system.dim}")
    if cov0.dim != system.dim:
        raise ValueError(f"cov0 dim {cov0.dim} does not match system dim {system.dim}")
    cov = cov0.matrix.copy()
    if t_final > 0:
        if step is None:
            step = _default_step(system.drift)
        d = system.dim
        # overflow here is not an error condition: it is how divergence
        # presents, and the finite check below turns it into a typed error
        with np.errstate(over="ignore", invalid="ignore"):
            x = propagator(system.augmented(force), (t_final,), step)[0]
            prop = x[:d, :d]
            mean = prop @ mean + x[:d, d]
            cov = prop @ cov @ prop.T
            cov = 0.5 * (cov + cov.T)
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise IntegrationDivergedError(
            f"integration diverged for {system.label or 'system'} at t={t_final}"
        )
    return QuadratureVector(mean), CovarianceMatrix(cov)


def full_model_deviation(p: ProbeParams, step: float | None = None) -> tuple[float, float]:
    """Relative probe-covariance deviation of the full cavity model.

    Propagates the six-dimensional model (cavity kept; delta defaults to
    100 omega, the step to 1/300 of its period) from the thermal state to
    the switch-off time and compares the probe block against the
    adiabatic closed form.  Returns (deviation, delta).
    """
    if p.delta is None:
        p = replace(p, delta=100.0 * p.omega)
    system = build_entangler_system(p, adiabatic=False)
    t_star = math.pi / (2.0 * relative_mode_frequency(p))
    if step is None:
        step = (2.0 * math.pi / abs(p.delta)) / 300.0
    c0 = direct_sum(thermal_covariance(p.n_th), vacuum(1))
    _, c = integrate_moments(system, None, c0, 0.0, t_star, step)
    target = prepare(p).covariance.matrix
    dev = float(abs(c.matrix[:4, :4] - target).max() / max(1.0, abs(target).max()))
    return dev, p.delta


# -- closed-form verification -------------------------------------------------

_TAU_GRID = tuple(k * math.pi / 4.0 for k in range(1, 9))


@dataclass(frozen=True)
class VerifyGrid:
    """Parameter grid for verify_closed_forms."""

    taus: tuple[float, ...] = _TAU_GRID
    kappas: tuple[float, ...] = (0.3, 1.0, 3.0)
    ratios: tuple[float, ...] = (1.0, 2.0, 10.0)
    n_ths: tuple[float, ...] = (0.0, 20.0)
    phi_modes: tuple[str, ...] = ("zero", "opt")
    transfer_times: tuple[float, ...] = (0.35, 1.0, math.pi / 2.0, 2.8, 5.9)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one closed-form-vs-oracle comparison family."""

    name: str
    points: int
    max_rel_error: float
    worst_case: str
    passed: bool
    informational: bool = False
    failures: tuple[str, ...] = ()
    samples: tuple[tuple[str, float], ...] = ()
    # largest step-halving (h vs h/2) difference; fails above tolerance/10
    guard_margin: float = 0.0

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        tag = " (informational)" if self.informational else ""
        return (
            f"CHECK {self.name}: {status}{tag} points={self.points} "
            f"max_rel_err={self.max_rel_error:.3e} worst={self.worst_case}"
        )


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.informational)

    def summary_lines(self) -> list[str]:
        return [c.summary() for c in self.checks]


class _Tracker:
    """Accumulates comparison errors and failure descriptions."""

    def __init__(self, tolerance: float) -> None:
        self.tolerance = tolerance
        self.points = 0
        self.max_err = 0.0
        self.worst = ""
        self.guard_margin = 0.0
        self.failures: list[str] = []

    def add(self, err: float, case: str) -> None:
        self.points += 1
        if err > self.max_err:
            self.max_err = err
            self.worst = case
        if err > self.tolerance:
            self.failures.append(f"{case}: rel_err={err:.3e}")

    def guard(self, diff: float, case: str) -> None:
        # step-halving robustness: h vs h/2 must agree well below tolerance
        self.guard_margin = max(self.guard_margin, diff)
        if diff > self.tolerance / 10.0:
            self.failures.append(f"{case}: step robustness {diff:.3e}")

    def result(self, name: str) -> CheckResult:
        return CheckResult(
            name=name,
            points=self.points,
            max_rel_error=self.max_err,
            worst_case=self.worst,
            passed=not self.failures,
            failures=tuple(self.failures),
            guard_margin=self.guard_margin,
        )


def _rel(value: np.ndarray, reference: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(reference))))
    return float(np.max(np.abs(value - reference))) / scale


def _check_transfer(grid: VerifyGrid, tolerance: float) -> CheckResult:
    tracker = _Tracker(tolerance)
    for ratio in grid.ratios:
        p = ProbeParams.from_squeeze_ratio(1.0, ratio)
        system = build_entangler_system(p)
        theta = relative_mode_frequency(p)
        step = (2.0 * math.pi / theta) / 2048.0
        for t in grid.transfer_times:
            case = f"ratio={ratio:g} t={t:g}"
            m_h = propagator(system.drift, (t,), step)[0]
            m_fine = propagator(system.drift, (t,), step / 2.0)[0]
            tracker.guard(_rel(m_h, m_fine), case)
            tracker.add(_rel(m_fine, transfer_matrix(p, t)), case)
    return tracker.result("entangler-transfer")


def _check_covariance(grid: VerifyGrid, tolerance: float) -> CheckResult:
    tracker = _Tracker(tolerance)
    for ratio in grid.ratios:
        for n_th in grid.n_ths:
            case = f"ratio={ratio:g} n_th={n_th:g}"
            p = ProbeParams.from_squeeze_ratio(1.0, ratio, n_th=n_th)
            system = build_entangler_system(p)
            theta = relative_mode_frequency(p)
            t_star = math.pi / (2.0 * theta)
            step = (2.0 * math.pi / theta) / 2048.0
            c0 = thermal_covariance(n_th)
            _, c_h = integrate_moments(system, None, c0, 0.0, t_star, step)
            _, c_fine = integrate_moments(system, None, c0, 0.0, t_star, step / 2.0)
            tracker.guard(_rel(c_h.matrix, c_fine.matrix), case)
            target = entangled_covariance(ratio, n_th)
            tracker.add(_rel(c_fine.matrix, target.matrix), case)
    return tracker.result("switch-off-covariance")


def _check_readout(
    grid: VerifyGrid, tolerance: float, include_printed_signal: bool
) -> list[CheckResult]:
    tracker = _Tracker(tolerance)
    printed_samples: list[tuple[str, float]] = []
    printed_worst = (0.0, "")
    taus = tuple(sorted(grid.taus))
    weight = np.zeros(9)
    weight[5] = weight[7] = 1.0  # Y1 + Y2 in the augmented ordering
    step = math.pi / 2048.0
    for kappa in grid.kappas:
        system = build_measurement_system(
            MeterParams(kappa=kappa, tau_scaled=taus[0]), force=1.0
        )
        aug = system.augmented(1.0)
        snaps = propagator(aug, taus, step)
        snaps_fine = propagator(aug, taus, step / 2.0)
        for tau, x_h, x_fine in zip(taus, snaps, snaps_fine):
            case = f"kappa={kappa:g} tau_scaled={tau:.6g}"
            tracker.guard(_rel(x_h, x_fine), case)
            prop = x_fine[:8, :8]
            s_oracle = float(weight[:8] @ x_fine[:8, 8])
            s_closed = signal_coeff(
                MeterParams(kappa=kappa, tau_scaled=tau, signal_variant=SIGNAL_CONSISTENT)
            )
            tracker.add(abs(s_oracle - s_closed) / abs(s_closed), f"{case} signal")
            if include_printed_signal:
                s_printed = signal_coeff(
                    MeterParams(
                        kappa=kappa, tau_scaled=tau, signal_variant=SIGNAL_PRINTED
                    )
                )
                err = abs(s_printed - s_oracle) / abs(s_oracle)
                printed_samples.append((case, err))
                if err > printed_worst[0]:
                    printed_worst = (err, case)
            v = prop.T @ weight[:8]
            for ratio in grid.ratios:
                for n_th in grid.n_ths:
                    for mode in grid.phi_modes:
                        phi = phi_opt(tau) if mode == "opt" else 0.0
                        c0 = direct_sum(
                            rotate(entangled_covariance(ratio, n_th), phi), vacuum(2)
                        )
                        n_oracle = float(v @ c0.matrix @ v)
                        n_closed = noise(
                            MeterParams(kappa=kappa, tau_scaled=tau, phi=phi),
                            ratio,
                            n_th,
                        )
                        tracker.add(
                            abs(n_oracle - n_closed) / abs(n_closed),
                            f"{case} ratio={ratio:g} n_th={n_th:g} phi={mode} noise",
                        )
    results = [tracker.result("readout-moments")]
    if include_printed_signal:
        mismatched = [f"{case}: rel_err={err:.3e}" for case, err in printed_samples if err > tolerance]
        results.append(
            CheckResult(
                name="readout-signal-printed",
                points=len(printed_samples),
                max_rel_error=printed_worst[0],
                worst_case=printed_worst[1],
                passed=not mismatched,
                informational=True,
                failures=tuple(mismatched),
                samples=tuple(printed_samples),
                guard_margin=tracker.guard_margin,
            )
        )
    return results


def verify_closed_forms(
    grid: VerifyGrid | None = None,
    *,
    tolerance: float = 1e-6,
    covariance_tolerance: float = 1e-8,
    transfer_tolerance: float = 1e-8,
    include_printed_signal: bool = False,
) -> VerificationReport:
    """Compare every closed form against the moment oracle on a grid.

    Three families are checked: the entangler transfer matrix, the
    switch-off covariance, and the readout signal/noise (the consistent
    signal variant).  With ``include_printed_signal`` the alternative
    "printed" force-transfer convention is also compared and reported as
    an informational check; it is expected to disagree away from
    tau_scaled = 2 pi k and does not affect the overall verdict.
    """
    grid = grid or VerifyGrid()
    checks = [
        _check_transfer(grid, transfer_tolerance),
        _check_covariance(grid, covariance_tolerance),
        *_check_readout(grid, tolerance, include_printed_signal),
    ]
    return VerificationReport(tuple(checks))
