"""Moment-ODE oracle for the closed forms in dynamics and metrology.

Every stage of the pipeline is a linear system v' = A v + b f, so the
mean obeys m' = A m + b f and the covariance C' = A C + C A^T.  This
module builds the drift/drive pairs for the entangling stage (with and
without adiabatic elimination of the cavity) and for the readout stage,
integrates the moments with a fixed-step classical Runge-Kutta scheme,
and checks the closed-form transfer matrix, switch-off covariance, and
readout signal/noise against the integrated values.  Each check builds
its per-case errors and step-halving differences as arrays (the readout
in one broadcast pass over kappa, tau, ratio, n_th and phi), and one
function turns them into its CheckResult.

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

from ._common import SIGNAL_PRINTED, DomainError
from .dynamics import (
    ProbeParams,
    entangled_covariance,
    mode_rotation,
    prepare,
    relative_mode_frequency,
    thermal_covariance,
    transfer_matrix,
)
from .gaussian import VACUUM_VARIANCE, CovarianceMatrix, direct_sum, vacuum
from .metrology import MeterParams, noise, phi_opt, signal_coeff

__all__ = [
    "MAX_STEPS",
    "ENTANGLER_TOLERANCE",
    "IntegrationDivergedError",
    "LinearSystem",
    "VerifyGrid",
    "CheckResult",
    "VerificationReport",
    "build_entangler_system",
    "build_measurement_system",
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
        chi = p.coupling
        a = np.array(
            [
                [0.0, w, 0.0, 0.0],
                [-(w + chi), 0.0, chi, 0.0],
                [0.0, 0.0, 0.0, w],
                [chi, 0.0, -(w + chi), 0.0],
            ]
        )
        return LinearSystem(a, np.zeros(4), label="entangler-adiabatic")
    if p.delta is None:
        raise ValueError("full entangler model requires nonzero delta")
    gb = math.sqrt(p.coupling * p.delta) / 2.0  # g |beta|
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


def build_measurement_system(kappa: float) -> LinearSystem:
    """Drift and drive of the readout stage, ordering (q1,p1,q2,p2,X1,Y1,X2,Y2).

    Time is in units of 1/omega.  Each probe position feeds its meter phase
    quadrature Y_j at rate kappa (opposite signs for the two probes) while
    the static meter amplitude X_j pushes back on the probe momentum at rate
    2*kappa.  A unit force enters the two momenta with weight +/- sqrt(2),
    so that the summed meter phase accumulates it.
    """
    a = np.zeros((8, 8))
    for qi, pi, xi, yi, sign in [(0, 1, 4, 5, +1.0), (2, 3, 6, 7, -1.0)]:
        a[qi, pi] = 1.0
        a[pi, qi] = -1.0
        a[pi, xi] = sign * 2.0 * kappa
        a[yi, qi] = sign * kappa
    b = np.zeros(8)
    b[1] = math.sqrt(2.0)
    b[3] = -math.sqrt(2.0)
    return LinearSystem(a, b, label="measurement")


MAX_STEPS = 2**40  # per interval: a finer step is an input error, not hours of work


def _check_step(step: float) -> None:
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step!r}")


def _capped_step(step: float, intervals) -> float:
    """``step``, or 1/8 of the shortest positive interval if that is finer."""
    return min([step, *(dt / 8.0 for dt in intervals if dt > 0)])


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
    force: float,
    t_final: float,
    step: float,
) -> tuple[np.ndarray, CovarianceMatrix]:
    """Propagate mean and covariance to ``t_final`` with fixed-step RK4.

    ``mean0`` may be None (zero mean) or an array; the mean comes back as a
    read-only array.  The drive is ``system.drive * force``; the actual step
    divides t_final exactly.
    """
    if not (math.isfinite(t_final) and t_final >= 0):
        raise ValueError(f"t_final must be finite and nonnegative, got {t_final}")
    _check_step(step)
    mean = np.zeros(system.dim) if mean0 is None else np.array(mean0, dtype=float)
    if mean.shape != (system.dim,):
        raise ValueError(f"mean0 shape {mean.shape} does not match dim {system.dim}")
    if cov0.dim != system.dim:
        raise ValueError(f"cov0 dim {cov0.dim} does not match system dim {system.dim}")
    cov = cov0.matrix.copy()
    if t_final > 0:
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
    mean.setflags(write=False)
    return mean, CovarianceMatrix(cov)


def full_model_deviation(p: ProbeParams, step: float | None = None) -> tuple[float, float]:
    """Relative probe-covariance deviation of the full cavity model.

    Propagates the six-dimensional model (cavity kept; delta defaults to
    100 omega with the coupling's sign) from the thermal state to the
    switch-off time and compares the probe block against the adiabatic
    closed form.  The step starts at 1/300 of the detuning period and 1/8
    of the switch-off time, or at ``step`` if that is finer, and halves
    until the h and h/2 deviations agree; a diverged run counts as
    unsettled.  Returns (the h/2 deviation, delta); a guard that cannot
    settle within MAX_STEPS raises DomainError.
    """
    if p.delta is None:
        p = replace(p, delta=(100.0 if p.coupling >= 0 else -100.0) * p.omega)
    closed = prepare(p)
    system = build_entangler_system(p, adiabatic=False)
    c0 = direct_sum(thermal_covariance(p.n_th), vacuum(1))
    t_off, target = closed.switch_off_time, closed.covariance.matrix
    scale = max(1.0, abs(target).max())

    def deviation(h: float) -> float:
        try:
            _, c = integrate_moments(system, None, c0, 0.0, t_off, h)
        except IntegrationDivergedError:
            return math.nan
        return float(abs(c.matrix[:4, :4] - target).max() / scale)

    # A coarser start gains nothing: near RK4's stability edge the cavity
    # is damped away at h and h/2 alike, and the two agree on a wrong value.
    h = _capped_step((2.0 * math.pi / abs(p.delta)) / 300.0, (t_off,))
    if step is not None:
        _check_step(step)
        h = min(h, step)
    fine = deviation(h)
    while True:
        if t_off / (h / 2.0) > MAX_STEPS:
            raise DomainError(f"full-model step guard did not settle above step {h:g}")
        h, dev, fine = h / 2.0, fine, deviation(h / 2.0)
        # settled: h and h/2 agree to 1e-3 of the deviation, or near roundoff
        if abs(fine - dev) <= max(1e-3 * fine, 1e-12):
            return fine, p.delta


# -- closed-form verification -------------------------------------------------

# relative tolerance of the transfer-matrix and switch-off-covariance checks
ENTANGLER_TOLERANCE = 1e-8
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


def _rel(value: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Largest deviation over the last two axes, relative to max(1, |reference|)."""
    scale = np.maximum(1.0, np.max(np.abs(reference), axis=(-2, -1)))
    return np.max(np.abs(value - reference), axis=(-2, -1)) / scale


def _result(
    name: str,
    tolerance: float,
    cases: list[str],
    diffs,
    errors,
    labels: tuple[str, ...] = ("",),
    informational: bool = False,
) -> CheckResult:
    """One comparison family's result from per-case arrays, in grid order.

    Each case has a step-halving (h vs h/2) difference in ``diffs``, which
    fails above tolerance/10 and is reported before the case's errors,
    and one row of relative errors, one per suffix in ``labels``.
    """
    diffs = np.asarray(diffs, dtype=float)
    errors = np.reshape(np.asarray(errors, dtype=float), (len(cases), len(labels)))
    failures = []
    for case, diff, row in zip(cases, diffs.tolist(), errors.tolist()):
        if not diff <= tolerance / 10.0:
            failures.append(f"{case}: step robustness {diff:.3e}")
        failures += [
            f"{case}{label}: rel_err={err:.3e}"
            for label, err in zip(labels, row)
            if not err <= tolerance
        ]
    # a leading zero leaves the worst case empty unless some error exceeds it
    flat = np.concatenate(([0.0], errors.ravel()))
    top = int(np.argmax(flat))
    case, label = divmod(top - 1, len(labels))
    return CheckResult(
        name=name,
        points=errors.size,
        max_rel_error=float(flat[top]),
        worst_case=cases[case] + labels[label] if top else "",
        passed=not failures,
        informational=informational,
        failures=tuple(failures),
        samples=tuple(zip(cases, errors[:, 0].tolist())) if informational else (),
        guard_margin=float(np.max(diffs, initial=0.0)),
    )


def _check_entangler(grid: VerifyGrid) -> list[CheckResult]:
    """The transfer-matrix and switch-off-covariance checks, one pass per ratio.

    A ratio's params, drift and step are built once, and so is its h and
    h/2 propagator pair at each distinct time: the transfer times and,
    when the grid has occupations, the switch-off time.  Each covariance
    is X C0 X^T, symmetrised, for the switch-off propagator X per step.
    """
    t_cases, t_diffs, t_errors = [], [], []
    c_cases, c_diffs, c_errors = [], [], []
    for ratio in grid.ratios:
        p = ProbeParams.from_squeeze_ratio(1.0, ratio)
        drift = build_entangler_system(p).drift
        theta = relative_mode_frequency(p)
        t_switch = math.pi / (2.0 * theta)
        times = grid.transfer_times + ((t_switch,) if grid.n_ths else ())
        step = _capped_step((2.0 * math.pi / theta) / 2048.0, times)
        pairs = {
            t: [propagator(drift, (t,), h)[0] for h in (step, step / 2.0)] for t in set(times)
        }
        for t in grid.transfer_times:
            m_h, m_fine = pairs[t]
            t_cases.append(f"ratio={ratio:g} t={t:g}")
            t_diffs.append(_rel(m_h, m_fine))
            t_errors.append(_rel(m_fine, transfer_matrix(p, t)))
        for n_th in grid.n_ths:
            c0 = thermal_covariance(n_th).matrix
            c_h, c_fine = (0.5 * (c + c.T) for c in (x @ c0 @ x.T for x in pairs[t_switch]))
            c_cases.append(f"ratio={ratio:g} n_th={n_th:g}")
            c_diffs.append(_rel(c_h, c_fine))
            c_errors.append(_rel(c_fine, entangled_covariance(ratio, n_th).matrix))
    return [
        _result("entangler-transfer", ENTANGLER_TOLERANCE, t_cases, t_diffs, t_errors),
        _result("switch-off-covariance", ENTANGLER_TOLERANCE, c_cases, c_diffs, c_errors),
    ]


def _check_readout(
    grid: VerifyGrid, tolerance: float, include_printed_signal: bool
) -> list[CheckResult]:
    taus = tuple(sorted(grid.taus))
    cases = [f"kappa={k:g} tau_scaled={t:.6g}" for k in grid.kappas for t in taus]
    labels = (" signal",) + tuple(
        f" ratio={r:g} n_th={n:g} phi={mode} noise"
        for r in grid.ratios
        for n in grid.n_ths
        for mode in grid.phi_modes
    )
    # (h or h/2, kappa, tau, 9, 9) propagators of the readout with a unit force column
    step = _capped_step(math.pi / 2048.0, [b - a for a, b in zip((0.0,) + taus, taus)])
    drifts = [build_measurement_system(k).augmented(1.0) for k in grid.kappas]
    x = np.reshape(
        [[propagator(a, taus, h) for a in drifts] for h in (step, step / 2.0)],
        (2, len(drifts), len(taus), 9, 9),
    )
    # Y1 + Y2 at tau as a row over the initial (q1, p1, q2, p2, X1, Y1, X2, Y2, f)
    v = x[..., 5, :] + x[..., 7, :]
    signal = v[..., 8]
    # axes (h or h/2, kappa, tau, ratio, n_th, phi mode); the probes start in the
    # rotated entangled state and the meters in vacuum
    tau = np.array(taus)
    phi = np.where([mode == "opt" for mode in grid.phi_modes], phi_opt(tau)[:, None], 0.0)
    rotations = np.reshape([mode_rotation(a) for a in phi.ravel()], phi.shape + (4, 4))
    states = np.reshape(
        [entangled_covariance(r, n).matrix for r in grid.ratios for n in grid.n_ths],
        (len(grid.ratios), len(grid.n_ths), 4, 4),
    )
    probe = v[..., :4]
    noise_oracle = np.einsum(
        "hkta,tmab,rnbc,tmdc,hktd->hktrnm", probe, rotations, states, rotations, probe,
        optimize=True,
    ) + VACUUM_VARIANCE * np.sum(v[..., 4:8] ** 2, axis=-1)[..., None, None, None]

    def rel_rows(got, want):
        """|got - want| / |want| per case: the signal, then each noise."""
        return np.column_stack(
            [
                (np.abs(g - w) / np.abs(w)).reshape(len(cases), width)
                for g, w, width in zip(got, want, (1, len(labels) - 1))
            ]
        )

    # each case's h vs h/2 difference, relative to each quantity it compares
    (signal_h, signal), (noise_h, noise_oracle) = signal, noise_oracle
    diffs = np.max(rel_rows((signal_h, noise_h), (signal, noise_oracle)), axis=1, initial=0.0)

    kappa = np.array(grid.kappas)[:, None]
    closed_signal = signal_coeff(MeterParams(kappa, tau))
    closed_noise = noise(
        MeterParams(kappa[..., None, None, None], tau[:, None, None, None], phi[:, None, None]),
        np.array(grid.ratios)[:, None, None],
        np.array(grid.n_ths)[:, None],
    )
    errors = rel_rows((signal, noise_oracle), (closed_signal, closed_noise))
    results = [_result("readout-moments", tolerance, cases, diffs, errors, labels)]
    if include_printed_signal:
        printed = signal_coeff(MeterParams(kappa, tau, signal_variant=SIGNAL_PRINTED))
        errors = np.abs(printed - signal) / np.abs(signal)
        results.append(
            _result("readout-signal-printed", tolerance, cases, diffs, errors, informational=True)
        )
    return results


def verify_closed_forms(
    grid: VerifyGrid | None = None,
    *,
    tolerance: float = 1e-6,
    include_printed_signal: bool = False,
) -> VerificationReport:
    """Compare every closed form against the moment oracle on a grid.

    Three families are checked: the entangler transfer matrix and the
    switch-off covariance (both to ENTANGLER_TOLERANCE), and the readout
    signal/noise (the consistent signal variant, to ``tolerance``).  With
    ``include_printed_signal`` the alternative "printed" force-transfer
    convention is also compared and reported as an informational check; it
    is expected to disagree away from tau_scaled = 2 pi k and does not
    affect the overall verdict.
    """
    grid = grid or VerifyGrid()
    checks = [
        *_check_entangler(grid),
        *_check_readout(grid, tolerance, include_printed_signal),
    ]
    return VerificationReport(tuple(checks))
