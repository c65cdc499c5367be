"""Moment-ODE oracle for the closed forms in dynamics and metrology.

Every stage of the pipeline is a linear system v' = A v + b f, so the
mean obeys m' = A m + b f and the covariance C' = A C + C A^T.  This
module builds the drifts, read-only arrays, of the entangling stage (with
and without adiabatic elimination of the cavity) and of the readout stage,
whose last coordinate is the constant force f, integrates the moments
with a fixed-step classical Runge-Kutta scheme, and checks the closed-form
transfer matrix, switch-off covariance, and readout signal/noise against
the integrated values, each check as arrays of per-case errors and
step-halving differences.

One RK4 step of v' = A v is the matrix polynomial P(hA), so n steps to one
end time are P(hA)^n, computed by repeated squaring (``propagator``), for
one drift or for a stack of drifts that share the end time and the step,
in one squaring loop.  The drive b is the column of the force coordinate,
and the covariance is X C0 X^T for the propagator X (C. Van Loan, IEEE
TAC 23:395, 1978).

The integration route shares no trigonometry with the closed forms.  One
step-halving guard (``_settle``) picks every step: each propagator starts
at the caller's step or 1/8 of its end time if that is finer, and the step
halves until the results at h and h/2 agree (Hairer, Norsett and Wanner,
Solving Ordinary Differential Equations I, section II.4).

Every command that loads this module pays for its import, so only the
readout check imports the metrology closed forms, when it runs:
``entangle --full-model`` does not load ``metrology``.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from ._common import SIGNAL_PRINTED, DomainError, check_domain
from .dynamics import (
    entangled_covariance,
    mode_rotation,
    prepare,
    thermal_covariance,
    transfer_matrix,
)
from .gaussian import VACUUM_VARIANCE, _read_only, direct_sum, vacuum
from .probes import ProbeParams, relative_mode_frequency

__all__ = [
    "MAX_STEPS",
    "ENTANGLER_TOLERANCE",
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


def _drift(a) -> np.ndarray:
    """``a`` as a read-only float array, refused unless every entry is finite."""
    a = np.array(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("drift must be finite")
    return _read_only(a)


def build_entangler_system(p: ProbeParams, adiabatic: bool = True) -> np.ndarray:
    """Drift of the entangling stage, ordering (q1, p1, q2, p2[, x_c, y_c]).

    With ``adiabatic=True`` the cavity is eliminated and the coupling
    acts as a spring on the relative coordinate.  Otherwise the cavity
    quadratures (x_c, y_c) are kept: they precess at the detuning, the
    relative coordinate drives y_c, and x_c pushes back on the momenta.
    """
    w = p.omega
    if adiabatic:
        chi = p.coupling
        return _drift(
            [
                [0.0, w, 0.0, 0.0],
                [-(w + chi), 0.0, chi, 0.0],
                [0.0, 0.0, 0.0, w],
                [chi, 0.0, -(w + chi), 0.0],
            ]
        )
    if p.delta is None:
        raise ValueError("full entangler model requires nonzero delta")
    # g |beta|, as two roots so that a huge coupling does not overflow the product
    gb = math.sqrt(abs(p.coupling)) * math.sqrt(abs(p.delta)) / 2.0
    push = 2.0 * math.sqrt(2.0) * gb  # cavity amplitude -> probe momentum
    feed = math.sqrt(2.0) * gb  # relative coordinate -> cavity phase
    d = p.delta
    return _drift(
        [
            [0.0, w, 0.0, 0.0, 0.0, 0.0],
            [-w, 0.0, 0.0, 0.0, -push, 0.0],
            [0.0, 0.0, 0.0, w, 0.0, 0.0],
            [0.0, 0.0, -w, 0.0, push, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, -d],
            [-feed, 0.0, feed, 0.0, d, 0.0],
        ]
    )


def build_measurement_system(kappa: float) -> np.ndarray:
    """Drift of the readout stage, ordering (q1,p1,q2,p2,X1,Y1,X2,Y2,f).

    Time is in units of 1/omega.  Each probe position feeds its meter phase
    quadrature Y_j at rate kappa (opposite signs for the two probes) while
    the static meter amplitude X_j pushes back on the probe momentum at rate
    2*kappa.  The force f is the last coordinate and constant (f' = 0); it
    enters the two momenta with weight +/- sqrt(2), so that the summed meter
    phase accumulates it.
    """
    a = np.zeros((9, 9))
    for qi, pi, xi, yi, sign in [(0, 1, 4, 5, +1.0), (2, 3, 6, 7, -1.0)]:
        a[qi, pi] = 1.0
        a[pi, qi] = -1.0
        a[pi, xi] = sign * 2.0 * kappa
        a[yi, qi] = sign * kappa
    a[1, 8] = math.sqrt(2.0)
    a[3, 8] = -math.sqrt(2.0)
    return _drift(a)


MAX_STEPS = 2**40  # per propagator: a finer step is an input error, not hours of work


def _check_step(step: float) -> None:
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step!r}")


def _rk4_power(z: np.ndarray, n: int) -> np.ndarray:
    """P(z)^n for z of shape (..., d, d), by repeated squaring.

    P(hA) = 1 + hA + ... + (hA)^4/24 is one RK4 step, and the power takes
    O(log n) products.  Powers are carried as E = P^k - 1, (1 + E)(1 + F) =
    1 + E + F + EF, so a small step's increment is not rounded away against
    the identity.  n = 0 gives the identity.
    """
    eye = np.eye(z.shape[-1])
    if not n:
        return eye + np.zeros(z.shape)
    base = z @ (eye + z @ (eye + z @ (eye + z / 4.0) / 3.0) / 2.0)
    result = None
    for bit in range(n.bit_length()):
        if bit:
            base = 2.0 * base + base @ base
        if n >> bit & 1:
            result = base if result is None else result + base + result @ base
    return eye + result


def propagator(a, t, step) -> np.ndarray:
    """Fixed-step RK4 propagator of v' = a @ v from 0 to the end time ``t``.

    The interval is split into n = ceil(t / step) <= MAX_STEPS equal steps.
    ``a`` may be a stack of drifts of shape (..., d, d) that share ``t`` and
    ``step``; each drift's propagator has the same bits as its own call.
    """
    t, step = float(t), float(step)
    _check_step(step)
    check_domain(("t", t))
    if t / step > MAX_STEPS:  # also catches inf
        raise ValueError(f"step {step!r} needs over {MAX_STEPS} RK4 steps for t={t:g}")
    n = math.ceil(t / step)
    return _rk4_power((t / n if n else 0.0) * np.asarray(a, dtype=float), n)


def _rel(value: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """max |value - reference| / max |reference| over the last two axes.

    Where the reference is all zero, the absolute gap max |value|.
    """
    gap = np.max(np.abs(value - reference), axis=(-2, -1))
    scale = np.max(np.abs(reference), axis=(-2, -1))
    return gap / np.where(scale > 0.0, scale, 1.0)


def _settle(measure, step, span, rtol: float, atol: float = 0.0):
    """The step-halving guard: halve h until ``measure`` at h and h/2 agree.

    ``span`` holds the end times and broadcasts with ``step``.  Each end
    time's step starts at ``step`` or 1/8 of the end time if that is finer,
    so every halving halves every step.  ``measure`` maps those steps to an
    array whose last two axes are compared by ``_rel``; a case agrees where
    that difference is at most rtol, or the absolute one at most atol.  Halving
    stops where h/2 would need more than MAX_STEPS over a span.  Returns the
    h/2 value, each case's difference, and whether every case agreed.
    """
    span = np.asarray(span, dtype=float)
    # a subnormal span's eighth can round to 0: such a span starts at ``step``
    h = np.minimum(step, np.where(span / 8.0 > 0, span / 8.0, np.inf))
    fine = measure(h)
    diff, settled = np.full(np.shape(fine)[:-2], math.inf), False
    while not settled and np.max(span / (h / 2.0)) <= MAX_STEPS:
        coarse, h = fine, h / 2.0
        fine = measure(h)
        diff = _rel(coarse, fine)
        gap = np.max(np.abs(coarse - fine), axis=(-2, -1))
        settled = bool(np.all((diff <= rtol) | (gap <= atol)))
    return fine, diff, settled


# The covariance ``integrate_moments`` returns, as ``.matrix``.  Only the bench's
# ``oracle.full_model_s`` probe still reads it; ROADMAP item 8 switches that
# probe to the array, and item 10 then deletes this holder and integrate_moments.
_Covariance = namedtuple("_Covariance", ["matrix"])


def integrate_moments(
    a,
    mean0,
    cov0,
    force: float,
    t_final: float,
    step: float,
) -> tuple[np.ndarray, _Covariance]:
    """Propagate mean and covariance to ``t_final`` with fixed-step RK4.

    ``a`` is the drift of the d moments of ``cov0``, or of those and the
    force as a last coordinate held at ``force``.  ``mean0`` may be None
    (zero mean) or an array of the d moments; the mean and the covariance
    come back read-only.  The actual step divides t_final exactly.
    """
    cov0 = np.asarray(cov0, dtype=float)
    d = len(cov0)
    if cov0.shape != (d, d):
        raise ValueError(f"cov0 must be square, got shape {cov0.shape}")
    a = np.asarray(a, dtype=float)
    if a.shape not in ((d, d), (d + 1, d + 1)):
        raise ValueError(f"drift shape {a.shape} fits neither cov0 dim {d} nor it and a force")
    mean = np.zeros(d) if mean0 is None else np.array(mean0, dtype=float)
    if mean.shape != (d,):
        raise ValueError(f"mean0 shape {mean.shape} does not match dim {d}")
    # overflow here is not an error condition: it is how divergence
    # presents, and the finite check below turns it into a DomainError
    with np.errstate(over="ignore", invalid="ignore"):
        x = propagator(np.pad(a, (0, d + 1 - len(a))), t_final, step)
        prop = x[:d, :d]
        mean = prop @ mean + x[:d, d] * force
        cov = prop @ cov0 @ prop.T
        cov = 0.5 * (cov + cov.T)
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise DomainError(f"integration diverged at t={t_final}")
    return _read_only(mean), _Covariance(_read_only(cov))


def full_model_deviation(p: ProbeParams, step: float | None = None) -> tuple[float, float]:
    """Relative probe-covariance deviation of the full cavity model.

    Propagates the six-dimensional model (cavity kept; delta defaults to
    100 theta, the relative-mode frequency, with the coupling's sign, so
    that the cavity stays fast against the probes at any ratio) from the
    thermal state to the switch-off time and compares the probe block
    against the adiabatic closed form.  The step guard starts at 1/300 of
    the detuning period, or at ``step`` if that is finer, and halves until
    the h and h/2 deviations agree to 1e-3 of the deviation, or to 1e-12; a
    diverged run counts as unsettled.  Returns (the h/2 deviation, delta).
    A start step that needs over MAX_STEPS raises ValueError, naming delta
    where the detuning set it; a guard that cannot settle within MAX_STEPS
    raises DomainError.
    """
    closed = prepare(p)
    if p.delta is None:
        delta = (100.0 if p.coupling >= 0 else -100.0) * closed.mode_frequency
        p = p._replace(delta=delta)
    system = build_entangler_system(p, adiabatic=False)
    c0 = direct_sum(thermal_covariance(p.n_th), vacuum(1))
    t_off, target = closed.switch_off_time, closed.covariance
    scale = max(1.0, abs(target).max())

    def deviation(h) -> np.ndarray:
        # overflow is how divergence presents: a non-finite X C0 X^T counts
        # as a diverged run, whose deviation is nan
        with np.errstate(over="ignore", invalid="ignore"):
            x = propagator(system, t_off, h)
            c = x @ c0 @ x.T
            c = 0.5 * (c + c.T)
        if not np.isfinite(c).all():
            return np.full((1, 1), math.nan)
        return np.full((1, 1), abs(c[:4, :4] - target).max() / scale)

    # A coarser start gains nothing: near RK4's stability edge the cavity
    # is damped away at h and h/2 alike, and the two agree on a wrong value.
    h = (2.0 * math.pi / abs(p.delta)) / 300.0
    if step is not None:
        _check_step(step)
        h = min(h, step)
    if h != step and t_off / h > MAX_STEPS:  # the refused start step is the detuning's
        raise ValueError(
            f"delta {p.delta!r} sets a start step {h!r} that needs over {MAX_STEPS} RK4 steps "
            f"for t={t_off:g}"
        )
    fine, _, settled = _settle(deviation, h, t_off, 1e-3, 1e-12)
    if not settled:
        raise DomainError(f"full-model step guard did not settle within {MAX_STEPS} steps")
    return float(fine[0, 0]), p.delta


# -- closed-form verification -------------------------------------------------

# relative tolerance of the transfer-matrix and switch-off-covariance checks
ENTANGLER_TOLERANCE = 1e-8
_TAU_GRID = tuple(k * math.pi / 4.0 for k in range(1, 9))


VerifyGrid = namedtuple(
    "VerifyGrid",
    ["taus", "kappas", "ratios", "n_ths", "phi_modes", "transfer_times"],
    defaults=[
        (1e-6, 1e-3) + _TAU_GRID,
        (0.05, 0.3, 1.0, 3.0, 5.0),
        (1.0, 2.0, 10.0, 1e3),
        (0.0, 20.0, 1e3),
        ("zero", "opt"),
        (0.35, 1.0, math.pi / 2.0, 2.8, 5.9),
    ],
)
VerifyGrid.__doc__ = "Parameter grid for verify_closed_forms, one tuple of values per axis."


class CheckResult(
    namedtuple(
        "CheckResult",
        "name points max_rel_error worst_case passed informational failures guard_margin",
    )
):
    """Outcome of one closed-form-vs-oracle comparison family.

    ``guard_margin`` is the largest step-halving (h vs h/2) difference,
    which fails above tolerance/10.
    """

    __slots__ = ()

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        tag = " (informational)" if self.informational else ""
        return (
            f"CHECK {self.name}: {status}{tag} points={self.points} "
            f"max_rel_err={self.max_rel_error:.3e} worst={self.worst_case}"
        )


class VerificationReport(namedtuple("VerificationReport", ["checks"])):
    """Every check of one verify_closed_forms run, in report order."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.informational)


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
    diffs = np.ravel(np.asarray(diffs, dtype=float))
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
        guard_margin=float(np.max(diffs, initial=0.0)),
    )


def _check_entangler(grid: VerifyGrid) -> list[CheckResult]:
    """The transfer-matrix and switch-off-covariance checks, one guard per ratio.

    A ratio's propagators run to each transfer time and, when the grid has
    occupations, to the switch-off time X, whose covariances X C0 X^T are
    symmetrised; one step-halving guard settles them together.
    """
    n_t = len(grid.transfer_times)
    t_cases = [f"ratio={r:g} t={t:g}" for r in grid.ratios for t in grid.transfer_times]
    c_cases = [f"ratio={r:g} n_th={n:g}" for r in grid.ratios for n in grid.n_ths]
    # per ratio: each transfer time, then each occupation
    diffs, errors = np.zeros((2, len(grid.ratios), n_t + len(grid.n_ths)))
    for i, ratio in enumerate(grid.ratios if t_cases or c_cases else ()):
        p = ProbeParams.from_squeeze_ratio(1.0, ratio)
        drift = build_entangler_system(p)
        theta = relative_mode_frequency(p)
        times = grid.transfer_times + ((math.pi / (2.0 * theta),) if grid.n_ths else ())
        states = [thermal_covariance(n_th) for n_th in grid.n_ths]

        def measure(steps):
            xs = [propagator(drift, t, h) for t, h in zip(times, steps)]
            covs = [0.5 * (c + c.T) for c in (xs[-1] @ c0 @ xs[-1].T for c0 in states)]
            return np.reshape([*xs[:n_t], *covs], (-1, 4, 4))

        step = (2.0 * math.pi / theta) / 2048.0
        value, diffs[i], _ = _settle(measure, step, times, ENTANGLER_TOLERANCE / 10.0)
        closed = [transfer_matrix(p, t) for t in grid.transfer_times] + [
            entangled_covariance(ratio, n_th) for n_th in grid.n_ths
        ]
        errors[i] = _rel(value, np.reshape(closed, (-1, 4, 4)))
    return [
        _result(name, ENTANGLER_TOLERANCE, cases, diffs[:, part], errors[:, part])
        for name, cases, part in (
            ("entangler-transfer", t_cases, slice(n_t)),
            ("switch-off-covariance", c_cases, slice(n_t, None)),
        )
    ]


def _check_readout(
    grid: VerifyGrid, tolerance: float, include_printed_signal: bool
) -> list[CheckResult]:
    """The readout signal and noise checks, one guard for the kappa x tau batch.

    The signal and each noise are 1x1 blocks, so that the guard and the
    errors are each relative to the quantity itself.
    """
    cases = [f"kappa={k:g} tau_scaled={t:.6g}" for k in grid.kappas for t in grid.taus]
    labels = (" signal",) + tuple(
        f" ratio={r:g} n_th={n:g} phi={mode} noise"
        for r in grid.ratios
        for n in grid.n_ths
        for mode in grid.phi_modes
    )
    diffs = errors = printed = ()
    if cases:
        from .metrology import MeterParams, noise, phi_opt, signal_coeff

        shape = (len(grid.kappas), len(grid.taus))
        kappa, tau = np.array(grid.kappas)[:, None], np.array(grid.taus)
        drifts = np.array([build_measurement_system(k) for k in grid.kappas])
        # axes (kappa, tau, ratio, n_th, phi mode); the probes start in the
        # rotated entangled state and the meters in vacuum
        phi = np.where([mode == "opt" for mode in grid.phi_modes], phi_opt(tau)[:, None], 0.0)
        rotations = np.reshape([mode_rotation(a) for a in phi.ravel()], phi.shape + (4, 4))
        states = np.reshape(
            [entangled_covariance(r, n) for r in grid.ratios for n in grid.n_ths],
            (len(grid.ratios), len(grid.n_ths), 4, 4),
        )

        def blocks(signal, noises):
            both = (signal[..., None], np.reshape(noises, shape + (-1,)))
            return np.concatenate(both, axis=-1)[..., None, None]

        def measure(steps):
            # (kappa, tau, 9, 9) propagators of the readout with a unit force column
            x = np.stack([propagator(drifts, t, h) for t, h in zip(tau, steps)], axis=1)
            # Y1 + Y2 at tau as a row over the initial (q1, p1, q2, p2, X1, Y1, X2, Y2, f)
            v = x[..., 5, :] + x[..., 7, :]
            noises = np.einsum(
                "kta,tmab,rnbc,tmdc,ktd->ktrnm", v[..., :4], rotations, states, rotations,
                v[..., :4], optimize=True,
            ) + VACUUM_VARIANCE * np.sum(v[..., 4:8] ** 2, axis=-1)[..., None, None, None]
            return blocks(v[..., 8], noises)

        value, diff, _ = _settle(measure, math.pi / 2048.0, tau, tolerance / 10.0)
        diffs = np.max(diff, axis=-1)
        meter = MeterParams(
            kappa[..., None, None, None], tau[:, None, None, None], phi[:, None, None]
        )
        noises = noise(meter, np.array(grid.ratios)[:, None, None], np.array(grid.n_ths)[:, None])
        errors = _rel(value, blocks(signal_coeff(MeterParams(kappa, tau)), noises))
        if include_printed_signal:
            printed = signal_coeff(MeterParams(kappa, tau, signal_variant=SIGNAL_PRINTED))
            printed = _rel(printed[..., None, None, None], value[..., :1, :, :])
    results = [_result("readout-moments", tolerance, cases, diffs, errors, labels)]
    if include_printed_signal:
        name = "readout-signal-printed"
        results.append(_result(name, tolerance, cases, diffs, printed, informational=True))
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
    readout = _check_readout(grid, tolerance, include_printed_signal)
    return VerificationReport((*_check_entangler(grid), *readout))
