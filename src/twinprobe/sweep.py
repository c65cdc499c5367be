"""Sensitivity curves over pulse duration or coupling, and the coupling optimum.

Sweeps evaluate the closed-form minimum detectable force on an axis grid
(one row per squeeze ratio per grid point, axis-major order), always at
the interference phase that minimizes the noise for that grid point.
Each sweep is one broadcast evaluation of the closed forms; rows come back
as a record array, so the command line layer can serialize them without
recomputation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._common import SIGNAL_CONSISTENT, SIGNAL_VARIANTS, DomainError
from .metrology import (
    MeterParams,
    UndetectableForceError,
    f_min_from,
    noise,
    phi_opt,
    signal_coeff,
    sql,
    t_minus_sin,
)

__all__ = [
    "SweepSpec",
    "KappaOptimum",
    "fig1_spec",
    "fig2_spec",
    "axis_values",
    "fmin_curve",
    "fmin_points",
    "optimal_kappa",
]

_AXES = ("tau_scaled", "kappa")


@dataclass(frozen=True)
class SweepSpec:
    """One-axis sweep of the minimum detectable force.

    ``axis`` selects which of ``tau_scaled``/``kappa`` runs over the
    grid (linear in tau_scaled, logarithmic in kappa); the other is held
    at the value given here.  Each grid point is evaluated for every
    squeeze ratio in ``ratios`` and, when ``include_sql`` is set, for the
    ratio-1 zero-temperature reference at phi = 0.
    """

    axis: str = "tau_scaled"
    lo: float = 0.05
    hi: float = 2.0 * math.pi
    points: int = 512
    kappa: float = 1.0
    tau_scaled: float = math.pi / 2.0
    n_th: float = 20.0
    ratios: tuple[float, ...] = (1.0, 2.0, 10.0)
    include_sql: bool = True
    signal_variant: str = SIGNAL_CONSISTENT

    def __post_init__(self) -> None:
        if self.axis not in _AXES:
            raise ValueError(f"axis must be one of {_AXES}, got {self.axis!r}")
        if not (self.lo > 0 and self.hi > self.lo):
            raise ValueError(f"need 0 < lo < hi, got lo={self.lo} hi={self.hi}")
        if self.points < 2:
            raise ValueError(f"points must be at least 2, got {self.points}")
        if self.kappa <= 0 or self.tau_scaled <= 0:
            raise ValueError("held kappa and tau_scaled must be positive")
        if self.n_th < 0:
            raise ValueError(f"n_th must be nonnegative, got {self.n_th}")
        if not self.ratios or any(r < 1.0 for r in self.ratios):
            raise ValueError(f"ratios must be nonempty and >= 1, got {self.ratios}")
        if self.signal_variant not in SIGNAL_VARIANTS:
            raise ValueError(f"unknown signal variant {self.signal_variant!r}")


def fig1_spec(**overrides) -> SweepSpec:
    """Duration sweep: f_min vs tau_scaled at fixed coupling."""
    return replace(SweepSpec(), **overrides)


def fig2_spec(**overrides) -> SweepSpec:
    """Coupling sweep: f_min vs kappa on a log grid at fixed duration."""
    return replace(SweepSpec(axis="kappa", lo=0.05, hi=5.0), **overrides)


def axis_values(spec: SweepSpec) -> np.ndarray:
    if spec.axis == "kappa":
        return np.geomspace(spec.lo, spec.hi, spec.points)
    return np.linspace(spec.lo, spec.hi, spec.points)


def fmin_points(
    tau_scaled,
    kappa,
    ratio,
    n_th,
    phi,
    *,
    signal_variant: str = SIGNAL_CONSISTENT,
    include_sql: bool = True,
) -> np.recarray:
    """Evaluate f_min and its parts at every point of the broadcast inputs.

    The inputs are floats or arrays that broadcast together.  The result is
    a flat, read-only record array with one row per broadcast element, in C
    order, and the fields tau_scaled, kappa, ratio, n_th, phi, signal,
    noise, f_min and f_sql (nan unless ``include_sql`` is set).  A signal,
    noise, f_min or f_sql that overflows to inf or nan raises DomainError
    naming the first such quantity and its point.
    """
    meter = MeterParams(
        kappa=kappa, tau_scaled=tau_scaled, phi=phi, signal_variant=signal_variant
    )
    # an overflow or 0 * inf surfaces as a non-finite column, refused below
    with np.errstate(all="ignore"):
        signal = signal_coeff(meter)
        variance = noise(meter, ratio, n_th)
        columns = {
            "tau_scaled": tau_scaled,
            "kappa": kappa,
            "ratio": ratio,
            "n_th": n_th,
            "phi": phi,
            "signal": signal,
            "noise": variance,
            "f_min": f_min_from(meter, signal, variance),
            "f_sql": sql(meter) if include_sql else math.nan,
        }
    shape = np.broadcast_shapes(*map(np.shape, columns.values()))
    rows = np.empty(shape, [(name, float) for name in columns])
    for name, values in columns.items():
        rows[name] = values
    rows = rows.reshape(-1).view(np.recarray)
    rows.flags.writeable = False
    for name in ("signal", "noise", "f_min", "f_sql")[: 4 if include_sql else 3]:
        bad = ~np.isfinite(rows[name])
        if bad.any():
            row = rows[np.argmax(bad)]
            raise DomainError(
                f"{name} is not finite ({row[name]:g}) at tau_scaled={row.tau_scaled:g}, "
                f"kappa={row.kappa:g}, ratio={row.ratio:g}, n_th={row.n_th:g}"
            )
    return rows


def fmin_curve(spec: SweepSpec, jobs: int = 1) -> np.recarray:
    """Evaluate the sweep, axis-major: all ratios for a grid point together.

    One broadcast call over a (points, 1) axis column and a (1, ratios)
    row; see ``fmin_points`` for the rows.  ``jobs`` is accepted for
    compatibility and must be at least 1; it changes nothing.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    x = axis_values(spec)[:, None]
    tau = x if spec.axis == "tau_scaled" else spec.tau_scaled
    kappa = x if spec.axis == "kappa" else spec.kappa
    return fmin_points(
        tau,
        kappa,
        np.array(spec.ratios)[None, :],
        spec.n_th,
        phi_opt(tau),
        signal_variant=spec.signal_variant,
        include_sql=spec.include_sql,
    )


@dataclass(frozen=True)
class KappaOptimum:
    kappa: float
    f_min: float


def optimal_kappa(
    tau_scaled: float,
    ratio: float,
    n_th: float,
    *,
    signal_variant: str = SIGNAL_CONSISTENT,
) -> KappaOptimum:
    """Coupling that minimizes f_min at fixed duration, phase-optimized.

    In kappa, f_min**2 = a + b*kappa**2 + c/kappa**2 with b/c = 4*ramp**2,
    ramp = tau_scaled - sin(tau_scaled), for either signal variant, so the
    optimum kappa = 1/sqrt(2*ramp) sets the back-action (2*kappa**2*ramp)**2
    of ``noise`` to 1 and does not depend on the squeeze ratio, the
    occupation or the variant.  Its f_min is the ``fmin_points`` row, so a
    non-finite one raises DomainError.
    """
    if tau_scaled < 0:
        raise ValueError(f"tau_scaled must be nonnegative, got {tau_scaled}")
    ramp = t_minus_sin(tau_scaled)
    if not ramp > 0.0:
        raise UndetectableForceError(f"signal transfer vanishes at tau_scaled={tau_scaled}")
    kappa = 1.0 / math.sqrt(2.0 * ramp)
    point = fmin_points(
        tau_scaled,
        kappa,
        ratio,
        n_th,
        phi_opt(tau_scaled),
        signal_variant=signal_variant,
        include_sql=False,
    )
    return KappaOptimum(kappa=kappa, f_min=point.f_min[0])
