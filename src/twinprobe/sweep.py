"""Sensitivity curves over pulse duration or coupling, and the coupling optimum.

Sweeps evaluate the closed-form minimum detectable force on an axis grid
(one row per squeeze ratio per grid point, axis-major order), always at
the interference phase that minimizes the noise for that grid point.
Each sweep is one broadcast evaluation of the closed forms.  It comes back
as columns, each at the shape of the inputs it depends on, which the
command line layer serializes without recomputation or repetition, or as
a record array of rows.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from ._common import SIGNAL_CONSISTENT, DomainError, check_domain, check_variant
from .metrology import (
    MeterParams,
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
    "fmin_columns",
    "curve_columns",
    "optimal_kappa",
]

_AXES = ("tau_scaled", "kappa")


_SPEC_DEFAULTS = {
    "axis": "tau_scaled",
    "lo": 0.05,
    "hi": 2.0 * math.pi,
    "points": 512,
    "kappa": 1.0,
    "tau_scaled": math.pi / 2.0,
    "n_th": 20.0,
    "ratios": (1.0, 2.0, 10.0),
    "include_sql": True,
    "signal_variant": SIGNAL_CONSISTENT,
}


class SweepSpec(namedtuple("SweepSpec", _SPEC_DEFAULTS, defaults=_SPEC_DEFAULTS.values())):
    """One-axis sweep of the minimum detectable force.

    ``axis`` selects which of ``tau_scaled``/``kappa`` runs over the
    grid (linear in tau_scaled, logarithmic in kappa); the other is held
    at the value given here.  Each grid point is evaluated for every
    squeeze ratio in ``ratios`` and, when ``include_sql`` is set, for the
    ratio-1 zero-temperature reference at phi = 0.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.axis not in _AXES:
            raise ValueError(f"axis must be one of {_AXES}, got {self.axis!r}")
        if not (self.lo > 0 and self.hi > self.lo):
            raise ValueError(f"need 0 < lo < hi, got lo={self.lo} hi={self.hi}")
        check_domain(("points", self.points))
        if not (self.tau_scaled if self.axis == "kappa" else self.kappa) > 0:
            raise ValueError("held kappa and tau_scaled must be positive")
        check_domain(("n_th", self.n_th))
        if not self.ratios or any(r < 1.0 for r in self.ratios):
            raise ValueError(f"ratios must be nonempty and >= 1, got {self.ratios}")
        check_variant(self.signal_variant)
        return self

    @classmethod
    def _make(cls, values) -> "SweepSpec":  # through __new__, so that _replace checks too
        return cls(*values)


def fig1_spec(**overrides) -> SweepSpec:
    """Duration sweep: f_min vs tau_scaled at fixed coupling."""
    return SweepSpec(**overrides)


def fig2_spec(**overrides) -> SweepSpec:
    """Coupling sweep: f_min vs kappa on a log grid at fixed duration."""
    return SweepSpec(**{"axis": "kappa", "hi": 5.0, **overrides})


def axis_values(spec: SweepSpec) -> np.ndarray:
    if spec.axis == "kappa":
        return np.geomspace(spec.lo, spec.hi, spec.points)
    return np.linspace(spec.lo, spec.hi, spec.points)


def fmin_columns(
    tau_scaled,
    kappa,
    ratio,
    n_th,
    phi,
    *,
    signal_variant: str = SIGNAL_CONSISTENT,
    include_sql: bool = True,
) -> dict[str, np.ndarray]:
    """Evaluate f_min and its parts on the broadcast inputs, one array per quantity.

    The inputs are floats or arrays that broadcast together.  The result
    maps tau_scaled, kappa, ratio, n_th, phi, signal, noise, f_min and f_sql
    (nan unless ``include_sql`` is set), in that order, to float arrays, each
    at the shape of the inputs it depends on; broadcast together they give
    one value per point.  A signal, noise, f_min or f_sql that overflows to
    inf or nan raises DomainError naming the first such quantity and the
    first such point, in C order.
    """
    meter = MeterParams(
        kappa=kappa, tau_scaled=tau_scaled, phi=phi, signal_variant=signal_variant
    )
    # an overflow or 0 * inf surfaces as a non-finite column, refused below
    with np.errstate(all="ignore"):
        signal = signal_coeff(meter)
        variance = noise(meter, ratio, n_th)
        values = {
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
    columns = {name: np.asarray(value, dtype=float) for name, value in values.items()}
    shape = np.broadcast_shapes(*(column.shape for column in columns.values()))
    for name in ("signal", "noise", "f_min", "f_sql")[: 4 if include_sql else 3]:
        bad = ~np.isfinite(columns[name])
        if bad.any():
            at = np.unravel_index(np.argmax(np.broadcast_to(bad, shape)), shape)
            point = {key: np.broadcast_to(column, shape)[at] for key, column in columns.items()}
            raise DomainError(
                f"{name} is not finite ({point[name]:g}) at tau_scaled={point['tau_scaled']:g}, "
                f"kappa={point['kappa']:g}, ratio={point['ratio']:g}, n_th={point['n_th']:g}"
            )
    return columns


def curve_columns(spec: SweepSpec) -> dict[str, np.ndarray]:
    """The sweep as ``fmin_columns``: axis quantities at (points, 1), ratio at (1, ratios).

    phi is ``phi_opt`` of the axis, so the noise's phase offset is exactly 0.
    """
    x = axis_values(spec)[:, None]
    tau = x if spec.axis == "tau_scaled" else spec.tau_scaled
    kappa = x if spec.axis == "kappa" else spec.kappa
    return fmin_columns(
        tau,
        kappa,
        np.array(spec.ratios)[None, :],
        spec.n_th,
        phi_opt(tau),
        signal_variant=spec.signal_variant,
        include_sql=spec.include_sql,
    )


def fmin_curve(spec: SweepSpec, jobs: int = 1) -> np.recarray:
    """Evaluate the sweep as rows, axis-major: all ratios for a grid point together.

    A flat, read-only record array of the ``curve_columns`` broadcast
    together, one row per grid point and ratio, with the fields of
    ``fmin_columns``.  ``jobs`` must be at least 1 and changes nothing; the
    command line's ``--jobs`` sets the processes that format the CSV.
    """
    check_domain(("jobs", jobs))
    columns = curve_columns(spec)
    shape = np.broadcast_shapes(*(column.shape for column in columns.values()))
    rows = np.empty(shape, [(name, float) for name in columns])
    for name, column in columns.items():
        rows[name] = column
    rows = rows.reshape(-1).view(np.recarray)
    rows.flags.writeable = False
    return rows


KappaOptimum = namedtuple("KappaOptimum", "kappa f_min")
KappaOptimum.__doc__ = "The coupling that minimizes f_min, and that f_min."


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
    occupation or the variant.  Its f_min is the ``fmin_columns`` value, so a
    non-finite one raises DomainError.
    """
    check_domain(("tau_scaled", tau_scaled))
    ramp = t_minus_sin(tau_scaled)
    if not ramp > 0.0:
        raise DomainError(f"signal transfer vanishes at tau_scaled={tau_scaled}")
    # 2 * ramp overflows from ramp ~ 9e307 on; 0.5 / sqrt(0.5 * ramp) has the
    # same bits wherever 0.5 * ramp is exact, which a subnormal ramp is not
    kappa = 1.0 / math.sqrt(2.0 * ramp) if ramp < 1.0 else 0.5 / math.sqrt(0.5 * ramp)
    point = fmin_columns(
        tau_scaled,
        kappa,
        ratio,
        n_th,
        phi_opt(tau_scaled),
        signal_variant=signal_variant,
        include_sql=False,
    )
    return KappaOptimum(kappa=kappa, f_min=float(point["f_min"]))
