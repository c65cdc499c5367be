"""Force-sensing budget of the homodyne readout stage.

After the entangling stage each probe is read out by its own meter
field; the summed phase quadrature Y1 + Y2 accumulates the force at a
rate fixed by the composite meter strength kappa = g*gamma/omega.  All
quantities here are closed forms in the scaled interaction time
tau_scaled = omega * tau; the ODE oracle cross-checks them.

Two conventions for the force-transfer coefficient are provided: the
"consistent" one (default) is the coefficient obtained by integrating
the readout equations of motion, the "printed" one is an alternative
bookkeeping kept for cross-checking.  They coincide at tau_scaled =
2 pi k and disagree elsewhere; the oracle agrees with "consistent".
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from ._common import SIGNAL_CONSISTENT, SIGNAL_PRINTED, DomainError, finite
from ._common import check_domain, check_variant

__all__ = [
    "MeterParams",
    "DecoherenceBudget",
    "signal_coeff",
    "noise",
    "phi_opt",
    "f_min",
    "f_min_from",
    "sql",
    "t_minus_sin",
    "decoherence_budget",
]


class MeterParams(namedtuple("MeterParams", "kappa tau_scaled phi signal_variant")):
    """Readout settings: meter strength, interaction time, homodyne angle.

    kappa          composite meter strength g*gamma/omega
    tau_scaled     omega * tau, the force integration time in scaled units
    phi            common local-rotation angle applied to the probe state
                   before the force acts
    signal_variant force-transfer convention, one of SIGNAL_VARIANTS

    kappa, tau_scaled and phi may be floats or broadcastable arrays; the
    closed forms below then return arrays of the broadcast shape.
    """

    __slots__ = ()

    def __new__(cls, kappa, tau_scaled, phi=0.0, signal_variant=SIGNAL_CONSISTENT):
        check_domain(("kappa", kappa), ("tau_scaled", tau_scaled))
        check_variant(signal_variant)
        return super().__new__(cls, kappa, tau_scaled, phi, signal_variant)

    @classmethod
    def _make(cls, values) -> "MeterParams":  # through __new__, so that _replace checks too
        return cls(*values)


def t_minus_sin(t):
    """t - sin(t) for a float or an array, accurate to roundoff at every t.

    The plain difference cancels as t shrinks (all digits are lost near
    t = 1e-8), so below |t| = 1 the Taylor series t^3/3! - t^5/5! + ...
    is summed instead; nine terms reach roundoff there (Goldberg, "What
    every computer scientist should know about floating-point
    arithmetic", 1991).  Above it the difference loses under one digit.
    """
    small = np.abs(t) < 1.0
    ts = np.where(small, t, 0.0)[()]
    t2 = ts * ts
    series = 1.0
    for k in range(20, 2, -2):
        series = 1.0 - t2 / (k * (k + 1)) * series
    return np.where(small, ts * t2 / 6.0 * series, t - np.sin(t))[()]


def signal_coeff(m: MeterParams):
    """Force-transfer coefficient <Y1 + Y2> / f after time tau."""
    t = m.tau_scaled
    if m.signal_variant == SIGNAL_PRINTED:
        ramp = t + 2.0 * np.sin(0.5 * t) ** 2
    else:
        ramp = t_minus_sin(t)
    return 2.0 * np.sqrt(2.0) * m.kappa * ramp


def noise(m: MeterParams, ratio, n_th):
    """Variance of Y1 + Y2 after time tau for a squeezed thermal probe pair.

    The probe pair's collective quadratures, rotated by phi onto the
    readout, plus the meter back-action and the meters' shot floor:
    (1/2 + n_th) 8 kappa^2 sin^2(tau/2) (cos^2 psi / r^2 + r^2 sin^2 psi)
    + (2 kappa^2 (tau - sin tau))^2 + 1, with the offset psi = phi -
    phi_opt(tau) taken here and the bracket summed as 1/r^2 + (r^2 - 1/r^2)
    sin^2 psi.  So psi is exactly 0 at ``phi = phi_opt(tau)``, where the
    antisqueezed term leaves the readout, and at ratio 1 the psi term is
    multiplied by exactly 0: for any finite phi the bracket is 1.  Always >= 1.
    """
    check_domain(("squeeze ratio", ratio), ("n_th", n_th))
    t = m.tau_scaled
    # numpy's power: a float kappa above ~1.3e154 squares to inf, where
    # Python's raises OverflowError; the bits are pow's, unlike kappa * kappa
    k2 = np.float64(m.kappa) ** 2
    r2 = ratio**2
    spread = 1.0 / r2 + (r2 - 1.0 / r2) * np.sin(m.phi - phi_opt(t)) ** 2
    probe = (0.5 + n_th) * (8.0 * k2 * np.sin(0.5 * t) ** 2 * spread)
    backaction = (2.0 * k2 * t_minus_sin(t)) ** 2
    return probe + backaction + 1.0


def phi_opt(tau_scaled):
    """Rotation angle minimizing the readout noise at this interaction time.

    -tau_scaled/2 modulo pi, into (-pi/2, pi/2]: psi = 0 in ``noise``, for
    every squeeze ratio.  Taken as -arctan(tan(tau_scaled/2)), within an
    ulp of the exact angle at any duration, because tan reduces by the
    exact pi; a multiple of the rounded pi would be off by k ulp.  Takes a
    float or an array.
    """
    check_domain(("tau_scaled", tau_scaled))
    phi = -np.arctan(np.tan(0.5 * tau_scaled))
    return np.where(phi > -0.5 * np.pi, phi, phi + np.pi)[()]


def f_min(m: MeterParams, ratio, n_th):
    """Minimum detectable force, sqrt(noise) / |signal|."""
    return f_min_from(m, signal_coeff(m), noise(m, ratio, n_th))


def f_min_from(m: MeterParams, signal, variance):
    """f_min from the already evaluated ``signal_coeff(m)`` and noise ``variance``.

    A zero signal raises DomainError naming the first duration
    at which it vanishes.
    """
    zero = signal == 0.0
    if np.any(zero):
        tau = np.broadcast_to(m.tau_scaled, np.shape(signal))[zero][0]
        raise DomainError(f"signal transfer vanishes at tau_scaled={tau}")
    return np.sqrt(variance) / np.abs(signal)


def sql(m: MeterParams):
    """Standard quantum limit: f_min of uncoupled ground-state probes (ratio 1, n_th 0).

    At ratio 1 the noise does not depend on phi, so it is taken at phi = 0:
    the result has the shape of kappa and tau_scaled alone.
    """
    return f_min(m._replace(phi=0.0), 1.0, 0.0)


DecoherenceBudget = namedtuple(
    "DecoherenceBudget", "budget rotation_time force_time time_used feasible"
)
DecoherenceBudget.__doc__ = """Coherence-time bookkeeping of one rotation-plus-readout run.

``budget`` is 1 / (gamma_mech * n_th) (infinite when either factor
vanishes); ``time_used`` is the free-evolution time implementing the
rotation plus the force integration time, both in physical units.
"""


def decoherence_budget(p, phi: float, tau: float) -> DecoherenceBudget:
    """Check rotation + readout against the thermal decoherence time.

    The rotation is implemented by free evolution, so a negative angle
    costs the complementary positive one: the smallest nonnegative
    equivalent of phi is charged.  ``tau`` is the physical force time.  A
    time beyond the float range raises DomainError naming it.
    """
    check_domain(("tau", tau))
    rotation_time = finite("rotation time", float(phi % (2.0 * math.pi)) / p.omega)
    time_used = finite("time used", rotation_time + finite("force time", tau))
    rate = p.gamma_mech * p.n_th
    budget = math.inf if rate == 0.0 else 1.0 / rate
    return DecoherenceBudget(
        budget=budget,
        rotation_time=rotation_time,
        force_time=tau,
        time_used=time_used,
        feasible=time_used < budget,
    )
