"""Closed forms the benchmark checks the program's outputs against.

Written from the physics, not imported from ``twinprobe``, so that a rewrite
of the package's metrology or dynamics cannot change the reference it is
measured against.  The forms are the factored ones, with the cancellation-free
``1 - cos t = 2 sin^2(t/2)`` and a series for ``t - sin t`` at small ``t``;
on the documented ranges they agree with the package to ~1e-12.

Units and conventions follow the package: omega = 1 unless given, vacuum
variance 1/2, ``tau`` is omega * tau.
"""
from __future__ import annotations

import math


def t_minus_sin(t: float) -> float:
    if abs(t) < 0.1:
        t2 = t * t
        # t^3/3! - t^5/5! + ...: six terms reach roundoff for |t| < 0.1
        term, total = t * t2 / 6.0, 0.0
        for k in range(6):
            total += term
            term *= -t2 / ((2 * k + 4) * (2 * k + 5))
        return total
    return t - math.sin(t)


def one_minus_cos(t: float) -> float:
    return 2.0 * math.sin(0.5 * t) ** 2


def signal(kappa: float, tau: float, variant: str = "consistent") -> float:
    """Force transfer <Y1 + Y2>/f of the summed meter phase."""
    if variant == "printed":
        ramp = tau + one_minus_cos(tau)
    else:
        ramp = t_minus_sin(tau)
    return 2.0 * math.sqrt(2.0) * kappa * ramp


def noise(kappa: float, tau: float, phi: float, ratio: float, n_th: float) -> float:
    """Variance of Y1 + Y2: rotated squeezed probe + back-action + shot floor."""
    u, w = math.sin(tau), one_minus_cos(tau)
    c, s = math.cos(phi), math.sin(phi)
    probe = (1.0 + 2.0 * n_th) * (
        (u * c - w * s) ** 2 / ratio**2 + (u * s + w * c) ** 2 * ratio**2
    )
    return kappa**2 * probe + 4.0 * kappa**4 * t_minus_sin(tau) ** 2 + 1.0


def phi_opt(tau: float) -> float:
    """Noise-minimizing rotation: zero the antisqueezed term, phi = -tau/2 (mod pi)."""
    phi = -0.5 * tau
    while phi <= -0.5 * math.pi:
        phi += math.pi
    while phi > 0.5 * math.pi:
        phi -= math.pi
    return phi


def f_min(kappa, tau, phi, ratio, n_th, variant="consistent") -> float:
    return math.sqrt(noise(kappa, tau, phi, ratio, n_th)) / abs(
        signal(kappa, tau, variant)
    )


def f_sql(kappa: float, tau: float, variant: str = "consistent") -> float:
    return f_min(kappa, tau, 0.0, 1.0, 0.0, variant)


def kappa_opt(tau: float) -> float:
    """Coupling minimizing f_min; f^2 = a + b k^2 + c / k^2 gives k^4 = c / b."""
    return 1.0 / math.sqrt(2.0 * t_minus_sin(tau))


def phase_distance(a: float, b: float) -> float:
    """Distance between two rotation angles modulo pi (phi and phi + pi are one state)."""
    d = (a - b) % math.pi
    return min(d, math.pi - d)


def entangled(ratio: float, n_th: float) -> dict:
    """Switch-off state of the entangler and its separability numbers."""
    heat = 1.0 + 2.0 * n_th
    scale = 0.25 * heat
    rm2, rp2 = ratio**-2, ratio**2
    cov = [
        [scale * (1 + rm2), 0.0, scale * (1 - rm2), 0.0],
        [0.0, scale * (1 + rp2), 0.0, scale * (1 - rp2)],
        [scale * (1 - rm2), 0.0, scale * (1 + rm2), 0.0],
        [0.0, scale * (1 - rp2), 0.0, scale * (1 + rp2)],
    ]
    return {
        "ratio": ratio,
        "switch_off_time": math.pi / (2.0 * ratio),
        "covariance": cov,
        "relative_q_variance": heat / ratio**2,
        "total_p_variance": heat,
        "variance_product": heat**2 / ratio**2,
        "squeeze_margin": ratio**2 - heat,
    }
