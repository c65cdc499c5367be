"""Closed-form dynamics of the two-probe entangling stage.

Two mechanical probes of frequency omega are coupled through a driven
cavity mode.  Once the cavity is eliminated adiabatically, the relative
coordinate oscillates at a shifted frequency and the ratio of the two
normal-mode frequencies plays the role of a two-mode squeeze parameter.
Switching the coupling off after a quarter period of the fast mode
leaves the probes in a symmetric two-mode squeezed thermal state whose
covariance is diagonal in the (q1 -/+ q2, p1 -/+ p2) combinations.
The stage's inputs, ``ProbeParams``, the relative mode's frequency and the
squeeze ratio live in ``probes``, which needs no numpy.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from ._common import check_domain, finite
from .gaussian import VACUUM_VARIANCE, _read_only
from .probes import ProbeParams, relative_mode_frequency
from .probes import squeeze_ratio as _squeeze_ratio  # dynamics.squeeze_ratio is a removed name

__all__ = [
    "EntanglerOutput",
    "transfer_matrix",
    "thermal_covariance",
    "entangled_covariance",
    "mode_rotation",
    "rotate",
    "prepare",
]


def transfer_matrix(p: ProbeParams, t: float) -> np.ndarray:
    """Quadrature transfer matrix of the coupled pair after time ``t``.

    Ordering (q1, p1, q2, p2).  The momentum rows are (1/omega) d/dt of
    the position rows, so the map is symplectic at every time.
    """
    omega, theta = p.omega, relative_mode_frequency(p)
    r = theta / omega
    cb, sb = math.cos(omega * t), math.sin(omega * t)  # bare (center-of-mass) mode
    cf, sf = math.cos(theta * t), math.sin(theta * t)  # fast (relative) mode
    qq_same = 0.5 * (cb + cf)
    qq_cross = 0.5 * (cb - cf)
    qp_same = 0.5 * (sb + sf / r)
    qp_cross = 0.5 * (sb - sf / r)
    pq_same = 0.5 * (-sb - r * sf)
    pq_cross = 0.5 * (-sb + r * sf)
    return np.array(
        [
            [qq_same, qp_same, qq_cross, qp_cross],
            [pq_same, qq_same, pq_cross, qq_cross],
            [qq_cross, qp_cross, qq_same, qp_same],
            [pq_cross, qq_cross, pq_same, qq_same],
        ]
    )


def thermal_covariance(n_th: float) -> np.ndarray:
    """Uncorrelated thermal covariance of the two probes, (1/2 + n_th) I."""
    check_domain(("n_th", n_th))
    return _read_only((VACUUM_VARIANCE + n_th) * np.eye(4))


def entangled_covariance(ratio: float, n_th: float) -> np.ndarray:
    """Probe covariance at coupling switch-off, a quarter period of the fast mode.

    The (q1 - q2) variance is squeezed by ratio**2 and the (p1 - p2)
    variance antisqueezed by the same factor; the + combinations stay
    thermal.  ``ratio`` is the normal-mode frequency ratio, >= 1.
    """
    check_domain(("squeeze ratio", ratio), ("n_th", n_th))
    scale = 0.5 * (VACUUM_VARIANCE + n_th)
    rm2 = ratio**-2
    rp2 = ratio**2
    m = np.array(
        [
            [scale * (1 + rm2), 0.0, scale * (1 - rm2), 0.0],
            [0.0, scale * (1 + rp2), 0.0, scale * (1 - rp2)],
            [scale * (1 - rm2), 0.0, scale * (1 + rm2), 0.0],
            [0.0, scale * (1 - rp2), 0.0, scale * (1 + rp2)],
        ]
    )
    finite("switch-off covariance", np.max(np.abs(m)))
    return _read_only(m)


def mode_rotation(phi: float) -> np.ndarray:
    """Phase-space rotation by ``phi`` of both probes, ordering (q1, p1, q2, p2)."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, s, 0.0, 0.0], [-s, c, 0.0, 0.0], [0.0, 0.0, c, s], [0.0, 0.0, -s, c]])


def rotate(c: np.ndarray, phi: float) -> np.ndarray:
    """The probe pair's 4x4 covariance ``c`` after rotating both probes by ``phi``."""
    r = mode_rotation(phi)
    m = r @ c @ r.T
    return _read_only(0.5 * (m + m.T))


class EntanglerOutput(
    namedtuple(
        "EntanglerOutput",
        "mode_frequency ratio switch_off_time covariance"
        " relative_q_variance total_p_variance variance_product squeeze_margin",
    )
):
    """State of the entangling stage at switch-off, with two separability diagnostics.

    In units where the collective vacuum variance is 1, the squeezed
    relative variance Var(q1 - q2) is (1 + 2 n_th) / ratio**2 and the
    total variance Var(p1 + p2) stays thermal, 1 + 2 n_th.
    ``squeeze_margin`` is ratio**2 - (1 + 2 n_th), and ``entangled`` is
    the squeeze-margin test: positive when the squeezed collective variance
    drops below the collective vacuum level.  That is not separability.
    For this state the separability (PPT) verdict is the EPR variance
    product Var(q1-q2) * Var(p1+p2) < 1, i.e. ratio > 1 + 2 n_th (Simon,
    PRL 84, 2726, 2000).  The two coincide at n_th = 0; at n_th > 0 a
    positive margin may come with a separable state.
    """

    __slots__ = ()

    @property
    def entangled(self) -> bool:
        return self.squeeze_margin > 0.0


def prepare(p: ProbeParams) -> EntanglerOutput:
    """Run the entangling stage to its switch-off time and collect the state.

    A reported quantity beyond the float range raises DomainError naming it.
    """
    theta = relative_mode_frequency(p)
    ratio = _squeeze_ratio(p)
    heat = 1.0 + 2.0 * p.n_th
    rel_q = finite("relative q variance", heat / ratio**2)
    tot_p = finite("total p variance", heat)
    product = finite("variance product", rel_q * tot_p)
    margin = finite("squeeze margin", ratio**2 - heat)
    return EntanglerOutput(
        mode_frequency=theta,
        ratio=ratio,
        switch_off_time=finite("switch-off time", math.pi / (2.0 * theta)),
        covariance=entangled_covariance(ratio, p.n_th),
        relative_q_variance=rel_q,
        total_p_variance=tot_p,
        variance_product=product,
        squeeze_margin=margin,
    )
