"""Closed-form dynamics of the two-probe entangling stage.

Two mechanical probes of frequency omega are coupled through a driven
cavity mode.  Once the cavity is eliminated adiabatically, the relative
coordinate oscillates at a shifted frequency and the ratio of the two
normal-mode frequencies plays the role of a two-mode squeeze parameter.
Switching the coupling off after a quarter period of the fast mode
leaves the probes in a symmetric two-mode squeezed thermal state whose
covariance is diagonal in the (q1 -/+ q2, p1 -/+ p2) combinations.
"""
from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from ._common import DomainError, check_domain, finite
from .gaussian import VACUUM_VARIANCE, _read_only

__all__ = [
    "ProbeParams",
    "EntanglerOutput",
    "relative_mode_frequency",
    "transfer_matrix",
    "thermal_covariance",
    "occupation_from_temperature",
    "entangled_covariance",
    "mode_rotation",
    "rotate",
    "prepare",
]


class ProbeParams(namedtuple("ProbeParams", "omega coupling delta n_th gamma_mech")):
    """Physical inputs of the entangling stage.

    omega       mechanical frequency of both probes
    coupling    composite coupling (2 g |beta|)^2 / delta of the
                eliminated cavity, for single-photon coupling g, steady
                cavity amplitude beta and detuning delta
    delta       cavity detuning, nonzero and of the coupling's sign; it
                matters only when the cavity is kept (full model)
    n_th        thermal occupation of each probe before the coupling
    gamma_mech  mechanical damping rate, used only for the decoherence
                time budget
    """

    __slots__ = ()

    def __new__(cls, omega, coupling=0.0, delta=None, n_th=0.0, gamma_mech=0.0):
        check_domain(("omega", omega), ("n_th", n_th), ("gamma_mech", gamma_mech))
        if delta is not None:
            if delta == 0:
                raise ValueError("delta must be nonzero")
            if coupling * delta < 0:
                raise ValueError("coupling and delta must have the same sign")
        return super().__new__(cls, omega, coupling, delta, n_th, gamma_mech)

    @classmethod
    def _make(cls, values) -> "ProbeParams":  # through __new__, so that _replace checks too
        return cls(*values)

    @classmethod
    def from_squeeze_ratio(
        cls,
        omega: float,
        ratio: float,
        *,
        delta: float | None = None,
        n_th: float = 0.0,
        gamma_mech: float = 0.0,
    ) -> "ProbeParams":
        """Build params whose normal-mode frequency ratio equals ``ratio`` (>= 1)."""
        check_domain(("squeeze ratio", ratio))
        return cls(omega, omega * (ratio**2 - 1.0) / 2.0, delta, n_th, gamma_mech)


def relative_mode_frequency(p: ProbeParams) -> float:
    """Frequency of the relative normal mode under the cavity-mediated spring."""
    stiffness = p.omega + 2.0 * p.coupling
    if not stiffness > 0:
        raise DomainError(f"relative mode unstable: omega + 2*coupling = {stiffness}")
    # two roots, not the root of a product that can underflow to 0
    return math.sqrt(p.omega) * math.sqrt(stiffness)


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


def occupation_from_temperature(
    temperature: float, omega: float, hbar_over_kb: float = 1.0
) -> float:
    """Effective thermal occupation (coth(h omega / 2 k T) + 1) / 2.

    Note this convention tends to 1, not 0, as temperature -> 0; the rest
    of the package treats n_th as a free input, so callers who prefer the
    Bose occupation can pass that instead.
    """
    check_domain(("temperature", temperature), ("omega", omega), ("hbar_over_kb", hbar_over_kb))
    if temperature == 0:
        return 1.0
    # halved last, so a huge temperature cannot overflow 2 T; x underflows to 0
    # where k T / hbar omega is beyond the float range
    x = hbar_over_kb * omega / temperature / 2.0
    half_coth = 0.5 / math.tanh(x) if x else math.inf
    return finite("thermal occupation", half_coth + 0.5)


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
    ratio = finite("squeeze ratio", theta / p.omega)  # also catches an infinite theta
    if ratio < 1.0:
        raise DomainError(
            f"coupling must not soften the relative mode: ratio {ratio} < 1"
        )
    # squared below, where a float power would raise OverflowError instead
    finite("squeeze ratio squared", ratio * ratio)
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
