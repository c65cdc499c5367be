"""The probes' physical inputs and the scalar bookkeeping around them.

``ProbeParams`` holds what the entangling stage depends on; the relative
mode's frequency, the thermal occupation at a temperature and the
coherence-time budget of a run follow from it with ``math`` alone.  This
module imports no numpy, so ``budget`` at a given ``--phi`` and every
refusal of ``entangle``'s parameters or of its relative mode finish without
loading it.
``dynamics`` and ``metrology`` hold the closed forms that take arrays.
"""
from __future__ import annotations

import math
from collections import namedtuple

from ._common import DomainError, check_domain, finite

__all__ = [
    "ProbeParams",
    "DecoherenceBudget",
    "relative_mode_frequency",
    "squeeze_ratio",
    "occupation_from_temperature",
    "decoherence_budget",
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

    A nan coupling or delta is refused.  An infinite coupling is an
    overflow of the product that makes it, which ``prepare`` reports as a
    squeeze ratio beyond the float range.
    """

    __slots__ = ()

    def __new__(cls, omega, coupling=0.0, delta=None, n_th=0.0, gamma_mech=0.0):
        check_domain(("omega", omega), ("n_th", n_th), ("gamma_mech", gamma_mech))
        for name, value in (("coupling", coupling), ("delta", delta)):
            if value != value:  # nan, which the sign checks below would let through
                raise ValueError(f"{name} must be finite, got {value!r}")
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
        """Build params whose normal-mode frequency ratio equals ``ratio`` (>= 1).

        A ratio whose square is beyond the float range raises DomainError.
        """
        check_domain(("squeeze ratio", ratio))
        # squared below, where a float power would raise OverflowError instead
        finite("squeeze ratio squared", ratio * ratio)
        return cls(omega, omega * (ratio**2 - 1.0) / 2.0, delta, n_th, gamma_mech)


def relative_mode_frequency(p: ProbeParams) -> float:
    """Frequency of the relative normal mode under the cavity-mediated spring."""
    stiffness = p.omega + 2.0 * p.coupling
    if not stiffness > 0:
        raise DomainError(f"relative mode unstable: omega + 2*coupling = {stiffness}")
    # two roots, not the root of a product that can underflow to 0
    return math.sqrt(p.omega) * math.sqrt(stiffness)


def squeeze_ratio(p: ProbeParams) -> float:
    """The ratio of the relative to the bare mode frequency, the entangler's squeeze.

    DomainError where the relative mode is unstable or softened (ratio
    below 1), or where the ratio or its square is beyond the float range.
    """
    theta = relative_mode_frequency(p)
    ratio = finite("squeeze ratio", theta / p.omega)  # also catches an infinite theta
    if ratio < 1.0:
        raise DomainError(f"coupling must not soften the relative mode: ratio {ratio} < 1")
    # squared by the callers, where a float power would raise OverflowError instead
    finite("squeeze ratio squared", ratio * ratio)
    return ratio


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
