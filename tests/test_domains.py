"""Each quantity's domain, as ``twinprobe._common.DOMAINS`` declares it, at every entry point."""
import math
import re

import numpy as np
import pytest

from twinprobe._common import DOMAINS, SIGNAL_VARIANTS
from twinprobe.dynamics import (
    ProbeParams,
    entangled_covariance,
    occupation_from_temperature,
    thermal_covariance,
)
from twinprobe.gaussian import vacuum
from twinprobe.metrology import MeterParams, decoherence_budget, noise, phi_opt
from twinprobe.oracle import propagator
from twinprobe.sweep import SweepSpec, fig1_spec, fmin_curve, optimal_kappa

NAN = math.nan
METER = MeterParams(1.0, 1.5)

# one call per entry point and quantity, with that quantity nan
NAN_CALLS = [
    ("omega", lambda: ProbeParams(NAN)),
    ("n_th", lambda: ProbeParams(1.0, n_th=NAN)),
    ("gamma_mech", lambda: ProbeParams(1.0, gamma_mech=NAN)),
    ("squeeze ratio", lambda: ProbeParams.from_squeeze_ratio(1.0, NAN)),
    ("kappa", lambda: MeterParams(NAN, 1.0)),
    ("tau_scaled", lambda: MeterParams(1.0, NAN)),
    ("n_th", lambda: thermal_covariance(NAN)),
    ("squeeze ratio", lambda: entangled_covariance(NAN, 0.0)),
    ("n_th", lambda: entangled_covariance(2.0, NAN)),
    ("temperature", lambda: occupation_from_temperature(NAN, 1.0)),
    ("omega", lambda: occupation_from_temperature(1.0, NAN)),
    ("hbar_over_kb", lambda: occupation_from_temperature(1.0, 1.0, NAN)),
    ("squeeze ratio", lambda: noise(METER, NAN, 0.0)),
    ("n_th", lambda: noise(METER, 2.0, NAN)),
    ("tau_scaled", lambda: phi_opt(NAN)),
    ("tau", lambda: decoherence_budget(ProbeParams(1.0), 0.0, NAN)),
    ("tau_scaled", lambda: optimal_kappa(NAN, 2.0, 0.0)),
    ("n_th", lambda: fig1_spec(n_th=NAN)),
    ("points", lambda: fig1_spec(points=NAN)),
    ("jobs", lambda: fmin_curve(fig1_spec(points=2), jobs=NAN)),
    ("t", lambda: propagator(np.zeros((2, 2)), NAN, 0.1)),
    ("n_modes", lambda: vacuum(NAN)),
    # one nan among valid entries refuses the whole array
    ("kappa", lambda: MeterParams(np.array([1.0, NAN, 2.0]), 1.0)),
    ("squeeze ratio", lambda: noise(METER, np.array([[2.0], [NAN]]), 0.0)),
]


@pytest.mark.parametrize(
    "quantity, call", NAN_CALLS, ids=[f"{q}-{i}" for i, (q, _) in enumerate(NAN_CALLS)]
)
def test_nan_fails_every_domain_check(quantity, call):
    refusal = f"{quantity} must be {DOMAINS[quantity][2]}, got "
    with pytest.raises(ValueError, match=f"(?s)^{re.escape(refusal)}.*nan"):
        call()


@pytest.mark.parametrize(
    "axis, held, swept", [("tau_scaled", "kappa", "tau_scaled"), ("kappa", "tau_scaled", "kappa")]
)
@pytest.mark.parametrize("value", [-1.0, 0.0, NAN])
def test_sweep_checks_only_the_held_quantity(axis, held, swept, value):
    # the swept quantity's held value is never read
    assert SweepSpec(axis=axis, **{swept: value}).axis == axis
    with pytest.raises(ValueError, match="^held kappa and tau_scaled must be positive$"):
        SweepSpec(axis=axis, **{held: value})


@pytest.mark.parametrize(
    "call",
    [lambda: MeterParams(1.0, 1.0, signal_variant="x"), lambda: SweepSpec(signal_variant="x")],
)
def test_signal_variant_refusal_is_shared(call):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == f"signal_variant must be one of {SIGNAL_VARIANTS}, got 'x'"
