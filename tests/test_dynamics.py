import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mp_expm, symplectic_form
from twinprobe._common import DomainError
from twinprobe.dynamics import (
    entangled_covariance,
    mode_rotation,
    prepare,
    rotate,
    thermal_covariance,
    transfer_matrix,
)
from twinprobe.gaussian import validate
from twinprobe.oracle import build_entangler_system
from twinprobe.probes import (
    ProbeParams,
    occupation_from_temperature,
    relative_mode_frequency,
    squeeze_ratio,
)


def test_param_validation():
    with pytest.raises(ValueError):
        ProbeParams(omega=0.0)
    with pytest.raises(ValueError):
        ProbeParams(omega=1.0, n_th=-1.0)
    with pytest.raises(ValueError):
        ProbeParams(omega=1.0, gamma_mech=-0.1)
    with pytest.raises(ValueError):
        ProbeParams(omega=1.0, coupling=1.5, delta=0.0)
    with pytest.raises(ValueError):
        ProbeParams(omega=1.0, coupling=1.5, delta=-2.0)
    with pytest.raises(ValueError):
        ProbeParams.from_squeeze_ratio(1.0, 0.5)


def test_mode_frequency_examples():
    # raw parameters: 2*G*|beta| = 1, delta = 2 -> coupling 0.5 -> sqrt(2)
    p = ProbeParams(omega=1.0, coupling=0.5, delta=2.0)
    assert relative_mode_frequency(p) == pytest.approx(math.sqrt(2.0))
    p = ProbeParams(omega=1.0, coupling=1.5)
    assert relative_mode_frequency(p) == pytest.approx(2.0)
    assert relative_mode_frequency(p) / p.omega == pytest.approx(2.0)


def test_squeeze_ratio_roundtrip():
    for ratio in (1.0, math.sqrt(2.0), 2.0, 10.0):
        p = ProbeParams.from_squeeze_ratio(1.0, ratio)
        assert relative_mode_frequency(p) / p.omega == pytest.approx(ratio, rel=1e-12)
        assert squeeze_ratio(p) == prepare(p).ratio == pytest.approx(ratio, rel=1e-12)
    # omega + 2*coupling = ratio**2 exactly here, so theta carries no rounding
    assert relative_mode_frequency(ProbeParams.from_squeeze_ratio(1.0, 1e3)) == 1e3


def test_unstable_regime_raises():
    # omega + 2*coupling <= 0 has no real relative-mode frequency
    with pytest.raises(DomainError):
        relative_mode_frequency(ProbeParams(omega=1.0, coupling=-0.9, delta=-1.0))
    with pytest.raises(DomainError, match=r"omega \+ 2\*coupling = 0\.0$"):
        relative_mode_frequency(ProbeParams(omega=1.0, coupling=-0.5, delta=-1.0))


@pytest.mark.parametrize(
    "p, message",
    [
        (ProbeParams(1.0, -0.1, -1.0), r"^coupling must not soften the relative mode: ratio 0\.89"),
        (ProbeParams(1.0, -0.5, -1.0), r"^relative mode unstable"),
        (ProbeParams(1.0, math.inf), r"^squeeze ratio is beyond the float range"),
        (ProbeParams(1e-10, 1e300), r"^squeeze ratio squared is beyond the float range"),
    ],
)
def test_squeeze_ratio_refuses_what_prepare_refuses(p, message):
    # the command line calls squeeze_ratio alone, so a refusal loads no numpy
    for call in (squeeze_ratio, prepare):
        with pytest.raises(DomainError, match=message):
            call(p)


def test_transfer_identity_at_zero():
    p = ProbeParams.from_squeeze_ratio(1.0, 2.0)
    assert np.allclose(transfer_matrix(p, 0.0), np.eye(4), atol=1e-14)


def test_transfer_momentum_rows_are_position_derivatives():
    # p_j = qdot_j / omega, checked against central differences
    eps = 1e-6
    for ratio in (1.0, 2.0, 10.0):
        p = ProbeParams.from_squeeze_ratio(1.0, ratio)
        for t in (0.3, 1.0, 2.8):
            plus = transfer_matrix(p, t + eps)
            minus = transfer_matrix(p, t - eps)
            deriv = (plus[[0, 2], :] - minus[[0, 2], :]) / (2 * eps)
            assert np.max(np.abs(transfer_matrix(p, t)[[1, 3], :] - deriv)) < 1e-8


@settings(max_examples=80, deadline=None)
@given(
    omega=st.floats(0.1, 10.0),
    route=st.sampled_from(["ratio", "coupling_chi"]),
    strength=st.floats(0.0, 1.0),
    t_periods=st.floats(0.0, 10.0),
)
def test_transfer_is_symplectic(omega, route, strength, t_periods):
    j = symplectic_form(2)
    if route == "ratio":
        p = ProbeParams.from_squeeze_ratio(omega, 1.0 + 9.0 * strength)
    else:
        # composite coupling from the softest stable spring, -0.45 omega, up to 50 omega
        p = ProbeParams(omega=omega, coupling=omega * (-0.45 + 50.45 * strength))
    m = transfer_matrix(p, 2.0 * math.pi * t_periods / relative_mode_frequency(p))
    assert np.max(np.abs(m @ j @ m.T - j)) < 1e-10


@settings(max_examples=80, deadline=None)
@given(ratio=st.floats(1.0, 50.0), n_th=st.floats(0.0, 100.0), phi=st.floats(-math.pi, math.pi))
def test_returned_covariances_are_physical(ratio, n_th, phi):
    entangled = entangled_covariance(ratio, n_th)
    states = [
        thermal_covariance(n_th),
        entangled,
        rotate(entangled, phi),
        rotate(thermal_covariance(n_th), phi),
        prepare(ProbeParams.from_squeeze_ratio(1.0, ratio, n_th=n_th)).covariance,
    ]
    for c in states:
        report = validate(c)
        assert report.passed, report.failures


def test_transfer_at_switchoff_reproduces_entangled_covariance():
    # holds exactly for any value of omega*t at switch-off, irrational too
    for ratio in (1.0, math.sqrt(2.0), 2.0, 10.0):
        for n_th in (0.0, 20.0):
            p = ProbeParams.from_squeeze_ratio(1.0, ratio, n_th=n_th)
            theta = relative_mode_frequency(p)
            m = transfer_matrix(p, math.pi / (2.0 * theta))
            got = m @ thermal_covariance(n_th) @ m.T
            want = entangled_covariance(ratio, n_th)
            assert np.max(np.abs(got - want)) < 1e-12 * max(
                1.0, np.max(np.abs(want))
            )


@pytest.mark.parametrize("ratio", [1.0, 2.0, 10.0, 1e3])
def test_closed_forms_match_arbitrary_precision_expm(ratio):
    # expm of the adiabatic drift at 40 digits, independent of the RK4 oracle;
    # the closed forms may differ by the rounding of the phase theta*t
    p = ProbeParams.from_squeeze_ratio(1.0, ratio)
    theta = relative_mode_frequency(p)
    t_switch = prepare(p).switch_off_time
    drift = build_entangler_system(p)

    def rel(got, want):
        return np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))

    for t in (1e-6, 0.35, math.pi / 2.0, 2.8, 2.0 * math.pi, t_switch):
        bound = 4.0 * np.finfo(float).eps * ratio * max(1.0, theta * t)
        assert rel(transfer_matrix(p, t), mp_expm(drift, t)) <= bound, t
    # bound now belongs to the switch-off time, the last t above
    for n_th in (0.0, 20.0, 1e3):
        c = mp_expm(drift, t_switch, thermal_covariance(n_th))
        assert rel(entangled_covariance(ratio, n_th), c) <= bound, n_th


def test_thermal_covariance_values():
    assert np.allclose(thermal_covariance(0.0), 0.5 * np.eye(4))
    assert np.allclose(thermal_covariance(1000.0), 1000.5 * np.eye(4))
    with pytest.raises(ValueError):
        thermal_covariance(-1.0)


def test_occupation_from_temperature():
    # printed conversion formula; T -> 0 limit gives 1 by construction
    assert occupation_from_temperature(0.0, 1.0) == 1.0
    assert occupation_from_temperature(0.5, 1.0) == pytest.approx(
        1.15651764274966565, rel=1e-14
    )
    assert occupation_from_temperature(50.0, 1.0) == pytest.approx(
        50.5016666555556614, rel=1e-14
    )
    # hbar_over_kb rescales the temperature argument
    assert occupation_from_temperature(1.0, 1.0, hbar_over_kb=2.0) == pytest.approx(
        occupation_from_temperature(0.5, 1.0)
    )
    with pytest.raises(ValueError):
        occupation_from_temperature(-1.0, 1.0)
    # a non-positive hbar_over_kb is refused even at T = 0, as omega is
    for temperature in (0.0, 1.0):
        for hbar_over_kb in (0.0, -1.0):
            with pytest.raises(ValueError, match="hbar_over_kb must be positive"):
                occupation_from_temperature(temperature, 1.0, hbar_over_kb=hbar_over_kb)
    # hbar omega / 2 k T underflowing to 0, or 1/tanh of it overflowing, is no finite occupation
    for temperature, omega, hbar_over_kb in ((1e300, 1e-300, 1.0), (0.5, 1.0, 1e-310)):
        with pytest.raises(DomainError, match="thermal occupation is beyond the float range"):
            occupation_from_temperature(temperature, omega, hbar_over_kb=hbar_over_kb)


def test_entangled_covariance_frozen_example():
    c = entangled_covariance(2.0, 0.0)
    want = np.array(
        [
            [0.3125, 0.0, 0.1875, 0.0],
            [0.0, 1.25, 0.0, -0.75],
            [0.1875, 0.0, 0.3125, 0.0],
            [0.0, -0.75, 0.0, 1.25],
        ]
    )
    assert np.max(np.abs(c - want)) < 1e-12


def test_entangled_covariance_epr_variances():
    q_minus = np.array([1.0, 0.0, -1.0, 0.0])
    p_plus = np.array([0.0, 1.0, 0.0, 1.0])
    for ratio in (1.0, 2.0, 10.0):
        for n_th in (0.0, 20.0, 1000.0):
            c = entangled_covariance(ratio, n_th)
            heat = 1.0 + 2.0 * n_th
            assert q_minus @ c @ q_minus == pytest.approx(heat / ratio**2, rel=1e-12)
            assert p_plus @ c @ p_plus == pytest.approx(heat, rel=1e-12)
            assert validate(c).passed


def test_rotation_properties():
    r = mode_rotation(0.3)
    assert np.allclose(mode_rotation(0.0), np.eye(4))
    assert np.allclose(r @ mode_rotation(-0.3), np.eye(4))
    c = entangled_covariance(2.0, 1.0)
    assert np.allclose(rotate(rotate(c, 0.7), -0.7), c)
    assert np.allclose(rotate(c, 2 * math.pi), c)
    assert validate(rotate(c, 0.7)).passed


def prepared(ratio, n_th):
    return prepare(ProbeParams.from_squeeze_ratio(1.0, ratio, n_th=n_th))


def test_entanglement_verdicts():
    assert prepared(2.0, 0.0).entangled
    assert not prepared(2.0, 20.0).entangled
    assert prepared(50.0, 1000.0).entangled
    assert not prepared(1.0, 0.0).entangled  # margin exactly zero


def test_entanglement_margins_and_product():
    rep = prepared(2.0, 0.0)
    assert rep.relative_q_variance == pytest.approx(0.25)
    assert rep.total_p_variance == pytest.approx(1.0)
    assert rep.variance_product == pytest.approx(0.25)
    assert rep.variance_product < 1.0
    # at n_th > 0 the two diagnostics genuinely part ways: the squeeze
    # margin can be positive while the EPR product is still above 1
    rep = prepared(2.0, 1.0)
    assert rep.squeeze_margin == pytest.approx(1.0)
    assert rep.entangled
    assert rep.variance_product == pytest.approx(2.25)
    assert not rep.variance_product < 1.0


def test_prepare_pipeline():
    p = ProbeParams.from_squeeze_ratio(1.0, 2.0, n_th=0.0)
    out = prepare(p)
    assert out.mode_frequency == pytest.approx(2.0)
    assert out.ratio == pytest.approx(2.0)
    assert out.switch_off_time == pytest.approx(math.pi / 4.0)
    assert out.entangled
    assert validate(out.covariance).passed
