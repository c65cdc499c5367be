import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinprobe._common import SIGNAL_CONSISTENT, SIGNAL_PRINTED, SIGNAL_VARIANTS, DomainError
from twinprobe.metrology import (
    MeterParams,
    f_min,
    noise,
    phi_opt,
    signal_coeff,
    sql,
    t_minus_sin,
)
from twinprobe.probes import ProbeParams, decoherence_budget
from twinprobe.sweep import SweepSpec, optimal_kappa

PI = math.pi


def test_meter_params_validation():
    with pytest.raises(ValueError):
        MeterParams(kappa=-0.1, tau_scaled=1.0)
    with pytest.raises(ValueError):
        MeterParams(kappa=1.0, tau_scaled=-1.0)
    with pytest.raises(ValueError):
        MeterParams(kappa=1.0, tau_scaled=1.0, signal_variant="bogus")


@pytest.mark.parametrize(
    "record, bad",
    [
        (ProbeParams(1.0), {"omega": -1}),
        (MeterParams(1.0, 1.0), {"kappa": -0.1}),
        (SweepSpec(), {"points": 1}),
    ],
)
def test_replace_runs_the_constructor_checks(record, bad):
    with pytest.raises(ValueError) as built:
        type(record)(**{**record._asdict(), **bad})
    with pytest.raises(ValueError) as replaced:
        record._replace(**bad)
    assert str(replaced.value) == str(built.value)


def test_signal_consistent_frozen_values():
    assert signal_coeff(MeterParams(1.0, PI / 2)) == pytest.approx(
        1.61445581341217615, rel=1e-14
    )
    assert signal_coeff(MeterParams(1.0, 2 * PI)) == pytest.approx(
        17.771531752633465, rel=1e-13
    )
    # linear in kappa
    assert signal_coeff(MeterParams(3.0, PI / 2)) == pytest.approx(
        3 * signal_coeff(MeterParams(1.0, PI / 2))
    )


def test_signal_printed_variant():
    m = MeterParams(1.0, PI / 2, signal_variant=SIGNAL_PRINTED)
    assert signal_coeff(m) == pytest.approx(7.27131006290455634, rel=1e-14)
    # the two conventions agree at full mechanical periods
    a = signal_coeff(MeterParams(1.0, 2 * PI, signal_variant=SIGNAL_PRINTED))
    b = signal_coeff(MeterParams(1.0, 2 * PI, signal_variant=SIGNAL_CONSISTENT))
    assert a == pytest.approx(b, rel=1e-12)


def test_noise_frozen_values():
    assert noise(MeterParams(1.0, PI / 2), 1.0, 0.0) == pytest.approx(
        4.30323378673018566, rel=1e-13
    )
    assert noise(MeterParams(1.0, 2 * PI), 1.0, 0.0) == pytest.approx(
        158.913670417429738, rel=1e-12
    )


def test_noise_floor_is_shot_noise():
    rng = np.random.default_rng(17)
    for _ in range(200):
        m = MeterParams(
            kappa=rng.uniform(0.0, 4.0),
            tau_scaled=rng.uniform(0.0, 4 * PI),
            phi=rng.uniform(-PI, PI),
        )
        assert noise(m, rng.uniform(1.0, 10.0), rng.uniform(0.0, 100.0)) >= 1.0
    assert noise(MeterParams(1.0, 0.0), 5.0, 30.0) == pytest.approx(1.0)


def test_noise_phi_independent_at_unit_ratio():
    rng = np.random.default_rng(23)
    for _ in range(100):
        tau = rng.uniform(0.0, 2 * PI)
        kappa = rng.uniform(0.1, 3.0)
        n_th = rng.uniform(0.0, 50.0)
        base = noise(MeterParams(kappa, tau, 0.0), 1.0, n_th)
        got = noise(MeterParams(kappa, tau, rng.uniform(-PI, PI)), 1.0, n_th)
        assert abs(got - base) < 1e-12 * max(1.0, base)


def test_noise_state_independent_at_full_periods():
    for tau in (2 * PI, 4 * PI):
        values = [
            noise(MeterParams(1.0, tau, phi), ratio, n_th)
            for ratio in (1.0, 2.0, 10.0)
            for n_th in (0.0, 20.0, 1000.0)
            for phi in (0.0, 0.7, -1.1)
        ]
        assert max(values) - min(values) < 1e-12 * max(values)


def test_phi_opt_reference_angles():
    assert phi_opt(0.0) == 0.0
    assert phi_opt(PI / 2) == pytest.approx(-PI / 4, abs=1e-12)
    assert phi_opt(PI) == pytest.approx(PI / 2, abs=1e-12)
    # normalized representative of the pi/2-spaced family
    for tau in (0.3, 1.0, 2.5, 4.0, 6.0):
        assert -PI / 2 < phi_opt(tau) <= PI / 2


def test_phi_opt_minimizes_over_grid():
    rng = np.random.default_rng(31)
    grid = np.linspace(-PI / 2, PI / 2, 360, endpoint=False)
    for _ in range(15):
        tau = rng.uniform(0.05, 2 * PI * 0.99)
        ratio = rng.uniform(1.0, 10.0)
        n_th = rng.uniform(0.0, 50.0)
        kappa = rng.uniform(0.2, 2.0)
        best = noise(MeterParams(kappa, tau, phi_opt(tau)), ratio, n_th)
        floor = min(noise(MeterParams(kappa, tau, p), ratio, n_th) for p in grid)
        assert best <= floor + 1e-12 * max(1.0, floor)


def test_phi_opt_collapses_probe_bracket_at_quarter_period():
    # optimal phase puts the squeezed quadrature on both force terms
    for kappa in (0.3, 1.0, 3.0):
        for ratio in (1.0, 2.0, 10.0):
            for n_th in (0.0, 20.0):
                m = MeterParams(kappa, PI / 2, phi_opt(PI / 2))
                heat = 1.0 + 2.0 * n_th
                want = (
                    2.0 * kappa**2 * heat / ratio**2
                    + 4.0 * kappa**4 * (PI / 2 - 1.0) ** 2
                    + 1.0
                )
                assert noise(m, ratio, n_th) == pytest.approx(want, rel=1e-10)


def test_f_min_frozen_values():
    assert f_min(MeterParams(1.0, 2 * PI), 1.0, 0.0) == pytest.approx(
        0.709342150861502841, rel=1e-12
    )
    m = MeterParams(1.0, PI / 2, phi_opt(PI / 2))
    assert f_min(m, 10.0, 20.0) == pytest.approx(1.09465202275978547, rel=1e-12)
    assert f_min(m, 1.0, 20.0) == pytest.approx(5.68716664171529829, rel=1e-12)


def test_f_min_improves_with_squeezing():
    m = MeterParams(1.0, PI / 2, phi_opt(PI / 2))
    values = [f_min(m, ratio, 20.0) for ratio in (1.0, 2.0, 5.0, 10.0, 50.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_f_min_requires_signal():
    with pytest.raises(DomainError):
        f_min(MeterParams(1.0, 0.0), 1.0, 0.0)
    with pytest.raises(DomainError):
        f_min(MeterParams(0.0, PI / 2), 1.0, 0.0)
    # an array names the first duration whose signal vanishes
    with pytest.raises(DomainError, match=r"tau_scaled=1e-120$"):
        f_min(MeterParams(1.0, np.array([[1.0], [1e-120], [0.0]])), 1.0, 0.0)


def test_sql_reference():
    m = MeterParams(1.0, PI / 2)
    assert sql(m) == pytest.approx(1.28490585296626357, rel=1e-13)
    # sql ignores the phase carried by the meter params
    assert sql(m._replace(phi=0.9)) == sql(m)


def test_entangled_probes_beat_sql():
    m = MeterParams(1.0, PI / 2, phi_opt(PI / 2))
    assert f_min(m, 2.0, 0.0) < sql(m)
    assert f_min(m, 10.0, 0.0) < f_min(m, 2.0, 0.0)


def _exact_t_minus_sin(t: float) -> Fraction:
    # t^3/3! - t^5/5! + ... in rationals, summed until the terms fall below 1e-40
    x = Fraction(t)
    term, total, k = x**3 / 6, Fraction(0), 1
    while abs(term) > Fraction(1, 10**40) * x**3:
        total += term
        term *= -x * x / ((2 * k + 2) * (2 * k + 3))
        k += 1
    return total


def test_t_minus_sin_matches_exact_series():
    taus = np.geomspace(1e-9, 1.0, 200)
    got = t_minus_sin(taus)
    rel = np.array(
        [abs(float(Fraction(g) / _exact_t_minus_sin(t) - 1)) for g, t in zip(got, taus)]
    )
    # the series below the 0.1 cutoff is good to a few ulp; above it the plain
    # difference loses at most log10(12 / t^2) digits to cancellation
    assert rel[taus < 0.1].max() <= 4 * np.finfo(float).eps
    assert rel.max() <= 12 * np.finfo(float).eps / 0.1**2
    assert [t_minus_sin(float(t)) for t in taus] == list(got)
    assert t_minus_sin(0.0) == 0.0


FENCE_TAUS = (1e-6, 1e-3, 0.115, 0.3, 0.9, PI / 2, 5.5, 100.0, 1e6)
FENCE_KAPPAS = (1e-3, 1.0, 1e3)
FENCE_RATIOS = (1.0, 1e4, 1e8, 1e16, 1e50)
FENCE_N_THS = (0.0, 20.0, 1e300)
FENCE_PHIS = (0.0, 0.7, -1.1)


def test_closed_forms_match_arbitrary_precision_over_the_domain():
    # every readout closed form against a 40-digit evaluation of the same
    # physics over the accepted domain; a numeric phi is referred to the
    # exact offset psi = phi + tau/2 from the optimum
    mp = pytest.importorskip("mpmath")
    bounds = {
        "signal": 1e-15,
        "noise at opt": 1e-15,
        "kappa_opt": 1e-15,
        "f_min": 2e-15,
        "sql": 2e-15,
        "noise at a numeric phi": 1e-14,
        "phi_opt": 2.5e-16,
    }
    errors = dict.fromkeys(bounds, 0.0)
    tau, kappa, ratio, n_th = np.ix_(FENCE_TAUS, FENCE_KAPPAS, FENCE_RATIOS, FENCE_N_THS)
    phi = phi_opt(tau)
    at_opt = noise(MeterParams(kappa, tau, phi), ratio, n_th)
    with np.errstate(over="ignore"):
        phis = np.array(FENCE_PHIS)[:, None, None, None, None]
        at_phis = noise(MeterParams(kappa, tau, phis), ratio, n_th)
    variants = {}
    for v in SIGNAL_VARIANTS:
        m = MeterParams(kappa, tau, phi, v)
        variants[v] = signal_coeff(m), f_min(m, ratio, n_th), sql(m._replace(phi=0.7))

    def check(name, value, ref):
        errors[name] = max(errors[name], float(abs(mp.mpf(float(value)) - ref) / abs(ref)))

    with mp.workdps(40):
        for i, t in enumerate(map(mp.mpf, FENCE_TAUS)):
            half_sin2, ramp = mp.sin(t / 2) ** 2, t - mp.sin(t)
            ramps = {SIGNAL_CONSISTENT: ramp, SIGNAL_PRINTED: t + 2 * half_sin2}

            def ref_noise(k, psi, r, n):
                spread = mp.cos(psi) ** 2 / r**2 + r**2 * mp.sin(psi) ** 2
                return (0.5 + n) * 8 * k**2 * half_sin2 * spread + (2 * k**2 * ramp) ** 2 + 1

            for (j, a, b), value in np.ndenumerate(at_opt[i]):
                k, r, n = map(mp.mpf, (FENCE_KAPPAS[j], FENCE_RATIOS[a], FENCE_N_THS[b]))
                ref = ref_noise(k, 0, r, n)
                check("noise at opt", value, ref)
                for c, p in enumerate(FENCE_PHIS):
                    at_p = ref_noise(k, p + t / 2, r, n)
                    if mp.isinf(float(at_p)):
                        assert at_phis[c, i, j, a, b] == math.inf
                    else:
                        check("noise at a numeric phi", at_phis[c, i, j, a, b], at_p)
                for v, (signal, fmin, ground) in variants.items():
                    scale = 2 * mp.sqrt(2) * ramps[v]
                    check("signal", signal[i, j, 0, 0], scale * k)
                    check("f_min", fmin[i, j, a, b], mp.sqrt(ref) / (scale * k))
                    check("sql", ground[i, j, 0, 0], mp.sqrt(ref_noise(k, 0, 1, 0)) / (scale * k))
                    if j == 0:
                        best = optimal_kappa(FENCE_TAUS[i], float(r), float(n), signal_variant=v)
                        k_opt = 1 / mp.sqrt(2 * ramp)
                        check("kappa_opt", best.kappa, k_opt)
                        at_best = mp.sqrt(ref_noise(k_opt, 0, r, n)) / (scale * k_opt)
                        check("f_min", best.f_min, at_best)
        gaps = [mp.fmod(p + mp.mpf(t) / 2, mp.pi) for t, p in zip(FENCE_TAUS, phi.ravel())]
        errors["phi_opt"] = max(float(min(abs(g), mp.pi - abs(g))) for g in gaps)
    assert all(-PI / 2 < p <= PI / 2 for p in phi.ravel())
    assert {name: err for name, err in errors.items() if err > bounds[name]} == {}


@settings(max_examples=60, deadline=None)
@given(
    meters=st.lists(
        st.tuples(st.floats(1e-9, 4 * PI), st.floats(0.01, 4.0)), min_size=1, max_size=6
    ),
    states=st.lists(
        st.tuples(st.floats(1.0, 20.0), st.floats(0.0, 100.0)), min_size=1, max_size=6
    ),
    variant=st.sampled_from(SIGNAL_VARIANTS),
)
def test_broadcast_closed_forms(meters, states, variant):
    tau, kappa = (np.array(col)[:, None] for col in zip(*meters))
    ratio, n_th = (np.array(col)[None, :] for col in zip(*states))
    phi = phi_opt(tau)
    m = MeterParams(kappa=kappa, tau_scaled=tau, phi=phi, signal_variant=variant)
    got = {
        "signal": signal_coeff(m),
        "noise": noise(m, ratio, n_th),
        "f_min": f_min(m, ratio, n_th),
        "sql": sql(m),
    }
    for i, (t, k) in enumerate(meters):
        one = MeterParams(kappa=k, tau_scaled=t, phi=phi_opt(t), signal_variant=variant)
        assert got["signal"][i, 0] == pytest.approx(signal_coeff(one), rel=1e-12)
        assert got["sql"][i, 0] == pytest.approx(sql(one), rel=1e-12)
        for j, (r, n) in enumerate(states):
            assert got["noise"][i, j] == pytest.approx(noise(one, r, n), rel=1e-12)
            assert got["f_min"][i, j] == pytest.approx(f_min(one, r, n), rel=1e-12)
    assert np.all(got["noise"] >= 1.0)
    grid = np.linspace(-PI / 2, PI / 2, 64, endpoint=False)[:, None, None]
    floor = noise(m._replace(phi=grid), ratio, n_th).min(axis=0)
    assert np.all(got["noise"] <= floor + 1e-12 * floor)


def test_budget_examples():
    p = ProbeParams(omega=1.0, n_th=20.0, gamma_mech=1e-6)
    rep = decoherence_budget(p, PI / 4, PI / 2)
    assert rep.budget == pytest.approx(5e4)
    assert rep.time_used == pytest.approx(3 * PI / 4, rel=1e-12)
    assert rep.feasible
    tight = decoherence_budget(
        ProbeParams(omega=1.0, n_th=20.0, gamma_mech=0.1), PI / 4, PI / 2
    )
    assert tight.budget == pytest.approx(0.5)
    assert not tight.feasible
    free = decoherence_budget(ProbeParams(omega=1.0, n_th=20.0), PI / 4, PI / 2)
    assert math.isinf(free.budget)
    assert free.feasible


def test_budget_charges_smallest_nonnegative_rotation():
    p = ProbeParams(omega=2.0, n_th=1.0, gamma_mech=1e-3)
    rep = decoherence_budget(p, -PI / 4, 1.0)
    assert rep.rotation_time == pytest.approx((2 * PI - PI / 4) / 2.0)
    rep = decoherence_budget(p, 2 * PI + PI / 4, 1.0)
    assert rep.rotation_time == pytest.approx((PI / 4) / 2.0)
