import hashlib
import math

import numpy as np
import pytest

from twinprobe._common import DomainError
from twinprobe.metrology import (
    MeterParams,
    f_min,
    phi_opt,
    sql,
    t_minus_sin,
)
from twinprobe.sweep import (
    SweepSpec,
    axis_values,
    curve_columns,
    fig1_spec,
    fig2_spec,
    fmin_columns,
    fmin_curve,
    optimal_kappa,
)

PI = math.pi


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(axis="sideways")
    with pytest.raises(ValueError):
        SweepSpec(lo=0.0)
    with pytest.raises(ValueError):
        SweepSpec(lo=2.0, hi=1.0)
    with pytest.raises(ValueError):
        SweepSpec(points=1)
    with pytest.raises(ValueError):
        SweepSpec(ratios=())
    with pytest.raises(ValueError):
        SweepSpec(ratios=(0.5,))
    with pytest.raises(ValueError):
        SweepSpec(signal_variant="bogus")


def test_fig_spec_defaults():
    f1 = fig1_spec()
    assert f1.axis == "tau_scaled"
    assert (f1.lo, f1.hi, f1.points) == (0.05, 2 * PI, 512)
    steps = np.diff(axis_values(f1))
    assert np.allclose(steps, steps[0])  # the duration axis is linear
    assert f1.kappa == 1.0 and f1.n_th == 20.0
    f2 = fig2_spec()
    assert f2.axis == "kappa"
    assert (f2.lo, f2.hi, f2.points) == (0.05, 5.0, 512)
    factors = np.diff(np.log(axis_values(f2)))
    assert np.allclose(factors, factors[0])  # the coupling axis is logarithmic
    assert f2.tau_scaled == pytest.approx(PI / 2)
    assert fig1_spec(points=64).points == 64


def test_axis_values_spacing():
    lin = axis_values(SweepSpec(lo=1.0, hi=2.0, points=5))
    assert np.allclose(lin, [1.0, 1.25, 1.5, 1.75, 2.0])
    log = axis_values(SweepSpec(axis="kappa", lo=0.1, hi=10.0, points=3))
    assert np.allclose(log, [0.1, 1.0, 10.0])


def test_fmin_curve_layout_and_values():
    spec = fig1_spec(points=7, ratios=(1.0, 2.0))
    rows = fmin_curve(spec)
    assert len(rows) == 14
    taus = axis_values(spec)
    for i, tau in enumerate(taus):
        block = rows[2 * i : 2 * i + 2]
        assert [pt.ratio for pt in block] == [1.0, 2.0]
        for pt in block:
            assert pt.tau_scaled == tau
            assert pt.kappa == 1.0
            assert pt.phi == phi_opt(tau)
            m = MeterParams(kappa=pt.kappa, tau_scaled=tau, phi=pt.phi)
            assert pt.f_min == pytest.approx(f_min(m, pt.ratio, spec.n_th), rel=1e-14)
            assert pt.f_sql == pytest.approx(sql(m), rel=1e-14)
        assert block[0].f_sql == block[1].f_sql


def test_fmin_curve_threading_is_deterministic():
    spec = fig2_spec(points=33)
    lone = fmin_curve(spec, jobs=1)
    pooled = fmin_curve(spec, jobs=4)
    assert len(lone) == len(pooled)
    for a, b in zip(lone, pooled):
        assert a == b
    with pytest.raises(ValueError):
        fmin_curve(spec, jobs=0)


def test_fmin_curve_without_sql_column():
    rows = fmin_curve(fig1_spec(points=3, include_sql=False))
    assert all(math.isnan(pt.f_sql) for pt in rows)


def test_optimal_kappa_matches_analytic_optimum():
    # f^2 is A + B*kappa^2 + C/kappa^2 in kappa^2, so the optimum is
    # kappa^2 = 1/(2(tau - sin tau)) independent of ratio and occupation
    want = math.sqrt(0.875969196942054331)
    for ratio, n_th in ((1.0, 0.0), (2.0, 20.0), (10.0, 20.0)):
        best = optimal_kappa(PI / 2, ratio, n_th)
        assert best.kappa == pytest.approx(want, rel=1e-12)
    best = optimal_kappa(PI / 2, 10.0, 20.0)
    assert best.f_min == pytest.approx(1.09113300329450691, rel=1e-9)
    # printed signal convention rescales S but not the optimum location
    printed = optimal_kappa(PI / 2, 10.0, 20.0, signal_variant="printed")
    assert printed.kappa == pytest.approx(want, rel=1e-12)
    # short to long durations, both variants: the closed form is a local
    # minimum, every kappa 1e-4 away on either side does worse
    for tau in (0.05, 0.06, 1.0, 6.0):
        for variant in ("consistent", "printed"):
            best = optimal_kappa(tau, 10.0, 20.0, signal_variant=variant)
            assert best.kappa == pytest.approx(1 / math.sqrt(2 * (tau - math.sin(tau))))
            phi = phi_opt(tau)
            for k in (best.kappa * (1 - 1e-4), best.kappa * (1 + 1e-4)):
                m = MeterParams(kappa=k, tau_scaled=tau, phi=phi, signal_variant=variant)
                assert f_min(m, 10.0, 20.0) > best.f_min
    with pytest.raises(DomainError):
        optimal_kappa(0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="tau_scaled") as err:
        optimal_kappa(-1.0, 1.0, 0.0)
    assert not isinstance(err.value, DomainError)


def test_optimal_kappa_near_the_float_limits():
    # 2 * (tau - sin tau) overflows from tau ~ 9e307 on, but the optimum does not
    for tau in (1e307, 1e308, 1.7e308):
        best = optimal_kappa(tau, 1.0, 20.0)
        assert best.kappa == pytest.approx(1.0 / math.sqrt(2.0) / math.sqrt(tau), rel=1e-15)
        assert best.f_min == pytest.approx(best.kappa, rel=1e-12)
    # elsewhere the optimum keeps the bits of 1/sqrt(2 (tau - sin tau)),
    # subnormal tau - sin tau (tau below ~6.4e-103) included
    for tau in (6e-103, 1e-60, 1e-9, 0.01, PI / 2, 1.9, 2.0, 3.0, 1e3, 1e300):
        assert optimal_kappa(tau, 1.0, 20.0).kappa == 1.0 / math.sqrt(2.0 * float(t_minus_sin(tau)))


# sha256 (first 16 hex digits) of each column's bytes, in fmin_columns' order
COLUMN_DIGESTS = {
    "fig1": (
        "08c0134c26016f17", "6c3c396ed6b5c36d", "1af996bcc12ce568", "055e7dd5bc7591c9",
        "95094126b0d7cd9d", "0e346c3999b7ccfa", "a19d75fcbcf44c59", "ec2fdd89371fb319",
        "5ae994dcdcf52f7e",
    ),
    "fig1 printed": (
        "08c0134c26016f17", "6c3c396ed6b5c36d", "1af996bcc12ce568", "055e7dd5bc7591c9",
        "95094126b0d7cd9d", "be984ff41a757ab9", "a19d75fcbcf44c59", "97e835f2a2cb4e96",
        "0418a87b853f30fc",
    ),
    "fig1 no-sql": (
        "08c0134c26016f17", "6c3c396ed6b5c36d", "1af996bcc12ce568", "055e7dd5bc7591c9",
        "95094126b0d7cd9d", "0e346c3999b7ccfa", "a19d75fcbcf44c59", "ec2fdd89371fb319",
        "74999fd28ab18ccc",
    ),
    "fig2": (
        "c3f113d6cbe80241", "ccffe9ebc1d81133", "1af996bcc12ce568", "055e7dd5bc7591c9",
        "691aa6c37fc977ef", "5b880b6297d2795a", "85fc0e06fdd856ee", "9b6ab3100fefb5ba",
        "e8ea28775dd7eb90",
    ),
    "fig2 printed": (
        "c3f113d6cbe80241", "ccffe9ebc1d81133", "1af996bcc12ce568", "055e7dd5bc7591c9",
        "691aa6c37fc977ef", "5fe389c4b00536eb", "85fc0e06fdd856ee", "caa10ef61081912b",
        "ccce4fbd4360d148",
    ),
    "fig2 no-sql": (
        "c3f113d6cbe80241", "ccffe9ebc1d81133", "1af996bcc12ce568", "055e7dd5bc7591c9",
        "691aa6c37fc977ef", "5b880b6297d2795a", "85fc0e06fdd856ee", "9b6ab3100fefb5ba",
        "74999fd28ab18ccc",
    ),
    "grid ratio=1": (
        "70622c027e9bec08", "633938f09cacdbde", "6c3c396ed6b5c36d", "055e7dd5bc7591c9",
        "e6a064f779459303", "85949709e92f0651", "1039d26b2495ba82", "7b61523855402733",
        "9c58304558523e8b",
    ),
    "grid ratio=10": (
        "70622c027e9bec08", "633938f09cacdbde", "24b1f4ef66b650ff", "055e7dd5bc7591c9",
        "e6a064f779459303", "85949709e92f0651", "b5e27459b2a839b5", "4d6d168d282570eb",
        "9c58304558523e8b",
    ),
}


def pinned_columns():
    for name, fig in (("fig1", fig1_spec), ("fig2", fig2_spec)):
        for tag, extra in (
            ("", {}),
            (" printed", {"signal_variant": "printed"}),
            (" no-sql", {"include_sql": False}),
        ):
            yield name + tag, curve_columns(fig(points=300, **extra))
    # phi off phi_opt(tau): at ratio 1 it drops out of the noise, above 1 it does not
    tau = np.linspace(0.05, 2.0 * PI, 40)[:, None]
    phi = np.linspace(-1.5, 1.5, 9)[None, :]
    for ratio in (1.0, 10.0):
        yield f"grid ratio={ratio:g}", fmin_columns(tau, 0.7, ratio, 20.0, phi)


def test_sweep_columns_keep_every_bit():
    got = {
        case: tuple(
            hashlib.sha256(np.ascontiguousarray(column).tobytes()).hexdigest()[:16]
            for column in columns.values()
        )
        for case, columns in pinned_columns()
    }
    assert got == COLUMN_DIGESTS
