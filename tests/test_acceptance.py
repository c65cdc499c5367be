"""End-to-end acceptance gate for the package.

Each test checks one headline property, prints a single
``ACCEPTANCE <name>: PASS|FAIL`` line, and asserts it.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they go by.
"""

import math
import subprocess
import sys
import time

import numpy as np

from twinprobe.dynamics import (
    ProbeParams,
    entangled_covariance,
    prepare,
    relative_mode_frequency,
    thermal_covariance,
    transfer_matrix,
)
from twinprobe.gaussian import direct_sum, vacuum
from twinprobe.metrology import MeterParams, f_min, noise, phi_opt
from twinprobe.oracle import (
    VerifyGrid,
    build_measurement_system,
    full_model_deviation,
    integrate_moments,
    verify_closed_forms,
)
from twinprobe.sweep import fig1_spec, fig2_spec, fmin_curve, optimal_kappa

PI = math.pi


def check(name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"{name}{tail}"


def test_closed_forms_match_oracle():
    # Core gate: every closed form agrees with the moment integrator on
    # the default grid, to relative 1e-6, in under a minute.
    t0 = time.perf_counter()
    report = verify_closed_forms()
    elapsed = time.perf_counter() - t0
    readout = next(c for c in report.checks if c.name == "readout-moments")
    ok = report.passed and readout.max_rel_error <= 1e-6 and elapsed < 60.0
    check(
        "closed-forms-vs-oracle",
        ok,
        f"readout_max_rel_err={readout.max_rel_error:.3e}, {elapsed:.1f}s",
    )


def test_switch_off_covariance_entrywise():
    # Propagating a thermal pair through the coupled transfer matrix to
    # the quarter-period switch-off time must land on the entangled
    # covariance entrywise, across squeeze ratios and occupations.
    worst = 0.0
    for ratio in (1.0, math.sqrt(2.0), 2.0, 10.0):
        for n_th in (0.0, 20.0, 1000.0):
            p = ProbeParams.from_squeeze_ratio(1.0, ratio, n_th=n_th)
            t_star = PI / (2.0 * relative_mode_frequency(p))
            m = transfer_matrix(p, t_star)
            got = m @ thermal_covariance(n_th) @ m.T
            want = entangled_covariance(ratio, n_th)
            worst = max(worst, float(np.max(np.abs(got - want))))
    check("switch-off-covariance", worst <= 1e-8, f"max_abs_err={worst:.3e}")


def test_entanglement_threshold():
    def entangled(ratio, n_th):
        return prepare(ProbeParams.from_squeeze_ratio(1.0, ratio, n_th=n_th)).entangled

    ok = entangled(50.0, 1000.0)
    detail = "r=50 n_th=1000 entangled + 100 random points"
    rng = np.random.default_rng(20260817)
    for _ in range(100):
        ratio = float(rng.uniform(1.0, 60.0))
        n_th = float(rng.uniform(0.0, 1200.0))
        expect = ratio * ratio > 1.0 + 2.0 * n_th
        if entangled(ratio, n_th) != expect:
            ok = False
            detail = f"verdict flipped at r={ratio:.4f} n_th={n_th:.2f}"
    check("entanglement-threshold", ok, detail)


def test_full_period_state_independence():
    # At whole-period interaction times the probe state drops out of the
    # noise entirely, and the floor value is pinned by two independent
    # routes: the closed form and the moment integrator.
    worst_spread = 0.0
    for tau in (2.0 * PI, 4.0 * PI):
        vals = [
            noise(MeterParams(kappa=1.0, tau_scaled=tau, phi=phi), ratio, n_th)
            for ratio in (1.0, 2.0, 10.0)
            for n_th in (0.0, 20.0, 1000.0)
            for phi in (0.0, 0.3, -PI / 4, PI / 2)
        ]
        worst_spread = max(worst_spread, (max(vals) - min(vals)) / min(vals))

    target = 0.709342150861502841
    got = f_min(MeterParams(kappa=1.0, tau_scaled=2.0 * PI), 1.0, 0.0)

    system = build_measurement_system(1.0)
    c0 = direct_sum(entangled_covariance(1.0, 0.0), vacuum(2))
    w = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0])
    mean_f, _ = integrate_moments(
        system, None, c0, force=1.0, t_final=2.0 * PI, step=1e-4
    )
    _, cov_0 = integrate_moments(system, None, c0, force=0.0, t_final=2.0 * PI, step=1e-4)
    oracle_f = math.sqrt(float(w @ cov_0.matrix @ w)) / abs(float(w @ mean_f))

    ok = (
        worst_spread <= 1e-12
        and abs(got - target) <= 1e-5 * target
        and abs(oracle_f - got) <= 1e-6 * got
    )
    check(
        "full-period-state-independence",
        ok,
        f"spread={worst_spread:.2e}, f_min={got:.12g}, oracle={oracle_f:.12g}",
    )


def test_entangled_curves_order():
    # Stronger squeezing must help at every interior point of the time
    # sweep, and the r=10 curve must dip below the uncorrelated baseline
    # somewhere.  The full-period endpoint is excluded: there the probe
    # state drops out and all curves merge.
    spec = fig1_spec()
    curve = fmin_curve(spec)
    nr = len(spec.ratios)
    ordered = True
    dips = 0
    for i in range(spec.points):
        block = curve[i * nr : (i + 1) * nr]
        if block[0].tau_scaled >= 2.0 * PI:
            continue
        f1, f2, f10 = (pt.f_min for pt in block)
        ordered = ordered and (f1 > f2 > f10)
        if f10 < block[2].f_sql:
            dips += 1
    ok = ordered and dips > 0
    check("entangled-curves-order", ok, f"points_below_baseline={dips}")


def test_kappa_curve_unimodal_and_optimum():
    spec = fig2_spec()
    curve = fmin_curve(spec)
    nr = len(spec.ratios)
    unimodal = True
    for j in range(nr):
        ys = [curve[i * nr + j].f_min for i in range(spec.points)]
        diffs = [b - a for a, b in zip(ys, ys[1:])]
        signs = [s for s in (np.sign(d) if abs(d) > 1e-9 else 0 for d in diffs) if s]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        unimodal = unimodal and bool(signs) and signs[0] < 0 < signs[-1] and flips == 1

    kappas = np.geomspace(0.05, 5.0, 10_000)
    meter = MeterParams(kappa=kappas[:, None], tau_scaled=PI / 2, phi=phi_opt(PI / 2))
    scan = f_min(meter, np.array(spec.ratios), 20.0)  # (kappa, ratio)
    worst_k = worst_f = 0.0
    for ratio, ys in zip(spec.ratios, scan.T):
        opt = optimal_kappa(PI / 2, ratio, 20.0)
        i = int(np.argmin(ys))
        worst_k = max(worst_k, abs(opt.kappa - kappas[i]) / kappas[i])
        worst_f = max(worst_f, abs(opt.f_min - ys[i]) / ys[i])
    # The scan's geometric spacing quantizes kappa at 2.3e-4 relative, so
    # the location check gets a grid-limited bound while the flat minimum
    # value carries the tight one.
    ok = unimodal and worst_k <= 1e-3 and worst_f <= 1e-4
    check(
        "kappa-optimum-shape",
        ok,
        f"kappa_err={worst_k:.2e}, f_err={worst_f:.2e}",
    )


def test_phase_choice_optimality():
    rng = np.random.default_rng(414243)
    phis = np.linspace(0.0, PI, 720, endpoint=False)
    draws = [
        (rng.uniform(0.05, 2.0 * PI * 0.99), rng.uniform(1.0, 10.0), rng.uniform(0.0, 50.0))
        for _ in range(50)
    ]
    # (draw, 1) columns against the phase grid
    tau, ratio, n_th = (np.array(column)[:, None] for column in zip(*draws))
    best = noise(MeterParams(kappa=1.0, tau_scaled=tau, phi=phi_opt(tau)), ratio, n_th)
    grid = noise(MeterParams(kappa=1.0, tau_scaled=tau, phi=phis), ratio, n_th).min(axis=1)
    worst_excess = max(0.0, float(np.max(best[:, 0] - grid)))

    # At the quarter period the optimal phase empties the amplified side
    # of the probe term, leaving exactly the squeezed contribution.
    worst_rel = 0.0
    backaction_floor = 4.0 * (PI / 2 - 1.0) ** 2
    for kappa in (0.3, 1.0, 3.0):
        for ratio in (1.0, 2.0, 10.0):
            for n_th in (0.0, 20.0, 1000.0):
                m = MeterParams(kappa=kappa, tau_scaled=PI / 2, phi=phi_opt(PI / 2))
                got = noise(m, ratio, n_th) - (kappa**4 * backaction_floor + 1.0)
                want = 2.0 * kappa**2 * (1.0 + 2.0 * n_th) / ratio**2
                worst_rel = max(worst_rel, abs(got - want) / want)
    ok = worst_excess <= 1e-12 and worst_rel <= 1e-10
    check(
        "phase-choice-optimality",
        ok,
        f"grid_excess={worst_excess:.2e}, bracket_err={worst_rel:.2e}",
    )


def test_adiabatic_convergence():
    # Keeping the mediator mode explicit must reproduce the eliminated
    # model ever more closely as its detuning grows.
    devs = [
        full_model_deviation(
            ProbeParams.from_squeeze_ratio(1.0, 2.0, delta=delta, n_th=20.0)
        )[0]
        for delta in (10.0, 30.0, 100.0, 300.0)
    ]
    monotone = all(b < a for a, b in zip(devs, devs[1:]))
    ok = monotone and devs[2] < 0.02
    detail = ", ".join(f"{d:.3e}" for d in devs)
    check("adiabatic-convergence", ok, f"deviations=[{detail}]")


def test_printed_variant_documented(launch_cli):
    # The alternate printed signal coefficient must be reported as a
    # documented discrepancy (informational failure, rel err about 3.5
    # at the quarter period) without tripping the verification verdict.
    report = verify_closed_forms(include_printed_signal=True)
    printed = next(c for c in report.checks if c.name == "readout-signal-printed")
    consistent = next(c for c in report.checks if c.name == "readout-moments")
    quarter = VerifyGrid(kappas=(1.0,), taus=(PI / 2,))
    sample = verify_closed_forms(quarter, include_printed_signal=True).checks[-1].max_rel_error
    target = 3.50387678776821732
    library_ok = (
        report.passed
        and consistent.passed
        and printed.informational
        and not printed.passed
        and 3.0 < sample < 4.0
        and abs(sample - target) <= 1e-6 * target
    )
    proc = launch_cli("verify", "--include-printed-signal")
    cli_ok = (
        proc.returncode == 0
        and "readout-signal-printed" in proc.stdout
        and "informational" in proc.stdout
        and "VERIFY: pass" in proc.stdout
    )
    ok = library_ok and cli_ok
    check("printed-variant-documented", ok, f"rel_err_at_reference={sample:.6g}")


def test_csv_byte_determinism(tmp_path):
    blobs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "twinprobe.cli", "fig1", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    same = blobs[0] == blobs[1]
    check(
        "csv-determinism",
        same,
        f"{len(blobs[0])} bytes each" if same else "outputs differ",
    )
