"""Per-layer probes: time the public functions of each twinprobe module.

Probes call only names a module lists in ``__all__`` (plus ``cli.build_config``,
which the config-cost probe needs), so refactors behind those names do not
break them.  Inputs are fixed, except the full-model probe, which uses the
(r, n_th, delta) of the oracle workload's first full-model command for the seed.  Cheap calls report the
median of many; calls over ~0.5 s run once.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import sys
import time

from measure import median, run_process
from spans import Tracer
from workloads import SWEEP_POINTS, generate

POINT_ARGV = {
    "entangle": ["entangle", "--r", "3", "--n-th", "5"],
    "fmin": ["fmin", "--tau-scaled", "1.2", "--kappa", "0.8", "--r", "3", "--n-th", "5"],
    "optimize-kappa": ["optimize-kappa", "--tau-scaled", "1.2", "--r", "3", "--n-th", "5"],
    "budget": ["budget", "--gamma-mech", "1e-4", "--n-th", "5", "--tau-scaled", "1.2"],
    "dump-config": ["dump-config", "--kappa", "0.8", "--points", "64"],
}
VERIFY_CHECKS = ("entangler-transfer", "switch-off-covariance", "readout-moments")


def _each(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return median(times)


class _AtGaugeSpeed(dict):
    """Metrics dict that scales each time (a name ending in ``_s``) by the
    host-speed factor sampled at the start of the current probe group."""

    def __init__(self, gauge) -> None:
        super().__init__()
        self.gauge = gauge
        self.factor = gauge.sample()

    def resample(self) -> None:
        self.factor = self.gauge.sample()

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value * self.factor if key.endswith("_s") else value)


def _quiet_main(cli, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def startup(env, workdir, gauge, repeat: int = 5) -> dict:
    out = {}
    for name, code in (("python", "pass"), ("numpy", "import numpy"), ("import", "import twinprobe")):
        walls = []
        for _ in range(repeat):
            factor = gauge.sample()
            res = run_process([sys.executable, "-c", code], env=env, cwd=workdir, timeout=60)
            if res.rc != 0:
                raise RuntimeError(f"python -c {code!r} failed: {res.stderr.strip()}")
            walls.append(res.wall_s * factor)
        out[f"startup.{name}_s"] = median(walls)
    return out


def _full_model_case(seed: int):
    argv = next(c for c in generate("oracle", seed) if c.kind == "full-model").argv
    return tuple(float(argv[argv.index(f) + 1]) for f in ("--r", "--n-th", "--delta"))


def in_process(seed: int, workdir: str, gauge) -> tuple[dict, list[str]]:
    """Time every layer in this process, sampling ``gauge`` between layers.

    Returns (metrics, failures).
    """
    from twinprobe import cli, dynamics, gaussian, metrology, oracle, sweep

    m, failures = _AtGaugeSpeed(gauge), []

    config_argv = POINT_ARGV["fmin"]

    def config():
        args = cli.build_parser().parse_args(config_argv)
        cli.build_config(args, environ={})

    m["cli.config_s"] = _each(config, 50)
    for name, argv in POINT_ARGV.items():
        m[f"cli.main_s.{name}"] = _each(lambda argv=argv: _quiet_main(cli, argv), 20)
    csv_bytes = 0
    for fig in ("fig1", "fig2"):
        out = os.path.join(workdir, f"probe-{fig}.csv")
        tracer = Tracer().install(only={"cli.main", "sweep.fmin_curve"})
        try:
            rc = _quiet_main(cli, [fig, "--points", str(SWEEP_POINTS), "--out", out])
        finally:
            tracer.uninstall()
        if rc != 0:
            failures.append(f"probe {fig} exited {rc}")
        spans = {tracer.names[s[1]]: s[3] - s[2] for s in tracer.spans}
        m[f"cli.main_s.{fig}"] = spans["cli.main"]
        m[f"cli.self_s.{fig}"] = spans["cli.main"] - spans.get("sweep.fmin_curve", 0.0)
        csv_bytes += os.path.getsize(out)
        os.remove(out)
    m["cli.csv_bytes"] = csv_bytes

    m.resample()
    spec = sweep.fig1_spec(points=SWEEP_POINTS)
    start = time.perf_counter()
    rows = sweep.fmin_curve(spec)
    m["sweep.fmin_curve_s"] = time.perf_counter() - start
    m["sweep.rows"] = len(rows)
    start = time.perf_counter()
    sweep.fmin_curve(spec, jobs=2)
    m["sweep.fmin_curve_jobs2_s"] = time.perf_counter() - start
    m["sweep.optimal_kappa_s"] = _each(lambda: sweep.optimal_kappa(1.2, 3.0, 5.0), 20)

    m.resample()
    def point():
        phi = metrology.phi_opt(1.2)
        meter = metrology.MeterParams(kappa=0.8, tau_scaled=1.2, phi=phi)
        metrology.signal_coeff(meter)
        metrology.noise(meter, 3.0, 5.0)
        metrology.f_min(meter, 3.0, 5.0)
        metrology.sql(meter)

    m["metrology.point_s"] = _each(point, 2000)

    params = dynamics.ProbeParams.from_squeeze_ratio(1.0, 3.0, n_th=5.0)
    m["dynamics.prepare_s"] = _each(lambda: dynamics.prepare(params), 500)
    m["dynamics.transfer_matrix_s"] = _each(lambda: dynamics.transfer_matrix(params, 1.0), 500)
    state = dynamics.entangled_covariance(3.0, 5.0)
    m["gaussian.state_ops_s"] = _each(
        lambda: gaussian.validate(
            gaussian.direct_sum(dynamics.rotate(state, 0.3), gaussian.vacuum(2))
        ),
        500,
    )

    m.resample()
    runs = {}
    for label, grid in (
        ("transfer", oracle.VerifyGrid(kappas=(), n_ths=())),
        ("covariance", oracle.VerifyGrid(transfer_times=(), kappas=())),
        ("covariance+readout", oracle.VerifyGrid(transfer_times=())),
    ):
        start = time.perf_counter()
        report = oracle.verify_closed_forms(grid)
        runs[label] = time.perf_counter() - start
        if not report.passed:
            failures.append(f"verify_closed_forms({label}) failed")
        for check in report.checks:
            if check.points:
                m[f"oracle.points.{check.name}"] = check.points
                m[f"oracle.max_rel_err.{check.name}"] = check.max_rel_error
    m["oracle.transfer_s"] = runs["transfer"]
    m["oracle.covariance_s"] = runs["covariance"]
    m["oracle.readout_s"] = runs["covariance+readout"] - runs["covariance"]

    m.resample()
    ratio, n_th, delta = _full_model_case(seed)
    start = time.perf_counter()
    p = dynamics.ProbeParams.from_squeeze_ratio(1.0, ratio, delta=delta, n_th=n_th)
    system = oracle.build_entangler_system(p, adiabatic=False)
    t_star = math.pi / (2.0 * dynamics.relative_mode_frequency(p))
    c0 = gaussian.direct_sum(dynamics.thermal_covariance(n_th), gaussian.vacuum(1))
    _, cov = oracle.integrate_moments(system, None, c0, 0.0, t_star, (2.0 * math.pi / delta) / 300.0)
    m["oracle.full_model_s"] = time.perf_counter() - start
    if not math.isfinite(float(abs(cov.matrix).max())):
        failures.append("full-model probe diverged")
    missing = [f"oracle.points.{c}" for c in VERIFY_CHECKS if f"oracle.points.{c}" not in m]
    failures += [f"{name} not reported" for name in missing]
    return dict(m), failures

