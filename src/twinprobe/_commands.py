"""The configuration merge, the command bodies and the output writers.

``twinprobe.cli`` imports this module only after argparse has accepted a
command line, so ``--help`` and a usage error do not compile it.  It must
not import ``twinprobe.cli``: run as ``python -m twinprobe.cli``, that
module is ``__main__``, and the import would run it a second time.

Each ``cmd_<command>`` (dashes as underscores) prints its results and
returns whether its checks passed; only ``verify`` can return False.  A
command writes its output files before it prints, so a file that cannot be
written leaves stdout empty.
"""
from __future__ import annotations

import math
import os

from ._common import _SETTINGS, ENV_PREFIX, RunConfig, check_domain, check_variant

# Largest grid a sweep accepts: points per ratio, and rows, one per point and
# squeeze ratio.  The closed forms hold several float temporaries per row.
MAX_POINTS = 10**6
MAX_ROWS = 10**7
# Largest magnitude of r, of an r_list entry and of kappa.  The closed forms
# take ratio**2 and kappa**4, which then stay far inside the float range.
MAX_SCALE = 1e50

_PARSERS = {name: parse for name, _, parse, _ in _SETTINGS}


def _convert(key: str, raw: str, source: str):
    try:
        return _PARSERS[key](raw)
    except ValueError as exc:
        raise ValueError(f"{source}: bad value for {key!r}: {exc}") from None


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key = key.strip().replace("-", "_")
        if key not in _PARSERS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out


def _env_overrides(environ) -> dict[str, str]:
    """``TWINPROBE_*`` values by case-folded key, the config path under ``config``."""
    names: dict[str, str] = {}
    for name in environ:
        if not name.startswith(ENV_PREFIX):
            continue
        key = name[len(ENV_PREFIX):].lower()
        if key not in _PARSERS and key != "config":
            raise ValueError(f"unknown environment variable {name}")
        if key in names:
            raise ValueError(f"environment variables {names[key]} and {name} both set {key!r}")
        names[key] = name
    return {key: environ[name] for key, name in names.items()}


def _output_paths(command: str, cfg: RunConfig) -> dict[str, str]:
    """The files ``command`` writes, keyed by the setting that names each."""
    if command not in ("fig1", "fig2"):
        return {"out": cfg.out} if command == "fmin" and cfg.out else {}
    paths = {"out": cfg.out or f"{command}.csv", "gnuplot": cfg.gnuplot}
    return {key: path for key, path in paths.items() if path}


def _check_outputs(paths: dict[str, str], config_path: str | None) -> None:
    """Refuse an output that would overwrite the config file or another output."""
    taken = {os.path.realpath(config_path): f"config file {config_path}"} if config_path else {}
    for key, path in paths.items():
        real = os.path.realpath(path)
        if real in taken:
            raise ValueError(f"{key} {path} would overwrite the {taken[real]}")
        taken[real] = f"CSV {path}"  # only the CSV precedes another output


def merge_config(args, environ) -> RunConfig:
    """Layer defaults, config file, environment, and flags into a RunConfig.

    An output path of ``args.command`` that would overwrite the config file
    or another output is refused before any command runs.
    """
    environ = os.environ if environ is None else environ
    values = {name: default for name, default, _, _ in _SETTINGS}
    env = _env_overrides(environ)
    path = env.pop("config", None)
    path = getattr(args, "config", None) or path
    if path:
        for key, raw in _read_config_file(path).items():
            values[key] = _convert(key, raw, path)
    for key, raw in env.items():
        values[key] = _convert(key, raw, ENV_PREFIX + key.upper())
    for key in _PARSERS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    for key, value in values.items():
        if _PARSERS[key] is float and value is not None and not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value!r}")
    cfg = RunConfig(**values)
    check_variant(cfg.signal_variant)
    if cfg.phi != "opt":
        try:
            phi = float(cfg.phi)
        except ValueError:
            phi = math.nan
        if not math.isfinite(phi):
            raise ValueError(f"phi must be 'opt' or a finite number, got {cfg.phi!r}")
    check_domain(("jobs", cfg.jobs), ("tolerance", cfg.tolerance), ("points", cfg.points))
    if cfg.points > MAX_POINTS:
        raise ValueError(f"points must be at most {MAX_POINTS}, got {cfg.points}")
    for key in ("r", "kappa"):
        value = getattr(cfg, key)
        if value is not None and abs(value) > MAX_SCALE:
            raise ValueError(f"{key} must be at most {MAX_SCALE:g} in magnitude, got {value!r}")
    ratios = len(_parse_ratio_list(cfg))
    if cfg.points * ratios > MAX_ROWS:
        raise ValueError(
            f"points * len(r_list) must be at most {MAX_ROWS}, got {cfg.points} * {ratios}"
        )
    _check_outputs(_output_paths(getattr(args, "command", ""), cfg), path)
    return cfg


def _resolve_n_th(cfg: RunConfig) -> float:
    if cfg.temperature is not None:
        from .dynamics import occupation_from_temperature

        return occupation_from_temperature(
            cfg.temperature, cfg.omega, hbar_over_kb=cfg.hbar_over_kb
        )
    return cfg.n_th


def _resolve_phi(cfg: RunConfig) -> float:
    if cfg.phi == "opt":
        from .metrology import phi_opt

        return phi_opt(cfg.tau_scaled)
    return float(cfg.phi)


def _parse_ratio_list(cfg: RunConfig) -> tuple[float, ...]:
    items = [piece.strip() for piece in cfg.r_list.split(",") if piece.strip()]
    if not items:
        raise ValueError(f"r_list is empty: {cfg.r_list!r}")
    try:
        ratios = tuple(float(piece) for piece in items)
    except ValueError:
        raise ValueError(f"r_list must be comma-separated numbers, got {cfg.r_list!r}") from None
    if not all(map(math.isfinite, ratios)):
        raise ValueError(f"r_list entries must be finite, got {cfg.r_list!r}")
    if any(abs(ratio) > MAX_SCALE for ratio in ratios):
        raise ValueError(
            f"r_list entries must be at most {MAX_SCALE:g} in magnitude, got {cfg.r_list!r}"
        )
    return ratios


def _probe_params(cfg: RunConfig) -> ProbeParams:
    """Resolve the entangler parametrization; exactly one route is allowed."""
    from .dynamics import ProbeParams

    n_th = _resolve_n_th(cfg)
    routes = [
        cfg.r is not None,
        cfg.coupling_chi is not None,
        cfg.g_opt is not None or cfg.beta_abs is not None,
    ]
    if sum(routes) > 1:
        raise ValueError(
            "give only one of --r, --coupling-chi, or --g-opt/--beta-abs/--delta"
        )
    if cfg.r is not None:
        return ProbeParams.from_squeeze_ratio(
            cfg.omega, cfg.r, delta=cfg.delta, n_th=n_th, gamma_mech=cfg.gamma_mech
        )
    coupling = cfg.coupling_chi
    if cfg.g_opt is not None or cfg.beta_abs is not None:
        if cfg.g_opt is None or cfg.beta_abs is None or cfg.delta is None:
            raise ValueError("raw coupling needs all of --g-opt, --beta-abs, --delta")
        if cfg.delta == 0:
            raise ValueError("delta must be nonzero")
        # (2 g |beta|)^2 / delta; a product overflows to inf where ** would raise
        push = 2.0 * cfg.g_opt * cfg.beta_abs
        coupling = push * push / cfg.delta
    if coupling is not None:
        return ProbeParams(cfg.omega, coupling, cfg.delta, n_th, cfg.gamma_mech)
    raise ValueError("entangler needs --r, --coupling-chi, or --g-opt/--beta-abs/--delta")


def _g(x: float) -> str:
    return format(float(x), ".12g")


def _write_file(key: str, path: str, write) -> None:
    """Open an output file for binary writing and call ``write`` on it.

    A path that cannot be written is an error in setting ``key``.
    """
    try:
        with open(path, "wb") as fh:
            write(fh)
    except OSError as exc:
        raise ValueError(f"cannot write {key} {path}: {exc.strerror}") from None


def _write_csv(path: str, axis: str, columns, jobs: int = 1) -> None:
    """Write sweep columns as CSV, formatted by ``jobs`` processes (see ``_csv``)."""
    from ._csv import write_csv

    _write_file("out", path, lambda fh: write_csv(fh, axis, columns, jobs))


def _write_gnuplot(path: str, csv_path: str, spec: SweepSpec) -> None:
    """Plot f_min per ratio; each filter literal is the ratio as the CSV writes it."""
    lines = [
        "set datafile separator ','",
        f"set xlabel '{spec.axis}'",
        "set ylabel 'f_min'",
        "set logscale y",
    ]
    if spec.axis == "kappa":
        lines.append("set logscale x")
    data = "'" + csv_path.replace("'", "''") + "'"
    plots = [
        f"{data} using 1:($2=={_g(ratio)}?$6:1/0) with lines title 'r={_g(ratio)}'"
        for ratio in spec.ratios
    ]
    if spec.include_sql:
        plots.append(
            f"{data} using 1:($2=={_g(spec.ratios[0])}?$7:1/0) "
            "with lines dashtype 2 title 'SQL'"
        )
    lines.append("plot \\\n  " + ", \\\n  ".join(plots))
    text = ("\n".join(lines) + "\n").encode("utf-8")
    _write_file("gnuplot", path, lambda fh: fh.write(text))


def cmd_entangle(cfg: RunConfig) -> bool:
    from .dynamics import prepare

    p = _probe_params(cfg)
    out = prepare(p)
    if cfg.full_model:  # before any output, so a refused full model prints nothing
        from .oracle import full_model_deviation

        dev, delta = full_model_deviation(p, cfg.step)
    print(f"relative mode frequency = {_g(out.mode_frequency)}")
    print(f"squeeze ratio           = {_g(out.ratio)}")
    print(f"switch-off time         = {_g(out.switch_off_time)}")
    print("covariance (q1, p1, q2, p2):")
    for row in out.covariance:
        print("  " + "  ".join(f"{v: .9e}" for v in row))
    print(f"relative q variance     = {_g(out.relative_q_variance)}")
    print(f"total p variance        = {_g(out.total_p_variance)}")
    print(f"EPR variance product    = {_g(out.variance_product)}")
    print(f"squeeze margin          = {_g(out.squeeze_margin)}")
    print(f"entangled               = {'yes' if out.entangled else 'no'}")
    if cfg.full_model:
        print(
            f"full-model deviation    = {dev:.3e} "
            f"(relative, delta/omega = {_g(delta / p.omega)})"
        )
    return True


def _run_sweep(cfg: RunConfig, command: str) -> bool:
    """Write the fig1 or fig2 sweep, as ``command`` names it, built from the settings."""
    paths = _output_paths(command, cfg)
    from .sweep import curve_columns, fig1_spec, fig2_spec

    overrides = {
        "kappa": cfg.kappa,
        "tau_scaled": cfg.tau_scaled,
        "n_th": _resolve_n_th(cfg),
        "ratios": _parse_ratio_list(cfg),
        "points": cfg.points,
        "include_sql": cfg.include_sql,
        "signal_variant": cfg.signal_variant,
    }
    if cfg.axis_lo is not None:
        overrides["lo"] = cfg.axis_lo
    if cfg.axis_hi is not None:
        overrides["hi"] = cfg.axis_hi
    spec = (fig1_spec if command == "fig1" else fig2_spec)(**overrides)
    _write_csv(paths["out"], spec.axis, curve_columns(spec), cfg.jobs)
    if "gnuplot" in paths:
        _write_gnuplot(paths["gnuplot"], paths["out"], spec)
    print(f"wrote {spec.points * len(spec.ratios)} rows to {paths['out']}")
    if "gnuplot" in paths:
        print(f"wrote gnuplot script to {paths['gnuplot']}")
    return True


def cmd_fig1(cfg: RunConfig) -> bool:
    return _run_sweep(cfg, "fig1")


def cmd_fig2(cfg: RunConfig) -> bool:
    return _run_sweep(cfg, "fig2")


def cmd_fmin(cfg: RunConfig) -> bool:
    from .sweep import fmin_columns

    point = fmin_columns(
        cfg.tau_scaled,
        cfg.kappa,
        cfg.r if cfg.r is not None else 1.0,
        _resolve_n_th(cfg),
        _resolve_phi(cfg),
        signal_variant=cfg.signal_variant,
        include_sql=cfg.include_sql,
    )
    if cfg.out:
        _write_csv(cfg.out, "tau_scaled", point)
    for name, value in point.items():
        print(f"{name} = {_g(value)}")
    if cfg.out:
        print(f"wrote 1 row to {cfg.out}")
    return True


def cmd_optimize_kappa(cfg: RunConfig) -> bool:
    from .sweep import optimal_kappa

    ratio = cfg.r if cfg.r is not None else 1.0
    best = optimal_kappa(
        cfg.tau_scaled,
        ratio,
        _resolve_n_th(cfg),
        signal_variant=cfg.signal_variant,
    )
    print(f"kappa_opt = {_g(best.kappa)}")
    print(f"f_min = {_g(best.f_min)}")
    return True


def cmd_verify(cfg: RunConfig) -> bool:
    from .oracle import verify_closed_forms

    report = verify_closed_forms(
        tolerance=cfg.tolerance,
        include_printed_signal=cfg.include_printed_signal,
    )
    for check in report.checks:
        print(check.summary())
        shown = check.failures[:10]
        for line in shown:
            print(f"  {line}")
        if len(check.failures) > len(shown):
            print(f"  ... ({len(check.failures) - len(shown)} more)")
    print(f"VERIFY: {'pass' if report.passed else 'FAIL'}")
    return report.passed


def cmd_budget(cfg: RunConfig) -> bool:
    from .dynamics import ProbeParams
    from .metrology import decoherence_budget

    p = ProbeParams(
        omega=cfg.omega, n_th=_resolve_n_th(cfg), gamma_mech=cfg.gamma_mech
    )
    phi = _resolve_phi(cfg)
    budget = decoherence_budget(p, phi, cfg.tau_scaled / cfg.omega)
    print(f"coherence budget = {_g(budget.budget)}")
    print(f"rotation time = {_g(budget.rotation_time)}")
    print(f"force time = {_g(budget.force_time)}")
    print(f"time used = {_g(budget.time_used)}")
    print(f"feasible = {'yes' if budget.feasible else 'no'}")
    return True


def cmd_dump_config(cfg: RunConfig) -> bool:
    lines = []
    for name, value in zip(cfg._fields, cfg):
        if value is None:
            continue
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        # the config reader ends a value at '#' or a line break, and strips it
        if text != text.strip() or any(c in text for c in "#\n\r"):
            raise ValueError(f"{name} = {text!r} would not read back from a config file")
        lines.append(f"{name} = {text}")
    print("\n".join(lines))
    return True
