"""Command line front end.

Every setting is declared once, as a row of ``_SETTINGS`` holding its
name, default, parser and help text; RunConfig is the named tuple of those
names and defaults.  The name is the config key, the upper-cased name after
``TWINPROBE_`` the environment variable, and the name with dashes for
underscores the ``--`` flag.

Configuration is layered: built-in defaults, then a flat ``key = value``
config file (``--config`` flag or the TWINPROBE_CONFIG variable), then
``TWINPROBE_<KEY>`` environment variables, then command line flags.
Later layers win.  Unknown config keys and unknown TWINPROBE_* variables
are rejected rather than ignored, and so is a setting that is not finite.

Exit codes: 0 success, 2 configuration error, 3 physics domain error
(unstable regime, vanishing signal, diverged integration), 4 closed-form
verification failure.

The module top imports only ``_common`` and standard library modules that
argparse loads anyway; each command imports the numerical layers it uses
when it runs, so ``--help``, ``dump-config`` and a rejected configuration
load no numpy, and no command loads ``dataclasses``.  Unless numpy is
loaded already, ``main`` sets OPENBLAS_NUM_THREADS to 1 where the
environment does not set it.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from collections import namedtuple

from ._common import SIGNAL_CONSISTENT, SIGNAL_VARIANTS, DomainError

__all__ = ["ConfigError", "RunConfig", "build_parser", "main"]

ENV_PREFIX = "TWINPROBE_"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4

# Largest grid a sweep accepts: points per ratio, and rows, one per point and
# squeeze ratio.  The closed forms hold several float temporaries per row.
MAX_POINTS = 10**6
MAX_ROWS = 10**7
# Largest magnitude of r, of an r_list entry and of kappa.  The closed forms
# take ratio**2 and kappa**4, which then stay far inside the float range.
MAX_SCALE = 1e50


class ConfigError(ValueError):
    """Invalid or contradictory configuration input."""


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# Every setting, one row each: name, default, parser of its text form, help line.
_SETTINGS = (
    ("omega", 1.0, float, "mechanical frequency (sets the time unit)"),
    ("coupling_chi", None, float, "composite coupling of the eliminated cavity"),
    ("g_opt", None, float, "single-photon optomechanical coupling"),
    ("beta_abs", None, float, "cavity amplitude magnitude"),
    ("delta", None, float, "cavity detuning"),
    ("r", None, float, "squeeze ratio of the entangler"),
    ("temperature", None, float, "bath temperature (overrides --n-th)"),
    ("hbar_over_kb", 1.0, float, "unit factor for the temperature conversion"),
    ("n_th", 20.0, float, "thermal occupation of each probe"),
    ("gamma_mech", 0.0, float, "mechanical damping rate"),
    ("kappa", 1.0, float, "readout coupling g*gamma in units of omega"),
    ("tau_scaled", math.pi / 2.0, float, "readout duration in units of 1/omega"),
    ("phi", "opt", str, "interference phase in radians, or 'opt'"),
    (
        "signal_variant",
        SIGNAL_CONSISTENT,
        str,
        "force transfer convention: consistent or printed",
    ),
    ("r_list", "1,2,10", str, "comma-separated squeeze ratios for sweeps"),
    ("points", 512, int, "grid points per sweep"),
    ("axis_lo", None, float, "sweep axis lower end"),
    ("axis_hi", None, float, "sweep axis upper end"),
    ("include_sql", True, _parse_bool, "emit the uncoupled ground-state reference column"),
    ("out", None, str, "output CSV path"),
    ("tolerance", 1e-6, float, "relative tolerance for the readout verification"),
    ("include_printed_signal", False, _parse_bool, "also check the printed signal variant"),
    ("full_model", False, _parse_bool, "propagate the full cavity model for comparison"),
    ("jobs", 1, int, "processes formatting the sweep CSV (must be >= 1)"),
    ("step", None, float, "integrator step override"),
    ("gnuplot", None, str, "also write a gnuplot script to this path"),
)

RunConfig = namedtuple(
    "RunConfig", [row[0] for row in _SETTINGS], defaults=[row[1] for row in _SETTINGS]
)
RunConfig.__doc__ = "Merged configuration seen by every subcommand, one field per setting."

_PARSERS = {name: parse for name, _, parse, _ in _SETTINGS}


def _convert(key: str, raw: str, source: str):
    try:
        return _PARSERS[key](raw)
    except ValueError as exc:
        raise ConfigError(f"{source}: bad value for {key!r}: {exc}") from None


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key = key.strip().replace("-", "_")
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out


def _env_overrides(environ) -> dict[str, str]:
    out: dict[str, str] = {}
    for name, value in environ.items():
        if not name.startswith(ENV_PREFIX):
            continue
        key = name[len(ENV_PREFIX):].lower()
        if key == "config":
            continue
        if key not in _PARSERS:
            raise ConfigError(f"unknown environment variable {name}")
        out[key] = value
    return out


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
            raise ConfigError(f"{key} {path} would overwrite the {taken[real]}")
        taken[real] = f"CSV {path}"  # only the CSV precedes another output


def build_config(args: argparse.Namespace, environ=None) -> RunConfig:
    """Layer defaults, config file, environment, and flags into a RunConfig.

    An output path of ``args.command`` that would overwrite the config file
    or another output is refused before any command runs.
    """
    environ = os.environ if environ is None else environ
    values = {name: default for name, default, _, _ in _SETTINGS}
    path = getattr(args, "config", None) or environ.get(ENV_PREFIX + "CONFIG")
    if path:
        for key, raw in _read_config_file(path).items():
            values[key] = _convert(key, raw, path)
    for key, raw in _env_overrides(environ).items():
        values[key] = _convert(key, raw, ENV_PREFIX + key.upper())
    for key in _PARSERS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    for key, value in values.items():
        if _PARSERS[key] is float and value is not None and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    cfg = RunConfig(**values)
    if cfg.signal_variant not in SIGNAL_VARIANTS:
        raise ConfigError(
            f"signal_variant must be one of {SIGNAL_VARIANTS}, got {cfg.signal_variant!r}"
        )
    if cfg.phi != "opt":
        try:
            phi = float(cfg.phi)
        except ValueError:
            phi = math.nan
        if not math.isfinite(phi):
            raise ConfigError(f"phi must be 'opt' or a finite number, got {cfg.phi!r}")
    if cfg.jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {cfg.jobs}")
    if not cfg.tolerance > 0:
        raise ConfigError(f"tolerance must be positive, got {cfg.tolerance}")
    if cfg.points < 2:
        raise ConfigError(f"points must be at least 2, got {cfg.points}")
    if cfg.points > MAX_POINTS:
        raise ConfigError(f"points must be at most {MAX_POINTS}, got {cfg.points}")
    for key in ("r", "kappa"):
        value = getattr(cfg, key)
        if value is not None and abs(value) > MAX_SCALE:
            raise ConfigError(f"{key} must be at most {MAX_SCALE:g} in magnitude, got {value!r}")
    ratios = len(_parse_ratio_list(cfg))
    if cfg.points * ratios > MAX_ROWS:
        raise ConfigError(
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


def _resolve_phi(cfg: RunConfig, tau_scaled: float) -> float:
    if cfg.phi == "opt":
        from .metrology import phi_opt

        return phi_opt(tau_scaled)
    return float(cfg.phi)


def _parse_ratio_list(cfg: RunConfig) -> tuple[float, ...]:
    items = [piece.strip() for piece in cfg.r_list.split(",") if piece.strip()]
    if not items:
        raise ConfigError(f"r_list is empty: {cfg.r_list!r}")
    try:
        ratios = tuple(float(piece) for piece in items)
    except ValueError:
        raise ConfigError(f"r_list must be comma-separated numbers, got {cfg.r_list!r}") from None
    if not all(map(math.isfinite, ratios)):
        raise ConfigError(f"r_list entries must be finite, got {cfg.r_list!r}")
    if any(abs(ratio) > MAX_SCALE for ratio in ratios):
        raise ConfigError(
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
        raise ConfigError(
            "give only one of --r, --coupling-chi, or --g-opt/--beta-abs/--delta"
        )
    if cfg.r is not None:
        return ProbeParams.from_squeeze_ratio(
            cfg.omega, cfg.r, delta=cfg.delta, n_th=n_th, gamma_mech=cfg.gamma_mech
        )
    coupling = cfg.coupling_chi
    if cfg.g_opt is not None or cfg.beta_abs is not None:
        if cfg.g_opt is None or cfg.beta_abs is None or cfg.delta is None:
            raise ConfigError("raw coupling needs all of --g-opt, --beta-abs, --delta")
        if cfg.delta == 0:
            raise ConfigError("delta must be nonzero")
        # (2 g |beta|)^2 / delta; a product overflows to inf where ** would raise
        push = 2.0 * cfg.g_opt * cfg.beta_abs
        coupling = push * push / cfg.delta
    if coupling is not None:
        return ProbeParams(cfg.omega, coupling, cfg.delta, n_th, cfg.gamma_mech)
    raise ConfigError("entangler needs --r, --coupling-chi, or --g-opt/--beta-abs/--delta")


def _g(x: float) -> str:
    return format(float(x), ".12g")


def _write_chunks(key: str, path: str, chunks) -> None:
    """Write byte strings to an output file one after another.

    A path that cannot be written is an error in setting ``key``.
    """
    try:
        with open(path, "wb") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"cannot write {key} {path}: {exc.strerror}") from None


def _write_csv(path: str, axis: str, columns, jobs: int = 1) -> None:
    """Write sweep columns as CSV, formatted by ``jobs`` processes (see ``_csv``)."""
    from ._csv import csv_chunks

    chunks = csv_chunks(axis, columns, jobs)
    try:
        _write_chunks("out", path, chunks)
    finally:
        chunks.close()  # reaps the workers when the file could not be written


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
    _write_chunks("gnuplot", path, [("\n".join(lines) + "\n").encode("utf-8")])


def cmd_entangle(cfg: RunConfig) -> int:
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
    return EXIT_OK


def _run_sweep(cfg: RunConfig, make_spec, command: str) -> int:
    """Write the sweep that ``make_spec(**overrides)`` builds from the settings."""
    paths = _output_paths(command, cfg)
    from .sweep import curve_columns

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
    spec = make_spec(**overrides)
    _write_csv(paths["out"], spec.axis, curve_columns(spec), cfg.jobs)
    print(f"wrote {spec.points * len(spec.ratios)} rows to {paths['out']}")
    if "gnuplot" in paths:
        _write_gnuplot(paths["gnuplot"], paths["out"], spec)
        print(f"wrote gnuplot script to {paths['gnuplot']}")
    return EXIT_OK


def cmd_fig1(cfg: RunConfig) -> int:
    from .sweep import fig1_spec

    return _run_sweep(cfg, fig1_spec, "fig1")


def cmd_fig2(cfg: RunConfig) -> int:
    from .sweep import fig2_spec

    return _run_sweep(cfg, fig2_spec, "fig2")


def cmd_fmin(cfg: RunConfig) -> int:
    from .sweep import fmin_columns

    point = fmin_columns(
        cfg.tau_scaled,
        cfg.kappa,
        cfg.r if cfg.r is not None else 1.0,
        _resolve_n_th(cfg),
        _resolve_phi(cfg, cfg.tau_scaled),
        signal_variant=cfg.signal_variant,
        include_sql=cfg.include_sql,
    )
    for name, value in point.items():
        print(f"{name} = {_g(value)}")
    if cfg.out:
        _write_csv(cfg.out, "tau_scaled", point)
        print(f"wrote 1 row to {cfg.out}")
    return EXIT_OK


def cmd_optimize_kappa(cfg: RunConfig) -> int:
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
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
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
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_budget(cfg: RunConfig) -> int:
    from .dynamics import ProbeParams
    from .metrology import decoherence_budget

    p = ProbeParams(
        omega=cfg.omega, n_th=_resolve_n_th(cfg), gamma_mech=cfg.gamma_mech
    )
    phi = _resolve_phi(cfg, cfg.tau_scaled)
    budget = decoherence_budget(p, phi, cfg.tau_scaled / cfg.omega)
    print(f"coherence budget = {_g(budget.budget)}")
    print(f"rotation time = {_g(budget.rotation_time)}")
    print(f"force time = {_g(budget.force_time)}")
    print(f"time used = {_g(budget.time_used)}")
    print(f"feasible = {'yes' if budget.feasible else 'no'}")
    return EXIT_OK


def cmd_dump_config(cfg: RunConfig) -> int:
    for name, value in zip(cfg._fields, cfg):
        if value is None:
            continue
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        print(f"{name} = {text}")
    return EXIT_OK


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("configuration")
    group.add_argument("--config", help="flat key = value config file")
    for name, _, parse, help_text in _SETTINGS:
        if parse is _parse_bool:
            kwargs = {"action": argparse.BooleanOptionalAction}
        else:
            kwargs = {"type": None if parse is str else parse}
        flag = "--" + name.replace("_", "-")
        group.add_argument(flag, default=None, help=help_text, **kwargs)


_COMMANDS = [
    ("entangle", cmd_entangle, "prepare the two-probe state and report entanglement"),
    ("fig1", cmd_fig1, "sweep f_min over the readout duration (CSV)"),
    ("fig2", cmd_fig2, "sweep f_min over the readout coupling (CSV)"),
    ("fmin", cmd_fmin, "evaluate one sensitivity point"),
    ("optimize-kappa", cmd_optimize_kappa, "find the coupling minimizing f_min"),
    ("verify", cmd_verify, "check closed forms against the moment oracle"),
    ("budget", cmd_budget, "compare protocol time against the coherence time"),
    ("dump-config", cmd_dump_config, "print the merged configuration"),
]


def build_parser(command: str | None = None, alone: bool = False) -> argparse.ArgumentParser:
    """The command line parser.

    Only ``command`` gets the configuration flags, or every subcommand when
    ``command`` is None.  With ``alone``, a ``command`` that names a
    subcommand is the only one registered: the caller has seen it as the
    first word, so no text that lists the subcommands can be printed.
    Otherwise every subcommand is registered, so that the top-level help
    and the invalid-choice message name all of them.
    """
    parser = argparse.ArgumentParser(
        prog="twinprobe",
        description="Force sensing with a pair of entangled mechanical probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    chosen = [row for row in _COMMANDS if alone and row[0] == command]
    for name, fn, help_text in chosen or _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if command is None or name == command:
            _add_config_flags(p)
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    if "numpy" not in sys.modules:
        # No command multiplies anything larger than 9x9, so OpenBLAS's
        # thread pool only spends CPU; it reads this when numpy loads.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top-level parser takes no option with a value, so the first word
    # that is not an option names the subcommand.
    command = next((word for word in argv if not word.startswith("-")), "")
    args = build_parser(command, alone=argv[:1] == [command]).parse_args(argv)
    try:
        cfg = build_config(args)
        return args.func(cfg)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
