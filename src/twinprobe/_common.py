"""Names shared by the numerical layers and the command line front end.

This module imports nothing beyond the standard library, so the front end
can build its parser and report errors without loading numpy.  It also
holds the settings schema, which the parser and the configuration merge
both read; ``twinprobe.cli`` exports ``RunConfig``.  ``DOMAINS`` holds the
domain of each bounded quantity once, and every layer refuses a value
outside it through ``check_domain`` (or ``check_variant``), with a
``ValueError``, the exception that exits 2.  ``DomainError`` is the one
exception that exits 3: valid inputs at which the physics has no answer.
"""

import math
from collections import namedtuple

__all__ = ["SIGNAL_CONSISTENT", "SIGNAL_PRINTED", "SIGNAL_VARIANTS", "DomainError", "finite"]

SIGNAL_CONSISTENT = "consistent"
SIGNAL_PRINTED = "printed"
SIGNAL_VARIANTS = (SIGNAL_CONSISTENT, SIGNAL_PRINTED)


# Each bounded quantity's domain: its least value, whether that value itself
# is allowed, and the wording of the refusal "<quantity> must be <wording>".
DOMAINS = {
    **dict.fromkeys(("omega", "hbar_over_kb", "tolerance"), (0.0, False, "positive")),
    **dict.fromkeys(("n_th", "gamma_mech", "temperature", "kappa"), (0.0, True, "nonnegative")),
    **dict.fromkeys(("tau_scaled", "tau", "t"), (0.0, True, "nonnegative")),
    **dict.fromkeys(("squeeze ratio", "n_modes"), (1.0, True, ">= 1")),
    "points": (2, True, "at least 2"),
    "jobs": (1, True, "at least 1"),
}


def check_domain(*pairs) -> None:
    """ValueError naming the first ``(quantity, value)`` pair outside its ``DOMAINS`` row."""
    for quantity, value in pairs:
        least, allowed, wording = DOMAINS[quantity]
        inside = value >= least if allowed else value > least  # False at nan
        if inside is not True and (inside is False or not inside.all()):  # an array: every entry
            raise ValueError(f"{quantity} must be {wording}, got {value}")


def check_variant(variant) -> None:
    """ValueError unless the signal variant ``variant`` is one of SIGNAL_VARIANTS."""
    if variant not in SIGNAL_VARIANTS:
        raise ValueError(f"signal_variant must be one of {SIGNAL_VARIANTS}, got {variant!r}")


class DomainError(Exception):
    """Valid inputs at which the physics has no answer (exit code 3 on the CLI)."""


def finite(name: str, value: float) -> float:
    """``value``, or DomainError naming the quantity ``name`` if it is not finite."""
    if not math.isfinite(value):
        raise DomainError(f"{name} is beyond the float range ({value:g})")
    return value


ENV_PREFIX = "TWINPROBE_"

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
