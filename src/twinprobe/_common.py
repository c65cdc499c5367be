"""Names shared by the numerical layers and the command line front end.

This module imports nothing beyond the standard library, so the front end
can parse arguments, merge its configuration and report errors without
loading numpy.
"""

import math

__all__ = ["SIGNAL_CONSISTENT", "SIGNAL_PRINTED", "SIGNAL_VARIANTS", "DomainError", "finite"]

SIGNAL_CONSISTENT = "consistent"
SIGNAL_PRINTED = "printed"
SIGNAL_VARIANTS = (SIGNAL_CONSISTENT, SIGNAL_PRINTED)


class DomainError(Exception):
    """Valid inputs at which the physics has no answer (exit code 3 on the CLI)."""


def finite(name: str, value: float) -> float:
    """``value``, or DomainError naming the quantity ``name`` if it is not finite."""
    if not math.isfinite(value):
        raise DomainError(f"{name} is beyond the float range ({value:g})")
    return value
