"""Force sensing with a pair of entangled mechanical probes.

The package models the full protocol as Gaussian quadrature dynamics:
a cavity-mediated coupling squeezes a collective mode of two identical
mechanical oscillators (``dynamics``), an optional local phase rotation
re-shuffles the squeezing between quadratures, and a back-action-evading
readout accumulates a common force into the summed meter phase
(``metrology``).  ``oracle`` integrates the same stages as moment ODEs
and cross-checks every closed form; ``sweep`` produces sensitivity
curves and optimizes the readout coupling; ``cli`` exposes everything on
the command line.

Import each name from its home module, the one whose ``__all__`` lists
it: ``from twinprobe.dynamics import ProbeParams``.  The package itself
loads no submodule, so ``import twinprobe`` starts without numpy.

Conventions: quadrature ordering (q1, p1, q2, p2, ...), vacuum variance
1/2, and [q, p] = i for the probes but i/2 for the cavity and the meters
(the table in ``gaussian``).  Times tagged ``_scaled`` are in units of
1/omega.
"""

__version__ = "0.1.0"
