import os

# as the command line pins it, but forced over a caller's value: OpenBLAS
# then starts no thread, so the in-process --jobs tests fork from a
# one-thread process, as a command does
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import warnings
from typing import NamedTuple

import numpy as np
import pytest

from twinprobe import _common, cli


def symplectic_form(n_modes, weights=1.0):
    """Block-diagonal symplectic form for (q, p) pairs, [q_k, p_k] = i weights[k].

    ``weights`` is one per mode, or one for all; 1 is [q, p] = i.
    """
    j = np.zeros((2 * n_modes, 2 * n_modes))
    for k, w in enumerate(np.broadcast_to(weights, n_modes)):
        j[2 * k, 2 * k + 1] = w
        j[2 * k + 1, 2 * k] = -w
    return j


def mp_expm(a, t, cov=None):
    """expm(a t), or expm(a t) cov expm(a t)^T, computed at 40 digits and rounded to floats.

    The arbitrary-precision reference for the closed forms and the RK4
    oracle; the test calling it is skipped when mpmath is missing.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x = mpmath.expm(mpmath.matrix(np.asarray(a, dtype=float).tolist()) * t)
        if cov is not None:
            x = x * mpmath.matrix(np.asarray(cov, dtype=float).tolist()) * x.T
        return np.array(x.tolist(), dtype=float)


class CliResult(NamedTuple):
    """What a run of the command line left: the fields of a finished process."""

    returncode: int
    stdout: str
    stderr: str


@pytest.fixture
def launch_cli(monkeypatch, capsys, tmp_path):
    """Run ``twinprobe ARGS`` in this process, as a fresh process would see it.

    The run starts in ``tmp_path`` with no ``TWINPROBE_*`` variable set but
    those in ``env_extra``, and with an 80-column terminal, the width argparse
    falls back to when output is captured.  A warning is an error, an
    argparse exit gives its exit code, and any other exception escaping
    ``cli.main`` fails the test.
    """
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    for name in list(os.environ):
        if name.startswith(_common.ENV_PREFIX):
            monkeypatch.delenv(name)

    def launch(*args, env_extra=None):
        capsys.readouterr()
        with monkeypatch.context() as env, warnings.catch_warnings():
            for name, value in (env_extra or {}).items():
                env.setenv(name, value)
            warnings.simplefilter("error")
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = exc.code
        out, err = capsys.readouterr()
        return CliResult(code, out, err)

    return launch
