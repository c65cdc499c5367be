import os
import warnings
from typing import NamedTuple

import pytest

from twinprobe import cli


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
        if name.startswith(cli.ENV_PREFIX):
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
