"""Which modules each entry point loads, and where each public name lives.

These tests check module footprints, not timings.
"""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import twinprobe

SRC = str(Path(twinprobe.__file__).resolve().parent.parent)

# the layers whose ``__all__`` the bench tracer wraps, one home per public name
LAYERS = ("gaussian", "dynamics", "metrology", "oracle", "sweep", "cli")

_REPORT_MODULES = """
import contextlib, io, json, sys
from twinprobe import cli
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _python(code, *args, cwd, blas_threads=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, cwd=cwd
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _modules_after_main(argv, cwd):
    report = json.loads(_python(_REPORT_MODULES, json.dumps(argv), cwd=cwd))
    return report["code"], set(report["modules"])


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["dump-config"], 0),
        (["dump-config", "--config", "typo.cfg"], 2),
    ],
)
def test_front_end_loads_no_numpy(tmp_path, argv, code):
    (tmp_path / "typo.cfg").write_text("kapa = 1\n")
    got, modules = _modules_after_main(argv, tmp_path)
    assert got == code
    # nor dataclasses, whose import of inspect the front end would pay for alone
    assert not {"numpy", "dataclasses", "inspect"} & modules


@pytest.mark.parametrize(
    "argv",
    [
        ["entangle", "--r", "2"],
        ["fmin"],
        ["optimize-kappa"],
        ["budget"],
        ["fig1", "--points", "4"],
    ],
)
def test_closed_form_commands_skip_the_oracle(tmp_path, argv):
    code, modules = _modules_after_main(argv, tmp_path)
    assert code == 0
    assert "numpy" in modules
    assert "twinprobe.oracle" not in modules


@pytest.mark.parametrize(
    "argv", [["verify"], ["entangle", "--r", "2", "--full-model", "--delta", "100"]]
)
def test_oracle_commands_load_the_oracle(tmp_path, argv):
    code, modules = _modules_after_main(argv, tmp_path)
    assert code == 0
    assert "twinprobe.oracle" in modules
    # only verify's readout check needs the metrology closed forms
    assert ("twinprobe.metrology" in modules) == (argv[0] == "verify")


_REPORT_THREADS = """
import contextlib, io, json, os
from twinprobe import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["fmin"])
threads = len(os.listdir("/proc/self/task"))
print(json.dumps({"code": code, "threads": threads, "env": os.environ["OPENBLAS_NUM_THREADS"]}))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc")
@pytest.mark.parametrize("given", [None, "2"])
def test_main_pins_blas_to_one_thread_unless_set(tmp_path, given):
    report = json.loads(_python(_REPORT_THREADS, cwd=tmp_path, blas_threads=given))
    assert report["code"] == 0
    assert report["env"] == (given or "1")
    if given is None:
        assert report["threads"] == 1


def test_bare_import_loads_no_numpy(tmp_path):
    out = _python(
        "import sys, twinprobe; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('twinprobe.')))",
        cwd=tmp_path,
    )
    assert out.strip() == "[]"


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_exist_in_their_home_module(layer):
    module = importlib.import_module(f"twinprobe.{layer}")
    for name in module.__all__:
        assert hasattr(module, name), name


def test_each_public_name_has_one_home():
    homes = {}
    for layer in ("_common", *LAYERS):
        for name in importlib.import_module(f"twinprobe.{layer}").__all__:
            homes.setdefault(name, []).append(layer)
    assert {name: where for name, where in homes.items() if len(where) > 1} == {}


def test_submodules_and_unknown_names():
    from twinprobe import cli, oracle

    assert twinprobe.cli is cli and twinprobe.oracle is oracle
    with pytest.raises(AttributeError):
        twinprobe.no_such_name
    with pytest.raises(ImportError):
        exec("from twinprobe import no_such_name", {})
