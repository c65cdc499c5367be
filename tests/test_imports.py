"""Which modules each entry point loads, and where each public name lives.

These tests check module footprints, not timings.
"""
import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import twinprobe
from twinprobe._common import DOMAINS

SRC = str(Path(twinprobe.__file__).resolve().parent.parent)
README = Path(__file__).resolve().parents[1] / "README.md"

# the layers whose ``__all__`` the bench tracer wraps, one home per public name
LAYERS = ("gaussian", "dynamics", "metrology", "oracle", "sweep", "cli")
# every module that is the home of a public name
HOMES = ("_common", "probes", *LAYERS)

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
        # the answers and refusals that need no array
        (["budget", "--phi", "0.3"], 0),
        (["entangle", "--coupling-chi=-2"], 3),
        (["entangle", "--r", "2", "--coupling-chi", "1"], 2),
        (["budget", "--phi", "0", "--temperature=-1"], 2),
        (["entangle", "--coupling-chi=-0.1"], 3),
        (["entangle", "--g-opt", "1e200", "--beta-abs", "1e200", "--delta", "1"], 3),
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
        ["fig2", "--points", "4"],
    ],
)
def test_closed_form_commands_skip_the_oracle(tmp_path, argv):
    code, modules = _modules_after_main(argv, tmp_path)
    assert code == 0
    assert "numpy" in modules
    assert not {"twinprobe.oracle", "dataclasses"} & modules
    # only entangle and budget read the probes' parameters
    assert ("twinprobe.probes" in modules) == (argv[0] in ("entangle", "budget"))


@pytest.mark.parametrize(
    "argv", [["verify"], ["entangle", "--r", "2", "--full-model", "--delta", "100"]]
)
def test_oracle_commands_load_the_oracle(tmp_path, argv):
    code, modules = _modules_after_main(argv, tmp_path)
    assert code == 0
    assert "twinprobe.oracle" in modules
    assert "dataclasses" not in modules
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


# Python 3.12+ warns of a fork beside another thread, attributed to the
# module that forks.  Only a record of every warning sees it: an ``error``
# filter on the module drops it and the fork goes ahead.
_REPORT_FORKS = """
import contextlib, io, json, os, warnings
from twinprobe import cli
forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(1))
with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    code = cli.main(["fig1", "--points", "5000", "--jobs", "2"])
warned = [
    f"{w.filename}:{w.lineno}: {w.message}" for w in caught
    if issubclass(w.category, DeprecationWarning) and "twinprobe" in w.filename
]
print(json.dumps({"code": code, "forks": len(forks), "warned": warned}))
"""


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
    reason="no /proc, or one usable CPU",
)
def test_jobs_fork_in_a_command_line_process(tmp_path):
    # the OpenBLAS pin leaves the process one thread, so --jobs 2 forks its
    # worker, and without a warning that another thread ran at the fork
    report = json.loads(_python(_REPORT_FORKS, cwd=tmp_path))
    assert report == {"code": 0, "forks": 1, "warned": []}


def _run_module(*args, cwd):
    """``python -X importtime -m ARGS``: the process and the modules it imported."""
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )
    log = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    # the first line is the column header
    return proc, {line.rsplit("|", 1)[1].strip() for line in log[1:]}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["fmn"], 2),
        (["dump-config"], 0),
        (["fmin"], 0),
        (["entangle", "--r", "2", "--full-model"], 0),
    ],
)
def test_module_entry_point_runs_the_front_end_once(tmp_path, argv, code):
    proc, imported = _run_module("twinprobe.cli", *argv, cwd=tmp_path)
    assert proc.returncode == code
    # run as __main__, the front end would compile and run again if imported
    assert "twinprobe.cli" not in imported
    if argv in (["--help"], ["fmn"]):
        # nor _common: the settings table loads only for a command that can run
        assert {m for m in imported if m.startswith("twinprobe")} == {"twinprobe"}


_REPORT_EXPORTS = """
import json, sys
from twinprobe import cli
loaded_first = "twinprobe._common" in sys.modules
from twinprobe.cli import RunConfig
from twinprobe import _common
print(json.dumps({
    "loaded_first": loaded_first,
    "same": RunConfig is cli.RunConfig is _common.RunConfig,
    "missing": [name for name in cli.__all__ if not hasattr(cli, name)],
}))
"""


def test_cli_exports_resolve_in_a_fresh_process(tmp_path):
    # importing cli loads no settings table, yet every name it exports resolves
    report = json.loads(_python(_REPORT_EXPORTS, cwd=tmp_path))
    assert report == {"loaded_first": False, "same": True, "missing": []}


def test_package_entry_point_prints_the_same_help(tmp_path):
    front, _ = _run_module("twinprobe.cli", "--help", cwd=tmp_path)
    package, _ = _run_module("twinprobe", "--help", cwd=tmp_path)
    assert (package.returncode, package.stdout) == (0, front.stdout)
    assert front.stdout.startswith("usage: twinprobe ")


# atexit runs its handlers last in, first out, so one registered before the
# entry runs after everything the entry's modules register
_EXIT_REPORT = """
import atexit, gc, runpy, sys
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0, file=sys.stderr))
runpy.run_module("twinprobe.cli", run_name="__main__", alter_sys=True)
"""


def test_process_exit_freezes_the_collector_and_still_runs_atexit(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)

    def start(*args):
        return subprocess.Popen(
            [sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env, cwd=tmp_path,
        )

    codes = {("fmin",): 0, ("fmn",): 2, ("entangle", "--coupling-chi=-2"): 3}
    entered = {argv: start("-c", _EXIT_REPORT, *argv) for argv in codes}
    profiled = start("-m", "cProfile", "-m", "twinprobe.cli", "fmin")
    for argv, proc in entered.items():
        out, err = proc.communicate()
        assert proc.returncode == codes[argv], err
        assert err.splitlines()[-1] == "frozen at exit: True"
        assert ("f_min = " in out) == (argv == ("fmin",))
    out, err = profiled.communicate()
    assert profiled.returncode == 0, err
    # the profiler prints its stats after the entry has raised SystemExit
    assert "f_min = " in out and "function calls" in out


def test_bare_import_loads_no_numpy(tmp_path):
    out = _python(
        "import sys, twinprobe; "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('twinprobe.')))",
        cwd=tmp_path,
    )
    assert out.strip() == "[]"


@pytest.mark.parametrize("layer", HOMES)
def test_all_names_exist_in_their_home_module(layer):
    module = importlib.import_module(f"twinprobe.{layer}")
    for name in module.__all__:
        assert hasattr(module, name), name


def test_each_public_name_has_one_home():
    homes = {}
    for layer in HOMES:
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


def _removed_names():
    """The dotted names in the first column of the README's table of removed names."""
    section = README.read_text().split("### Removed names", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return [name for row in rows for name in re.findall(r"`(\w+\.[\w.]+)`", row.split("|")[1])]


def test_removed_names_are_gone():
    removed = _removed_names()
    assert "gaussian.CovarianceMatrix" in removed and "cli.cmd_verify" in removed
    present = []
    for dotted in removed:
        first, *attrs, name = dotted.split(".")
        owner = twinprobe if first == "twinprobe" else importlib.import_module(f"twinprobe.{first}")
        for attr in attrs:
            owner = getattr(owner, attr)
        if hasattr(owner, name) or name in getattr(owner, "__all__", ()):
            present.append(dotted)
    assert present == []


def _refusal_texts(path):
    """Line and leading literal text of each ``raise ValueError(...)`` in the module ``path``."""
    for node in ast.walk(ast.parse(path.read_text())):
        call = node.exc if isinstance(node, ast.Raise) else None
        if not (isinstance(call, ast.Call) and getattr(call.func, "id", "") == "ValueError"):
            continue
        parts = call.args[:1]
        if parts and isinstance(parts[0], ast.JoinedStr):  # an f-string: its leading literals
            parts = parts[0].values
        text = ""
        for part in parts:
            if not (isinstance(part, ast.Constant) and isinstance(part.value, str)):
                break
            text += part.value
        yield node.lineno, text


def test_domain_refusals_are_written_only_in_the_table():
    # a bespoke check of a quantity with a row, such as the points cap, says
    # something other than the row's "<quantity> must be <wording>"
    refusals = tuple(f"{quantity} must be {row[2]}" for quantity, row in DOMAINS.items())
    copies = [
        f"{path.name}:{line}: {text}"
        for path in sorted(Path(SRC, "twinprobe").glob("*.py"))
        if path.name != "_common.py"
        for line, text in _refusal_texts(path)
        if text.startswith((*refusals, "signal_variant must be one of"))
    ]
    assert copies == []


def test_each_domain_row_is_in_the_readme():
    section = README.read_text().split("### Domains", 1)[1].split("\n#", 1)[0]
    missing = [
        quantity
        for quantity, (_, _, wording) in DOMAINS.items()
        if f"| `{quantity} must be {wording}` |" not in section
    ]
    assert missing == []
