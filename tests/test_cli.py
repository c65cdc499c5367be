import importlib
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from twinprobe import _commands, _csv, cli, dynamics
from twinprobe._common import _SETTINGS, DOMAINS
from twinprobe.cli import RunConfig
from twinprobe.metrology import phi_opt
from twinprobe.sweep import curve_columns, fig1_spec, fig2_spec, fmin_columns

PI = math.pi


def stdout_value(proc, key):
    for line in proc.stdout.splitlines():
        if line.startswith(key + " ") or line.startswith(key + "="):
            return float(line.split("=", 1)[1])
    raise AssertionError(f"{key!r} not found in output:\n{proc.stdout}")


def test_entangle_reports_ratio_and_verdict(launch_cli):
    proc = launch_cli("entangle", "--coupling-chi", "1.5", "--n-th", "0")
    assert proc.returncode == 0
    assert stdout_value(proc, "relative mode frequency") == pytest.approx(2.0)
    assert stdout_value(proc, "squeeze ratio") == pytest.approx(2.0)
    assert "entangled               = yes" in proc.stdout


def test_entangle_thermal_verdicts(launch_cli):
    proc = launch_cli("entangle", "--r", "2", "--n-th", "20")
    assert proc.returncode == 0
    assert "entangled               = no" in proc.stdout
    proc = launch_cli("entangle", "--r", "50", "--n-th", "1000")
    assert proc.returncode == 0
    assert "entangled               = yes" in proc.stdout


def entangle_numbers(proc):
    """The numbers ``entangle`` printed, in order, and its verdict line."""
    assert proc.returncode == 0, proc.stderr
    *lines, verdict = proc.stdout.splitlines()
    del lines[3]  # "covariance (q1, p1, q2, p2):"
    return [float(word) for line in lines for word in line.split("=")[-1].split()], verdict


def state_numbers(out):
    """The numbers ``entangle`` prints for a prepared state, unrounded, in order."""
    return [
        out.mode_frequency,
        out.ratio,
        out.switch_off_time,
        *out.covariance.ravel(),
        out.relative_q_variance,
        out.total_p_variance,
        out.variance_product,
        out.squeeze_margin,
    ]


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    ratio=st.floats(1.0, 1e3),
    delta=st.floats(1.0, 1e4),
    n_th=st.floats(0.0, 1e3),
)
@example(ratio=2.0, delta=1.0, n_th=1.5)  # at the threshold: margin 0.0, 0.0 and -8.9e-16
def test_entangle_routes_agree(launch_cli, monkeypatch, ratio, delta, n_th):
    # the same pair given by its squeeze ratio, its composite coupling and
    # its raw cavity parameters (2 g |beta|)^2 / delta = chi
    chi = (ratio**2 - 1.0) / 2.0
    routes = [
        ("--r", repr(ratio)),
        ("--coupling-chi", repr(chi)),
        ("--g-opt", repr(math.sqrt(chi * delta) / 2.0), "--beta-abs", "1", "--delta", repr(delta)),
    ]
    # The routes reach the same state up to a few ulps (sqrt, square and
    # divide on the way), so a printed digit at a rounding tie, such as
    # 1.0034750375e8 at ratio 998 and n_th 201, may go either way: the
    # numbers are compared as prepare returned them, before printing.
    prepared = []

    def spy(p, prepare=dynamics.prepare):
        prepared.append(prepare(p))
        return prepared[-1]

    monkeypatch.setattr(dynamics, "prepare", spy)
    printed = [
        entangle_numbers(launch_cli("entangle", *route, "--n-th", repr(n_th))) for route in routes
    ]
    assert [len(numbers) for numbers, _ in printed] == [23] * len(routes)
    want, *others = [state_numbers(out) for out in prepared]
    assert len(others) == len(routes) - 1
    # The margin ratio**2 - (1 + 2 n_th) cancels at the threshold, so its
    # few-ulp route differences are absolute, on the scale of its two
    # terms, and its sign (the verdict) is compared only away from zero.
    margin_tol = 1e-12 * max(ratio**2, 1.0 + 2.0 * n_th)
    for got in others:
        assert got[:-1] == pytest.approx(want[:-1], rel=1e-12, abs=0.0)
        assert got[-1] == pytest.approx(want[-1], rel=0.0, abs=margin_tol)
    if abs(want[-1]) > margin_tol:
        assert len({verdict for _, verdict in printed}) == 1


def test_entangle_stable_pair_does_not_underflow(launch_cli):
    proc = launch_cli("entangle", "--omega", "1e-200", "--coupling-chi", "1e-200")
    assert proc.returncode == 0, proc.stderr
    assert "squeeze ratio           = 1.73205080757\n" in proc.stdout


@pytest.mark.parametrize(
    "args, says",
    [
        # the refused start step comes from the detuning, so the message names it
        (
            ("--r", "2", "--full-model", "--delta", "1e13"),
            "delta 10000000000000.0 sets a start step ",
        ),
        (("--g-opt", "0", "--beta-abs", "1", "--delta", "0", "--full-model"), ""),
        (("--g-opt", "0", "--beta-abs", "0", "--delta", "0"), ""),
        (("--r", "2", "--temperature", "1", "--hbar-over-kb", "0"), ""),
        (("--r", "2", "--full-model", "--step", "1e-300"), "step 1e-300 needs over"),
    ],
    ids=[f"args{i}" for i in range(5)],
)
def test_refused_entangle_prints_nothing(launch_cli, args, says):
    proc = launch_cli("entangle", *args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: " + says)
    assert proc.stdout == ""


def test_entangle_rejects_conflicting_parametrizations(launch_cli):
    proc = launch_cli("entangle", "--r", "2", "--coupling-chi", "1.5")
    assert proc.returncode == 2
    assert "config error" in proc.stderr


def test_entangle_full_model_converges(launch_cli):
    proc = launch_cli(
        "entangle", "--r", "2", "--n-th", "20", "--delta", "100", "--full-model"
    )
    assert proc.returncode == 0
    line = next(l for l in proc.stdout.splitlines() if "full-model deviation" in l)
    deviation = float(line.split("=")[1].split("(")[0])
    assert deviation < 0.02


def test_entangle_full_model_large_detuning(launch_cli):
    proc = launch_cli("entangle", "--r", "2", "--full-model", "--delta", "1e7")
    assert proc.returncode == 0, proc.stderr
    line = next(l for l in proc.stdout.splitlines() if "full-model deviation" in l)
    assert float(line.split("=")[1].split("(")[0]) < 1e-6


@pytest.mark.parametrize(
    "args, deviation",
    [
        # a step longer than the run, and one coarser than the default
        (("--delta", "100", "--step", "10"), "7.306e-04"),
        (("--delta", "100", "--step", "0.005"), "7.306e-04"),
        # the default step is 2.5% off here, and h/2 still 0.2%
        (("--n-th", "0", "--delta", "1e7"), "1.200e-07"),
        # a --step past RK4's stability edge, where a single run diverges
        (("--n-th", "0", "--delta", "1e7", "--step", "0.1"), "1.200e-07"),
    ],
)
def test_entangle_full_model_step_guard(launch_cli, args, deviation):
    proc = launch_cli("entangle", "--r", "2", "--full-model", *args)
    assert proc.returncode == 0, proc.stderr
    assert f"full-model deviation    = {deviation} (relative" in proc.stdout


def test_entangle_full_model_guard_beyond_max_steps(launch_cli):
    # 1e-12 needs fewer than MAX_STEPS steps over pi/4, half of it more
    proc = launch_cli("entangle", "--r", "2", "--full-model", "--step", "1e-12")
    assert proc.returncode == 3
    assert proc.stderr.startswith("domain error: full-model step guard did not settle")
    assert proc.stdout == ""


@pytest.mark.parametrize("step", ["1e-320", "nan"])
def test_entangle_full_model_rejects_bad_step(launch_cli, step):
    proc = launch_cli("entangle", "--r", "2", "--full-model", f"--step={step}")
    assert proc.returncode == 2
    assert "config error: step" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_fmin_frozen_point(launch_cli):
    proc = launch_cli(
        "fmin", "--tau-scaled", repr(PI / 2), "--r", "10", "--n-th", "20"
    )
    assert proc.returncode == 0
    assert stdout_value(proc, "f_min") == pytest.approx(1.09465202275978547, rel=1e-9)
    assert stdout_value(proc, "f_sql") == pytest.approx(1.28490585296626357, rel=1e-9)
    assert stdout_value(proc, "phi") == pytest.approx(-PI / 4, rel=1e-9)


def test_fmin_explicit_phi_overrides_opt(launch_cli):
    proc = launch_cli("fmin", "--tau-scaled", repr(PI / 2), "--r", "10", "--phi", "0")
    assert proc.returncode == 0
    assert stdout_value(proc, "phi") == 0.0


@pytest.mark.parametrize(
    "args, printed",
    [
        (
            ("fmin", "--r", "1e20", "--tau-scaled", "5.5"),
            {"noise": "155.034922929", "f_min": "0.709398348701"},
        ),
        (
            ("optimize-kappa", "--r", "1e20", "--tau-scaled", "5.5"),
            {"kappa_opt": "0.283854119296", "f_min": "0.283854119296"},
        ),
        (("fmin", "--tau-scaled", "1e6", "--r", "3"), {"phi": "0.178782083543"}),
    ],
)
def test_readout_exact_at_the_optimal_phase(launch_cli, args, printed):
    # at phi = opt the antisqueezed quadrature leaves the readout exactly, so
    # a large ratio leaves no rounding residual times ratio**2 in the noise
    proc = launch_cli(*args)
    assert proc.returncode == 0
    lines = dict(line.split(" = ") for line in proc.stdout.splitlines())
    assert {key: lines[key] for key in printed} == printed


def test_fmin_without_sql_prints_nan(launch_cli, tmp_path):
    out = tmp_path / "point.csv"
    proc = launch_cli("fmin", "--no-include-sql", "--out", str(out))
    assert proc.returncode == 0
    assert "f_sql = nan\n" in proc.stdout
    assert out.read_text().splitlines()[1].split(",")[-1] == "nan"
    proc = launch_cli("fmin", "--out", str(out))
    assert proc.returncode == 0
    assert stdout_value(proc, "f_sql") == pytest.approx(1.28490585296626357, rel=1e-9)
    assert out.read_text().splitlines()[1].split(",")[-1] == "1.28490585297"


def test_optimize_kappa_command(launch_cli):
    proc = launch_cli(
        "optimize-kappa", "--tau-scaled", repr(PI / 2), "--r", "10", "--n-th", "20"
    )
    assert proc.returncode == 0
    assert stdout_value(proc, "kappa_opt") == pytest.approx(0.935932260872577, rel=1e-9)
    assert stdout_value(proc, "f_min") == pytest.approx(1.09113300329450691, rel=1e-6)
    # short durations put the optimum far out: 1/sqrt(2(tau - sin tau))
    proc = launch_cli("optimize-kappa", "--tau-scaled", "0.01", "--r", "10")
    assert proc.returncode == 0
    assert stdout_value(proc, "kappa_opt") == pytest.approx(1732.05513770182, rel=1e-9)
    # the series form of tau - sin tau keeps tiny durations resolvable
    proc = launch_cli("optimize-kappa", "--tau-scaled", "1e-9")
    assert proc.returncode == 0
    assert stdout_value(proc, "kappa_opt") == pytest.approx(5.47722557505e13, rel=1e-9)
    proc = launch_cli("optimize-kappa", "--tau-scaled", "0")
    assert proc.returncode == 3
    assert "signal transfer vanishes" in proc.stderr


def test_fig1_csv_layout(launch_cli, tmp_path):
    out = tmp_path / "curve.csv"
    proc = launch_cli("fig1", "--points", "16", "--out", str(out))
    assert proc.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "axis,r,phi_opt,signal,noise,f_min,f_sql"
    assert len(lines) == 1 + 16 * 3
    first = lines[1].split(",")
    assert len(first) == 7
    assert float(first[0]) == pytest.approx(0.05)
    assert float(lines[-1].split(",")[0]) == pytest.approx(2 * PI)


def test_fig1_without_sql_emits_nan(launch_cli, tmp_path):
    out = tmp_path / "curve.csv"
    proc = launch_cli("fig1", "--points", "4", "--no-include-sql", "--out", str(out))
    assert proc.returncode == 0
    for line in out.read_text().splitlines()[1:]:
        assert line.split(",")[-1] == "nan"


def test_fig2_is_log_spaced(launch_cli, tmp_path):
    out = tmp_path / "curve.csv"
    proc = launch_cli("fig2", "--points", "5", "--r-list", "1", "--out", str(out))
    assert proc.returncode == 0
    axis = [float(l.split(",")[0]) for l in out.read_text().splitlines()[1:]]
    ratios = [b / a for a, b in zip(axis, axis[1:])]
    assert max(ratios) - min(ratios) < 1e-9
    assert axis[0] == pytest.approx(0.05) and axis[-1] == pytest.approx(5.0)


@pytest.mark.parametrize("sql", ["--include-sql", "--no-include-sql"])
@pytest.mark.parametrize("fig", ["fig1", "fig2"])
def test_fig1_gnuplot_script(launch_cli, tmp_path, fig, sql):
    out = tmp_path / "it's curve.csv"
    script = tmp_path / "curve.gp"
    proc = launch_cli(
        fig, "--points", "4", "--r-list", "1.2345678,2", "--out", str(out),
        "--gnuplot", str(script), sql,
    )
    assert proc.returncode == 0
    head, tail = script.read_text().split("plot \\\n", 1)
    axis = "kappa" if fig == "fig2" else "tau_scaled"
    assert f"set xlabel '{axis}'" in head.splitlines()
    assert ("set logscale x" in head.splitlines()) == (fig == "fig2")
    quoted = "'" + str(out).replace("'", "''") + "'"
    plots = [l.strip(" ,\\") for l in tail.splitlines()]
    assert all(l.startswith(quoted + " using 1:") for l in plots)
    pattern = r" using 1:\(\$(\d+)==([^?]+)\?\$(\d+):1/0\) with lines (.*)"
    curves = [re.fullmatch(pattern, l[len(quoted):]) for l in plots]
    # the columns are those of r, f_min and f_sql in the header this run wrote
    lines = out.read_text().splitlines()
    column = {name: str(i + 1) for i, name in enumerate(lines[0].split(","))}
    r, f_min, f_sql = column["r"], column["f_min"], column["f_sql"]
    want = [
        (r, "1.2345678", f_min, "title 'r=1.2345678'"),
        (r, "2", f_min, "title 'r=2'"),
    ]
    if sql == "--include-sql":  # the SQL curve is read off the first ratio's rows
        want.append((r, "1.2345678", f_sql, "dashtype 2 title 'SQL'"))
    assert [c.groups() if c else None for c in curves] == want
    # every filter literal is the r text of some CSV row, so no curve comes out empty
    assert {"1.2345678", "2"} <= {line.split(",")[1] for line in lines[1:]}


@pytest.mark.parametrize(
    "args",
    [
        ("fig1", "--gnuplot", "fig1.csv"),
        ("fig2", "--gnuplot", "./fig2.csv"),
        ("fig1", "--out", "a.csv", "--gnuplot", "{tmp}/a.csv"),
        ("fig1", "--config", "run.cfg", "--out", "run.cfg"),
        ("fmin", "--config", "run.cfg", "--out", "{tmp}/run.cfg"),
        ("fig1", "--config", "run.cfg", "--gnuplot", "./run.cfg"),
        ("TWINPROBE_CONFIG=run.cfg", "fig2", "--out", "run.cfg"),
        ("fig1", "--config", "fig1.csv"),
    ],
)
def test_gnuplot_onto_the_csv_is_config_error(launch_cli, tmp_path, args):
    # No output may land on the config file or on another output.  A
    # NAME=value word sets an environment variable, as in the shell.
    words = [a.format(tmp=tmp_path) for a in args]
    env = dict(w.split("=", 1) for w in words if "=" in w)
    words = [w for w in words if "=" not in w]
    config = env.get("TWINPROBE_CONFIG") or dict(zip(words, words[1:])).get("--config")
    text = b"kappa = 1.5\n"
    if config:
        (tmp_path / config).write_bytes(text)
    proc = launch_cli(*words, "--points", "4", env_extra=env)
    assert proc.returncode == 2
    key = "gnuplot" if "--gnuplot" in words else "out"
    assert proc.stderr.startswith(f"config error: {key} ")
    assert f"would overwrite the {'config file' if config else 'CSV'} " in proc.stderr
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == ([tmp_path / config] if config else [])
    if config:
        assert (tmp_path / config).read_bytes() == text


@pytest.mark.parametrize(
    "args, key",
    [
        (("fig1", "--points", "4", "--out", "{bad}/x.csv"), "out"),
        (("fmin", "--out", "{bad}/x.csv"), "out"),
        (("fig1", "--points", "4", "--out", "{tmp}/x.csv", "--gnuplot", "{bad}/x.gp"), "gnuplot"),
        (("fig1", "--points", "3000", "--jobs", "2", "--out", "{bad}/x.csv"), "out"),
    ],
)
def test_unwritable_output_is_config_error(launch_cli, monkeypatch, tmp_path, args, key):
    fork_on_any_host(monkeypatch)
    bad = tmp_path / "no" / "such" / "dir"
    proc = launch_cli(*(a.format(bad=bad, tmp=tmp_path) for a in args))
    assert proc.returncode == 2
    assert f"config error: cannot write {key} {bad}/x." in proc.stderr
    assert "Traceback" not in proc.stderr
    # every output is written before the command prints
    assert proc.stdout == ""
    assert_no_child_process()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_device_is_config_error(launch_cli, monkeypatch):
    # the write fails while a worker formats its blocks
    fork_on_any_host(monkeypatch)
    proc = launch_cli("fig1", "--points", "20000", "--jobs", "2", "--out", "/dev/full")
    assert proc == (2, "", "config error: cannot write out /dev/full: No space left on device\n")
    assert_no_child_process()


def fork_on_any_host(monkeypatch):
    """Let ``--jobs`` fork its workers in this process, whatever the host.

    The CPU affinity is pinned above every ``--jobs`` the tests give.  The
    thread count is real: the OpenBLAS pin of ``conftest`` leaves this
    process one thread, as it leaves a command line process.
    """
    if os.path.isdir("/proc/self/task"):
        assert _csv._threads() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))


def assert_no_child_process():
    """No worker of the CSV writer is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_csv_determinism(launch_cli, monkeypatch, tmp_path):
    def csv(*args):
        out = tmp_path / "out.csv"
        code, stdout, err = launch_cli(*args, "--points", "5000", "--out", str(out))
        assert (code, stdout, err) == (0, f"wrote 15000 rows to {out}\n", "")
        assert_no_child_process()
        return out.read_bytes()

    # 5000 points and three ratios make four blocks: --jobs 2 gives the worker
    # two of them, and --jobs 7 exceeds the block count
    fork_on_any_host(monkeypatch)
    for fig in ("fig1", "fig2"):
        for extra in ((), ("--no-include-sql",), ("--signal-variant", "printed")):
            blobs = {csv(fig, "--jobs", jobs, *extra) for jobs in ("1", "2", "3", "7")}
            assert len(blobs) == 1
    assert launch_cli("fig1", "--jobs", "0") == (2, "", "config error: jobs must be at least 1, got 0\n")
    assert not (tmp_path / "fig1.csv").exists()
    # a worker that exits before sending, or a fork that fails, leaves its blocks to this process
    want = csv("fig1")
    monkeypatch.setattr(_csv, "_send_blocks", lambda *args: os._exit(1))
    assert csv("fig1", "--jobs", "3") == want

    def failed_fork():
        raise OSError("fork failed")

    monkeypatch.setattr(os, "fork", failed_fork)
    assert csv("fig1", "--jobs", "3") == want
    # with one CPU, --jobs 4 forks no worker
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked a worker with one CPU"))
    assert csv("fig1", "--jobs", "4") == want


def test_jobs_stay_serial_beside_another_thread(launch_cli, monkeypatch, tmp_path):
    # a fork would copy a lock this thread holds; the CPU affinity alone allows one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    out = tmp_path / "out.csv"
    assert launch_cli("fig1", "--points", "5000", "--out", str(out)).returncode == 0
    want = out.read_bytes()
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside another thread"))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        proc = launch_cli("fig1", "--points", "5000", "--jobs", "2", "--out", str(out))
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert proc == (0, f"wrote 15000 rows to {out}\n", "")
    assert out.read_bytes() == want
    assert_no_child_process()


def test_config_file_env_flag_precedence(launch_cli, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kappa = 2.0\ntau-scaled = 1.0  # dashes map to underscores\n")
    base = launch_cli("dump-config", "--config", str(cfg))
    assert base.returncode == 0
    assert stdout_value(base, "kappa") == 2.0
    assert stdout_value(base, "tau_scaled") == 1.0
    env = launch_cli("dump-config", "--config", str(cfg), env_extra={"TWINPROBE_KAPPA": "3"})
    assert stdout_value(env, "kappa") == 3.0
    flag = launch_cli(
        "dump-config", "--config", str(cfg), "--kappa", "4",
        env_extra={"TWINPROBE_KAPPA": "3"},
    )
    assert stdout_value(flag, "kappa") == 4.0


def test_config_file_with_a_byte_order_mark(launch_cli, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kappa = 2.0\n", encoding="utf-8-sig")
    proc = launch_cli("dump-config", "--config", str(cfg))
    assert proc.returncode == 0
    assert stdout_value(proc, "kappa") == 2.0


def test_config_file_via_environment(launch_cli, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_th = 7\n")
    proc = launch_cli("dump-config", env_extra={"TWINPROBE_CONFIG": str(cfg)})
    assert proc.returncode == 0
    assert stdout_value(proc, "n_th") == 7.0


def test_unknown_config_key_rejected(launch_cli, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("warp_factor = 9\n")
    proc = launch_cli("dump-config", "--config", str(cfg))
    assert proc.returncode == 2
    assert "unknown key" in proc.stderr


def test_malformed_config_line_rejected(launch_cli, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kappa\n")
    proc = launch_cli("dump-config", "--config", str(cfg))
    assert proc.returncode == 2


def test_unknown_environment_variable_rejected(launch_cli):
    proc = launch_cli("dump-config", env_extra={"TWINPROBE_WARP": "9"})
    assert proc.returncode == 2
    assert "unknown environment variable" in proc.stderr


def test_config_path_variable_is_case_folded(launch_cli, tmp_path):
    # like every other TWINPROBE_* name; a --config flag still wins
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kappa = 3\n")
    proc = launch_cli("dump-config", env_extra={"TWINPROBE_config": str(cfg)})
    assert (proc.returncode, stdout_value(proc, "kappa")) == (0, 3.0)
    other = tmp_path / "other.cfg"
    other.write_text("kappa = 4\n")
    proc = launch_cli(
        "dump-config", "--config", str(other), env_extra={"TWINPROBE_Config": str(cfg)}
    )
    assert (proc.returncode, stdout_value(proc, "kappa")) == (0, 4.0)
    # the file so named is the config file no output may overwrite
    proc = launch_cli("fmin", "--out", str(cfg), env_extra={"TWINPROBE_config": str(cfg)})
    assert proc.returncode == 2
    assert proc.stderr == f"config error: out {cfg} would overwrite the config file {cfg}\n"
    assert cfg.read_text() == "kappa = 3\n"


def test_dump_config_round_trips(launch_cli, tmp_path):
    first = launch_cli("dump-config", "--kappa", "2.5", "--n-th", "3")
    assert first.returncode == 0
    cfg = tmp_path / "dumped.cfg"
    cfg.write_text(first.stdout)
    second = launch_cli("dump-config", "--config", str(cfg))
    assert second.stdout == first.stdout


def test_a_value_dump_config_refuses_is_taken_as_given(launch_cli, tmp_path):
    proc = launch_cli("fmin", "--out", "run#1.csv")
    assert proc.returncode == 0
    assert proc.stdout.endswith("wrote 1 row to run#1.csv\n")
    assert (tmp_path / "run#1.csv").read_text().startswith("axis,")


# one non-default value per RunConfig field, in field order, as dump-config prints it
NON_DEFAULT = {
    "omega": "2.0",
    "coupling_chi": "1.5",
    "g_opt": "0.25",
    "beta_abs": "3.0",
    "delta": "100.0",
    "r": "4.0",
    "temperature": "0.5",
    "hbar_over_kb": "2.0",
    "n_th": "3.0",
    "gamma_mech": "1e-06",
    "kappa": "2.5",
    "tau_scaled": "1.0",
    "phi": "0.3",
    "signal_variant": "printed",
    "r_list": "1,5",
    "points": "64",
    "axis_lo": "0.1",
    "axis_hi": "3.0",
    "include_sql": "false",
    "out": "curve.csv",
    "tolerance": "1e-08",
    "include_printed_signal": "true",
    "full_model": "true",
    "jobs": "2",
    "step": "0.01",
    "gnuplot": "curve.gp",
}


def test_every_setting_reaches_config_file_env_and_flag(launch_cli, tmp_path):
    assert list(NON_DEFAULT) == list(RunConfig._fields)
    text = "".join(f"{key} = {value}\n" for key, value in NON_DEFAULT.items())
    cfg = tmp_path / "all.cfg"
    cfg.write_text(text)
    assert launch_cli("dump-config", "--config", str(cfg)).stdout == text
    env = {f"TWINPROBE_{key.upper()}": value for key, value in NON_DEFAULT.items()}
    assert launch_cli("dump-config", env_extra=env).stdout == text
    flags = []
    for key, value in NON_DEFAULT.items():
        flag = "--" + key.replace("_", "-")
        if value in ("true", "false"):
            flags.append(flag if value == "true" else "--no-" + flag[2:])
        else:
            flags.append(f"{flag}={value}")
    assert launch_cli("dump-config", *flags).stdout == text
    usage = launch_cli("dump-config", "--help").stdout
    for key in NON_DEFAULT:
        assert "--" + key.replace("_", "-") + " " in usage


def printed_numbers(text):
    for word in text.split():
        try:
            yield float(word)
        except ValueError:
            pass


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    command=st.sampled_from(
        [("fmin",), ("optimize-kappa",), ("budget",), ("entangle", "--r=2"), ("dump-config",)]
    ),
    row=st.sampled_from([row for row in _SETTINGS if row[2] in (float, int)]),
    value=st.sampled_from(
        ["default", "typical", "0", "-1", "1e-320", "1e-300", "1e300", "-1e300"]
    ),
    where=st.sampled_from(["flag", "env", "file"]),
)
def test_scalar_setting_exits_0_2_or_3(launch_cli, tmp_path, command, row, value, where):
    # one numeric setting at an edge of its range: the command answers, or
    # refuses it as a configuration error (2) or as a domain error (3)
    key, default = row[:2]
    text = {"default": default, "typical": NON_DEFAULT[key]}.get(value, value)
    args, env = list(command), {}
    if text is None:  # a setting whose default is unset stays unset
        pass
    elif where == "flag":  # --name=value, as argparse reads -1e300 as an option
        args.append(f"--{key.replace('_', '-')}={text}")
    elif where == "env":
        env[f"TWINPROBE_{key.upper()}"] = str(text)
    else:
        (tmp_path / "audit.cfg").write_text(f"{key} = {text}\n")
        args += ["--config", "audit.cfg"]
    proc = launch_cli(*args, env_extra=env)
    if proc.returncode == 0:
        shown = proc.stdout.replace("coherence budget = inf\n", "")
        assert all(map(math.isfinite, printed_numbers(shown))), proc.stdout
    elif proc.returncode == 2:
        assert proc.stderr.startswith(("config error:", "usage: twinprobe")), proc.stderr
    else:
        assert proc.returncode == 3, proc
        assert proc.stderr.startswith("domain error:"), proc.stderr


# each setting with a row in the domain table, --r under its quantity's row
BOUNDED = [row[0] for row in _SETTINGS if row[0] in DOMAINS] + ["r"]


def bound_edges(key):
    """The least value of ``key``'s domain row, just inside it and just outside it."""
    least = DOMAINS["squeeze ratio" if key == "r" else key][0]
    if isinstance(least, int):  # a count
        return least, least + 1, least - 1
    return least, math.nextafter(least, math.inf), math.nextafter(least, -math.inf)


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    command=st.sampled_from(["fig1", "fig2", "entangle"]),
    key=st.sampled_from(BOUNDED),
    edge=st.sampled_from([0, 1, 2]),
    in_file=st.booleans(),
    points=st.sampled_from([3, 4]),
    include_sql=st.booleans(),
    step=st.sampled_from([None, 1e-9, 0.01, 1.0]),
    delta=st.sampled_from([1.0, 100.0, 1e7, 1e300]),
    out=st.sampled_from([None, "a.csv", "b.csv", "run.cfg"]),
    gnuplot=st.sampled_from([None, None, "p.gp", "a.csv", "run.cfg"]),
)
def test_sweep_and_full_model_exit_0_2_or_3_at_each_bound(
    launch_cli, tmp_path, command, key, edge, in_file, points, include_sql, step, delta, out,
    gnuplot,
):
    # one bounded setting at, just inside or just outside its declared bound,
    # as a flag or from the config file; the other settings stay ordinary
    for path in tmp_path.iterdir():  # the files of the previous example
        path.unlink()
    value = bound_edges(key)[edge]
    if key == "r" and command != "entangle":
        key, value = "r_list", f"{value!r},2"  # a sweep reads its ratios from --r-list
    values = {"points": points, "include_sql": str(include_sql).lower(), key: value}
    args = [command, "--config", "run.cfg"]
    if command == "entangle":
        args += ["--full-model", f"--delta={delta!r}"] + (["--r=2"] if key != "r" else [])
        args += [f"--step={step!r}"] if step is not None else []
    args += [f"--{name}={path}" for name, path in (("out", out), ("gnuplot", gnuplot)) if path]
    if not in_file:
        args.append(f"--{key.replace('_', '-')}={values.pop(key)}")
    config = "".join(f"{name} = {text}\n" for name, text in values.items())
    (tmp_path / "run.cfg").write_text(config)
    started = time.perf_counter()
    proc = launch_cli(*args)
    assert time.perf_counter() - started < 5.0
    assert (tmp_path / "run.cfg").read_text() == config  # no output overwrites the input
    if proc.returncode == 2:
        assert proc.stderr.startswith(("config error:", "usage: twinprobe")), proc.stderr
        return
    if proc.returncode == 3:
        assert proc.stderr.startswith("domain error:"), proc.stderr
        return
    assert proc.returncode == 0, proc
    if command == "entangle":
        assert all(map(math.isfinite, printed_numbers(proc.stdout))), proc.stdout
        assert sorted(path.name for path in tmp_path.iterdir()) == ["run.cfg"]
        return
    # the CSV is neither the config file nor overwritten by the gnuplot script
    lines = (tmp_path / (out or f"{command}.csv")).read_text().splitlines()
    assert lines[0] == "axis,r,phi_opt,signal,noise,f_min,f_sql"
    assert len(lines) == 1 + (value if key == "points" else points) * (2 if key == "r_list" else 3)
    for line in lines[1:]:
        fields = [float(field) for field in line.split(",")]
        assert all(map(math.isfinite, fields if include_sql else fields[:-1])), line
        assert include_sql or math.isnan(fields[-1])
    if gnuplot:
        assert (tmp_path / gnuplot).read_text().startswith("set datafile separator")


def cap_draws():
    """(flags, refusal or None) at, just inside and just outside each ``MAX_*`` cap.

    The caps have no row in the domain table; ``merge_config`` applies them
    to every command.  A refusal is the text after ``config error: ``.
    """
    cap, rows, scale = _commands.MAX_POINTS, _commands.MAX_ROWS, _commands.MAX_SCALE
    draws = [
        (("--points", str(cap)), None),
        (("--points", str(cap - 1)), None),
        (("--points", str(cap + 1)), f"points must be at most {cap}, got {cap + 1}"),
    ]
    # points x ratios at the row cap, just under it, and one row over it
    # (11 ratios x 909091 points)
    ratios = rows // cap
    for count, n in ((ratios, cap), (ratios, cap - 1), (ratios + 1, rows // (ratios + 1) + 1)):
        refusal = f"points * len(r_list) must be at most {rows}, got {n} * {count}"
        flags = ("--points", str(n), "--r-list", ",".join(["2"] * count))
        draws.append((flags, refusal if n * count > rows else None))
    above = math.nextafter(scale, math.inf)
    too_large = f"must be at most {scale:g} in magnitude, got "
    for value in (scale, math.nextafter(scale, 0), -scale, above, -above):
        for flag, text in (("r", value), ("kappa", value), ("r-list", f"2,{value!r}")):
            key = "r_list entries" if flag == "r-list" else flag
            refusal = f"{key} {too_large}{text!r}" if abs(value) > scale else None
            draws.append(((f"--{flag}={text}",), refusal))
    return draws


@pytest.mark.parametrize(
    "flags, refusal",
    cap_draws(),
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else ("refused" if v else "accepted"),
)
def test_caps_exit_0_inside_and_2_outside(launch_cli, tmp_path, flags, refusal):
    # inside a cap, dump-config runs the checks of every command without
    # writing a sweep; outside it, a sweep refuses before writing anything
    if refusal is None:
        assert launch_cli("dump-config", *flags).returncode == 0
        return
    for command in ("dump-config", "fig1"):
        assert launch_cli(command, *flags) == (2, "", f"config error: {refusal}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args, env, cfg_text, key",
    [
        pytest.param(("fmin", "--kappa", "nan"), None, None, "kappa", id="kappa"),
        pytest.param(("fmin", "--r", "nan"), None, None, "r", id="r"),
        pytest.param(("fmin", "--n-th", "inf"), None, None, "n_th", id="n_th"),
        pytest.param(
            ("fmin", "--tau-scaled", "inf"), None, None, "tau_scaled", id="tau_scaled"
        ),
        pytest.param(("fmin", "--phi", "nan"), None, None, "phi", id="phi"),
        pytest.param(
            ("budget", "--gamma-mech", "nan"), None, None, "gamma_mech", id="gamma_mech"
        ),
        pytest.param(("fig2", "--r-list", "1,nan"), None, None, "r_list", id="r_list"),
        pytest.param(
            ("dump-config", "--r-list", "1,nan"), None, None, "r_list", id="dump-config-r_list"
        ),
        pytest.param(("entangle", "--r", "inf"), None, None, "r", id="entangle-r"),
        pytest.param(("fmin",), {"TWINPROBE_KAPPA": "nan"}, None, "kappa", id="env"),
        pytest.param(("fmin",), None, "n_th = inf\n", "n_th", id="config-file"),
    ],
)
def test_non_finite_setting_is_config_error(launch_cli, tmp_path, args, env, cfg_text, key):
    if cfg_text is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(cfg_text)
        args = (*args, "--config", str(cfg))
    proc = launch_cli(*args, "--out", str(tmp_path / "out.csv"), env_extra=env)
    assert proc.returncode == 2
    assert f"config error: {key} " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_domain_error_exit_codes(launch_cli):
    proc = launch_cli("entangle", "--coupling-chi", "-0.9")
    assert proc.returncode == 3
    assert "domain error" in proc.stderr
    proc = launch_cli("entangle", "--coupling-chi", "-0.5")
    assert proc.returncode == 3
    assert proc.stderr == "domain error: relative mode unstable: omega + 2*coupling = 0.0\n"
    proc = launch_cli("fmin", "--tau-scaled", "0")
    assert proc.returncode == 3


@pytest.mark.parametrize(
    "args, quantity",
    [
        (("entangle", "--coupling-chi", "1e308"), "squeeze ratio"),
        (("entangle", "--g-opt", "1e200", "--beta-abs", "1e200", "--delta", "1"), "squeeze ratio"),
        (("entangle", "--g-opt", "1e100", "--beta-abs", "1e100", "--delta", "1"), "squeeze ratio"),
        (("entangle", "--omega", "1e-300", "--coupling-chi", "1e300"), "squeeze ratio squared"),
        (("entangle", "--r", "1e50", "--n-th", "1e300"), "variance product"),
        (("entangle", "--coupling-chi", "5e199", "--n-th", "1e150"), "switch-off covariance"),
        (("budget", "--omega", "1e-320"), "rotation time"),
        (("budget", "--omega", "1e-300", "--tau-scaled", "1e10", "--phi", "0"), "force time"),
        (("fmin", "--temperature", "1e300", "--omega", "1e-300"), "thermal occupation"),
        (("budget", "--temperature", "0.5", "--hbar-over-kb", "1e-310"), "thermal occupation"),
    ],
)
def test_overflowing_quantity_is_domain_error(launch_cli, args, quantity):
    proc = launch_cli(*args)
    assert proc.returncode == 3
    assert proc.stderr.startswith(f"domain error: {quantity} is beyond the float range")
    assert proc.stdout == ""


def test_missing_entangler_parameters_is_config_error(launch_cli):
    proc = launch_cli("entangle")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (("fmin", "--kappa", "abc"), "argument --kappa: invalid float value"),
        (("frobnicate",), "invalid choice"),
        ((), "arguments are required"),
    ],
)
def test_argparse_error_exits_2(launch_cli, args, message):
    proc = launch_cli(*args)
    assert proc.returncode == 2
    assert message in proc.stderr
    assert proc.stderr.startswith("usage: twinprobe")
    assert proc.stdout == ""


def test_verify_passes_and_tight_tolerance_fails(launch_cli):
    code, out, _ = launch_cli("verify")
    assert code == 0
    assert "VERIFY: pass" in out
    code, out, _ = launch_cli("verify", "--tolerance", "1e-14")
    assert code == 4
    assert "VERIFY: FAIL" in out
    # no check can pass a tolerance that is not positive
    for tolerance in ("0", "-1"):
        refused = launch_cli("verify", "--tolerance", tolerance)
        want = f"config error: tolerance must be positive, got {float(tolerance)}\n"
        assert refused == (2, "", want)


def test_verify_printed_signal_is_informational_only(launch_cli):
    code, out, _ = launch_cli("verify", "--include-printed-signal")
    assert code == 0
    assert "readout-signal-printed" in out
    assert "informational" in out
    assert "VERIFY: pass" in out


def test_budget_feasibility_examples(launch_cli):
    proc = launch_cli(
        "budget", "--gamma-mech", "1e-6", "--n-th", "20",
        "--phi", repr(PI / 4), "--tau-scaled", repr(PI / 2),
    )
    assert proc.returncode == 0
    assert stdout_value(proc, "coherence budget") == pytest.approx(5e4)
    assert stdout_value(proc, "time used") == pytest.approx(3 * PI / 4)
    assert "feasible = yes" in proc.stdout
    proc = launch_cli(
        "budget", "--gamma-mech", "0.1", "--n-th", "20",
        "--phi", repr(PI / 4), "--tau-scaled", repr(PI / 2),
    )
    assert "feasible = no" in proc.stdout


def test_temperature_overrides_occupation(launch_cli):
    proc = launch_cli("fmin", "--temperature", "0.5", "--omega", "1")
    assert proc.returncode == 0
    assert stdout_value(proc, "n_th") == pytest.approx(1.15651764274966565, rel=1e-9)


def test_console_script_names_cli_main(launch_cli, monkeypatch, capsys):
    # launch_cli is requested for its clean environment; the entry point is
    # called as the installed script calls it, with the words in sys.argv.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["twinprobe"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert entry is cli.main
    monkeypatch.setattr(sys, "argv", ["twinprobe", "fmin", "--tau-scaled", "1.0"])
    assert entry() == 0
    assert "f_min = " in capsys.readouterr().out


@pytest.mark.skipif(shutil.which("twinprobe") is None, reason="script not on PATH")
def test_console_script_entry_point():
    proc = subprocess.run(
        ["twinprobe", "fmin", "--tau-scaled", "1.0"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "f_min" in proc.stdout


# The commands that print, each with a stdout whose reader is gone; fig1
# prints after it has written its CSV.
CLOSED_STDOUT_ARGVS = [
    ["fmin"],
    ["verify"],
    ["entangle", "--r", "2"],
    ["budget"],
    ["optimize-kappa"],
    ["dump-config"],
    ["fig1", "--points", "4", "--out", "x.csv"],
    ["--help"],
]


@pytest.mark.parametrize("argv", CLOSED_STDOUT_ARGVS, ids=" ".join)
def test_closed_stdout_ends_quietly(tmp_path, argv):
    # The reader is closed before the start, so every write to stdout fails.
    # A buffered stdout fails at the last flush, an unbuffered one at the
    # first print; the two processes run at once, each in its own directory.
    read, write = os.pipe()
    os.close(read)
    procs = {}
    try:
        for mode in ("buffered", "unbuffered"):
            env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
            env.pop("PYTHONUNBUFFERED", None)
            if mode == "unbuffered":
                env["PYTHONUNBUFFERED"] = "1"
            (tmp_path / mode).mkdir()
            procs[mode] = subprocess.Popen(
                [sys.executable, "-m", "twinprobe.cli", *argv],
                stdout=write, stderr=subprocess.PIPE, text=True, env=env, cwd=tmp_path / mode,
            )
    finally:
        os.close(write)
    for mode, proc in procs.items():
        _, err = proc.communicate(timeout=60)
        # --help keeps argparse's exit 0
        assert (mode, proc.returncode, err) == (mode, 0 if argv == ["--help"] else 1, "")
        if argv[0] == "fig1":
            assert (tmp_path / mode / "x.csv").read_text().count("\n") == 1 + 4 * 3


B = _csv.BLOCK_ROWS
CSV_FIELDS = ("ratio", "phi", "signal", "noise", "f_min", "f_sql")


def one_shot_csv(axis, columns):
    """The CSV text as a single join of every row, the writer's reference."""
    shape = np.broadcast_shapes(*(np.shape(columns[name]) for name in (axis, *CSV_FIELDS)))
    flat = [np.broadcast_to(columns[name], shape).ravel().tolist() for name in (axis, *CSV_FIELDS)]
    row_format = ",".join(["%.12g"] * len(flat))
    lines = ["axis,r,phi_opt,signal,noise,f_min,f_sql"]
    lines += [row_format % values for values in zip(*flat)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def edge_value_columns(points, axis, include_sql):
    """Columns of every shape the writer takes, holding the values it can get wrong.

    Two ratios, so a block holds B // 2 points; the per-row columns change
    on the ratio axis and the others repeat along it.
    """
    rng = np.random.default_rng(20)
    nan_payload = np.array([0x7FF8000000000001], np.uint64).view(np.float64)[0]
    specials = [0.0, -0.0, math.nan, -math.nan, nan_payload, math.inf, -math.inf,
                5e-324, -2.5e-310, 1e300, -1e300]
    noise = np.linspace(1.0, 2.0, 2 * points).reshape(points, 2)
    # one value far apart and on both sides of the first block boundary
    noise.flat[[0, B - 1, B, 2 * points - 1]] = 1.0 / 3.0
    return {
        axis: (0.05 + 0.1 * np.arange(points))[:, None],  # every value distinct
        "ratio": np.array([[2.5, nan_payload]]),
        "phi": np.resize([0.0, -0.0], (points, 1)),
        "signal": rng.choice(specials, (points, 1)),
        "noise": noise,
        "f_min": rng.choice([1.0 / 3.0, 2.0 / 3.0, PI, 1e-7, 123456.789], (points, 2)),
        "f_sql": rng.uniform(1.0, 2.0, (points, 1)) if include_sql else np.array(math.nan),
    }


def every_exponent_columns(axis, include_sql):
    """Columns holding 5000 doubles of every binary exponent, and ``%.12g`` ties.

    The values are built from bits: ±0, ±inf and three 13-digit ties that
    ``%.12g`` rounds half-even, then 32 NaN payloads and 32 subnormals, then
    each of the 2048 biased exponents, all with random signs and mantissas.
    Each value goes to a per-row column, formatted by ``%.12g`` in the row,
    and to a per-point one, whose text goes in by ``%s``.
    """
    rng = np.random.default_rng(37)
    every = rng.permutation(np.resize(np.arange(2048), 4927))
    exponents = np.concatenate([np.zeros(9), np.full(32, 2047), np.zeros(32), every])
    exponents = exponents.astype(np.uint64)
    signs = rng.integers(0, 2, 5000, dtype=np.uint64)
    mantissas = rng.integers(1, 2**52, 5000, dtype=np.uint64)
    values = (signs << np.uint64(63) | exponents << np.uint64(52) | mantissas).view(np.float64)
    ties = [1234567890125.0, 1234567890135.0, 1234567890.125]
    values[:9] = [0.0, -0.0, math.inf, -math.inf, *ties, *(-v for v in ties[:2])]
    return {
        axis: values[::2, None],
        "ratio": np.array([[ties[2], values[9]]]),
        "phi": values[:2500, None],
        "signal": values[2500:, None],
        "noise": values.reshape(2500, 2),
        "f_min": values[::-1].reshape(2500, 2),
        "f_sql": values[1::2, None] if include_sql else np.array(math.nan),
    }


@pytest.mark.parametrize("include_sql", [True, False])
@pytest.mark.parametrize("axis", ["tau_scaled", "kappa"])
@pytest.mark.parametrize("case", [1, B - 1, B, B + 1, 3 * B + 7, "edge_values", "every_exponent"])
def test_csv_block_writer_matches_one_shot_join(tmp_path, case, axis, include_sql):
    if case == "edge_values":
        layouts = [edge_value_columns(B + 2, axis, include_sql)]
    elif case == "every_exponent":
        layouts = [every_exponent_columns(axis, include_sql)]
    else:
        # one row per point with its own ratio, and the sweep's points x three ratios
        n = case
        grid = np.linspace(0.05, 2 * PI, n)[:, None] if n > 1 else np.array([[1.2]])
        tau = grid if axis == "tau_scaled" else PI / 2
        kappa = grid if axis == "kappa" else 0.8
        ratios = (np.resize([1.0, 2.5, 10.0], (n, 1)), np.array([[1.0, 2.5, 10.0]]))
        layouts = [
            fmin_columns(tau, kappa, ratio, 20.0, phi_opt(tau), include_sql=include_sql)
            for ratio in ratios
        ]
    for columns in layouts:
        out = tmp_path / "rows.csv"
        _commands._write_csv(str(out), axis, columns)
        assert out.read_bytes() == one_shot_csv(axis, columns)
    if case == "every_exponent":
        # the 13-digit ties round half-even
        ties = (b"1.23456789012e+12,", b"1.23456789014e+12,", b"1234567890.12,")
        assert all(tie in out.read_bytes() for tie in ties)


@pytest.mark.parametrize("fig", ["fig1", "fig2"])
def test_forked_csv_at_the_bench_size_matches_one_shot_join(
    launch_cli, monkeypatch, tmp_path, fig
):
    # 20 000 points and three ratios make 15 blocks, split between this
    # process and one worker
    fork_on_any_host(monkeypatch)
    out = tmp_path / "out.csv"
    args = ("--points", "20000", "--r-list", "1.3,4.2,8.8", "--jobs", "2", "--out", str(out))
    proc = launch_cli(fig, *args)
    assert proc == (0, f"wrote 60000 rows to {out}\n", "")
    assert_no_child_process()
    spec = (fig1_spec if fig == "fig1" else fig2_spec)(points=20000, ratios=(1.3, 4.2, 8.8))
    assert out.read_bytes() == one_shot_csv(spec.axis, curve_columns(spec))


def test_csv_block_writer_memory_does_not_grow_with_rows(tmp_path):
    columns = curve_columns(fig1_spec(points=20000, ratios=(1.3, 4.2, 8.8)))
    out = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        _commands._write_csv(str(out), "tau_scaled", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The one-shot join peaked at ~21 MB here; one block of rows is ~2 MB.
    assert peak < 4e6
    assert out.read_bytes().count(b"\n") == 1 + 60000


@pytest.mark.parametrize(
    "args",
    [
        ("fig1", "--points", "1000001"),
        ("fig2", "--points", str(10**12)),
        ("dump-config", "--points", "1000001"),
    ],
)
def test_points_cap_is_config_error(launch_cli, tmp_path, args):
    tracemalloc.start()
    try:
        code, out, err = launch_cli(*args, "--out", str(tmp_path / "x.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "config error: points must be at most 1000000" in err
    assert out == "" and not (tmp_path / "x.csv").exists()
    assert peak < 1e6  # rejected before any grid is allocated


@pytest.mark.parametrize("points", ["1", "0", "-5"])
@pytest.mark.parametrize("command", ["dump-config", "fmin", "fig1"])
def test_too_few_points_is_config_error_for_every_command(launch_cli, tmp_path, command, points):
    proc = launch_cli(command, "--points", points)
    assert proc == (2, "", f"config error: points must be at least 2, got {points}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, unread", [("fig2", "--kappa=-1"), ("fig2", "--kappa=0"), ("fig1", "--tau-scaled=-1")]
)
def test_sweep_ignores_the_held_setting_its_axis_replaces(launch_cli, tmp_path, command, unread):
    # fig2 sweeps kappa and fig1 tau_scaled, so neither reads that setting's value
    assert launch_cli(command, "--out", "plain.csv").returncode == 0
    assert launch_cli(command, unread, "--out", "given.csv").returncode == 0
    assert (tmp_path / "given.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


# exit code and stderr of refusals that no other test reaches
REFUSALS = [
    (("fmin", "--signal-variant", "foo"), 2,
     "config error: signal_variant must be one of ('consistent', 'printed'), got 'foo'"),
    (("fmin", "--phi", "abc"), 2, "config error: phi must be 'opt' or a finite number, got 'abc'"),
    (("fig1", "--r-list", ","), 2, "config error: r_list is empty: ','"),
    (("fig1", "--r-list", "a,b"), 2,
     "config error: r_list must be comma-separated numbers, got 'a,b'"),
    (("entangle", "--g-opt", "1"), 2,
     "config error: raw coupling needs all of --g-opt, --beta-abs, --delta"),
    (("entangle", "--r", "2", "--omega", "0"), 2, "config error: omega must be positive, got 0.0"),
    (("fmin", "--r", "0.5"), 2, "config error: squeeze ratio must be >= 1, got 0.5"),
    (("fmin", "--n-th", "-1"), 2, "config error: n_th must be nonnegative, got -1.0"),
    (("fmin", "--tau-scaled", "-1"), 2, "config error: tau_scaled must be nonnegative, got -1.0"),
    (("budget", "--phi", "0.3", "--tau-scaled", "-1"), 2,
     "config error: tau must be nonnegative, got -1.0"),
    (("fig1", "--kappa", "-1"), 2, "config error: held kappa and tau_scaled must be positive"),
    (("fig1", "--n-th", "-1"), 2, "config error: n_th must be nonnegative, got -1.0"),
    (("fmin", "--config", "bad.cfg"), 2,
     "config error: bad.cfg: bad value for 'points': "
     "invalid literal for int() with base 10: 'abc'"),
    (("fmin", "--config", "missing.cfg"), 2,
     "config error: cannot read config file missing.cfg: "),
    (("TWINPROBE_INCLUDE_SQL=maybe", "fmin"), 2,
     "config error: TWINPROBE_INCLUDE_SQL: bad value for 'include_sql': not a boolean: 'maybe'"),
    (("TWINPROBE_KAPPA=2", "TWINPROBE_kappa=3", "dump-config"), 2,
     "config error: environment variables TWINPROBE_KAPPA and TWINPROBE_kappa both set 'kappa'"),
    (("TWINPROBE_CONFIG=bad.cfg", "TWINPROBE_config=bad.cfg", "dump-config"), 2,
     "config error: environment variables TWINPROBE_CONFIG and TWINPROBE_config both set "
     "'config'"),
    (("dump-config", "--out", "run#1.csv"), 2,
     "config error: out = 'run#1.csv' would not read back from a config file"),
    (("dump-config", "--gnuplot", " p.gp"), 2,
     "config error: gnuplot = ' p.gp' would not read back from a config file"),
    (("dump-config", "--out", "run.csv\t"), 2,
     "config error: out = 'run.csv\\t' would not read back from a config file"),
    (("dump-config", "--out", "a\nb.csv"), 2,
     "config error: out = 'a\\nb.csv' would not read back from a config file"),
    (("dump-config", "--gnuplot", "a\rb.gp"), 2,
     "config error: gnuplot = 'a\\rb.gp' would not read back from a config file"),
    (("dump-config", "--r-list", "1,2 "), 2,
     "config error: r_list = '1,2 ' would not read back from a config file"),
    (("entangle", "--coupling-chi", "-0.1"), 3,
     "domain error: coupling must not soften the relative mode: ratio 0.8944271909999159 < 1"),
]


@pytest.mark.parametrize("args, code, err", REFUSALS, ids=[" ".join(case[0]) for case in REFUSALS])
def test_refusals_print_their_text(launch_cli, tmp_path, args, code, err):
    # A NAME=value word sets an environment variable, as in the shell.
    (tmp_path / "bad.cfg").write_text("points = abc\n")
    env = dict(word.split("=", 1) for word in args if "=" in word)
    proc = launch_cli(*(word for word in args if "=" not in word), env_extra=env)
    assert (proc.returncode, proc.stdout) == (code, "")
    if "missing.cfg" in args:  # the rest is the operating system's text
        assert proc.stderr.startswith(err)
    else:
        assert proc.stderr == err + "\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "bad.cfg"]


def test_points_cap_accepts_the_cap(launch_cli):
    code, out, _ = launch_cli("dump-config", "--points", "1000000")
    assert code == 0 and "points = 1000000" in out
    # ten ratios at the points cap are the largest accepted row count
    ratios = ",".join(map(str, range(1, 11)))
    code, out, _ = launch_cli("dump-config", "--points", "1000000", "--r-list", ratios)
    assert code == 0 and f"r_list = {ratios}" in out


@pytest.mark.parametrize(
    "args, key",
    [
        (("entangle", "--r", "1e200"), "r"),
        (("fmin", "--r", "1e200"), "r"),
        (("fmin", "--kappa", "1e200"), "kappa"),
        (("optimize-kappa", "--r", "1e200"), "r"),
        (("fig1", "--points", "4", "--r-list", "1,1e200"), "r_list"),
        (("fig2", "--points", "4", "--kappa", "1e200"), "kappa"),
        (("fig1", "--points", "1000000", "--r-list", ",".join(map(str, range(1, 12)))), "points"),
    ],
)
def test_overflowing_setting_is_config_error(launch_cli, tmp_path, args, key):
    code, out, err = launch_cli(*args, "--out", str(tmp_path / "x.csv"))
    assert code == 2
    assert err.startswith(f"config error: {key} ")
    assert out == ""


@pytest.mark.parametrize(
    "args",
    [
        ("entangle", "--r", "1e50"),
        ("fmin", "--r", "1e50", "--kappa", "1e50"),
        ("optimize-kappa", "--r", "1e50"),
        ("fig1", "--points", "4", "--r-list", "1,1e50", "--kappa", "1e50"),
        ("fig2", "--points", "4", "--r-list", "1e50"),
    ],
)
def test_largest_accepted_scale_stays_finite(launch_cli, tmp_path, args):
    out_csv = tmp_path / "x.csv"
    code, out, err = launch_cli(*args, "--out", str(out_csv))
    assert code == 0 and err == ""
    text = out + (out_csv.read_text() if out_csv.exists() else "")
    assert "inf" not in text and "nan" not in text


@pytest.mark.parametrize(
    "args, printed",
    [
        (("fig1", "--n-th", "1e300", "--r-list", "1e50", "--points", "4"), {}),
        (("fmin", "--n-th", "1e308", "--r", "10"), {"noise": "4e+306"}),
        (
            ("optimize-kappa", "--tau-scaled", "1e300"),
            {"kappa_opt": "7.07106781187e-151", "f_min": "7.07106781187e-151"},
        ),
        (
            ("optimize-kappa", "--tau-scaled", "1e308"),
            {"kappa_opt": "7.07106781187e-155", "f_min": "7.07106781187e-155"},
        ),
    ],
    ids=["fig1-n-th", "fmin-n-th", "optimize-kappa-tau", "optimize-kappa-tau-1e308"],
)
def test_finite_result_near_the_float_limit(launch_cli, tmp_path, args, printed):
    # the true answer is finite, so no intermediate of the closed forms may overflow
    out_csv = tmp_path / "x.csv"
    code, out, err = launch_cli(*args, "--out", str(out_csv))
    assert code == 0 and err == ""
    lines = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
    assert {key: lines[key] for key in printed} == printed
    rows = out_csv.read_text().splitlines()[1:] if out_csv.exists() else []
    assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))
    assert all(math.isfinite(float(x)) for x in lines.values())


@pytest.mark.parametrize(
    "args, quantity",
    [
        (("fmin", "--tau-scaled", "1e300"), "noise"),
        (("fig1", "--axis-hi", "1e308", "--points", "4"), "signal"),
        (("fig2", "--axis-lo", "1e-320", "--points", "4"), "f_min"),
        (("fig1", "--axis-hi", "1e308", "--points", "4", "--jobs", "2"), "signal"),
        (("fig2", "--axis-lo", "1e-320", "--points", "3000", "--jobs", "2"), "f_min"),
        # kappa_opt above ~1.3e154: its square overflows inside the noise
        (("optimize-kappa", "--tau-scaled", "1e-103"), "noise"),
        (("optimize-kappa", "--tau-scaled", "3e-108"), "noise"),
        (("optimize-kappa", "--tau-scaled", "2.7e-103"), "noise"),
    ],
    ids=[
        "args2-noise", "args4-signal", "args5-f_min", "jobs2-signal", "jobs2-f_min",
        "optimize-kappa-tau-1e-103", "optimize-kappa-tau-3e-108", "optimize-kappa-tau-2.7e-103",
    ],
)
def test_non_finite_result_is_domain_error(launch_cli, tmp_path, args, quantity):
    out_csv = tmp_path / "x.csv"
    code, out, err = launch_cli(*args, "--out", str(out_csv))
    assert code == 3
    assert err.startswith(f"domain error: {quantity} is not finite ")
    assert out == "" and not out_csv.exists()
    assert_no_child_process()


@pytest.mark.parametrize("argv", [["--help"]] + [[name, "--help"] for name, *_ in cli._COMMANDS])
def test_parser_for_one_command_prints_the_same_help(capsys, argv):
    texts = []
    for parser in (cli.build_parser(), cli.build_parser(argv[0])):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and "usage: twinprobe" in texts[0]


# stdout, stderr and exit code of argvs whose texts list the subcommands or
# come from the top-level parser, as the parser with all eight printed them
PARSER_TEXTS = json.loads((Path(__file__).parent / "parser_texts.json").read_text())


@pytest.mark.parametrize("case", PARSER_TEXTS, ids=lambda case: " ".join(case["argv"]) or "none")
def test_parser_texts_match_the_pinned_ones(launch_cli, case):
    assert launch_cli(*case["argv"]) == (case["code"], case["stdout"], case["stderr"])


# each fenced text block of the README that shows a command and its output
README_RUNS = re.findall(
    r"^```text\n\$ (twinprobe .*?)\n(.*?)^```$",
    (Path(__file__).resolve().parents[1] / "README.md").read_text(),
    re.DOTALL | re.MULTILINE,
)


@pytest.mark.parametrize(
    "command, stdout", README_RUNS, ids=[command.split()[1] for command, _ in README_RUNS]
)
def test_readme_transcripts_match_the_cli(launch_cli, command, stdout):
    proc = launch_cli(*shlex.split(command)[1:])
    assert (proc.returncode, proc.stdout) == (0, stdout)


def test_main_registers_only_a_first_word_command(launch_cli, monkeypatch):
    real, registered = cli.build_parser, []

    def spy(*args, **kwargs):
        parser = real(*args, **kwargs)
        action = next(a for a in parser._actions if a.dest == "command")
        registered.append(list(action.choices))
        return parser

    monkeypatch.setattr(cli, "build_parser", spy)
    for argv in (["dump-config"], ["--bogus", "dump-config"], ["dmp-config"], ["--help"]):
        launch_cli(*argv)
    every = [name for name, *_ in cli._COMMANDS]
    assert registered == [["dump-config"], every, every, every]
