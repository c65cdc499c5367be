import math
import shutil
import subprocess
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from twinprobe import cli
from twinprobe.cli import RunConfig
from twinprobe.metrology import phi_opt
from twinprobe.sweep import fig1_spec, fmin_curve, fmin_points

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


@pytest.mark.parametrize("step", ["1e-320", "nan"])
def test_entangle_full_model_rejects_bad_step(launch_cli, step):
    proc = launch_cli("entangle", "--r", "2", "--full-model", f"--step={step}")
    assert proc.returncode == 2
    assert "config error: step" in proc.stderr
    assert "Traceback" not in proc.stderr


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


def test_fig1_gnuplot_script(launch_cli, tmp_path):
    out = tmp_path / "it's curve.csv"
    script = tmp_path / "curve.gp"
    proc = launch_cli(
        "fig1", "--points", "4", "--r-list", "1.2345678,2", "--out", str(out),
        "--gnuplot", str(script),
    )
    assert proc.returncode == 0
    text = script.read_text()
    quoted = "'" + str(out).replace("'", "''") + "'"
    plots = [l.strip(" ,\\") for l in text.split("plot \\\n", 1)[1].splitlines()]
    assert len(plots) == 3 and all(l.startswith(quoted + " using 1:") for l in plots)
    # every filter literal is the r text of some CSV row, so no curve comes out empty
    csv_ratios = {line.split(",")[1] for line in out.read_text().splitlines()[1:]}
    literals = [l.split("$2==", 1)[1].split("?", 1)[0] for l in plots]
    assert literals == ["1.2345678", "2", "1.2345678"]
    assert set(literals) <= csv_ratios
    assert "title 'r=1.2345678'" in plots[0]


@pytest.mark.parametrize(
    "args, key",
    [
        (("fig1", "--points", "4", "--out", "{bad}/x.csv"), "out"),
        (("fmin", "--out", "{bad}/x.csv"), "out"),
        (("fig1", "--points", "4", "--out", "{tmp}/x.csv", "--gnuplot", "{bad}/x.gp"), "gnuplot"),
    ],
)
def test_unwritable_output_is_config_error(launch_cli, tmp_path, args, key):
    bad = tmp_path / "no" / "such" / "dir"
    proc = launch_cli(*(a.format(bad=bad, tmp=tmp_path) for a in args))
    assert proc.returncode == 2
    assert f"config error: cannot write {key} {bad}/x." in proc.stderr
    assert "Traceback" not in proc.stderr


def test_csv_determinism(launch_cli, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert launch_cli("fig1", "--points", "32", "--out", str(a)).returncode == 0
    assert launch_cli("fig1", "--points", "32", "--jobs", "3", "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


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


def test_dump_config_round_trips(launch_cli, tmp_path):
    first = launch_cli("dump-config", "--kappa", "2.5", "--n-th", "3")
    assert first.returncode == 0
    cfg = tmp_path / "dumped.cfg"
    cfg.write_text(first.stdout)
    second = launch_cli("dump-config", "--config", str(cfg))
    assert second.stdout == first.stdout


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
    assert list(NON_DEFAULT) == [f.name for f in fields(RunConfig)]
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
    proc = launch_cli("fmin", "--tau-scaled", "0")
    assert proc.returncode == 3


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


@pytest.mark.skipif(shutil.which("twinprobe") is None, reason="script not on PATH")
def test_console_script_entry_point():
    proc = subprocess.run(
        ["twinprobe", "fmin", "--tau-scaled", "1.0"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "f_min" in proc.stdout


B = cli.CSV_BLOCK_ROWS


def one_shot_csv(axis, rows):
    """The CSV text as a single join of every row, the writer's reference."""
    columns = (rows[axis], rows.ratio, rows.phi, rows.signal, rows.noise, rows.f_min, rows.f_sql)
    row_format = ",".join(["%.12g"] * len(columns))
    lines = ["axis,r,phi_opt,signal,noise,f_min,f_sql"]
    lines += [row_format % values for values in zip(*(c.tolist() for c in columns))]
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("include_sql", [True, False])
@pytest.mark.parametrize("axis", ["tau_scaled", "kappa"])
@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 3 * B + 7])
def test_csv_block_writer_matches_one_shot_join(tmp_path, n, axis, include_sql):
    grid = np.linspace(0.05, 2 * PI, n) if n > 1 else np.array([1.2])
    tau = grid if axis == "tau_scaled" else PI / 2
    kappa = grid if axis == "kappa" else 0.8
    ratio = np.resize([1.0, 2.5, 10.0], n)
    rows = fmin_points(
        tau, kappa, ratio, 20.0, phi_opt(tau), include_sql=include_sql
    )
    assert len(rows) == n
    out = tmp_path / "rows.csv"
    cli._write_csv(str(out), axis, rows)
    assert out.read_bytes() == one_shot_csv(axis, rows)


def test_csv_block_writer_memory_does_not_grow_with_rows(tmp_path):
    rows = fmin_curve(fig1_spec(points=20000, ratios=(1.3, 4.2, 8.8)))
    out = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        cli._write_csv(str(out), "tau_scaled", rows)
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


def test_points_cap_accepts_the_cap(launch_cli):
    code, out, _ = launch_cli("dump-config", "--points", "1000000")
    assert code == 0 and "points = 1000000" in out


@pytest.mark.parametrize(
    "args, key",
    [
        (("entangle", "--r", "1e200"), "r"),
        (("fmin", "--r", "1e200"), "r"),
        (("fmin", "--kappa", "1e200"), "kappa"),
        (("optimize-kappa", "--r", "1e200"), "r"),
        (("fig1", "--points", "4", "--r-list", "1,1e200"), "r_list"),
        (("fig2", "--points", "4", "--kappa", "1e200"), "kappa"),
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
    "args, quantity",
    [
        (("fig1", "--n-th", "1e300", "--r-list", "1e50", "--points", "4"), "noise"),
        (("fmin", "--n-th", "1e308", "--r", "10"), "noise"),
        (("fmin", "--tau-scaled", "1e300"), "noise"),
        (("optimize-kappa", "--tau-scaled", "1e300"), "noise"),
        (("fig1", "--axis-hi", "1e308", "--points", "4"), "signal"),
        (("fig2", "--axis-lo", "1e-320", "--points", "4"), "f_min"),
    ],
)
def test_non_finite_result_is_domain_error(launch_cli, tmp_path, args, quantity):
    out_csv = tmp_path / "x.csv"
    code, out, err = launch_cli(*args, "--out", str(out_csv))
    assert code == 3
    assert err.startswith(f"domain error: {quantity} is not finite ")
    assert out == "" and not out_csv.exists()


@pytest.mark.parametrize("argv", [["--help"]] + [[name, "--help"] for name, *_ in cli._COMMANDS])
def test_parser_for_one_command_prints_the_same_help(capsys, argv):
    texts = []
    for parser in (cli.build_parser(), cli.build_parser(argv[0])):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and "usage: twinprobe" in texts[0]
