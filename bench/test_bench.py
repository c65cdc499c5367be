"""Tests of the benchmark itself: seeded inputs, output checks, reference, spec file.

Run with the package on the path, like the rest of the suite:

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""
import contextlib
import dataclasses
import io
import json
import math
import os
from pathlib import Path

import pytest

import reference as ref
import run
from checks import CSV_HEADER, check
from workloads import WORKLOADS, Command, generate

ROOT = Path(__file__).resolve().parent.parent


def _dump(cmds) -> str:
    return json.dumps([dataclasses.asdict(c) for c in cmds], sort_keys=True)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic(workload):
    assert _dump(generate(workload, 7)) == _dump(generate(workload, 7))
    assert _dump(generate(workload, 7)) != _dump(generate(workload, 8))


def _run_in_process(cmd: Command, workdir: Path, monkeypatch):
    from twinprobe import cli

    for name, text in cmd.files.items():
        (workdir / name).write_text(text)
    with monkeypatch.context() as m:
        m.chdir(workdir)
        for key in [k for k in os.environ if k.startswith("TWINPROBE_")]:
            m.delenv(key)
        for key, value in cmd.env.items():
            m.setenv(key, value)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(cmd.argv))
    return rc, out.getvalue(), err.getvalue()


def _small_sweep(fig="fig1") -> Command:
    cmd = next(c for c in generate("sweep", 3) if c.kind == fig)
    argv = list(cmd.argv)
    argv[argv.index("--points") + 1] = "40"
    return dataclasses.replace(cmd, argv=tuple(argv))


@pytest.mark.parametrize("fig", ["fig1", "fig2"])
def test_sweep_output_passes_checks(tmp_path, monkeypatch, fig):
    cmd = _small_sweep(fig)
    rc, out, err = _run_in_process(cmd, tmp_path, monkeypatch)
    assert check(cmd, rc, out, err, str(tmp_path)) is None


def _set_field(lines, row, column, text):
    fields = lines[row].split(",")
    fields[column] = text
    return lines[:row] + [",".join(fields)] + lines[row + 1:]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda lines: lines[:-1],  # a row missing
        lambda lines: ["axis,r,phi,signal,noise,f_min,f_sql"] + lines[1:],  # header
        lambda lines: _set_field(lines, 5, 1, "1" + lines[5].split(",")[1]),  # off grid
        lambda lines: _set_field(lines, 3, 4, "0.5"),  # noise below the floor
    ],
)
def test_corrupted_csv_is_a_failure(tmp_path, monkeypatch, corrupt):
    cmd = _small_sweep()
    rc, out, err = _run_in_process(cmd, tmp_path, monkeypatch)
    path = tmp_path / cmd.expect["out"]
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    path.write_text("\n".join(corrupt(lines)) + "\n")
    assert check(cmd, rc, out, err, str(tmp_path)) is not None


def test_csv_reference_mismatch_is_a_failure(tmp_path, monkeypatch):
    cmd = _small_sweep()
    rc, out, err = _run_in_process(cmd, tmp_path, monkeypatch)
    path = tmp_path / cmd.expect["out"]
    lines = path.read_text().splitlines()
    # scale signal, noise and f_min consistently: only the reference can tell
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        signal, noise = float(f[3]), float(f[4]) * 1.01
        f[3:6] = [format(signal, ".12g"), format(noise, ".12g"),
                  format(math.sqrt(noise) / abs(signal), ".12g")]
        rows.append(",".join(f))
    path.write_text("\n".join([lines[0]] + rows) + "\n")
    assert "reference" in check(cmd, rc, out, err, str(tmp_path))


VERIFY_PASS = (
    "CHECK entangler-transfer: pass points=15 max_rel_err=4.120e-12 worst=x\n"
    "CHECK switch-off-covariance: pass points=6 max_rel_err=3.482e-13 worst=x\n"
    "CHECK readout-moments: pass points=312 max_rel_err=5.120e-13 worst=x\n"
    "VERIFY: pass\n"
)


def test_verify_fail_is_a_failure(tmp_path):
    cmd = Command("verify", ("verify",), expect={"exit": 0})
    assert check(cmd, 0, VERIFY_PASS, "", str(tmp_path)) is None
    failing = VERIFY_PASS.replace("readout-moments: pass", "readout-moments: FAIL")
    failing = failing.replace("VERIFY: pass", "VERIFY: FAIL")
    assert check(cmd, 4, failing, "", str(tmp_path)) is not None
    assert check(cmd, 0, failing, "", str(tmp_path)) is not None


def test_point_round_checks(tmp_path, monkeypatch):
    # seed 1 draws optimize-kappa at tau_scaled ~0.053, where the seed commit's
    # optimizer stops on its kappa = 100 bracket edge; that must be caught,
    # and nothing else may fail
    failures = []
    for cmd in generate("point", 1):
        rc, out, err = _run_in_process(cmd, tmp_path, monkeypatch)
        reason = check(cmd, rc, out, err, str(tmp_path))
        if reason:
            failures.append(reason)
    assert all(f.startswith("optimize-kappa: kappa_opt") for f in failures), failures


def test_reference_matches_package():
    from twinprobe import metrology

    for tau in (0.05, 0.3, 1.2, math.pi, 4.0, 2 * math.pi):
        assert ref.phase_distance(metrology.phi_opt(tau), ref.phi_opt(tau)) < 1e-12
        for kappa in (0.05, 1.0, 5.0):
            for phi in (0.0, 0.7, ref.phi_opt(tau)):
                m = metrology.MeterParams(kappa=kappa, tau_scaled=tau, phi=phi)
                assert metrology.signal_coeff(m) == pytest.approx(ref.signal(kappa, tau), rel=1e-11)
                assert metrology.noise(m, 3.0, 5.0) == pytest.approx(
                    ref.noise(kappa, tau, phi, 3.0, 5.0), rel=1e-11
                )
                assert metrology.sql(m) == pytest.approx(ref.f_sql(kappa, tau), rel=1e-11)


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v[0] for k, v in run.PER_LAYER.items()
    }
