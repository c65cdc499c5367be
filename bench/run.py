"""twinprobe benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload {oracle,sweep,point} --seed N --seconds S --trace {0,1}

One client runs the workload's seeded round of commands, each as
``python -m twinprobe.cli`` with ``src`` on the path, each started after the
previous one exits, and repeats the round until ``--seconds`` of command time
is used (at least three rounds).  Every output is checked after its command
ends, outside the timed window.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs one round untraced and one with every layer traced, then
times each layer's public functions in-process, and reports the per-layer
metrics.  The last stdout line is one JSON object (correct, attempted, failed,
metrics); the full record, with machine and versions, goes to
``bench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import check
from measure import SpeedGauge, median, run_process, tail
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_s": "s",
    "peak_rss_mb": "MB",
}
# Printed and recorded, not gated.  verify_s, full_model_s and rows_per_s exist
# on one workload each, whose wall_s gates the same work; cmd_tail_s is a tail
# only on point (oracle and sweep run too few commands for ten beyond p50);
# failed_ratio is zero at baseline, and the driver reads attempted/failed.
REPORTED = {
    "cmd_tail_s": "s",
    "verify_s": "s",
    "full_model_s": "s",
    "rows_per_s": "rows/s",
    "failed_ratio": "1",
}
CHECKS = ("entangler-transfer", "switch-off-covariance", "readout-moments")
POINT_COMMANDS = ("entangle", "fmin", "optimize-kappa", "budget", "dump-config")
# per-layer metric -> unit, and the end-to-end metrics it should move ("*" = every workload)
PER_LAYER = {
    "startup.python_s": ("s", []),
    "startup.numpy_s": ("s", []),
    "startup.import_s": ("s", [("setup_s", "*"), ("cmd_p50_s", "point")]),
    "cli.config_s": ("s", [("cmd_p50_s", "point")]),
    **{f"cli.main_s.{c}": ("s", [("cmd_p50_s", "point")]) for c in POINT_COMMANDS},
    "cli.main_s.fig1": ("s", [("rows_per_s", "sweep")]),
    "cli.main_s.fig2": ("s", [("rows_per_s", "sweep")]),
    "cli.self_s.fig1": ("s", [("rows_per_s", "sweep")]),
    "cli.self_s.fig2": ("s", [("rows_per_s", "sweep")]),
    "cli.csv_bytes": ("bytes", []),
    "sweep.fmin_curve_s": ("s", [("rows_per_s", "sweep")]),
    "sweep.fmin_curve_jobs2_s": ("s", [("rows_per_s", "sweep")]),
    "sweep.rows": ("count", []),
    "sweep.optimal_kappa_s": ("s", [("cmd_p50_s", "point")]),
    "metrology.point_s": ("s", [("rows_per_s", "sweep"), ("cmd_p50_s", "point")]),
    "dynamics.prepare_s": ("s", [("cmd_p50_s", "point")]),
    "dynamics.transfer_matrix_s": ("s", [("verify_s", "oracle")]),
    "gaussian.state_ops_s": ("s", [("verify_s", "oracle")]),
    "oracle.transfer_s": ("s", [("verify_s", "oracle")]),
    "oracle.covariance_s": ("s", [("verify_s", "oracle")]),
    "oracle.readout_s": ("s", [("verify_s", "oracle")]),
    "oracle.full_model_s": ("s", [("full_model_s", "oracle")]),
    **{f"oracle.points.{c}": ("count", []) for c in CHECKS},
    **{f"oracle.max_rel_err.{c}": ("1", []) for c in CHECKS},
    "round.self_s.startup": ("s", [("cmd_p50_s", "point")]),
    "round.self_s.cli": ("s", [("rows_per_s", "sweep"), ("cmd_p50_s", "point")]),
    "round.self_s.compute": ("s", [("wall_s", "*")]),
    "round.spans": ("count", [("rows_per_s", "sweep")]),
    "trace.overhead_s": ("s", []),
}
SETUP_REPEATS = 9
MIN_ROUNDS = 3
COMMAND_TIMEOUT_S = 30.0
RUN_DEADLINE_S = 150.0


class SetupError(RuntimeError):
    pass


class Runner:
    """Runs commands of one workload in a scratch directory and checks them."""

    def __init__(self, workdir: str, seed: int, deadline: float) -> None:
        self.workdir = workdir
        self.seed = seed
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("TWINPROBE_")}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )
        self.layer_totals = {"self_s": {}, "calls": {}, "spans": 0, "startup_s": 0.0}
        self.gauge = SpeedGauge()

    def setup(self) -> float:
        """Median wall time of ``twinprobe.cli --help``, after one warm-up run."""
        walls = []
        for i in range(SETUP_REPEATS + 1):
            factor = self.gauge.sample_startup(self.env, self.workdir)
            res = run_process(
                [sys.executable, "-m", "twinprobe.cli", "--help"],
                env=self.env, cwd=self.workdir, timeout=COMMAND_TIMEOUT_S,
            )
            if res.rc != 0 or "usage:" not in res.stdout:
                raise SetupError(f"twinprobe.cli --help failed: {res.stderr.strip()[-300:]}")
            if i:
                walls.append(res.wall_s * factor)
        return median(walls)

    def run(self, cmd, traced: bool = False) -> dict:
        remaining = self.deadline - time.monotonic()
        env = {**self.env, **cmd.env}
        spans_path = os.path.join(self.workdir, "spans.npz")
        if traced:
            args = [sys.executable, str(HERE / "spans.py"), spans_path, *cmd.argv]
        else:
            args = [sys.executable, "-m", "twinprobe.cli", *cmd.argv]
        factor = self.gauge.sample()
        res = run_process(
            args, env=env, cwd=self.workdir, timeout=max(1.0, min(COMMAND_TIMEOUT_S, remaining))
        )
        if res.timed_out:
            reason = f"{cmd.kind}: timed out after {res.wall_s:.1f} s"
        else:
            reason = check(cmd, res.rc, res.stdout, res.stderr, self.workdir, self.seed)
        if "out" in cmd.expect:
            Path(self.workdir, cmd.expect["out"]).unlink(missing_ok=True)
        if traced and os.path.exists(spans_path):
            self._add_spans(spans_path, res.wall_s, factor)
        return {
            "kind": cmd.kind,
            "argv": list(cmd.argv),
            "wall_s": res.wall_s * factor,
            "raw_wall_s": res.wall_s,
            "rc": res.rc,
            "rss_mb": res.rss_mb,
            "failure": reason,
        }

    def _add_spans(self, path: str, wall: float, factor: float) -> None:
        import numpy as np

        from spans import summarize

        with np.load(path) as data:
            summary = summarize(data)
        os.remove(path)
        totals = self.layer_totals
        for layer, value in summary["self_s"].items():
            totals["self_s"][layer] = totals["self_s"].get(layer, 0.0) + value * factor
        for layer, value in summary["calls"].items():
            totals["calls"][layer] = totals["calls"].get(layer, 0) + value
        totals["spans"] += summary["spans"]
        totals["startup_s"] += (wall - summary["main_s"]) * factor

    def rounds(self, cmds, seconds: float, traced: bool = False, at_least: int = MIN_ROUNDS):
        """Repeat the round until ``seconds`` of command time is used; (results, round walls)."""
        results, walls = [], []
        used = 0.0
        while time.monotonic() < self.deadline:
            batch = []
            for cmd in cmds:
                if time.monotonic() >= self.deadline:
                    break
                batch.append(self.run(cmd, traced))
            results += batch
            if len(batch) < len(cmds):
                break
            walls.append(sum(r["wall_s"] for r in batch))
            last = sum(r["raw_wall_s"] for r in batch)
            used += last
            budget = seconds if len(walls) >= at_least else 2.0 * seconds
            if used + last > budget:
                break
        return results, walls


def end_to_end(results, round_walls, setup_s) -> tuple[dict, dict]:
    walls = [r["wall_s"] for r in results]
    tail_s, tail_p, tail_n = tail(walls)
    values = {
        "setup_s": setup_s,
        "wall_s": median(round_walls),
        "cmd_p50_s": median(walls),
        "cmd_tail_s": tail_s,
        "peak_rss_mb": max(r["rss_mb"] for r in results),
    }
    by_kind = {}
    for r in results:
        by_kind.setdefault(r["kind"], []).append(r)
    if "verify" in by_kind:
        values["verify_s"] = median([r["wall_s"] for r in by_kind["verify"]])
    if "full-model" in by_kind:
        values["full_model_s"] = median([r["wall_s"] for r in by_kind["full-model"]])
    sweeps = by_kind.get("fig1", []) + by_kind.get("fig2", [])
    if sweeps:
        rows = sum(_csv_rows(r["argv"]) for r in sweeps if r["failure"] is None)
        values["rows_per_s"] = rows / sum(r["wall_s"] for r in sweeps)
    values["failed_ratio"] = sum(r["failure"] is not None for r in results) / len(results)
    return values, {"percentile": tail_p, "n": tail_n}


def _csv_rows(argv) -> int:
    points = int(argv[argv.index("--points") + 1])
    return points * len(argv[argv.index("--r-list") + 1].split(","))


def traced_run(runner: Runner, cmds, seed: int) -> tuple[dict, list, list[str]]:
    import layers

    untraced, u_walls = runner.rounds(cmds, 0.0, at_least=1)
    traced, t_walls = runner.rounds(cmds, 0.0, traced=True, at_least=1)
    if not (u_walls and t_walls):
        raise SetupError("run deadline reached before the traced round finished")
    totals = runner.layer_totals
    values = {
        "round.self_s.startup": totals["startup_s"],
        "round.self_s.cli": totals["self_s"]["cli"],
        "round.self_s.compute": sum(v for k, v in totals["self_s"].items() if k != "cli"),
        "round.spans": totals["spans"],
        "trace.overhead_s": t_walls[0] - u_walls[0],
    }
    values.update(layers.startup(runner.env, runner.workdir, runner.gauge))
    sys.path.insert(0, str(SRC))
    probed, failures = layers.in_process(seed, runner.workdir, runner.gauge)
    values.update(probed)
    return values, untraced + traced, failures


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "machine": platform.machine(),
        "cpu": cpu,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "twinprobe" / "cli.py").is_file():
        print(f"bench: no twinprobe sources under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root)
    cmds = generate(args.workload, args.seed)
    try:
        for cmd in cmds:
            for name, text in cmd.files.items():
                Path(workdir, name).write_text(text, encoding="utf-8")
        runner = Runner(workdir, args.seed, started + RUN_DEADLINE_S)
        setup_s = runner.setup()
        probe_failures = []
        if args.trace:
            values, results, probe_failures = traced_run(runner, cmds, args.seed)
            tail_info = None
            units = {k: v[0] for k, v in PER_LAYER.items()}
        else:
            results, round_walls = runner.rounds(cmds, args.seconds)
            if not round_walls:
                raise SetupError("run deadline reached before one round finished")
            values, tail_info = end_to_end(results, round_walls, setup_s)
            units = {**END_TO_END, **REPORTED}
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [r["failure"] for r in results if r["failure"]] + probe_failures
    attempted = len(results) + (1 if args.trace else 0)
    failed = sum(r["failure"] is not None for r in results) + (1 if probe_failures else 0)
    gated = PER_LAYER if args.trace else END_TO_END
    metrics = {k: {"value": values[k], "unit": units[k]} for k in gated}
    record = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **_machine(),
        "speed_factor_median": median(runner.gauge.factors),
        "speed_factor_range": [min(runner.gauge.factors), max(runner.gauge.factors)],
        "cmd_tail": tail_info,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "layer_targets": {k: v[1] for k, v in PER_LAYER.items()} if args.trace else None,
        "round_layers": runner.layer_totals if args.trace else None,
        "commands": results,
        "failures": failures,
    }
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    record_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, value in values.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    print(
        f"times are at reference speed: raw x {median(runner.gauge.factors):.4f} "
        f"(median host-speed factor, {len(runner.gauge.factors)} samples)"
    )
    if tail_info:
        print(f"cmd_tail_s is p{tail_info['percentile']} of n={tail_info['n']} commands")
    if args.trace:
        for layer, secs in sorted(runner.layer_totals["self_s"].items()):
            calls = runner.layer_totals["calls"][layer]
            print(f"round self time {layer:10s} {secs:10.4f} s  {calls:8d} calls")
    for reason in failures:
        print(f"FAILED {reason}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
