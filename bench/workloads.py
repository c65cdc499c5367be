"""Seeded command rounds for the three benchmark workloads.

``generate(workload, seed)`` returns one round: the commands a run repeats,
in order, until its time is up.  The same seed gives the same argv lists,
environment overrides and config files, byte for byte; the program sees only
these.  ``expect`` holds what the output checks need to know about a command
(its resolved inputs and the exit code it must give).

Parameters are drawn over the ranges the README documents: tau_scaled over the
fig1 axis [0.05, 2 pi], kappa over the fig2 axis [0.05, 5], squeeze ratios over
[1, 10] (the default r-list spans 1..10), n_th over [0, 20].
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = {
    "oracle": (
        "verify plus entangle --full-model at seeded r and delta: the oracle's "
        "RK4 routines do ~95% of the work; --delta 1e7 is a known hang on the "
        "seed commit and waits for its fix"
    ),
    "sweep": (
        "fig1/fig2 at 20000 (and 512) points with seeded r-list, n-th and axis "
        "range, half with --jobs 2: curve evaluation plus CSV writing dominate"
    ),
    "point": (
        "seeded stream of short commands, settings via flags, --config files and "
        "TWINPROBE_* variables: start-up and config layering dominate; "
        "optimize-kappa below tau 0.067 hits the seed's bracket-edge defect"
    ),
}

TAU_RANGE = (0.05, 2.0 * math.pi)
KAPPA_RANGE = (0.05, 5.0)
RATIO_RANGE = (1.0, 10.0)
N_TH_RANGE = (0.0, 20.0)
SWEEP_POINTS = 20000
SMALL_SWEEP_POINTS = 512  # the CLI default
SWEEP_JOBS = 2
# Full-model cost is set by the RK4 step count, 75 * delta / r, so delta is
# drawn as r * FULL_MODEL_DELTA_PER_R: every command and seed asks for the same
# work, and the run's median command is a full-model one.
FULL_MODEL_DELTA_PER_R = 250.0
FULL_MODEL_COMMANDS = 4


@dataclass(frozen=True)
class Command:
    kind: str
    argv: tuple[str, ...]
    env: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return format(x, ".6g")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _draw(rng: random.Random, key: str) -> str:
    if key == "tau_scaled":
        return _num(rng.uniform(*TAU_RANGE))
    if key == "kappa":
        return _num(_log_uniform(rng, *KAPPA_RANGE))
    if key == "r":
        return _num(_log_uniform(rng, *RATIO_RANGE))
    if key == "n_th":
        return _num(rng.uniform(*N_TH_RANGE))
    raise KeyError(key)


_BOOL_KEYS = ("include_sql",)
# decoys must parse, because every layer is converted before the merge
_DECOYS = {"phi": "0.5", "signal_variant": "printed", "points": "7", "include_sql": "yes"}


def _layered(rng: random.Random, name: str, tag: str, settings: dict) -> Command:
    """Spread ``settings`` over flags, env and a config file; lower layers get decoys.

    Resolution order is defaults < config file < TWINPROBE_* < flags, so a
    decoy placed below the winning layer must not show in the output.
    """
    argv, env, lines = [name], {}, []
    for key, text in settings.items():
        where = rng.choices(("flag", "env", "file"), weights=(3, 1, 1))[0]
        decoy = _DECOYS.get(key, "0.25") if rng.random() < 0.3 else None
        if where == "flag":
            flag = "--" + key.replace("_", "-")
            if key in _BOOL_KEYS:
                argv.append(flag if text == "true" else "--no-" + flag[2:])
            elif text.startswith("-"):
                argv.append(f"{flag}={text}")
            else:
                argv += [flag, text]
            if decoy:
                env["TWINPROBE_" + key.upper()] = decoy
        elif where == "env":
            env["TWINPROBE_" + key.upper()] = text
            if decoy:
                lines.append(f"{key} = {decoy}")
        else:
            lines.append(f"{key.replace('_', '-')} = {text}")
    files = {}
    if lines:
        path = f"{tag}.conf"
        files[path] = "# benchmark settings\n" + "\n".join(lines) + "\n"
        if rng.random() < 0.5:
            argv += ["--config", path]
        else:
            env["TWINPROBE_CONFIG"] = path
    return Command(name, tuple(argv), env, files, {"settings": dict(settings), "exit": 0})


def _entangle(rng, tag) -> Command:
    route = rng.choice(("r", "r", "chi", "raw"))
    n_th = _draw(rng, "n_th")
    if route == "r":
        return _layered(rng, "entangle", tag, {"r": _draw(rng, "r"), "n_th": n_th})
    ratio = float(_draw(rng, "r"))
    chi = (ratio**2 - 1.0) / 2.0
    if route == "chi":
        return _layered(rng, "entangle", tag, {"coupling_chi": _num(chi), "n_th": n_th})
    delta = rng.uniform(100.0, 1000.0)
    return _layered(
        rng,
        "entangle",
        tag,
        {
            "g_opt": _num(math.sqrt(chi * delta) / 2.0),
            "beta_abs": "1",
            "delta": _num(delta),
            "n_th": n_th,
        },
    )


def _fmin(rng, tag) -> Command:
    settings = {k: _draw(rng, k) for k in ("tau_scaled", "kappa", "r", "n_th")}
    if rng.random() < 0.25:
        settings["phi"] = _num(rng.uniform(-0.5 * math.pi, 0.5 * math.pi))
    if rng.random() < 0.25:
        settings["signal_variant"] = "printed"
    return _layered(rng, "fmin", tag, settings)


def _optimize_kappa(rng, tag) -> Command:
    settings = {k: _draw(rng, k) for k in ("tau_scaled", "r", "n_th")}
    return _layered(rng, "optimize-kappa", tag, settings)


def _budget(rng, tag) -> Command:
    settings = {
        "gamma_mech": _num(_log_uniform(rng, 1e-6, 1e-1)),
        "n_th": _draw(rng, "n_th"),
        "tau_scaled": _draw(rng, "tau_scaled"),
    }
    if rng.random() < 0.5:
        settings["phi"] = _num(rng.uniform(-0.5 * math.pi, 0.5 * math.pi))
    return _layered(rng, "budget", tag, settings)


def _dump_config(rng, tag) -> Command:
    keys = rng.sample(("tau_scaled", "kappa", "r", "n_th"), 3)
    settings = {k: _draw(rng, k) for k in keys}
    settings["points"] = str(rng.randrange(16, 4096))
    settings["include_sql"] = rng.choice(("true", "false"))
    return _layered(rng, "dump-config", tag, settings)


def _point(rng: random.Random) -> list[Command]:
    makers = [_entangle, _fmin, _optimize_kappa, _budget, _dump_config] * 4
    rng.shuffle(makers)
    cmds = [make(rng, f"cfg{i:02d}") for i, make in enumerate(makers)]
    # two commands the CLI must refuse: an unstable coupling and a typo'd key
    chi = -_log_uniform(rng, 0.6, 5.0)
    cmds.append(
        Command("entangle", ("entangle", f"--coupling-chi={_num(chi)}"), expect={"exit": 3})
    )
    cmds.append(
        Command(
            "dump-config",
            ("dump-config", "--config", "typo.conf"),
            files={"typo.conf": "kapa = 1.5\n"},
            expect={"exit": 2},
        )
    )
    rng.shuffle(cmds)
    return cmds


def _sweep(rng: random.Random) -> list[Command]:
    # Two default-size sweeps keep the run's median command inside the
    # --jobs 1 group instead of between it and the slower --jobs 2 group.
    cmds = []
    for i, (fig, jobs, points) in enumerate(
        [
            ("fig1", 1, SWEEP_POINTS),
            ("fig1", SWEEP_JOBS, SWEEP_POINTS),
            ("fig2", 1, SWEEP_POINTS),
            ("fig2", SWEEP_JOBS, SWEEP_POINTS),
            ("fig1", 1, SMALL_SWEEP_POINTS),
            ("fig2", SWEEP_JOBS, SMALL_SWEEP_POINTS),
        ]
    ):
        ratios = [_draw(rng, "r") for _ in range(3)]
        n_th = _draw(rng, "n_th")
        if fig == "fig1":
            lo, hi = rng.uniform(0.05, 1.0), rng.uniform(math.pi, 2.0 * math.pi)
            held = ["--kappa", _draw(rng, "kappa")]
        else:
            lo, hi = _log_uniform(rng, 0.05, 0.5), _log_uniform(rng, 2.0, 5.0)
            held = ["--tau-scaled", _draw(rng, "tau_scaled")]
        out = f"{fig}-{i}.csv"
        argv = [
            fig,
            "--points", str(points),
            "--r-list", ",".join(ratios),
            "--n-th", n_th,
            "--axis-lo", _num(lo),
            "--axis-hi", _num(hi),
            *held,
            "--jobs", str(jobs),
            "--out", out,
        ]
        cmds.append(Command(fig, tuple(argv), expect={"exit": 0, "out": out}))
    rng.shuffle(cmds)
    return cmds


def _oracle(rng: random.Random) -> list[Command]:
    cmds = [Command("verify", ("verify",), expect={"exit": 0})]
    for _ in range(FULL_MODEL_COMMANDS):
        ratio = float(_draw(rng, "r"))
        argv = (
            "entangle",
            "--r", _num(ratio),
            "--n-th", _draw(rng, "n_th"),
            "--full-model",
            "--delta", _num(ratio * FULL_MODEL_DELTA_PER_R),
        )
        cmds.append(Command("full-model", argv, expect={"exit": 0}))
    rng.shuffle(cmds)
    return cmds


_GENERATORS = {"oracle": _oracle, "sweep": _sweep, "point": _point}


def generate(workload: str, seed: int) -> list[Command]:
    """One round of ``workload`` for ``seed``; deterministic."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
