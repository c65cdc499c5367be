"""Output checks, run after each command outside its timed window.

``check(cmd, rc, stdout, stderr, workdir)`` returns None when the command did
what its workload expects, else a one-line reason.  Values are compared with
``reference`` (the benchmark's own closed forms), never with ``twinprobe``.
"""
from __future__ import annotations

import math
import os
import random

import reference as ref

# printed with %.12g, so 12 significant digits survive; leave room for the
# package's own roundoff (~1e-12 relative on the documented ranges)
REL_TOL = 1e-9
KAPPA_OPT_TOL = 1e-5  # golden-section stops at a 1e-6 relative bracket
CSV_HEADER = "axis,r,phi_opt,signal,noise,f_min,f_sql"
CSV_SAMPLE = 64


class CheckFailed(Exception):
    pass


def _close(name: str, got: float, want: float, tol: float = REL_TOL) -> None:
    if math.isinf(want) and got == want:
        return
    if not abs(got - want) <= tol * max(abs(want), 1e-300):
        raise CheckFailed(f"{name} = {got!r}, reference {want!r}")


def _fields(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _field(fields: dict, key: str) -> float:
    if key not in fields:
        raise CheckFailed(f"missing output line {key!r}")
    return float(fields[key])


def _setting(cmd, key: str, default=None):
    value = cmd.expect["settings"].get(key, default)
    return None if value is None else float(value)


def _check_point_values(fields, kappa, tau, phi, ratio, n_th, variant) -> None:
    signal, noise, f_min = (_field(fields, k) for k in ("signal", "noise", "f_min"))
    if not noise >= 1.0:
        raise CheckFailed(f"noise = {noise!r} < 1")
    _close("f_min vs sqrt(noise)/|signal|", f_min, math.sqrt(noise) / abs(signal))
    _close("signal", signal, ref.signal(kappa, tau, variant))
    _close("noise", noise, ref.noise(kappa, tau, phi, ratio, n_th))
    _close("f_min", f_min, ref.f_min(kappa, tau, phi, ratio, n_th, variant))


def _check_fmin(cmd, fields) -> None:
    tau = _setting(cmd, "tau_scaled", math.pi / 2)
    kappa = _setting(cmd, "kappa", 1.0)
    ratio = _setting(cmd, "r", 1.0)
    n_th = _setting(cmd, "n_th", 20.0)
    variant = cmd.expect["settings"].get("signal_variant", "consistent")
    for name, want in (("tau_scaled", tau), ("kappa", kappa), ("ratio", ratio), ("n_th", n_th)):
        _close(name, _field(fields, name), want)
    phi = _field(fields, "phi")
    want_phi = _setting(cmd, "phi")
    if want_phi is None:
        if ref.phase_distance(phi, ref.phi_opt(tau)) > 1e-9:
            raise CheckFailed(f"phi = {phi!r}, optimum {ref.phi_opt(tau)!r}")
    else:
        _close("phi", phi, want_phi)
    _check_point_values(fields, kappa, tau, phi, ratio, n_th, variant)
    _close("f_sql", _field(fields, "f_sql"), ref.f_sql(kappa, tau, variant))


def _check_optimize_kappa(cmd, fields) -> None:
    tau = _setting(cmd, "tau_scaled", math.pi / 2)
    ratio = _setting(cmd, "r", 1.0)
    n_th = _setting(cmd, "n_th", 20.0)
    kappa, f_min = _field(fields, "kappa_opt"), _field(fields, "f_min")
    want = ref.kappa_opt(tau)
    _close("kappa_opt", kappa, want, KAPPA_OPT_TOL)
    phi = ref.phi_opt(tau)
    _close("f_min at kappa_opt", f_min, ref.f_min(kappa, tau, phi, ratio, n_th))
    _close("f_min vs optimum", f_min, ref.f_min(want, tau, phi, ratio, n_th))


def _entangle_ratio(cmd) -> float:
    s = cmd.expect["settings"]
    if "r" in s:
        return float(s["r"])
    if "coupling_chi" in s:
        chi = float(s["coupling_chi"])
    else:
        chi = (2.0 * float(s["g_opt"]) * float(s["beta_abs"])) ** 2 / float(s["delta"])
    return math.sqrt(1.0 + 2.0 * chi)


def _parse_entangle(stdout: str):
    lines = stdout.splitlines()
    try:
        start = lines.index("covariance (q1, p1, q2, p2):") + 1
        cov = [[float(v) for v in lines[start + i].split()] for i in range(4)]
    except (ValueError, IndexError):
        raise CheckFailed("covariance block missing or malformed") from None
    return cov


def _check_entangle_state(stdout: str, fields, ratio: float, n_th: float) -> None:
    want = ref.entangled(ratio, n_th)
    _close("squeeze ratio", _field(fields, "squeeze ratio"), ratio)
    _close("relative mode frequency", _field(fields, "relative mode frequency"), ratio)
    _close("switch-off time", _field(fields, "switch-off time"), want["switch_off_time"])
    cov = _parse_entangle(stdout)
    scale = max(abs(v) for row in want["covariance"] for v in row)
    for i in range(4):
        for j in range(4):
            if abs(cov[i][j] - want["covariance"][i][j]) > 1e-8 * scale:
                raise CheckFailed(
                    f"covariance[{i}][{j}] = {cov[i][j]!r}, reference "
                    f"{want['covariance'][i][j]!r}"
                )
    for key, name in (
        ("relative q variance", "relative_q_variance"),
        ("total p variance", "total_p_variance"),
        ("EPR variance product", "variance_product"),
    ):
        _close(key, _field(fields, key), want[name])
    margin = want["squeeze_margin"]
    if abs(_field(fields, "squeeze margin") - margin) > 1e-9 * (ratio**2 + 1.0 + 2.0 * n_th):
        raise CheckFailed(f"squeeze margin = {fields['squeeze margin']}, reference {margin!r}")
    if abs(margin) > 1e-6 * ratio**2:
        verdict = "yes" if margin > 0 else "no"
        if fields.get("entangled") != verdict:
            raise CheckFailed(f"entangled = {fields.get('entangled')!r}, margin {margin!r}")


def _check_entangle(cmd, stdout, fields) -> None:
    _check_entangle_state(stdout, fields, _entangle_ratio(cmd), _setting(cmd, "n_th", 20.0))


def _check_full_model(cmd, stdout, fields) -> None:
    argv = cmd.argv
    ratio = float(argv[argv.index("--r") + 1])
    n_th = float(argv[argv.index("--n-th") + 1])
    delta = float(argv[argv.index("--delta") + 1])
    _check_entangle_state(stdout, fields, ratio, n_th)
    text = fields.get("full-model deviation", "")
    try:
        dev = float(text.split()[0])
        reported = float(text.rsplit("=", 1)[1].strip(" )"))
    except (IndexError, ValueError):
        raise CheckFailed(f"full-model deviation line malformed: {text!r}") from None
    if not math.isfinite(dev):
        raise CheckFailed(f"full-model deviation {dev!r} is not finite")
    _close("delta/omega", reported, delta)


def _check_budget(cmd, fields) -> None:
    gamma = _setting(cmd, "gamma_mech", 0.0)
    n_th = _setting(cmd, "n_th", 20.0)
    tau = _setting(cmd, "tau_scaled", math.pi / 2)
    phi = _setting(cmd, "phi")
    if phi is None:
        phi = ref.phi_opt(tau)
    budget = math.inf if gamma * n_th == 0 else 1.0 / (gamma * n_th)
    rotation = phi % (2.0 * math.pi)
    _close("coherence budget", _field(fields, "coherence budget"), budget)
    _close("rotation time", _field(fields, "rotation time"), rotation)
    _close("force time", _field(fields, "force time"), tau)
    used = _field(fields, "time used")
    _close("time used", used, rotation + tau)
    if abs(used - budget) > 1e-9 * used:
        verdict = "yes" if used < budget else "no"
        if fields.get("feasible") != verdict:
            raise CheckFailed(f"feasible = {fields.get('feasible')!r}, expected {verdict}")


def _check_dump_config(cmd, fields) -> None:
    for key, text in cmd.expect["settings"].items():
        if key not in fields:
            raise CheckFailed(f"dump-config lacks {key}")
        got = fields[key]
        if key == "include_sql" or key == "points":
            if got != text:
                raise CheckFailed(f"{key} = {got!r}, expected {text!r}")
        else:
            _close(key, float(got), float(text), 0.0)


def _grid(argv) -> tuple[list[float], list[float], bool]:
    def arg(flag):
        return argv[argv.index(flag) + 1]

    n = int(arg("--points"))
    lo, hi = float(arg("--axis-lo")), float(arg("--axis-hi"))
    ratios = [float(r) for r in arg("--r-list").split(",")]
    if argv[0] == "fig2":
        xs = [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]
    else:
        xs = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    return xs, ratios, argv[0] == "fig1"


def check_csv(cmd, path: str, sample_seed: int = 0) -> None:
    """Row count, header, axis grid, f_min relation, noise floor, sampled reference rows."""
    argv = cmd.argv
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CheckFailed(f"cannot read {path}: {exc}") from None
    lines = text.split("\n")
    if lines[-1] != "":
        raise CheckFailed("CSV does not end with a newline")
    lines.pop()
    if not lines or lines[0] != CSV_HEADER:
        raise CheckFailed(f"CSV header {lines[0] if lines else ''!r}")
    xs, ratios, tau_axis = _grid(argv)
    rows = lines[1:]
    if len(rows) != len(xs) * len(ratios):
        raise CheckFailed(f"CSV has {len(rows)} rows, expected {len(xs) * len(ratios)}")
    held_flag = "--kappa" if tau_axis else "--tau-scaled"
    held = float(argv[argv.index(held_flag) + 1])
    n_th = float(argv[argv.index("--n-th") + 1])
    rng = random.Random(sample_seed)
    sampled = set(rng.sample(range(len(rows)), min(CSV_SAMPLE, len(rows))))
    for i, row in enumerate(rows):
        try:
            axis, ratio, phi, signal, noise, f_min, f_sql = map(float, row.split(","))
        except ValueError:
            raise CheckFailed(f"CSV row {i + 2} malformed: {row!r}") from None
        x, r = xs[i // len(ratios)], ratios[i % len(ratios)]
        if abs(axis - x) > 1e-11 * x or abs(ratio - r) > 1e-11 * r:
            raise CheckFailed(f"CSV row {i + 2} off grid: axis {axis!r} r {ratio!r}")
        if not noise >= 1.0:
            raise CheckFailed(f"CSV row {i + 2}: noise {noise!r} < 1")
        if abs(f_min - math.sqrt(noise) / abs(signal)) > 1e-10 * f_min:
            raise CheckFailed(f"CSV row {i + 2}: f_min != sqrt(noise)/|signal|")
        if i in sampled:
            tau, kappa = (x, held) if tau_axis else (held, x)
            if ref.phase_distance(phi, ref.phi_opt(tau)) > 1e-9:
                raise CheckFailed(f"CSV row {i + 2}: phi_opt {phi!r}")
            try:
                _close("signal", signal, ref.signal(kappa, tau))
                _close("noise", noise, ref.noise(kappa, tau, phi, r, n_th))
                _close("f_min", f_min, ref.f_min(kappa, tau, phi, r, n_th))
                _close("f_sql", f_sql, ref.f_sql(kappa, tau))
            except CheckFailed as exc:
                raise CheckFailed(f"CSV row {i + 2}: {exc}") from None


def _check_verify(stdout: str) -> None:
    lines = stdout.splitlines()
    if not lines or lines[-1] != "VERIFY: pass":
        raise CheckFailed(f"verify ended with {lines[-1] if lines else ''!r}")
    checks = [line for line in lines if line.startswith("CHECK ")]
    if len(checks) < 3 or any(": pass " not in line for line in checks):
        raise CheckFailed("verify did not report three passing checks")


def check(cmd, rc: int, stdout: str, stderr: str, workdir: str, sample_seed: int = 0):
    """None if the command's exit code and output are right, else the reason."""
    want_rc = cmd.expect.get("exit", 0)
    if rc != want_rc:
        return f"exit {rc}, expected {want_rc}: {stderr.strip()[-200:]}"
    try:
        if want_rc == 2:
            if not stderr.startswith("config error:"):
                raise CheckFailed(f"expected a config error, got {stderr!r}")
        elif want_rc == 3:
            if not stderr.startswith("domain error:"):
                raise CheckFailed(f"expected a domain error, got {stderr!r}")
        elif cmd.kind in ("fig1", "fig2"):
            check_csv(cmd, os.path.join(workdir, cmd.expect["out"]), sample_seed)
        elif cmd.kind == "verify":
            _check_verify(stdout)
        else:
            fields = _fields(stdout)
            if cmd.kind == "fmin":
                _check_fmin(cmd, fields)
            elif cmd.kind == "optimize-kappa":
                _check_optimize_kappa(cmd, fields)
            elif cmd.kind == "entangle":
                _check_entangle(cmd, stdout, fields)
            elif cmd.kind == "full-model":
                _check_full_model(cmd, stdout, fields)
            elif cmd.kind == "budget":
                _check_budget(cmd, fields)
            elif cmd.kind == "dump-config":
                _check_dump_config(cmd, fields)
            else:
                raise CheckFailed(f"no check for command kind {cmd.kind!r}")
    except (CheckFailed, ValueError) as exc:
        return f"{cmd.kind}: {exc}"
    return None
