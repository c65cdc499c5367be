"""Command line front end: the parser, the dispatch and the exit codes.

Every setting is declared once, as a row of ``_common._SETTINGS`` holding
its name, default, parser and help text; RunConfig is the named tuple of
those names and defaults.  The name is the config key, the name in any case
after ``TWINPROBE_`` the environment variable, and the name with dashes for
underscores the ``--`` flag.

Configuration is layered: built-in defaults, then a flat ``key = value``
config file (``--config`` flag or the TWINPROBE_CONFIG variable), then
``TWINPROBE_<KEY>`` environment variables, then command line flags.
Later layers win.  Unknown config keys, unknown TWINPROBE_* variables, two
that differ only in case, and a setting that is not finite are rejected.

Exit codes: 0 success, 1 stdout closed before all output was written, 2
configuration error, 3 physics domain error (unstable regime, vanishing
signal, diverged integration), 4 closed-form verification failure.

Every process enters through ``run``: the ``twinprobe`` script, ``python -m
twinprobe`` and ``python -m twinprobe.cli``.  Each compiles this module
(``python -m twinprobe`` its ``__main__`` as well), which imports only the
built-in ``gc`` and standard library modules that argparse loads anyway.
``--help`` and a usage error compile nothing more: ``_common``, with the
settings table, loads only for the subcommand whose flags are registered,
and only that subcommand gets its own ``-h``.  Once argparse accepts a
command, ``main`` imports ``_commands``, which merges the configuration and
holds the command bodies, and each command imports the numerical layers it
uses when it runs.  So ``dump-config``, a rejected configuration, ``budget``
at a given ``--phi``, and an ``entangle`` whose parameters are refused or
whose relative mode is unstable or softened load no numpy: they need at
most ``probes``, which computes with ``math``.  Every other command loads
numpy, and no command loads ``dataclasses``.  Unless numpy is loaded
already, ``main`` sets OPENBLAS_NUM_THREADS to 1 where the environment does
not set it.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys

__all__ = ["RunConfig", "build_parser", "main", "run"]

EXIT_OK = 0
EXIT_CLOSED_STDOUT = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_VERIFY = 4


def __getattr__(name: str):
    """``RunConfig``, from ``_common``, which ``--help`` and a usage error never load."""
    if name == "RunConfig":
        from ._common import RunConfig

        return RunConfig
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def build_config(args: argparse.Namespace, environ=None) -> RunConfig:
    """Layer defaults, config file, environment, and flags into a RunConfig.

    An output path of ``args.command`` that would overwrite the config file
    or another output is refused before any command runs.  The merge lives
    in ``_commands``, which the first call imports.
    """
    from ._commands import merge_config

    return merge_config(args, environ)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    from ._common import _SETTINGS, _parse_bool

    group = parser.add_argument_group("configuration")
    group.add_argument("--config", help="flat key = value config file")
    for name, _, parse, help_text in _SETTINGS:
        if parse is _parse_bool:
            kwargs = {"action": argparse.BooleanOptionalAction}
        else:
            kwargs = {"type": None if parse is str else parse}
        flag = "--" + name.replace("_", "-")
        group.add_argument(flag, default=None, help=help_text, **kwargs)


_COMMANDS = [
    ("entangle", "prepare the two-probe state and report entanglement"),
    ("fig1", "sweep f_min over the readout duration (CSV)"),
    ("fig2", "sweep f_min over the readout coupling (CSV)"),
    ("fmin", "evaluate one sensitivity point"),
    ("optimize-kappa", "find the coupling minimizing f_min"),
    ("verify", "check closed forms against the moment oracle"),
    ("budget", "compare protocol time against the coherence time"),
    ("dump-config", "print the merged configuration"),
]


def build_parser(command: str | None = None, alone: bool = False) -> argparse.ArgumentParser:
    """The command line parser.

    Only ``command`` gets the configuration flags and its own ``-h``, or
    every subcommand when ``command`` is None: argparse can run no other.
    With ``alone``, a ``command`` that names a subcommand is the only one
    registered: the caller has seen it as the first word, so no text that
    lists the subcommands can be printed.  Otherwise every subcommand is
    registered, so that the top-level help and the invalid-choice message
    name all of them.
    """
    parser = argparse.ArgumentParser(
        prog="twinprobe",
        description="Force sensing with a pair of entangled mechanical probes.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    chosen = [row for row in _COMMANDS if alone and row[0] == command]
    for name, help_text in chosen or _COMMANDS:
        runs = command is None or name == command
        p = sub.add_parser(name, help=help_text, add_help=runs)
        if runs:
            _add_config_flags(p)
    return parser


def _flushed() -> bool:
    """Flush stdout, and say whether its reader took everything.

    Where the reader has gone, stdout is pointed at devnull, as Python's
    ``signal`` docs advise, so the flush at interpreter exit cannot fail.
    """
    try:
        print(end="", flush=True)  # print skips a sys.stdout that is None
        return True
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return False


def main(argv=None) -> int:
    if "numpy" not in sys.modules:
        # No command multiplies anything larger than 9x9, so OpenBLAS's
        # thread pool only spends CPU; it reads this when numpy loads.
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top-level parser takes no option with a value, so the first word
    # that is not an option names the subcommand.
    command = next((word for word in argv if not word.startswith("-")), "")
    try:
        args = build_parser(command, alone=argv[:1] == [command]).parse_args(argv)
    except SystemExit:
        _flushed()  # --help exits 0 whether or not stdout's reader stayed
        raise
    from . import _commands
    from ._common import DomainError

    try:
        cfg = build_config(args)
        passed = getattr(_commands, "cmd_" + args.command.replace("-", "_"))(cfg)
    except BrokenPipeError:
        _flushed()
        return EXIT_CLOSED_STDOUT
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not _flushed():
        return EXIT_CLOSED_STDOUT
    return EXIT_OK if passed else EXIT_VERIFY


def run() -> None:
    """The process entry: exit with ``main``'s code.

    Once ``main`` returns or raises, the collector is frozen, so the
    collections of interpreter exit skip every object it is about to free,
    numpy's included.  atexit handlers, the flush of stdout and stderr, and
    profilers still run.  ``main`` called in-process leaves the collector as
    it is.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
