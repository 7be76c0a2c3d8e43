"""Entry point for `python3 -m hydra`.

`[--state-dir DIR] [--mode MODE] daemon start --foreground`, the form every
daemon is started with, goes straight to `hydra.daemon.run`: the daemon
loads neither the command line parser nor the client, and every monitor it
forks inherits only what serving needs. Any other argv goes to `hydra.cli`.

Monitors are not started through here: the daemon forks them and each runs
`hydra.monitor.Monitor` in the forked process, with no exec.
"""

import gc
import sys


def _foreground_daemon(argv: list[str]) -> tuple[str | None, str | None] | None:
    """(state dir, mode) if argv is the foreground daemon's form, each
    option given at most once and with a value; None for anything else."""
    options: dict[str, str] = {}
    while (
        len(argv) > 1
        and argv[0] in ("--state-dir", "--mode")
        and argv[0] not in options
        and not argv[1].startswith("-")
    ):
        options[argv[0]] = argv[1]
        argv = argv[2:]
    if argv != ["daemon", "start", "--foreground"]:
        return None
    return options.get("--state-dir"), options.get("--mode")


if __name__ == "__main__":
    daemon_args = _foreground_daemon(sys.argv[1:])
    if daemon_args is None:
        from .cli import main

        sys.exit(main())
    gc.disable()  # until run() has frozen what the engine imports build
    from .daemon import run

    sys.exit(run(*daemon_args))
