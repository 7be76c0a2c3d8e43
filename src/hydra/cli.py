"""The hydra command line.

Parses subcommands, speaks one-line JSON to the daemon socket, dials a
container's monitor socket directly for attach/exec/logs (the daemon only
brokers the path), and renders tables or --json output.

Exit codes: 0 success, 1 user error, 2 daemon or transport error. A
foreground `run` mirrors the container's exit code instead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from typing import Any, NoReturn

from .client import (
    DaemonClient,
    MonitorStream,
    RequestFailed,
    TransportError,
    exit_code_from_notice,
    read_log_frames,
)
from .model import ContainerSpec, HydraError, Isolation, SupervisionMode
from .protocol import (
    FRAME_EXIT_NOTICE,
    FRAME_STDERR,
    FRAME_STDOUT,
    StateDirLayout,
    resolve_layout,
    state_root,
)

__all__ = ["main"]

_DAEMON_START_TIMEOUT_S = 10.0
# Containers per ps request: a page of summaries stays far below the 1 MiB
# reply line limit.
_PS_PAGE = 500


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract wants 1 for user errors.
    def error(self, message: str) -> NoReturn:
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="hydra", description="Container supervision engine.")
    parser.add_argument(
        "--state-dir",
        default=None,
        help="state directory (default: $HYDRA_STATE_DIR or ~/.hydra)",
    )
    parser.add_argument(
        "--mode",
        choices=[mode.value for mode in SupervisionMode],
        default=None,
        help="supervision mode, applies to `daemon start`",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def allow_trailing_json(p: argparse.ArgumentParser) -> None:
        # accepted after the subcommand too; SUPPRESS keeps a pre-subcommand
        # --json from being overwritten by a subparser default
        p.add_argument(
            "--json", action="store_true", default=argparse.SUPPRESS,
            help=argparse.SUPPRESS,
        )

    p_daemon = sub.add_parser("daemon", help="manage the engine process")
    daemon_sub = p_daemon.add_subparsers(dest="daemon_command", metavar="ACTION")
    p_dstart = daemon_sub.add_parser("start", help="start the engine")
    p_dstart.add_argument(
        "--foreground", action="store_true", help="run in this process"
    )
    daemon_sub.add_parser("stop", help="stop the engine")
    allow_trailing_json(daemon_sub.add_parser("status", help="engine status"))

    p_run = sub.add_parser("run", help="create and start a container")
    p_run.add_argument("--detach", "-d", action="store_true", help="print id and return")
    p_run.add_argument(
        "--isolate", action="store_true", help="fresh PID, mount, and UTS namespaces"
    )
    p_run.add_argument("--env", "-e", action="append", default=[], metavar="KEY=VALUE")
    p_run.add_argument("--workdir", "-w", default=None, metavar="DIR")
    p_run.add_argument(
        "--no-restart",
        action="store_true",
        help="do not reboot the container if its monitor dies",
    )
    p_run.add_argument("--grace-ms", type=int, default=None, help="stop grace period")
    p_run.add_argument(
        "--sigint-kills",
        action="store_true",
        help="Ctrl-C sends SIGKILL to the container instead of SIGTERM",
    )
    p_run.add_argument("argv", nargs=argparse.REMAINDER, metavar="-- CMD [ARG...]")

    p_start = sub.add_parser("start", help="re-run an exited container's spec")
    p_start.add_argument("id")

    p_stop = sub.add_parser("stop", help="graceful stop (SIGTERM, then SIGKILL)")
    p_stop.add_argument("id")
    p_stop.add_argument("--grace-ms", type=int, default=None)

    for name, help_text in (
        ("kill", "SIGKILL the container group"),
        ("pause", "SIGSTOP the container group"),
        ("unpause", "SIGCONT the container group"),
        ("restart", "stop, then relaunch with the same id"),
        ("wait", "block until exit; print the exit code"),
        ("top", "list the container's processes"),
        ("stats", "one CPU/RSS sample pair"),
        ("rm", "remove an exited container's record"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("id")
        if name in ("wait", "top", "stats"):
            allow_trailing_json(p)

    p_logs = sub.add_parser("logs", help="replay captured output")
    p_logs.add_argument("id")
    p_logs.add_argument("--follow", "-f", action="store_true")

    p_attach = sub.add_parser("attach", help="bridge stdio to the container")
    p_attach.add_argument("id")
    p_attach.add_argument("--sigint-kills", action="store_true")

    p_exec = sub.add_parser("exec", help="run a command inside the container")
    p_exec.add_argument("id")
    p_exec.add_argument("--env", "-e", action="append", default=[], metavar="KEY=VALUE")
    p_exec.add_argument("argv", nargs=argparse.REMAINDER, metavar="-- CMD [ARG...]")

    allow_trailing_json(sub.add_parser("ps", help="list containers"))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"hydra: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    if not args.command:
        parser.print_usage(sys.stderr)
        return 1

    layout = resolve_layout(state_root(args.state_dir))
    client = DaemonClient(layout)
    try:
        return _dispatch(args, layout, client)
    except _UsageError as exc:
        print(f"hydra: error: {exc}", file=sys.stderr)
        return 1
    except TransportError as exc:
        print(f"hydra: error: {exc}", file=sys.stderr)
        return 2
    except RequestFailed as exc:
        print(f"hydra: error: {exc}", file=sys.stderr)
        return 2 if exc.code == "internal" else 1
    except KeyboardInterrupt:
        return 130
    except HydraError as exc:
        print(f"hydra: error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace, layout: StateDirLayout, client: DaemonClient) -> int:
    if args.command == "daemon":
        if args.daemon_command == "start":
            return _daemon_start(args, layout, client)
        if args.daemon_command == "stop":
            reply = client.request("shutdown", timeout=10.0)
            _wait_pid_gone(int(reply["pid"]), timeout_s=10.0)
            print("stopped")
            return 0
        if args.daemon_command == "status":
            return _render(args, client.request("status", timeout=10.0), _render_status)
        raise _UsageError("daemon needs one of: start, stop, status")

    if args.command == "run":
        return _cmd_run(args, layout, client)
    if args.command == "start":
        reply = client.request("start", id=args.id, timeout=None)
        print(reply["id"])
        return 0
    if args.command == "stop":
        fields: dict[str, Any] = {"id": args.id}
        if args.grace_ms is not None:
            fields["grace_ms"] = args.grace_ms
        reply = client.request("stop", timeout=10.0, **fields)
        print(reply["id"])
        return 0
    if args.command in ("kill", "pause", "unpause"):
        reply = client.request(args.command, id=args.id, timeout=10.0)
        print(reply["id"])
        return 0
    if args.command == "restart":
        reply = client.request("restart", id=args.id, timeout=None)
        print(reply["id"])
        return 0
    if args.command == "wait":
        reply = client.request("wait", id=args.id, timeout=None)
        return _render(args, reply, _render_wait)
    if args.command == "top":
        return _render(args, client.request("top", id=args.id, timeout=10.0), _render_top)
    if args.command == "stats":
        return _render(args, client.request("stats", id=args.id, timeout=10.0), _render_stats)
    if args.command == "rm":
        reply = client.request("rm", id=args.id, timeout=10.0)
        print(reply["id"])
        return 0
    if args.command == "ps":
        return _render(args, _list_containers(client), _render_ps)
    if args.command == "logs":
        return _cmd_logs(args, client)
    if args.command == "attach":
        return _cmd_attach(args, client)
    if args.command == "exec":
        return _cmd_exec(args, client)
    raise _UsageError(f"unknown command {args.command!r}")


def _list_containers(client: DaemonClient) -> dict[str, Any]:
    """The ps reply, gathered page by page: one reply line cannot hold a
    long history. A daemon that does not page answers all in one."""
    rows: list[dict[str, Any]] = []
    fields: dict[str, Any] = {"limit": _PS_PAGE}
    while True:
        reply = client.request("ps", timeout=10.0, **fields)
        rows += reply["containers"]
        if reply.get("next") is None:
            return {"ok": True, "containers": rows}
        fields["after"] = reply["next"]


# -- daemon lifecycle -------------------------------------------------------


def _daemon_start(args: argparse.Namespace, layout: StateDirLayout, client: DaemonClient) -> int:
    if args.foreground:
        from .daemon import run

        return run(args.state_dir, args.mode)

    mode = SupervisionMode(args.mode) if args.mode else SupervisionMode.DECOUPLED

    with contextlib.suppress(TransportError, RequestFailed):
        status = client.request("status", timeout=5.0)
        print(
            f"hydra: error: daemon already running (pid {status['pid']})",
            file=sys.stderr,
        )
        return 1

    child_argv = [
        sys.executable,
        "-m",
        "hydra",
        "--state-dir",
        str(layout.root),
        "--mode",
        mode.value,
        "daemon",
        "start",
        "--foreground",
    ]
    log_path = layout.root / "daemon.log"
    log_fd = os.open(log_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o600)
    try:
        proc = subprocess.Popen(
            child_argv,
            stdin=subprocess.DEVNULL,
            stdout=log_fd,
            stderr=log_fd,
            start_new_session=True,
        )
    finally:
        os.close(log_fd)

    deadline = time.monotonic() + _DAEMON_START_TIMEOUT_S
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            break
        with contextlib.suppress(TransportError, RequestFailed):
            status = client.request("status", timeout=2.0)
            print(f"daemon started (pid {status['pid']}, mode {status['mode']})")
            return 0
        time.sleep(0.05)
    print(
        f"hydra: error: daemon did not come up; see {log_path}",
        file=sys.stderr,
    )
    return 2


def _wait_pid_gone(pid: int, *, timeout_s: float) -> None:
    """Return once pid's process has exited, or after timeout_s."""
    try:
        fd = os.pidfd_open(pid)
    except OSError:  # already gone
        return
    try:
        select.select([fd], [], [], timeout_s)  # a pidfd reads ready at exit
    finally:
        os.close(fd)


# -- run / attach / exec -----------------------------------------------------


def _command_argv(raw: list[str]) -> list[str]:
    argv = raw[1:] if raw and raw[0] == "--" else raw
    if not argv:
        raise _UsageError("missing command; usage: ... -- CMD [ARG...]")
    return argv


def _run_spec(args: argparse.Namespace) -> dict[str, Any]:
    spec = ContainerSpec(
        command=tuple(_command_argv(args.argv)),
        env=tuple(args.env),
        working_dir=args.workdir,
        isolation=Isolation.NAMESPACES if args.isolate else Isolation.NONE,
        restart_on_monitor_loss=not args.no_restart,
        stop_grace_ms=args.grace_ms if args.grace_ms is not None else 10_000,
    )
    return spec.to_dict()


def _cmd_run(args: argparse.Namespace, layout: StateDirLayout, client: DaemonClient) -> int:
    reply = client.request("run", spec=_run_spec(args), timeout=30.0)
    container_id = reply["id"]
    if args.detach:
        print(container_id)
        return 0

    _install_sigint_forwarder(client, container_id, kills=args.sigint_kills)
    code: int | None = None
    dialed = False
    try:
        request = {"op": "attach", "replay": True}
        with MonitorStream(reply["monitor_sock"], request) as stream:
            dialed = True
            code = _bridge(stream)
    except (TransportError, RequestFailed):
        pass  # a fast container's monitor can be gone already
    if code is None:
        code = _wait_exit_code(client.request("wait", id=container_id, timeout=None))
        if not dialed:
            # The monitor never showed us anything; replay the captured log.
            _emit_logs(client, container_id, follow=False)
    return code


def _cmd_attach(args: argparse.Namespace, client: DaemonClient) -> int:
    reply = client.request("attach", id=args.id, timeout=10.0)
    _install_sigint_forwarder(client, args.id, kills=args.sigint_kills)
    with MonitorStream(reply["monitor_sock"], {"op": "attach"}) as stream:
        code = _bridge(stream)
    return code if code is not None else 0


def _cmd_exec(args: argparse.Namespace, client: DaemonClient) -> int:
    command = _command_argv(args.argv)
    reply = client.request("exec", id=args.id, timeout=10.0)
    request: dict[str, Any] = {"op": "exec", "command": command}
    if args.env:
        request["env"] = args.env
    with MonitorStream(reply["monitor_sock"], request) as stream:
        code = _bridge(stream)
    return code if code is not None else 0


def _cmd_logs(args: argparse.Namespace, client: DaemonClient) -> int:
    return _emit_logs(client, args.id, follow=args.follow)


def _emit_logs(client: DaemonClient, container_id: str, *, follow: bool) -> int:
    reply = client.request("logs", id=container_id, timeout=10.0)
    out, err = sys.stdout.buffer, sys.stderr.buffer
    if reply["route"] == "monitor":
        request = {"op": "logs", "follow": follow}
        try:
            stream = MonitorStream(reply["monitor_sock"], request)
        except (TransportError, RequestFailed):
            stream = None  # monitor exited between the daemon's check and our dial
        if stream is not None:
            with stream:
                for tag, payload in stream.frames(timeout=None):
                    if tag == FRAME_EXIT_NOTICE:
                        break
                    _write_frame(out, err, tag, payload)
            return 0
    path = reply.get("log_path") or str(client.layout.log_path(container_id))
    try:
        frames = read_log_frames(path)
    except FileNotFoundError:
        return 0  # never produced output
    for tag, payload in frames:
        _write_frame(out, err, tag, payload)
    return 0


def _write_frame(out: Any, err: Any, tag: int, payload: bytes) -> None:
    if tag == FRAME_STDOUT:
        out.write(payload)
        out.flush()
    elif tag == FRAME_STDERR:
        err.write(payload)
        err.flush()


def _bridge(stream: MonitorStream) -> int | None:
    """Pump frames to stdout/stderr and stdin to the peer. Returns the exit
    code carried by an exit notice, or None if the stream ended without one."""
    stop = threading.Event()
    pump = threading.Thread(target=_pump_stdin, args=(stream, stop), daemon=True)
    pump.start()
    code: int | None = None
    out, err = sys.stdout.buffer, sys.stderr.buffer
    try:
        for tag, payload in stream.frames(timeout=None):
            if tag == FRAME_EXIT_NOTICE:
                code = exit_code_from_notice(payload)
                break
            _write_frame(out, err, tag, payload)
    finally:
        stop.set()
    return code


def _pump_stdin(stream: MonitorStream, stop: threading.Event) -> None:
    fd = sys.stdin.fileno() if sys.stdin else None
    if fd is None:
        return
    try:
        while not stop.is_set():
            data = os.read(fd, 65536)
            if not data:
                stream.close_write()
                return
            stream.send_stdin(data)
    except (OSError, ValueError, HydraError):
        return


def _install_sigint_forwarder(client: DaemonClient, container_id: str, *, kills: bool) -> None:
    signum = signal.SIGKILL if kills else signal.SIGTERM

    def forward(_signo: int, _frame: Any) -> None:
        with contextlib.suppress(HydraError):
            client.request("signal", id=container_id, signum=int(signum), timeout=5.0)

    signal.signal(signal.SIGINT, forward)


def _wait_exit_code(reply: dict[str, Any]) -> int:
    if reply.get("exit_code") is not None:
        return int(reply["exit_code"])
    return 128 + int(reply.get("term_signal") or 0)


# -- rendering ---------------------------------------------------------------


def _render(args: argparse.Namespace, reply: dict[str, Any], human: Any) -> int:
    payload = {k: v for k, v in reply.items() if k != "ok"}
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    return human(payload)


def _render_wait(payload: dict[str, Any]) -> int:
    print(_wait_exit_code(payload))
    return 0


def _render_status(payload: dict[str, Any]) -> int:
    counts = payload.get("containers") or {}
    summary = ", ".join(f"{kind}={n}" for kind, n in sorted(counts.items())) or "none"
    print(f"pid:           {payload['pid']}")
    print(f"mode:          {payload['mode']}")
    print(f"state dir:     {payload['state_dir']}")
    print(f"uptime:        {payload['uptime_ms']} ms")
    print(f"last restore:  {payload['restore_ms']} ms")
    print(f"containers:    {summary}")
    return 0


def _state_cell(row: dict[str, Any]) -> str:
    state = row["state"]
    if state != "exited":
        return state
    if row.get("exit_code") is not None:
        cell = f"exited({row['exit_code']})"
    else:
        cell = f"exited(sig{row.get('term_signal')})"
    return cell + ("?" if row.get("exit_unknown") else "")


def _render_ps(payload: dict[str, Any]) -> int:
    rows = payload.get("containers") or []
    table = [("CONTAINER ID", "STATE", "PID", "RESTARTS", "COMMAND")]
    for row in rows:
        command = " ".join(row.get("command") or ())
        if len(command) > 40:
            command = command[:37] + "..."
        table.append(
            (
                row["id"],
                _state_cell(row),
                str(row.get("pid") or "-"),
                str(row.get("restart_count", 0)),
                command,
            )
        )
    _print_table(table)
    return 0


def _render_top(payload: dict[str, Any]) -> int:
    table = [("PID", "PPID", "CPU TICKS", "RSS BYTES", "COMMAND")]
    for row in payload.get("processes") or []:
        table.append(
            (
                str(row["pid"]),
                str(row["ppid"]),
                str(row["cpu_ticks"]),
                str(row["rss_bytes"]),
                row["command"][:40],
            )
        )
    _print_table(table)
    return 0


def _render_stats(payload: dict[str, Any]) -> int:
    print(
        f"{payload['id']}  cpu {payload['cpu_percent']}%  "
        f"rss {payload['rss_bytes']} bytes  procs {payload['processes']}"
    )
    return 0


def _print_table(rows: list[tuple[str, ...]]) -> None:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        line = "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        print(line.rstrip())
