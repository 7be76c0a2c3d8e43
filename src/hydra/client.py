"""Synchronous clients for the daemon and monitor sockets.

The CLI, the benchmark and the tests all talk to the engine through
these. Requests are one JSON line each way; attach/exec/logs connections
then turn into frame streams, which MonitorStream exposes as an iterator.
"""

from __future__ import annotations

import socket
from pathlib import Path
from typing import Any, Iterator

from .model import HydraError
from .protocol import (
    MAX_MESSAGE_BYTES,
    FrameDecoder,
    FrameError,
    MessageFormatError,
    StateDirLayout,
    decode_exit_line,
    decode_message,
    encode_frame,
    encode_message,
    FRAME_STDIN,
)

__all__ = [
    "CONNECT_TIMEOUT_S",
    "TransportError",
    "RequestFailed",
    "DaemonClient",
    "MonitorStream",
    "read_log_frames",
    "exit_code_from_notice",
]

CONNECT_TIMEOUT_S = 5.0
_READLINE_CHUNK = 65536


class TransportError(HydraError):
    """The socket could not be reached or died mid-request."""

    def __init__(self, sock_path: str | Path, why: str):
        super().__init__(f"cannot reach {sock_path}: {why}")
        self.sock_path = str(sock_path)


class RequestFailed(HydraError):
    """The peer answered with ok=false."""

    def __init__(self, code: str, detail: str = ""):
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail


def _connect(sock_path: str | Path) -> socket.socket:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(CONNECT_TIMEOUT_S)
    try:
        sock.connect(str(sock_path))
    except (OSError, ValueError) as exc:
        sock.close()
        raise TransportError(sock_path, str(exc)) from None
    return sock


class _LineChannel:
    """Newline-delimited request/reply over a stream socket, keeping any
    bytes read past the newline (they belong to a following frame stream)."""

    def __init__(self, sock: socket.socket, sock_path: str | Path):
        self.sock = sock
        self.sock_path = sock_path
        self.residue = b""

    def send_line(self, message: dict[str, Any]) -> None:
        try:
            self.sock.sendall(encode_message(message))
        except OSError as exc:
            raise TransportError(self.sock_path, str(exc)) from None

    def read_line(self, timeout: float | None) -> dict[str, Any]:
        self.sock.settimeout(timeout)
        buf = bytearray(self.residue)
        while b"\n" not in buf:
            if len(buf) > MAX_MESSAGE_BYTES:
                raise TransportError(self.sock_path, "reply line too long")
            try:
                chunk = self.sock.recv(_READLINE_CHUNK)
            except socket.timeout:
                raise TransportError(self.sock_path, "reply timed out") from None
            except OSError as exc:
                raise TransportError(self.sock_path, str(exc)) from None
            if not chunk:
                raise TransportError(self.sock_path, "connection closed mid-reply")
            buf += chunk
        line, _, rest = bytes(buf).partition(b"\n")
        self.residue = rest
        try:
            return decode_message(line + b"\n")
        except MessageFormatError as exc:
            raise TransportError(self.sock_path, str(exc)) from None


def _check(reply: dict[str, Any]) -> dict[str, Any]:
    if not reply.get("ok", False):
        raise RequestFailed(
            str(reply.get("error", "request_failed")), str(reply.get("detail", ""))
        )
    return reply


class DaemonClient:
    """One-shot request/reply against the daemon socket."""

    def __init__(self, layout: StateDirLayout):
        self.layout = layout

    def request(
        self, op: str, *, timeout: float | None = None, **fields: Any
    ) -> dict[str, Any]:
        """Send one op; returns the reply dict or raises RequestFailed.

        timeout bounds the wait for the reply; None blocks (wait/restart
        legitimately take as long as the container does).
        """
        sock = _connect(self.layout.daemon_sock)
        try:
            channel = _LineChannel(sock, self.layout.daemon_sock)
            channel.send_line({"op": op, **fields})
            return _check(channel.read_line(timeout))
        finally:
            sock.close()


class MonitorStream:
    """A monitor connection after its request line: reply plus frame stream."""

    def __init__(self, sock_path: str | Path, request: dict[str, Any],
                 *, timeout: float | None = 10.0):
        self.sock = _connect(sock_path)
        try:
            self.channel = _LineChannel(self.sock, sock_path)
            self.channel.send_line(request)
            self.reply = _check(self.channel.read_line(timeout))
        except BaseException:  # the caller gets no object to close
            self.sock.close()
            raise

    def frames(self, timeout: float | None = None) -> Iterator[tuple[int, bytes]]:
        """Yield (tag, payload) until the monitor closes the stream."""
        decoder = FrameDecoder()
        self.sock.settimeout(timeout)
        pending = decoder.feed(self.channel.residue)
        self.channel.residue = b""
        yield from pending
        while True:
            try:
                data = self.sock.recv(_READLINE_CHUNK)
            except socket.timeout:
                return
            except OSError:
                return
            if not data:
                return
            try:
                yield from decoder.feed(data)
            except FrameError:
                return

    def send_stdin(self, data: bytes) -> None:
        try:
            self.sock.sendall(encode_frame(FRAME_STDIN, data))
        except OSError as exc:
            raise TransportError(self.channel.sock_path, str(exc)) from None

    def close_write(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self) -> MonitorStream:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_log_frames(path: str | Path) -> Iterator[tuple[int, bytes]]:
    """Decode a captured log file into its frames (no monitor needed)."""
    decoder = FrameDecoder()
    with open(path, "rb") as fh:
        while True:
            data = fh.read(_READLINE_CHUNK)
            if not data:
                return
            yield from decoder.feed(data)


def exit_code_from_notice(payload: bytes) -> int:
    """Map an exit-notice frame to the code a shell would report."""
    report = decode_exit_line(payload.decode("utf-8", "replace"))
    if report.exit_code is not None:
        return report.exit_code
    return 128 + int(report.term_signal or 0)

