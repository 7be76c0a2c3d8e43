"""Bit-exact encodings and rendezvous conventions.

State-directory layout, exit-file lines, record files, daemon API messages,
attach/log stream framing, pid file lines, and the signal assignments. All
encoders and decoders here are pure; the only I/O helpers are atomic file
writers safe for many concurrent writer processes.
"""

from __future__ import annotations

import json
import os
import re
import signal
from pathlib import Path
from typing import Any, NamedTuple

from .model import (
    ContainerRecord,
    ExitReport,
    HydraError,
    InvalidSpec,
    ProcessIdentity,
    is_container_id,
)

__all__ = [
    "ProtocolError",
    "ExitFormatError",
    "RecordFormatError",
    "MessageFormatError",
    "PidFileError",
    "FrameError",
    "FrameTooLarge",
    "BadTag",
    "StateDirLayout",
    "state_root",
    "resolve_layout",
    "EXIT_NOTIFY",
    "FRAME_STDIN",
    "FRAME_STDOUT",
    "FRAME_STDERR",
    "FRAME_EXIT_NOTICE",
    "MAX_FRAME_PAYLOAD",
    "encode_frame",
    "FrameDecoder",
    "encode_exit_report",
    "decode_exit_line",
    "write_exit_report",
    "read_exit_report",
    "encode_message",
    "decode_message",
    "encode_pid_line",
    "decode_pid_line",
    "write_pid_file",
    "read_pid_file",
    "dump_record",
    "load_record",
    "settled_identity",
    "settled_line",
    "read_settled_index",
    "atomic_write_bytes",
]


class ProtocolError(HydraError):
    """Base class for encoding/decoding failures."""


class ExitFormatError(ProtocolError):
    """An exit file line does not parse."""


class RecordFormatError(ProtocolError):
    """A record.json file does not parse or violates model invariants."""


class MessageFormatError(ProtocolError):
    """A daemon/monitor API line is not a JSON object."""


class PidFileError(ProtocolError):
    """A daemon.pid line does not parse."""


class FrameError(ProtocolError):
    """Base class for stream-framing failures."""


class FrameTooLarge(FrameError):
    """Frame payload exceeds MAX_FRAME_PAYLOAD."""


class BadTag(FrameError):
    """Frame tag outside {0, 1, 2, 3}."""


# ---------------------------------------------------------------------------
# State directory layout


class StateDirLayout(NamedTuple):
    """All paths under one state directory; derived, never stored."""

    root: Path

    @property
    def daemon_sock(self) -> Path:
        return self.root / "daemon.sock"

    @property
    def daemon_pid(self) -> Path:
        return self.root / "daemon.pid"

    @property
    def lock_file(self) -> Path:
        return self.root / "daemon.lock"

    @property
    def containers_dir(self) -> Path:
        return self.root / "containers"

    @property
    def exits_dir(self) -> Path:
        return self.root / "exits"

    @property
    def logs_dir(self) -> Path:
        return self.root / "logs"

    @property
    def settled_index(self) -> Path:
        return self.root / "settled.index"

    def container_dir(self, container_id: str) -> Path:
        return self.containers_dir / container_id

    def record_path(self, container_id: str) -> Path:
        return self.containers_dir / container_id / "record.json"

    def monitor_sock(self, container_id: str) -> Path:
        return self.containers_dir / container_id / "monitor.sock"

    def exit_path(self, container_id: str) -> Path:
        return self.exits_dir / f"{container_id}.exit"

    def log_path(self, container_id: str) -> Path:
        return self.logs_dir / f"{container_id}.log"


def state_root(named: str | None) -> Path:
    """The state directory a command names, else $HYDRA_STATE_DIR, else
    ~/.hydra; a relative path is taken from the current directory."""
    if named is None:
        named = os.environ.get("HYDRA_STATE_DIR", "~/.hydra")
    return Path(named).expanduser().absolute()


def resolve_layout(root: str | Path) -> StateDirLayout:
    """Return the layout for root, creating missing directories mode 0700."""
    root = Path(root)
    if not root.is_absolute():
        raise InvalidSpec(f"state dir must be an absolute path, got {root}")
    layout = StateDirLayout(root)
    for directory in (root, layout.containers_dir, layout.exits_dir, layout.logs_dir):
        directory.mkdir(mode=0o700, exist_ok=True)
    return layout


# ---------------------------------------------------------------------------
# Signal assignments

# The doorbell a monitor rings at the daemon once its exit file is written.
# Monitors launched by older revisions ring the daemon with it too.
EXIT_NOTIFY = int(signal.SIGRTMIN) + 10


# ---------------------------------------------------------------------------
# Atomic file writes

def atomic_write_bytes(path: Path, data: bytes, *, fsync: bool = False) -> None:
    """Write data to path via temp file + rename in the same directory.

    A concurrent reader sees either the old content or the new, never a
    partial write. Safe for many writer processes targeting distinct paths.
    """
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    try:
        os.write(fd, data)
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Exit files


def encode_exit_report(report: ExitReport) -> str:
    """One line: `<id> <kind> <value> <finished_at_ms>\\n`."""
    if report.exit_code is not None:
        kind, value = "code", report.exit_code
    else:
        kind, value = "signal", report.term_signal
    return f"{report.container_id} {kind} {value} {report.finished_at}\n"


def decode_exit_line(text: str) -> ExitReport:
    """Inverse of encode_exit_report; raises ExitFormatError on any deviation."""
    if not text.endswith("\n"):
        raise ExitFormatError("exit line missing trailing newline")
    fields = text[:-1].split(" ")
    if len(fields) != 4:
        raise ExitFormatError(f"expected 4 fields, got {len(fields)}")
    container_id, kind, value_text, finished_text = fields
    try:
        value = int(value_text)
        finished_at = int(finished_text)
    except ValueError as exc:
        raise ExitFormatError(f"non-decimal field in exit line: {exc}") from None
    if kind == "code":
        code, sig = value, None
    elif kind == "signal":
        code, sig = None, value
    else:
        raise ExitFormatError(f"unknown exit kind {kind!r}")
    try:
        return ExitReport(
            container_id=container_id, exit_code=code, term_signal=sig, finished_at=finished_at
        )
    except InvalidSpec as exc:
        raise ExitFormatError(str(exc)) from None


def write_exit_report(layout: StateDirLayout, report: ExitReport) -> Path:
    """Atomically write the exit file for report's container; returns its path."""
    path = layout.exit_path(report.container_id)
    atomic_write_bytes(path, encode_exit_report(report).encode("utf-8"), fsync=True)
    return path


def read_exit_report(path: str | Path) -> ExitReport:
    """Parse an exit file; raises ExitFormatError if malformed."""
    with open(path, "r", encoding="utf-8") as fh:
        return decode_exit_line(fh.read())


# ---------------------------------------------------------------------------
# Attach / log stream framing

FRAME_STDIN = 0
FRAME_STDOUT = 1
FRAME_STDERR = 2
FRAME_EXIT_NOTICE = 3
_VALID_TAGS = frozenset({FRAME_STDIN, FRAME_STDOUT, FRAME_STDERR, FRAME_EXIT_NOTICE})
MAX_FRAME_PAYLOAD = 1 << 20  # 1 MiB


def encode_frame(tag: int, payload: bytes) -> bytes:
    """1 byte tag + 4 byte big-endian length + payload."""
    if tag not in _VALID_TAGS:
        raise BadTag(f"tag {tag} not in {sorted(_VALID_TAGS)}")
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise FrameTooLarge(f"payload {len(payload)} bytes exceeds {MAX_FRAME_PAYLOAD}")
    return bytes((tag,)) + len(payload).to_bytes(4, "big") + payload


class FrameDecoder:
    """Incremental frame decoder for a byte stream arriving in chunks."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        """Consume a chunk, return all frames completed by it."""
        self._buf += data
        frames: list[tuple[int, bytes]] = []
        while len(self._buf) >= 5:
            tag = self._buf[0]
            if tag not in _VALID_TAGS:
                raise BadTag(f"tag {tag} not in {sorted(_VALID_TAGS)}")
            length = int.from_bytes(self._buf[1:5], "big")
            if length > MAX_FRAME_PAYLOAD:
                raise FrameTooLarge(f"payload {length} bytes exceeds {MAX_FRAME_PAYLOAD}")
            if len(self._buf) < 5 + length:
                break
            frames.append((tag, bytes(self._buf[5 : 5 + length])))
            del self._buf[: 5 + length]
        return frames

    @property
    def pending(self) -> bytes:
        """Bytes fed but not yet forming a complete frame."""
        return bytes(self._buf)


# ---------------------------------------------------------------------------
# Daemon / monitor API messages (newline-delimited JSON objects)

MAX_MESSAGE_BYTES = 1 << 20


def encode_message(message: dict[str, Any]) -> bytes:
    """One compact JSON object terminated by a newline."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_message(line: bytes | str) -> dict[str, Any]:
    """Parse one API line; raises MessageFormatError unless it is a JSON object."""
    try:
        value = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MessageFormatError(f"bad API line: {exc}") from None
    if not isinstance(value, dict):
        raise MessageFormatError(f"API line is {type(value).__name__}, not an object")
    return value


# ---------------------------------------------------------------------------
# daemon.pid


def encode_pid_line(identity: ProcessIdentity) -> str:
    return f"{identity.pid} {identity.start_ticks}\n"


def decode_pid_line(text: str) -> ProcessIdentity:
    fields = text.strip().split(" ")
    if len(fields) != 2:
        raise PidFileError(f"expected `pid start_ticks`, got {text!r}")
    try:
        return ProcessIdentity(pid=int(fields[0]), start_ticks=int(fields[1]))
    except (ValueError, InvalidSpec) as exc:
        raise PidFileError(str(exc)) from None


def write_pid_file(path: Path, identity: ProcessIdentity) -> None:
    atomic_write_bytes(path, encode_pid_line(identity).encode("utf-8"))


def read_pid_file(path: str | Path) -> ProcessIdentity:
    with open(path, "r", encoding="utf-8") as fh:
        return decode_pid_line(fh.read())


# ---------------------------------------------------------------------------
# Record files


def dump_record(layout: StateDirLayout, record: ContainerRecord) -> Path:
    """Validate and atomically persist a record; returns its path."""
    record.check()
    path = layout.record_path(record.id)
    path.parent.mkdir(mode=0o700, exist_ok=True)
    data = json.dumps(record.to_dict(), indent=2).encode("utf-8") + b"\n"
    atomic_write_bytes(path, data)
    return path


def load_record(path: str | Path) -> ContainerRecord:
    """Parse a record file; raises RecordFormatError if malformed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise RecordFormatError(f"{path}: not a JSON object")
        record = ContainerRecord.from_dict(data)
        record.check()
        return record
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError, ValueError) as exc:
        raise RecordFormatError(f"{path}: {exc}") from None
    except InvalidSpec as exc:
        raise RecordFormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Settled index: one line per Exited record, appended by the daemon
#
#   <id> <st_ino> <st_mtime_ns> <st_size>
#
# The stat fields name the record.json the line was made from, which was
# Exited. A line is only trusted while the file on disk still has that
# identity: record files are replaced by rename, never rewritten in place.

_SETTLED_LINE = re.compile(r"^([0-9a-f]{16}) ([0-9]+ [0-9]+ [0-9]+)$", re.MULTILINE)


def settled_identity(stat: os.stat_result) -> str:
    return f"{stat.st_ino} {stat.st_mtime_ns} {stat.st_size}"


def settled_line(container_id: str, stat: os.stat_result) -> str:
    return f"{container_id} {settled_identity(stat)}\n"


def read_settled_index(path: Path) -> tuple[dict[str, str], int] | None:
    """Map id -> settled_identity, later lines winning, and the line count.

    None when the file is missing or any line is malformed, a truncated last
    line included: then nothing in it is trusted.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("ascii")
    except (OSError, UnicodeDecodeError):
        return None
    lines = text.count("\n")
    if text and not text.endswith("\n"):
        return None
    found = _SETTLED_LINE.findall(text)
    if len(found) != lines:
        return None
    return dict(found), lines
