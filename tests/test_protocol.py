"""Wire and file formats: golden bytes, round trips, atomicity under concurrency."""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import signal
import stat
import time
from pathlib import Path

import pytest

from hydra.model import ContainerState, ExitReport, InvalidSpec, ProcessIdentity, StateKind
from hydra.protocol import (
    EXIT_NOTIFY,
    BadTag,
    ExitFormatError,
    FrameDecoder,
    FrameTooLarge,
    MAX_FRAME_PAYLOAD,
    MessageFormatError,
    PidFileError,
    RecordFormatError,
    decode_exit_line,
    decode_message,
    decode_pid_line,
    dump_record,
    encode_exit_report,
    encode_frame,
    encode_message,
    encode_pid_line,
    load_record,
    read_exit_report,
    read_settled_index,
    resolve_layout,
    settled_identity,
    settled_line,
    write_exit_report,
)

from .support import make_random_record, make_random_report


class TestLayout:
    def test_derived_paths(self, tmp_path):
        layout = resolve_layout(tmp_path)
        cid = "aabbccddeeff0011"
        assert layout.daemon_sock == tmp_path / "daemon.sock"
        assert layout.daemon_pid == tmp_path / "daemon.pid"
        assert layout.exit_path(cid) == tmp_path / "exits" / f"{cid}.exit"
        assert layout.log_path(cid) == tmp_path / "logs" / f"{cid}.log"
        assert layout.record_path(cid) == tmp_path / "containers" / cid / "record.json"
        assert layout.monitor_sock(cid) == tmp_path / "containers" / cid / "monitor.sock"

    def test_creates_dirs_mode_0700(self, tmp_path):
        root = tmp_path / "state"
        layout = resolve_layout(root)
        for directory in (root, layout.containers_dir, layout.exits_dir, layout.logs_dir):
            assert directory.is_dir()
            assert stat.S_IMODE(directory.stat().st_mode) == 0o700

    def test_rejects_relative_root(self):
        with pytest.raises(InvalidSpec):
            resolve_layout("relative/dir")

    def test_idempotent(self, tmp_path):
        first = resolve_layout(tmp_path)
        second = resolve_layout(tmp_path)
        assert first == second


class TestExitFile:
    GOLDEN_REPORT = ExitReport("aabbccddeeff0011", 0, None, 1700000000000)
    GOLDEN_LINE = "aabbccddeeff0011 code 0 1700000000000\n"

    def test_golden_code_line(self):
        assert encode_exit_report(self.GOLDEN_REPORT) == self.GOLDEN_LINE

    def test_golden_signal_line(self):
        report = ExitReport("aabbccddeeff0011", None, 9, 1700000000001)
        assert encode_exit_report(report) == "aabbccddeeff0011 signal 9 1700000000001\n"

    def test_decode_is_inverse(self):
        assert decode_exit_line(self.GOLDEN_LINE) == self.GOLDEN_REPORT

    def test_write_then_rewrite_is_byte_identical(self, tmp_path):
        layout = resolve_layout(tmp_path)
        path = write_exit_report(layout, self.GOLDEN_REPORT)
        first = path.read_bytes()
        write_exit_report(layout, self.GOLDEN_REPORT)
        assert path.read_bytes() == first == self.GOLDEN_LINE.encode()

    def test_read_round_trip(self, tmp_path):
        layout = resolve_layout(tmp_path)
        path = write_exit_report(layout, self.GOLDEN_REPORT)
        assert read_exit_report(path) == self.GOLDEN_REPORT

    @pytest.mark.parametrize(
        "line",
        [
            "aabbccddeeff0011 code 0\n",  # 3 fields
            "aabbccddeeff0011 code 0 1 2\n",  # 5 fields
            "aabbccddeeff0011 code 0 1700000000000",  # no newline
            "aabbccddeeff0011 weird 0 1700000000000\n",  # unknown kind
            "aabbccddeeff0011 code zero 1700000000000\n",  # non-decimal
            "UPPERCASE0011AAA code 0 1700000000000\n",  # bad id
            "aabbccddeeff0011 code 999 1700000000000\n",  # code out of range
            "aabbccddeeff0011 signal 0 1700000000000\n",  # signal must be positive
            "\n",
            "",
        ],
    )
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(ExitFormatError):
            decode_exit_line(line)

    def test_thousand_random_round_trips(self):
        rng = random.Random(2024)
        for _ in range(1000):
            report = make_random_report(rng)
            assert decode_exit_line(encode_exit_report(report)) == report

    def test_concurrent_writers_never_expose_partial_files(self, tmp_path):
        """A polling reader during 1000 concurrent writes sees only whole lines."""
        layout = resolve_layout(tmp_path)
        writers, writes_each = 8, 125
        barrier = multiprocessing.Barrier(writers + 1)

        def write_batch(worker: int) -> None:
            rng = random.Random(worker)
            barrier.wait()
            for _ in range(writes_each):
                write_exit_report(layout, make_random_report(rng))

        procs = [
            multiprocessing.Process(target=write_batch, args=(i,)) for i in range(writers)
        ]
        for proc in procs:
            proc.start()
        barrier.wait()
        malformed: list[str] = []
        while any(proc.is_alive() for proc in procs):
            for path in layout.exits_dir.iterdir():
                if path.suffix != ".exit":
                    continue  # in-flight temp file, invisible to real readers
                try:
                    read_exit_report(path)
                except ExitFormatError as exc:
                    malformed.append(f"{path.name}: {exc}")
        for proc in procs:
            proc.join()
        assert not malformed
        assert len(list(layout.exits_dir.glob("*.exit"))) == writers * writes_each


def decode_whole(stream: bytes) -> list[tuple[int, bytes]]:
    """The frames of a complete stream, which leaves nothing pending."""
    decoder = FrameDecoder()
    frames = decoder.feed(stream)
    assert decoder.pending == b""
    return frames


class TestFrames:
    def test_golden_stdout_frame(self):
        assert encode_frame(1, b"hi") == bytes.fromhex("01 00 00 00 02 68 69".replace(" ", ""))

    def test_empty_exit_notice_is_five_bytes(self):
        frame = encode_frame(3, b"")
        assert frame == b"\x03\x00\x00\x00\x00"
        assert len(frame) == 5

    def test_rejects_bad_tag(self):
        with pytest.raises(BadTag):
            encode_frame(4, b"")
        with pytest.raises(BadTag):
            FrameDecoder().feed(b"\x09\x00\x00\x00\x00")

    def test_rejects_oversized_payload(self):
        with pytest.raises(FrameTooLarge):
            encode_frame(1, b"x" * (MAX_FRAME_PAYLOAD + 1))
        # a length header over the cap is rejected without waiting for the body
        with pytest.raises(FrameTooLarge):
            FrameDecoder().feed(b"\x01" + (MAX_FRAME_PAYLOAD + 1).to_bytes(4, "big"))

    def test_max_payload_allowed(self):
        payload = b"z" * MAX_FRAME_PAYLOAD
        assert decode_whole(encode_frame(2, payload)) == [(2, payload)]

    def test_truncated_stream_reports_tail(self):
        stream = encode_frame(1, b"done") + b"\x02\x00\x00\x00\x05abc"
        decoder = FrameDecoder()
        assert decoder.feed(stream) == [(1, b"done")]
        assert decoder.pending == b"\x02\x00\x00\x00\x05abc"

    def test_random_sequences_round_trip(self):
        rng = random.Random(77)
        for _ in range(100):
            frames = [
                (rng.randint(0, 3), rng.randbytes(rng.randint(0, 200)))
                for _ in range(rng.randint(0, 100))
            ]
            stream = b"".join(encode_frame(t, p) for t, p in frames)
            assert decode_whole(stream) == frames

    def test_thousand_single_frame_round_trips(self):
        rng = random.Random(78)
        for _ in range(1000):
            tag, payload = rng.randint(0, 3), rng.randbytes(rng.randint(0, 64))
            assert decode_whole(encode_frame(tag, payload)) == [(tag, payload)]

    def test_decoder_survives_any_chunking(self):
        rng = random.Random(79)
        frames = [(rng.randint(0, 3), rng.randbytes(rng.randint(0, 50))) for _ in range(20)]
        stream = b"".join(encode_frame(t, p) for t, p in frames)
        for chunk_size in (1, 2, 3, 7, len(stream)):
            decoder = FrameDecoder()
            out: list[tuple[int, bytes]] = []
            for i in range(0, len(stream), chunk_size):
                out.extend(decoder.feed(stream[i : i + chunk_size]))
            assert out == frames
            assert decoder.pending == b""


class TestMessages:
    def test_round_trip(self):
        msg = {"op": "run", "id": None, "spec": {"command": ["/bin/true"]}}
        assert decode_message(encode_message(msg)) == msg

    def test_one_line(self):
        data = encode_message({"op": "ps"})
        assert data.endswith(b"\n") and data.count(b"\n") == 1

    def test_rejects_non_json(self):
        with pytest.raises(MessageFormatError):
            decode_message(b"{nope")

    def test_rejects_non_object(self):
        with pytest.raises(MessageFormatError):
            decode_message(b"[1,2,3]")


class TestPidLine:
    def test_round_trip(self):
        ident = ProcessIdentity(pid=4242, start_ticks=999999)
        assert decode_pid_line(encode_pid_line(ident)) == ident

    @pytest.mark.parametrize("line", ["", "12\n", "a b\n", "1 2 3\n", "0 5\n"])
    def test_rejects_malformed(self, line):
        with pytest.raises(PidFileError):
            decode_pid_line(line)


def test_exit_notify_is_rtmin_plus_10():
    """Monitors of older revisions ring the daemon with this very signal."""
    assert EXIT_NOTIFY == signal.SIGRTMIN + 10
    assert EXIT_NOTIFY not in (signal.SIGTERM, signal.SIGSTOP, signal.SIGCONT, signal.SIGKILL)


class TestSettledIndex:
    def test_round_trip(self, tmp_path):
        layout = resolve_layout(tmp_path)
        rng = random.Random(9)
        lines, identities = [], {}
        for _ in range(100):
            record = make_random_record(rng)
            st = os.stat(dump_record(layout, record))
            identities[record.id] = settled_identity(st)
            lines.append(settled_line(record.id, st))
        layout.settled_index.write_text("".join(lines))
        assert read_settled_index(layout.settled_index) == (identities, len(lines))

    @pytest.mark.parametrize("text", [
        "0123456789abcdef 1 2 3",  # no newline: truncated
        "0123456789abcdef 1 2\n",
        "0123456789ABCDEF 1 2 3\n",
        "0123456789abcdef 1 2 3\n\n",
    ])
    def test_any_bad_line_discards_the_index(self, tmp_path, text):
        path = tmp_path / "settled.index"
        path.write_text("fedcba9876543210 1 2 3\n" + text)
        assert read_settled_index(path) is None
        assert read_settled_index(tmp_path / "missing") is None


class TestRecordFile:
    def test_round_trip_random_records(self, tmp_path):
        layout = resolve_layout(tmp_path)
        rng = random.Random(5)
        for _ in range(100):
            record = make_random_record(rng)
            path = dump_record(layout, record)
            assert load_record(path) == record

    def test_rejects_corrupt_json(self, tmp_path):
        path = tmp_path / "record.json"
        path.write_text("{oops")
        with pytest.raises(RecordFormatError):
            load_record(path)

    def test_rejects_invariant_violations(self, tmp_path):
        layout = resolve_layout(tmp_path)
        rng = random.Random(6)
        record = make_random_record(rng)
        record.state = ContainerState.running()
        record.container = ProcessIdentity(pid=1, start_ticks=1)
        path = dump_record(layout, record)
        data = json.loads(path.read_text())
        data["container"] = None  # Running record must carry a container identity
        path.write_text(json.dumps(data))
        with pytest.raises(RecordFormatError):
            load_record(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("command", "true"),
            ("command", [5]),
            ("env", "A=1"),
            ("working_dir", 5),
            ("restart_on_monitor_loss", "no"),
            ("stop_grace_ms", 1.5),
            ("stop_grace_ms", True),
        ],
    )
    def test_rejects_mistyped_spec(self, tmp_path, field, value):
        """A spec field of the wrong type makes the file corrupt, not coerced."""
        path = dump_record(resolve_layout(tmp_path), make_random_record(random.Random(9)))
        data = json.loads(path.read_text())
        data["spec"][field] = value
        path.write_text(json.dumps(data))
        with pytest.raises(RecordFormatError):
            load_record(path)

    def test_dump_refuses_invalid_record(self, tmp_path):
        layout = resolve_layout(tmp_path)
        record = make_random_record(random.Random(8))
        record.state = ContainerState.running()
        record.container = None
        with pytest.raises(InvalidSpec):
            dump_record(layout, record)
