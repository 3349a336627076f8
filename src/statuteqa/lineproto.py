"""Line-delimited JSON protocol over a child process's stdin/stdout.

One JSON object per request line, one JSON object per response line, in
request order. Shared by the external embedder and external scorer
adapters.
"""

from __future__ import annotations

import json
import math
import os
import select
import subprocess
import threading
import time
from typing import Sequence

__all__ = ["ProtocolError", "LineProtocolClient", "finite_real"]


class ProtocolError(RuntimeError):
    """Child process unreachable, timed out, or sent a malformed response."""


def finite_real(value: object) -> float | None:
    """``value`` as a float if it is a finite JSON number, else None.

    Booleans, strings, null, NaN, infinities and integers too large for a
    float are not finite reals.
    """
    if type(value) not in (int, float):
        return None
    try:
        number = float(value)
    except OverflowError:
        return None
    return number if math.isfinite(number) else None


class LineProtocolClient:
    """Serializes batches of requests to one long-lived child process."""

    def __init__(self, command: Sequence[str], timeout: float = 30.0) -> None:
        self.command = list(command)
        self.timeout = timeout
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )
        except OSError as exc:
            raise ProtocolError(f"cannot start {self.command!r}: {exc}") from exc
        self._buffer = b""
        self._lock = threading.Lock()  # batches are serialized per child

    def call(self, requests: Sequence[dict]) -> list[dict]:
        """Send a batch of request objects; returns responses in order.

        After a failed batch (timeout, malformed or missing reply) replies
        may still be in flight and would be read as the next batch's, so
        the child is killed and every later call raises ``ProtocolError``.
        """
        with self._lock:
            try:
                return self._call_locked(requests)
            except ProtocolError:
                self._proc.kill()
                self.close()
                self._buffer = b""
                raise

    def _call_locked(self, requests: Sequence[dict]) -> list[dict]:
        if self._proc.poll() is not None:
            raise ProtocolError(f"{self.command!r} is not running")
        payload = b"".join(
            json.dumps(req, ensure_ascii=False).encode("utf-8") + b"\n"
            for req in requests
        )
        try:
            self._proc.stdin.write(payload)
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise ProtocolError(f"{self.command!r} is unreachable: {exc}") from exc

        responses = []
        for _ in range(len(requests)):
            line = self._read_line()
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ProtocolError(
                    f"{self.command!r} sent a non-JSON response line"
                ) from exc
            if not isinstance(obj, dict):
                raise ProtocolError(f"{self.command!r} response must be a JSON object")
            responses.append(obj)
        return responses

    def _read_line(self) -> bytes:
        # fd-level reads so the timeout applies to the pipe, not a buffer.
        deadline = time.monotonic() + self.timeout
        fd = self._proc.stdout.fileno()
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = self._buffer[:newline]
                self._buffer = self._buffer[newline + 1 :]
                return line
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ProtocolError(
                    f"{self.command!r} timed out after {self.timeout:g}s"
                )
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise ProtocolError(f"{self.command!r} closed its output mid-batch")
            self._buffer += chunk

    def close(self) -> None:
        """End the child (EOF on its stdin, then a kill after 5 s) and close
        both of its pipes. Safe to call more than once."""
        try:
            self._proc.stdin.close()
        except OSError:  # unflushed bytes to a child that has exited
            pass
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
