"""Line-delimited JSON protocol over a child process's stdin/stdout.

One JSON object per request line, one JSON object per response line, in
request order. The client adds an ``"id"`` to each request, a counter of
its own, and every reply must echo it. Shared by the external embedder
and external scorer adapters.
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

_CHUNK = 65536  # bytes per pipe read or write


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
        self.restarts = 0  # children started in place of a failed or exited one
        self._next_id = 0  # the id of the next request, never reused
        self._proc = self._start()
        self._buffer = b""
        self._closed = False
        self._lock = threading.Lock()  # batches are serialized per child

    def _start(self) -> subprocess.Popen:
        try:
            proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )
        except OSError as exc:
            raise ProtocolError(f"cannot start {self.command!r}: {exc}") from exc
        os.set_blocking(proc.stdin.fileno(), False)  # see _exchange
        return proc

    def call(self, requests: Sequence[dict]) -> list[dict]:
        """Send a batch of request objects; returns responses in order.

        Each request is sent with the next ``"id"`` of this client, and its
        reply must echo that id; the id is removed from the response
        returned. After a failed batch (timeout, malformed or missing reply,
        or a reply with another id or none) replies may still be in flight
        and would be read as the next batch's, so the batch raises
        ``ProtocolError`` and the child is killed. The next batch starts a
        fresh child, as it does for one that exited. So does output left
        after a batch's replies or waiting before it is written. A stray
        line that arrives mid-batch carries an id already answered, or
        none, so it fails that batch instead of being read as its reply.
        """
        with self._lock:
            if self._closed:
                raise ProtocolError(f"{self.command!r} is closed")
            if self._proc.poll() is not None:
                self._end()
                self._proc, self._buffer = self._start(), b""
                self.restarts += 1
            try:
                return self._call_locked(requests)
            except ProtocolError:
                self._proc.kill()
                self._end()
                raise

    def _call_locked(self, requests: Sequence[dict]) -> list[dict]:
        ids = range(self._next_id, self._next_id + len(requests))
        self._next_id = ids.stop
        payload = b"".join(
            json.dumps({**req, "id": i}, ensure_ascii=False).encode("utf-8") + b"\n"
            for req, i in zip(requests, ids)
        )
        responses = []
        for want, line in zip(ids, self._exchange(payload, len(requests))):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ProtocolError(
                    f"{self.command!r} sent a non-JSON response line"
                ) from exc
            if not isinstance(obj, dict):
                raise ProtocolError(f"{self.command!r} response must be a JSON object")
            got = obj.pop("id", None)
            if type(got) is not int or got != want:
                raise ProtocolError(
                    f"{self.command!r} answered request id {want} with id {got!r}"
                )
            responses.append(obj)
        return responses

    def _exchange(self, payload: bytes, count: int) -> list[bytes]:
        """Write ``payload`` while reading ``count`` reply lines.

        fd-level reads and non-blocking writes, so the timeout applies to
        the pipes, not a buffer, and a child that stops reading until its
        full output pipe drains cannot stall a large batch. The timeout
        restarts with each reply line and covers the writes before it.
        """
        out_fd = self._proc.stdout.fileno()
        in_fd = self._proc.stdin.fileno()
        if self._buffer or select.select([out_fd], [], [], 0)[0]:
            raise ProtocolError(f"{self.command!r} sent output no request asked for")
        pending = memoryview(payload)
        lines: list[bytes] = []
        deadline = time.monotonic() + self.timeout
        while len(lines) < count or pending:
            newline = self._buffer.find(b"\n")
            if newline >= 0 and len(lines) < count:
                lines.append(self._buffer[:newline])
                self._buffer = self._buffer[newline + 1 :]
                deadline = time.monotonic() + self.timeout
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ProtocolError(
                    f"{self.command!r} timed out after {self.timeout:g}s"
                )
            readable, writable, _ = select.select(
                [out_fd] if len(lines) < count else [],
                [in_fd] if pending else [],
                [],
                remaining,
            )
            if writable:
                try:
                    pending = pending[os.write(in_fd, pending[:_CHUNK]) :]
                except BlockingIOError:
                    pass
                except OSError as exc:
                    raise ProtocolError(
                        f"{self.command!r} is unreachable: {exc}"
                    ) from exc
            if readable:
                chunk = os.read(out_fd, _CHUNK)
                if not chunk:
                    raise ProtocolError(f"{self.command!r} closed its output mid-batch")
                self._buffer += chunk
        if self._buffer:
            raise ProtocolError(f"{self.command!r} sent more lines than requests")
        return lines

    def close(self) -> None:
        """End the child (EOF on its stdin, then a kill after 5 s) and close
        both of its pipes; later calls raise ``ProtocolError``. Safe to call
        more than once."""
        self._closed = True
        self._end()

    def _end(self) -> None:
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
