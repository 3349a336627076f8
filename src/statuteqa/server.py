"""Minimal read-only HTTP/1.0 query service.

    GET /answer?q=<question>&k=<top_k>   -> query-result JSON
    GET /healthz                         -> status and index fingerprints

The accepting thread puts each connection on a queue of ``QUEUE_SLOTS``;
``WORKERS`` threads take them from it, and a connection that finds the
queue full is answered 503 at once. A connection carries one GET request:
its request line is read, its header lines are read up to the blank line
and dropped, and the response goes out in one write with
``Connection: close``. The request line and every header line must
arrive within ``READ_TIMEOUT_S`` of the worker taking the connection,
counted once for the whole head: each read waits only for the time left.
A client that has not sent its head by then, silent or sending a byte at
a time, is dropped unanswered. The pipeline's indexes and model are
immutable, so the workers share it without further coordination.
"""

from __future__ import annotations

import io
import json
import queue
import re
import socketserver
import threading
import time
from urllib.parse import parse_qs, urlparse

from .ensemble import answer_set_to_json
from .pipeline import Pipeline, question_id_for

__all__ = ["make_server", "parse_bind"]

WORKERS = 4
QUEUE_SLOTS = 64
READ_TIMEOUT_S = 10.0
# http.server's own bounds: a request or header line of at most 65,536
# bytes, and at most 100 header lines counting the blank one that ends them
MAX_LINE = 65536
MAX_HEADERS = 100

_VERSION = re.compile(r"HTTP/1\.[0-9]+")
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Request Entity Too Large",
    414: "Request-URI Too Long",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("", "Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _error(message: str) -> str:
    return json.dumps({"error": message})


def _route(pipeline: Pipeline, target: str) -> tuple[int, str]:
    """Status and JSON body of ``GET target``."""
    try:
        parsed = urlparse(target)
    except ValueError:  # an absolute URL with a malformed host
        return 400, _error("bad request line")
    if parsed.path == "/healthz":
        return 200, json.dumps({"status": "ok", **pipeline.fingerprints()})
    if parsed.path != "/answer":
        return 404, _error("unknown path")

    params = parse_qs(parsed.query)
    question = (params.get("q") or [""])[0]
    if not question.strip():
        return 400, _error("missing or empty question parameter q")
    max_chars = pipeline.cfg.max_question_chars
    if len(question) > max_chars:
        return 413, _error(f"question longer than {max_chars} chars")
    top_k = None
    if "k" in params:
        try:
            top_k = int(params["k"][0])
        except ValueError:
            return 400, _error("k must be an integer")
        if top_k < 1:
            return 400, _error("k must be >= 1")
    try:
        answer = pipeline.answer(question_id_for(question), question, top_k=top_k)
    except Exception as exc:
        return 500, _error(f"{type(exc).__name__}: {exc}")
    return 200, answer_set_to_json(answer)


def _response(status: int, body: str) -> bytes:
    """Status line, headers and body of an HTTP/1.0 response."""
    now = time.gmtime()
    date = (f"{_DAYS[now.tm_wday]}, {now.tm_mday:02d} {_MONTHS[now.tm_mon]} "
            f"{now.tm_year} {now.tm_hour:02d}:{now.tm_min:02d}:{now.tm_sec:02d} GMT")
    data = body.encode("utf-8")
    retry = "Retry-After: 1\r\n" if status == 503 else ""
    head = (
        f"HTTP/1.0 {status} {_REASONS[status]}\r\n"
        f"Server: statuteqa\r\nDate: {date}\r\n{retry}"
        "Content-Type: application/json; charset=utf-8\r\n"
        f"Content-Length: {len(data)}\r\nConnection: close\r\n\r\n"
    )
    return head.encode("ascii") + data


class _Deadline(io.RawIOBase):
    """A connection's reads, each allowed only the time left before
    ``deadline`` (``time.monotonic``), so that no read extends it."""

    def __init__(self, connection, deadline: float) -> None:
        self._connection, self._deadline = connection, deadline

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("request head not read in time")
        self._connection.settimeout(left)
        return self._connection.recv_into(buffer)


class _Handler(socketserver.StreamRequestHandler):
    timeout = READ_TIMEOUT_S  # the request head's deadline; also each write's timeout

    def handle(self) -> None:
        head = io.BufferedReader(_Deadline(self.connection, time.monotonic() + self.timeout))
        try:
            reply = self._read(head)
            if reply is not None:
                self.connection.settimeout(self.timeout)
                self.wfile.write(_response(*reply))
        except OSError:
            pass  # the client went silent, slow or away: there is no one to answer

    def _read(self, head: io.BufferedReader) -> tuple[int, str] | None:
        """The reply to the request ``head`` reads, or None for an empty one."""
        line = head.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            return 414, _error("request line too long")
        words = line.decode("iso-8859-1").split()
        if not words:
            return None
        if len(words) != 3 or not _VERSION.fullmatch(words[2]):
            return 400, _error("bad request line")
        for _ in range(MAX_HEADERS):
            line = head.readline(MAX_LINE + 1)
            if len(line) > MAX_LINE:
                return 431, _error("header line too long")
            if line in (b"\r\n", b"\n", b""):
                break
        else:
            return 431, _error("too many headers")
        method, target = words[0], words[1]
        if method != "GET":
            return 501, _error(f"unsupported method {method!r}")
        if target.startswith("//"):  # as http.server: never a scheme-less URL
            target = "/" + target.lstrip("/")
        return _route(self.server.pipeline, target)


class _PooledServer(socketserver.TCPServer):
    """A TCP server whose connections wait on a bounded queue for a fixed
    pool of worker threads."""

    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], pipeline: Pipeline) -> None:
        self.pipeline = pipeline
        self._pending: queue.Queue = queue.Queue(QUEUE_SLOTS)
        self._workers: list[threading.Thread] = []  # server_close runs if bind fails
        super().__init__(address, _Handler)
        for _ in range(WORKERS):
            worker = threading.Thread(target=self._work, daemon=True)
            worker.start()
            self._workers.append(worker)

    def process_request(self, request, client_address) -> None:
        try:
            self._pending.put_nowait((request, client_address))
        except queue.Full:
            try:  # a fresh connection's send buffer holds these few bytes
                request.sendall(_response(503, _error("server busy")))
            except OSError:
                pass
            self.shutdown_request(request)

    def _work(self) -> None:
        while (item := self._pending.get()) is not None:
            request, client_address = item
            try:
                self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                self.shutdown_request(request)

    def server_close(self) -> None:
        """Close the listening socket and every queued connection, then stop
        the workers once they finish the connections they hold."""
        super().server_close()
        while True:
            try:
                request, _ = self._pending.get_nowait()
            except queue.Empty:
                break
            self.shutdown_request(request)
        for _ in self._workers:
            self._pending.put(None)
        for worker in self._workers:
            worker.join()
        self._workers.clear()


def make_server(
    pipeline: Pipeline, host: str = "127.0.0.1", port: int = 8080
) -> socketserver.TCPServer:
    return _PooledServer((host, port), pipeline)


def parse_bind(bind: str) -> tuple[str, int]:
    """``(host, port)`` of a ``host:port`` bind address, port 0-65535."""
    host, _, port_text = bind.rpartition(":")
    if not host or not port_text.isdecimal() or int(port_text) > 65535:
        raise ValueError(f"bind address must be host:port with port 0-65535, got {bind!r}")
    return host, int(port_text)
