import contextlib
import json
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from statuteqa import server as server_mod
from statuteqa.corpus import file_digest, write_corpus_file
from statuteqa.dense import HashedProjectionEmbedder, build_dense_index, save_dense_index
from statuteqa.ensemble import AnswerSet
from statuteqa.evaluation import write_gold_file
from statuteqa.lexical import build_lex_index, save_lex_index
from statuteqa.pipeline import Pipeline, PipelineConfig, question_id_for
from statuteqa.reranker import save_model
from statuteqa.server import make_server
from statuteqa.synth import synthetic_corpus, title_gold_queries


@contextlib.contextmanager
def _serving(pipeline):
    """A service on a free port, stopped with every thread it started."""
    server = make_server(pipeline, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("server_ws")
    docs = synthetic_corpus(40, seed=2)
    queries = title_gold_queries(docs)
    write_corpus_file(docs, root / "corpus.jsonl")
    write_gold_file(queries, root / "gold.jsonl")

    from statuteqa.corpus import TokenizerConfig, iter_articles
    from statuteqa.pipeline import PipelineConfig
    from statuteqa.reranker import FeatureExtractor, train_stage, zero_model
    from statuteqa.weak_label import generate_weak_dataset

    articles = list(iter_articles(docs))
    tok = TokenizerConfig()
    digest = file_digest(root / "corpus.jsonl")
    lex = build_lex_index(articles, PipelineConfig(), corpus_digest=digest)
    embedder = HashedProjectionEmbedder(dimension=64, seed=0)
    dense, _ = build_dense_index(articles, embedder, tok, corpus_digest=digest)
    save_lex_index(lex, root / "lex.bin")
    save_dense_index(dense, root / "dense.bin")
    extractor = FeatureExtractor(lex, dense)
    weak = generate_weak_dataset(articles, PipelineConfig(weak_seed=0))
    model = train_stage(zero_model(), extractor.matrix(weak), None, PipelineConfig(epochs=15))
    save_model(model, root / "model.json")

    cfg = PipelineConfig(
        corpus_path=str(root / "corpus.jsonl"),
        lex_index_path=str(root / "lex.bin"),
        dense_index_path=str(root / "dense.bin"),
        model_path=str(root / "model.json"),
        embedder_dimension=64,
        top_k=10,
        max_question_chars=120,
    )
    pipeline = Pipeline.load(cfg)
    with _serving(pipeline) as port:
        yield f"http://127.0.0.1:{port}", pipeline, queries


def _get(url):
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


def test_healthz(service):
    base_url, pipeline, _ = service
    status, payload = _get(base_url + "/healthz")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["tokenizer"] == pipeline.lex.tokenizer.fingerprint()
    assert payload["embedder"] == pipeline.dense.embedder.fingerprint()
    assert payload["corpus"] == file_digest(pipeline.cfg.corpus_path)


def test_answer_empty_question_is_400(service):
    base_url, _, _ = service
    status, payload = _get(base_url + "/answer?q=")
    assert status == 400
    status, _ = _get(base_url + "/answer")
    assert status == 400


def test_answer_too_long_is_413(service):
    base_url, _, _ = service
    question = urllib.parse.quote("x " * 200)
    status, _ = _get(f"{base_url}/answer?q={question}")
    assert status == 413


def test_answer_bad_k_is_400(service):
    base_url, _, queries = service
    question = urllib.parse.quote(queries[0].question)
    status, _ = _get(f"{base_url}/answer?q={question}&k=ten")
    assert status == 400
    status, _ = _get(f"{base_url}/answer?q={question}&k=0")
    assert status == 400


def test_unknown_path_is_404(service):
    base_url, _, _ = service
    status, _ = _get(base_url + "/nope")
    assert status == 404


def test_answer_returns_gold(service):
    base_url, _, queries = service
    query = queries[0]
    question = urllib.parse.quote(query.question)
    status, payload = _get(f"{base_url}/answer?q={question}&k=10")
    assert status == 200
    ids = [c["article_id"] for c in payload["returned"]]
    assert set(query.gold_article_ids) <= set(ids)


def test_answer_matches_direct_pipeline_call(service):
    """HTTP and in-process answers agree candidate for candidate."""
    base_url, pipeline, queries = service
    query = queries[7]
    direct = pipeline.answer(question_id_for(query.question), query.question)
    status, payload = _get(f"{base_url}/answer?q={urllib.parse.quote(query.question)}")
    assert status == 200
    assert payload["question_id"] == direct.question_id
    assert [c["article_id"] for c in payload["returned"]] == [
        c.article_id for c in direct.returned
    ]
    for wire, local in zip(payload["returned"], direct.returned):
        assert wire["combined"] == pytest.approx(local.combined, abs=1e-12)


def test_concurrent_requests(service):
    base_url, _, queries = service
    errors = []

    def hammer(query):
        try:
            status, payload = _get(f"{base_url}/answer?q={urllib.parse.quote(query.question)}")
            assert status == 200
            ids = {c["article_id"] for c in payload["returned"]}
            assert set(query.gold_article_ids) <= ids
        except Exception as exc:  # propagated after join
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(q,)) for q in queries[:12]]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not errors


def _port(base_url):
    return int(base_url.rsplit(":", 1)[1])


def _read_response(sock):
    """Status, headers and body of the one response on ``sock``."""
    chunks = []
    while True:
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:  # closed with request bytes left unread
            break
        if not chunk:
            break
        chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines)
    return status_line, headers, body


def _raw(port, data):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        return _read_response(sock)


HEALTHZ = b"GET /healthz HTTP/1.0\r\n"


@pytest.mark.parametrize(
    "request_bytes, status",
    [
        (b"GET /" + b"a" * 65536 + b" HTTP/1.0\r\n\r\n", 414),
        (HEALTHZ + b"X-Long: " + b"a" * 65536 + b"\r\n\r\n", 431),
        (HEALTHZ + b"X-Many: 1\r\n" * 100 + b"\r\n", 431),
        (b"GET /healthz extra HTTP/1.0\r\n\r\n", 400),
        (b"POST /answer?q=law HTTP/1.0\r\nContent-Length: 0\r\n\r\n", 501),
        (b"HEAD /healthz HTTP/1.0\r\n\r\n", 501),
    ],
    ids=["414-line", "431-long-header", "431-many-headers", "400-four-words",
         "501-post", "501-head"],
)
def test_protocol_errors(service, request_bytes, status):
    status_line, _, _ = _raw(_port(service[0]), request_bytes)
    assert int(status_line.split()[1]) == status


@pytest.mark.parametrize(
    "line",
    [b"nonsense", b"GET /healthz", b"GET /healthz HTTP/one", b"GET /healthz HTTP/2.0",
     b"GET http://[::1/answer?q=law HTTP/1.0"],
)
def test_malformed_request_line_is_400(service, line):
    """A line without an HTTP/1.x version, or with a target urlparse
    rejects, gets a 400 reply with a status line, not an HTTP/0.9-form
    reply or none."""
    status_line, headers, body = _raw(_port(service[0]), line + b"\r\n\r\n")
    assert status_line == "HTTP/1.0 400 Bad Request"
    assert json.loads(body) == {"error": "bad request line"}


def test_response_is_one_http10_message(service):
    """99 header lines are within bounds; the reply closes the connection."""
    base_url, pipeline, _ = service
    status_line, headers, body = _raw(
        _port(base_url), HEALTHZ + b"X-Many: 1\r\n" * 99 + b"\r\n"
    )
    assert status_line == "HTTP/1.0 200 OK"
    assert headers["Connection"] == "close"
    assert headers["Content-Type"] == "application/json; charset=utf-8"
    assert int(headers["Content-Length"]) == len(body)
    assert json.loads(body) == {"status": "ok", **pipeline.fingerprints()}


def test_idle_connection_does_not_delay_an_answer(service):
    base_url, _, queries = service
    question = urllib.parse.quote(queries[0].question)
    with socket.create_connection(("127.0.0.1", _port(base_url))):
        start = time.monotonic()
        status, _ = _get(f"{base_url}/answer?q={question}")
        assert status == 200
        assert time.monotonic() - start < server_mod.READ_TIMEOUT_S / 2


def _count_taken(monkeypatch):
    """A semaphore released each time a worker takes a connection."""
    taken = threading.Semaphore(0)
    setup = server_mod._Handler.setup

    def counted(handler):
        setup(handler)
        taken.release()

    monkeypatch.setattr(server_mod._Handler, "setup", counted)
    return taken


def test_full_queue_answers_503(service, monkeypatch):
    _, pipeline, _ = service
    monkeypatch.setattr(server_mod, "WORKERS", 1)
    monkeypatch.setattr(server_mod, "QUEUE_SLOTS", 1)
    taken = _count_taken(monkeypatch)
    with _serving(pipeline) as port:
        with socket.create_connection(("127.0.0.1", port)) as idle:
            assert taken.acquire(timeout=5)  # the only worker waits on ``idle``
            with socket.create_connection(("127.0.0.1", port)) as queued:
                status_line, headers, body = _raw(port, HEALTHZ + b"\r\n")
                assert status_line == "HTTP/1.0 503 Service Unavailable"
                assert headers["Retry-After"] == "1"
                assert json.loads(body) == {"error": "server busy"}
                idle.close()
                assert taken.acquire(timeout=5)  # the worker moved on to ``queued``
                queued.sendall(HEALTHZ + b"\r\n")
                assert _read_response(queued)[0] == "HTTP/1.0 200 OK"


def test_silent_client_frees_its_worker(service, monkeypatch):
    _, pipeline, _ = service
    monkeypatch.setattr(server_mod, "WORKERS", 1)
    monkeypatch.setattr(server_mod._Handler, "timeout", 0.2)
    with _serving(pipeline) as port:
        with socket.create_connection(("127.0.0.1", port), timeout=10) as idle:
            status_line, _, _ = _raw(port, HEALTHZ + b"\r\n")
            assert status_line == "HTTP/1.0 200 OK"
            assert idle.recv(1) == b""  # dropped unanswered


def _trickle(port, data, stop):
    """Send ``data`` one byte per 0.3 s until it is sent, the server drops
    the connection or ``stop`` is set."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        for i in range(len(data)):
            try:
                sock.sendall(data[i : i + 1])
            except OSError:
                return
            if stop.wait(0.3):
                return


def test_clients_that_trickle_their_request_line_do_not_hold_the_workers(service, monkeypatch):
    """The head's deadline is counted once: a client sending a byte every
    0.3 s, well within each read's wait, is still dropped at 0.5 s."""
    _, pipeline, _ = service
    monkeypatch.setattr(server_mod._Handler, "timeout", 0.5)
    taken = _count_taken(monkeypatch)
    stop = threading.Event()
    with _serving(pipeline) as port:
        threads = [
            threading.Thread(target=_trickle, args=(port, HEALTHZ + b"\r\n", stop))
            for _ in range(server_mod.WORKERS)
        ]
        for thread in threads:
            thread.start()
        try:
            for _ in threads:
                assert taken.acquire(timeout=5)  # every worker holds a trickling client
            start = time.monotonic()
            with socket.create_connection(("127.0.0.1", port), timeout=2) as sock:
                sock.sendall(HEALTHZ + b"\r\n")
                assert _read_response(sock)[0] == "HTTP/1.0 200 OK"
            assert time.monotonic() - start < 2
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)


def test_teardown_closes_queued_connections_and_stops_every_thread(service, monkeypatch):
    _, pipeline, _ = service
    monkeypatch.setattr(server_mod, "WORKERS", 1)
    monkeypatch.setattr(server_mod, "QUEUE_SLOTS", 1)
    monkeypatch.setattr(server_mod._Handler, "timeout", 2.0)  # ends ``held`` after teardown
    taken = _count_taken(monkeypatch)
    before = threading.active_count()
    with contextlib.ExitStack() as stack:
        with _serving(pipeline) as port:
            assert threading.active_count() == before + 2  # accept loop, one worker
            stack.enter_context(socket.create_connection(("127.0.0.1", port)))
            assert taken.acquire(timeout=5)  # the worker holds that connection
            queued = stack.enter_context(
                socket.create_connection(("127.0.0.1", port), timeout=10)
            )
            assert "503" in _raw(port, HEALTHZ + b"\r\n")[0]  # so ``queued`` is queued
        assert threading.active_count() == before
        assert _read_response(queued) == ("", {}, b"")  # closed unanswered


class _StubPipeline:
    """What ``_route`` reads of a pipeline; a question with "boom" in it fails."""

    cfg = PipelineConfig(max_question_chars=12)

    def fingerprints(self):
        return {"tokenizer": "t", "embedder": "e", "corpus": "c"}

    def answer(self, question_id, question, top_k=None):
        if "boom" in question:
            raise RuntimeError("stub failure")
        return AnswerSet(question_id, ())


_TARGETS = st.sampled_from([
    "/healthz", "//healthz", "/answer?q=law", "/answer?q=boom", "/answer?q=law&k=0",
    "/answer?q=law&k=x", "/answer?q=%20", "/answer?q=" + "a" * 13, "/answer", "/nope",
    "http://[::1/", "*",
])
_GET = st.builds(
    lambda target, minor: f"GET {target} HTTP/1.{minor}".encode("latin-1"),
    _TARGETS, st.sampled_from("01"),
)
_REQUEST_LINE = st.builds(
    lambda method, target, version: f"{method} {target} {version}".encode("latin-1"),
    st.sampled_from(["GET", "POST", "get", ""]),
    _TARGETS | st.text(st.characters(max_codepoint=255), max_size=20),
    st.sampled_from(["HTTP/1.0", "HTTP/2", "HTTP/1.x", ""]),
)
_HEADER = st.sampled_from([b"Host: x", b"X-Long: " + b"a" * 60, b"", b" "]) | st.binary(max_size=40)
_END = st.sampled_from([b"\r\n", b"\n", b"\r", b""])
_REQUEST = st.one_of(
    st.binary(max_size=300),
    st.builds(
        lambda first, rest: b"".join(line + end for line, end in [first, *rest]),
        st.tuples(_GET | _REQUEST_LINE | st.binary(max_size=40), _END),
        st.lists(st.tuples(_HEADER, _END), max_size=6),
    ),
)


@settings(max_examples=400, deadline=None)
@given(_REQUEST)
def test_any_request_bytes_get_nothing_or_one_well_formed_response(request_bytes):
    """``_Handler`` over one socketpair connection, its client's write side
    shut after the request, with lines and head bounds small enough for
    drawn requests to reach every reply."""
    with contextlib.ExitStack() as stack:
        patch = stack.enter_context(pytest.MonkeyPatch.context())
        patch.setattr(server_mod, "MAX_LINE", 48)
        patch.setattr(server_mod, "MAX_HEADERS", 4)
        patch.setattr(server_mod._Handler, "timeout", 0.2)
        ours, theirs = (stack.enter_context(s) for s in socket.socketpair())
        theirs.sendall(request_bytes)
        theirs.shutdown(socket.SHUT_WR)
        server_mod._Handler(ours, ("stub", 0), SimpleNamespace(pipeline=_StubPipeline()))
        ours.close()
        theirs.settimeout(5)
        chunks = []
        try:
            while chunk := theirs.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:  # closed with request bytes left unread
            pass
    reply = b"".join(chunks)
    if not reply:
        return
    head, _, body = reply.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("ascii").split("\r\n")
    version, status, reason = status_line.split(" ", 2)
    assert version == "HTTP/1.0" and int(status) in server_mod._REASONS
    assert reason == server_mod._REASONS[int(status)]
    headers = dict(line.split(": ", 1) for line in lines)
    assert len(headers) == len(lines)
    assert int(headers["Content-Length"]) == len(body)  # nothing after the one body
    json.loads(body.decode("utf-8"))
