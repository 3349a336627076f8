import gc
import importlib.util
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from dense_oracle import OneAtATime
from statuteqa import dense
from statuteqa.corpus import Article
from statuteqa.dense import (
    ExternalEmbedder,
    build_dense_index,
    dense_retrieve_topk,
    quickview_dense_score,
    save_dense_index,
    sentence_cosines,
)
from statuteqa.lineproto import LineProtocolClient, ProtocolError
from statuteqa.reranker import ExternalScorer

# A child's pipe left open is a leaked file descriptor per adapter
pytestmark = pytest.mark.filterwarnings("error::ResourceWarning")

CANDIDATES = [
    Article("a1", "d1", "First title", "First content body."),
    Article("a2", "d1", None, "Second content body, untitled."),
    Article("a3", "d2", "Third title", "Third content body."),
]


def scored(scores, candidates):
    return list(zip((a.article_id for a in candidates), scores))


def scorer_cmd(scripts_dir, *extra):
    return [sys.executable, str(scripts_dir / "echo_scorer.py"), *extra]


def embedder_cmd(scripts_dir, *extra):
    return [sys.executable, str(scripts_dir / "echo_embedder.py"), *extra]


def test_constant_external_scorer(scripts_dir):
    with ExternalScorer(scorer_cmd(scripts_dir, "--constant", "0.42")) as scorer:
        scores = scorer.score_batch("any question", CANDIDATES)
    assert scored(scores, CANDIDATES) == [("a1", 0.42), ("a2", 0.42), ("a3", 0.42)]


def test_external_scorer_order_preserved(scripts_dir):
    """Hash-based echo scores are a function of the request, so shuffling
    the batch must permute the scores identically."""
    with ExternalScorer(scorer_cmd(scripts_dir)) as scorer:
        forward = dict(scored(scorer.score_batch("q", CANDIDATES), CANDIDATES))
        backward = dict(
            scored(scorer.score_batch("q", CANDIDATES[::-1]), CANDIDATES[::-1])
        )
        again = dict(scored(scorer.score_batch("q", CANDIDATES), CANDIDATES))
    assert forward == backward == again
    assert len(set(forward.values())) == len(CANDIDATES)  # distinct inputs, distinct scores


def test_external_scorer_multiple_batches_one_process(scripts_dir):
    with ExternalScorer(scorer_cmd(scripts_dir)) as scorer:
        first = scorer.score_batch("question one", CANDIDATES[:2])
        second = scorer.score_batch("question two", CANDIDATES[2:])
    assert len(first) == 2 and len(second) == 1


def test_external_scorer_timeout_names_batch(scripts_dir):
    silent = [sys.executable, "-c", "import time; time.sleep(30)"]
    with ExternalScorer(silent, timeout=0.3) as scorer:
        with pytest.raises(ProtocolError, match=r"a1.*timed out|timed out.*a1"):
            scorer.score_batch("q", CANDIDATES[:1])


def test_external_scorer_rejects_out_of_range_scores(scripts_dir):
    with ExternalScorer(scorer_cmd(scripts_dir, "--constant", "1.5")) as scorer:
        with pytest.raises(ProtocolError, match="malformed score"):
            scorer.score_batch("q", CANDIDATES)


def test_external_scorer_rejects_garbage_output():
    garbage = [sys.executable, "-c", "import sys; [print('not json') for _ in sys.stdin]"]
    with ExternalScorer(garbage, timeout=5) as scorer:
        with pytest.raises(ProtocolError):
            scorer.score_batch("q", CANDIDATES[:1])


def test_external_scorer_unreachable_command():
    with pytest.raises(ProtocolError, match="cannot start"):
        ExternalScorer(["/nonexistent/binary"])


def test_external_embedder_round_trip(scripts_dir):
    with ExternalEmbedder(embedder_cmd(scripts_dir, "--dim", "8"), dimension=8) as emb:
        vectors = emb.embed_texts(["alpha", "beta", "alpha"])
        assert len(vectors) == 3
        assert np.array_equal(vectors[0], vectors[2])  # same text, same vector
        assert not np.array_equal(vectors[0], vectors[1])
        single = emb.embed_tokens(["alpha"])
        assert np.array_equal(single, vectors[0])


def test_external_embedder_dimension_checked(scripts_dir):
    with ExternalEmbedder(embedder_cmd(scripts_dir, "--dim", "4"), dimension=8) as emb:
        with pytest.raises(ProtocolError, match="malformed vector"):
            emb.embed_texts(["text"])


def test_external_embedder_fingerprint_depends_on_command(scripts_dir):
    cmd = embedder_cmd(scripts_dir, "--dim", "8")
    with ExternalEmbedder(cmd, dimension=8) as a, ExternalEmbedder(cmd, dimension=8) as b:
        with ExternalEmbedder(cmd + ["--dim", "8"], dimension=8) as c:
            assert a.fingerprint() == b.fingerprint() != c.fingerprint()


LATE_ECHO = (
    "import json, sys, time\n"
    "for line in sys.stdin:\n"
    "    n = json.loads(line)['n']\n"
    "    time.sleep(0.5 if n == 1 else 0)\n"
    "    print(json.dumps({'echo': n}), flush=True)\n"
)


def test_late_reply_is_never_read_by_the_next_batch():
    """The child stalls on request 1 only. That batch times out, and the
    next one is answered by a fresh child, never with the late reply."""
    client = LineProtocolClient([sys.executable, "-c", LATE_ECHO], timeout=0.2)
    try:
        with pytest.raises(ProtocolError, match="timed out"):
            client.call([{"n": 1}])
        time.sleep(0.6)  # the late reply to n=1 would have been written by now
        assert client.call([{"n": 2}]) == [{"echo": 2}]
        assert client.call([{"n": 3}]) == [{"echo": 3}]
        assert client.restarts == 1
    finally:
        client.close()
    with pytest.raises(ProtocolError, match="closed"):
        client.call([{"n": 4}])


def replying(line):
    """An inline child that answers every request with ``line``."""
    code = f"import sys\nfor _ in sys.stdin:\n    print({line!r}, flush=True)\n"
    return [sys.executable, "-c", code]


NOT_FINITE_REALS = {
    "null": "null",
    "string": '"1"',
    "true": "true",
    "false": "false",
    "nan": "NaN",
    "infinity": "Infinity",
    "minus-infinity": "-Infinity",
    "overflowing-float": "1e400",
    "overflowing-int": "1" + "0" * 400,
    "list": "[0.5]",
}


@pytest.mark.parametrize("value", NOT_FINITE_REALS.values(), ids=NOT_FINITE_REALS.keys())
def test_external_embedder_rejects_values_that_are_not_finite_reals(value):
    command = replying('{"vector": [' + value + ", 0.5]}")
    with ExternalEmbedder(command, dimension=2, timeout=5) as emb:
        with pytest.raises(ProtocolError, match="external embedder .+ malformed vector"):
            emb.embed_texts(["text"])


def test_external_embedder_accepts_integer_components():
    command = replying('{"vector": [1, -0.25]}')
    with ExternalEmbedder(command, dimension=2, timeout=5) as emb:
        [vector] = emb.embed_texts(["text"])
    assert vector.dtype == np.float64 and vector.tolist() == [1.0, -0.25]


@pytest.mark.parametrize("value", NOT_FINITE_REALS.values(), ids=NOT_FINITE_REALS.keys())
def test_external_scorer_rejects_scores_that_are_not_finite_reals(value):
    command = replying('{"score": ' + value + "}")
    with ExternalScorer(command, timeout=5) as scorer:
        with pytest.raises(ProtocolError, match="external scorer .+ malformed score"):
            scorer.score_batch("q", CANDIDATES[:1])


def test_external_scorer_accepts_integer_scores():
    with ExternalScorer(replying('{"score": 1}'), timeout=5) as scorer:
        assert scorer.score_batch("q", CANDIDATES[:2]) == [1.0, 1.0]


def test_closed_and_killed_clients_close_both_pipes():
    """No pipe is left to the garbage collector: not by ``close`` after a
    batch, nor by the kill after a malformed reply."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        closed = LineProtocolClient(replying('{"ok": 1}'), timeout=5)
        assert closed.call([{"n": 1}]) == [{"ok": 1}]
        closed.close()
        killed = LineProtocolClient(replying("not json"), timeout=5)
        with pytest.raises(ProtocolError, match="non-JSON"):
            killed.call([{"n": 1}])  # kills the child; no close() follows
        del closed, killed
        gc.collect()
    leaks = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
    assert leaks == []


def call_within(client, requests, seconds):
    """``client.call(requests)`` in a thread joined for ``seconds``, so a
    batch that hangs fails the test instead of hanging it. Returns whether
    it hung, how long it took and its replies or ``ProtocolError``."""
    outcome = {}

    def run():
        try:
            outcome["replies"] = client.call(requests)
        except ProtocolError as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    started = time.monotonic()
    thread.start()
    thread.join(seconds)
    elapsed = time.monotonic() - started
    hung = thread.is_alive()
    if hung:
        client._proc.kill()  # a write stuck on a full pipe then fails
        thread.join(5)
    return hung, elapsed, outcome


def test_a_batch_larger_than_the_pipes_returns_every_reply_in_order(scripts_dir):
    """4,000 requests fill the child's output pipe before it has read them
    all, so replies must be read while the batch is still being written."""
    spec = importlib.util.spec_from_file_location("echo_scorer", scripts_dir / "echo_scorer.py")
    echo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(echo)
    requests = [
        {"question": "q", "title": f"t{i}", "content": f"{i} ".ljust(200, "x")}
        for i in range(4000)
    ]
    client = LineProtocolClient(scorer_cmd(scripts_dir), timeout=5)
    try:
        hung, _, outcome = call_within(client, requests, 30)
    finally:
        client.close()
    assert not hung
    assert outcome["replies"] == [{"score": echo.stable_score(r)} for r in requests]


def test_a_child_that_never_reads_times_out():
    sleeper = [sys.executable, "-c", "import time; time.sleep(60)"]
    requests = [{"content": "x" * 200}] * 1000  # 200 KB, more than a pipe holds
    client = LineProtocolClient(sleeper, timeout=2)
    try:
        hung, elapsed, outcome = call_within(client, requests, 15)
    finally:
        client.close()
    assert not hung
    assert "timed out" in str(outcome["error"])
    assert elapsed < 5


def test_a_large_external_build_is_chunked_and_scored_in_bounded_memory(
    scripts_dir, tmp_path, monkeypatch
):
    """5,000 sentences of a dense 64-d external embedder in one build: the
    batch method asks for at most ``_CHUNK_ENTRIES`` values per request and
    saves the bytes of one request per sentence, and neither max-cosine
    caller, retrieval or a candidate batch in reverse order, holds more
    than one coordinate's postings' temporaries at once."""
    cap, dimension = 4096, 64
    monkeypatch.setattr(dense, "_CHUNK_ENTRIES", cap)
    articles = [
        Article(f"a{i:04d}", "d", None, " ".join(f"Clause {i} part {j}." for j in range(5)))
        for i in range(1000)
    ]
    with ExternalEmbedder(embedder_cmd(scripts_dir, "--dim", str(dimension)), dimension) as emb:
        sizes, call = [], emb._client.call
        monkeypatch.setattr(emb._client, "call", lambda reqs: sizes.append(len(reqs)) or call(reqs))
        built = {}
        thread = threading.Thread(
            target=lambda: built.update(index=build_dense_index(articles, emb)[0]),
            daemon=True,
        )
        thread.start()
        thread.join(60)
        if thread.is_alive():
            emb._client._proc.kill()
            thread.join(5)
        assert not thread.is_alive() and "index" in built
        index = built["index"]
        assert sum(sizes) == 5000 and max(sizes) == cap // dimension
        single, _ = build_dense_index(articles, OneAtATime(emb))
        rows, entries = int(index.offsets[-1]), len(index.data)
        assert entries == rows * dimension  # no zero coordinates
        vector = np.ones(dimension)
        tracemalloc.start()
        try:
            for score in (
                lambda: dense_retrieve_topk(index, "clause part", 10),
                lambda: quickview_dense_score(
                    index, sentence_cosines(index, vector), np.arange(1000)[::-1]
                ),
            ):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                score()
                peak = tracemalloc.get_traced_memory()[1] - before
                # at most five 8-byte arrays per gathered entry, eight per row
                assert peak <= 40 * cap + 64 * rows < 8 * entries
        finally:
            tracemalloc.stop()
    save_dense_index(index, tmp_path / "batch.bin")
    save_dense_index(single, tmp_path / "single.bin")
    assert (tmp_path / "batch.bin").read_bytes() == (tmp_path / "single.bin").read_bytes()
