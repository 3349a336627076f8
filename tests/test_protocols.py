import gc
import importlib.util
import sys
import threading
import time
import tracemalloc
import warnings
from contextlib import closing

import numpy as np
import pytest

from conftest import ranking_of
from dense_oracle import OneAtATime
from statuteqa import dense
from statuteqa.corpus import Article, TokenizerConfig, iter_articles
from statuteqa.dense import (
    ExternalEmbedder,
    build_dense_index,
    dense_retrieve_topk,
    quickview_dense_score,
    save_dense_index,
    sentence_cosines,
)
from statuteqa.lexical import build_lex_index
from statuteqa.lineproto import LineProtocolClient, ProtocolError
from statuteqa.pipeline import Pipeline, PipelineConfig
from statuteqa.reranker import ExternalScorer, FeatureExtractor, ModelScorer, zero_model
from statuteqa.synth import synthetic_corpus

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
    scorer = ExternalScorer(scorer_cmd(scripts_dir, "--constant", "0.42"), CANDIDATES)
    with closing(scorer):
        scores = scorer.score_batch("any question", ranking_of(CANDIDATES))
    assert scored(scores, CANDIDATES) == [("a1", 0.42), ("a2", 0.42), ("a3", 0.42)]


def test_external_scorer_order_preserved(scripts_dir):
    """Hash-based echo scores are a function of the request, so shuffling
    the batch must permute the scores identically."""
    with closing(ExternalScorer(scorer_cmd(scripts_dir), CANDIDATES)) as scorer:
        forward = dict(scored(scorer.score_batch("q", ranking_of(CANDIDATES)), CANDIDATES))
        backward = dict(
            scored(scorer.score_batch("q", ranking_of(CANDIDATES[::-1])), CANDIDATES[::-1])
        )
        again = dict(scored(scorer.score_batch("q", ranking_of(CANDIDATES)), CANDIDATES))
    assert forward == backward == again
    assert len(set(forward.values())) == len(CANDIDATES)  # distinct inputs, distinct scores


def test_external_scorer_multiple_batches_one_process(scripts_dir):
    with closing(ExternalScorer(scorer_cmd(scripts_dir), CANDIDATES)) as scorer:
        first = scorer.score_batch("question one", ranking_of(CANDIDATES[:2]))
        second = scorer.score_batch("question two", ranking_of(CANDIDATES[2:]))
    assert len(first) == 2 and len(second) == 1


def test_external_scorer_timeout_names_batch(scripts_dir):
    silent = [sys.executable, "-c", "import time; time.sleep(30)"]
    with closing(ExternalScorer(silent, CANDIDATES, timeout=0.3)) as scorer:
        with pytest.raises(ProtocolError, match=r"a1.*timed out|timed out.*a1"):
            scorer.score_batch("q", ranking_of(CANDIDATES[:1]))


def test_external_scorer_rejects_out_of_range_scores(scripts_dir):
    scorer = ExternalScorer(scorer_cmd(scripts_dir, "--constant", "1.5"), CANDIDATES)
    with closing(scorer):
        with pytest.raises(ProtocolError, match="malformed score"):
            scorer.score_batch("q", ranking_of(CANDIDATES))


def test_external_scorer_rejects_garbage_output():
    garbage = [sys.executable, "-c", "import sys; [print('not json') for _ in sys.stdin]"]
    with closing(ExternalScorer(garbage, CANDIDATES, timeout=5)) as scorer:
        with pytest.raises(ProtocolError):
            scorer.score_batch("q", ranking_of(CANDIDATES[:1]))


def test_external_scorer_unreachable_command():
    with pytest.raises(ProtocolError, match="cannot start"):
        ExternalScorer(["/nonexistent/binary"], CANDIDATES)


def test_external_embedder_round_trip(scripts_dir):
    with closing(ExternalEmbedder(embedder_cmd(scripts_dir, "--dim", "8"), dimension=8)) as emb:
        vectors = emb.embed_texts(["alpha", "beta", "alpha"])
        assert len(vectors) == 3
        assert np.array_equal(vectors[0], vectors[2])  # same text, same vector
        assert not np.array_equal(vectors[0], vectors[1])
        single = emb.embed_tokens(["alpha"])
        assert np.array_equal(single, vectors[0])


def test_external_embedder_dimension_checked(scripts_dir):
    with closing(ExternalEmbedder(embedder_cmd(scripts_dir, "--dim", "4"), dimension=8)) as emb:
        with pytest.raises(ProtocolError, match="malformed vector"):
            emb.embed_texts(["text"])


def test_external_embedder_fingerprint_depends_on_command(scripts_dir):
    cmd = embedder_cmd(scripts_dir, "--dim", "8")
    a, b = ExternalEmbedder(cmd, dimension=8), ExternalEmbedder(cmd, dimension=8)
    with closing(a), closing(b):
        with closing(ExternalEmbedder(cmd + ["--dim", "8"], dimension=8)) as c:
            assert a.fingerprint() == b.fingerprint() != c.fingerprint()


def test_a_question_without_tokens_embeds_to_zero_without_asking(scripts_dir, monkeypatch):
    """The echo embedder turns "" into a nonzero vector, which used to rank
    every article for a question that cleans to no tokens."""
    articles = list(iter_articles(synthetic_corpus(20, seed=0)))
    with closing(ExternalEmbedder(embedder_cmd(scripts_dir, "--dim", "16"), dimension=16)) as emb:
        index, _ = build_dense_index(articles, emb, TokenizerConfig())
        asked, call = [], emb._client.call
        monkeypatch.setattr(emb._client, "call", lambda reqs: asked.append(reqs) or call(reqs))
        assert len(dense_retrieve_topk(index, "??? !!!", 5)) == 0
        lex = build_lex_index(articles, PipelineConfig())
        scorer = ModelScorer(zero_model(), FeatureExtractor(lex, index))
        cfg = PipelineConfig(quickview_source="dense", top_k=5)
        answer = Pipeline(cfg, lex, index, scorer).answer("q", "??? !!!")
        assert answer.no_candidates and answer.returned == ()
        assert asked == []


LATE_ECHO = (
    "import json, sys, time\n"
    "for line in sys.stdin:\n"
    "    request = json.loads(line)\n"
    "    n = request['n']\n"
    "    time.sleep(0.5 if n == 1 else 0)\n"
    "    print(json.dumps({'id': request['id'], 'echo': n}), flush=True)\n"
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
    """An inline child that answers every request with ``line``, the
    request's id spliced in after its first character (a JSON object's
    opening brace)."""
    code = (
        "import json, sys\n"
        "line = sys.argv[1]\n"
        "for request in sys.stdin:\n"
        "    number = json.loads(request)['id']\n"
        "    print(line[:1] + '\"id\": %d, ' % number + line[1:], flush=True)\n"
    )
    return [sys.executable, "-c", code, line]


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
    with closing(ExternalEmbedder(command, dimension=2, timeout=5)) as emb:
        with pytest.raises(ProtocolError, match="external embedder .+ malformed vector"):
            emb.embed_texts(["text"])


def test_external_embedder_accepts_integer_components():
    command = replying('{"vector": [1, -0.25]}')
    with closing(ExternalEmbedder(command, dimension=2, timeout=5)) as emb:
        [vector] = emb.embed_texts(["text"])
    assert vector.dtype == np.float64 and vector.tolist() == [1.0, -0.25]


@pytest.mark.parametrize("value", NOT_FINITE_REALS.values(), ids=NOT_FINITE_REALS.keys())
def test_external_scorer_rejects_scores_that_are_not_finite_reals(value):
    command = replying('{"score": ' + value + "}")
    with closing(ExternalScorer(command, CANDIDATES, timeout=5)) as scorer:
        with pytest.raises(ProtocolError, match="external scorer .+ malformed score"):
            scorer.score_batch("q", ranking_of(CANDIDATES[:1]))


def test_external_scorer_accepts_integer_scores():
    with closing(ExternalScorer(replying('{"score": 1}'), CANDIDATES, timeout=5)) as scorer:
        assert scorer.score_batch("q", ranking_of(CANDIDATES[:2])) == [1.0, 1.0]


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


EXTRA_LINE = (
    "import json, sys, time\n"
    "delay = float(sys.argv[1])\n"
    "for n, line in enumerate(sys.stdin, 1):\n"
    "    number = json.loads(line)['id']\n"
    "    reply = json.dumps({'id': number, 'score': round(0.1 * n, 1)}) + '\\n'\n"
    "    extra = json.dumps({'id': number, 'score': 0.9}) + '\\n'\n"
    "    if delay:\n"
    "        sys.stdout.write(reply)\n"
    "        sys.stdout.flush()\n"
    "        time.sleep(delay)\n"
    "        reply = ''\n"
    "    sys.stdout.write(reply + extra)  # one write: one read takes both\n"
    "    sys.stdout.flush()\n"
)


@pytest.mark.parametrize(
    "delay, failure",
    [(0.0, "more lines than requests"), (0.3, "sent output no request asked for")],
    ids=["with-the-reply", "after-the-batch"],
)
def test_an_extra_reply_line_is_never_read_as_the_next_batchs_reply(delay, failure):
    """The child answers each request with its reply and one more line,
    written with the reply or ``delay`` seconds later. It used to give 0.1,
    then the first batch's stray 0.9, then 0.2. Now the batch that finds a
    line left over after its replies, or output waiting before it is
    written, fails and the child is replaced."""
    client = LineProtocolClient([sys.executable, "-c", EXTRA_LINE, str(delay)], timeout=5)
    outcomes = []
    try:
        for n in range(1, 4):
            try:
                outcomes.extend(reply["score"] for reply in client.call([{"n": n}]))
            except ProtocolError as exc:
                outcomes.append(str(exc))
            time.sleep(delay + 0.2)  # the stray line has arrived before the next batch
        restarts = client.restarts
    finally:
        client.close()
    assert 0.9 not in outcomes
    errors = [o for o in outcomes if isinstance(o, str)]
    assert errors and all(e.endswith(failure) for e in errors), outcomes
    assert restarts >= 1


STRAY_LINE = (
    "import json, sys, time\n"
    "for n, line in enumerate(sys.stdin, 1):\n"
    "    number = json.loads(line).get('id')\n"
    "    if n == 2:\n"
    "        time.sleep(0.3)  # the stray line below is read alone\n"
    "    print(json.dumps({'id': number, 'score': round(0.1 * n, 1)}), flush=True)\n"
    "    if n == 1:\n"
    "        time.sleep(0.3)  # the next batch is written by now\n"
    "        print(json.dumps({'id': number, 'score': 0.9}), flush=True)\n"
)


def test_a_stray_reply_that_arrives_mid_batch_fails_that_batch():
    """The child repeats its first reply 0.3 s later, while the second
    batch waits for its reply. That batch used to return the stray 0.9.
    Now the stray's id is not the one asked for: the batch fails, naming
    both ids, and the next batch is answered by a fresh child."""
    client = LineProtocolClient([sys.executable, "-c", STRAY_LINE], timeout=5)
    outcomes = []
    try:
        for n in range(1, 4):
            try:
                outcomes.extend(reply["score"] for reply in client.call([{"n": n}]))
            except ProtocolError as exc:
                outcomes.append(str(exc))
        restarts = client.restarts
    finally:
        client.close()
    assert 0.9 not in outcomes
    assert outcomes[0] == outcomes[2] == 0.1, outcomes
    assert outcomes[1].endswith("answered request id 1 with id 0"), outcomes
    assert restarts == 1


def test_a_child_that_does_not_echo_ids_fails_every_batch():
    """A child written before replies carried ids fails loudly."""
    old = "import sys\nfor _ in sys.stdin:\n    print('{\"score\": 1}', flush=True)\n"
    client = LineProtocolClient([sys.executable, "-c", old], timeout=5)
    try:
        for want in (0, 1):
            with pytest.raises(ProtocolError, match=f"answered request id {want} with id None"):
                client.call([{"n": want}])
        assert client.restarts == 1
    finally:
        client.close()


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
    emb = ExternalEmbedder(embedder_cmd(scripts_dir, "--dim", str(dimension)), dimension)
    with closing(emb):
        sizes, call = [], emb._client.call
        monkeypatch.setattr(emb._client, "call", lambda reqs: sizes.append(len(reqs)) or call(reqs))
        built = {}
        thread = threading.Thread(
            target=lambda: built.update(index=build_dense_index(articles, emb, TokenizerConfig())[0]),
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
        single, _ = build_dense_index(articles, OneAtATime(emb), TokenizerConfig())
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
