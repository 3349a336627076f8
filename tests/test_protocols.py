import gc
import sys
import time
import warnings

import numpy as np
import pytest

from statuteqa.corpus import Article
from statuteqa.dense import ExternalEmbedder
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


def test_external_embedder_fingerprint_depends_on_name(scripts_dir):
    cmd = embedder_cmd(scripts_dir, "--dim", "8")
    with ExternalEmbedder(cmd, dimension=8, name="model-a") as a:
        with ExternalEmbedder(cmd, dimension=8, name="model-b") as b:
            assert a.fingerprint() != b.fingerprint()


LATE_ECHO = (
    "import json, sys, time\n"
    "for line in sys.stdin:\n"
    "    time.sleep(0.5)\n"
    "    print(json.dumps({'echo': json.loads(line)['n']}), flush=True)\n"
)


def test_late_reply_is_never_read_by_the_next_batch():
    client = LineProtocolClient([sys.executable, "-c", LATE_ECHO], timeout=0.2)
    try:
        with pytest.raises(ProtocolError, match="timed out"):
            client.call([{"n": 1}])
        time.sleep(0.6)  # the late reply to n=1 has been written by now
        with pytest.raises(ProtocolError, match="not running"):
            client.call([{"n": 2}])
    finally:
        client.close()


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
    with ExternalEmbedder(command, dimension=2, name="inline-embedder", timeout=5) as emb:
        with pytest.raises(ProtocolError, match="inline-embedder.*malformed vector"):
            emb.embed_texts(["text"])


def test_external_embedder_accepts_integer_components():
    command = replying('{"vector": [1, -0.25]}')
    with ExternalEmbedder(command, dimension=2, timeout=5) as emb:
        [vector] = emb.embed_texts(["text"])
    assert vector.dtype == np.float64 and vector.tolist() == [1.0, -0.25]


@pytest.mark.parametrize("value", NOT_FINITE_REALS.values(), ids=NOT_FINITE_REALS.keys())
def test_external_scorer_rejects_scores_that_are_not_finite_reals(value):
    command = replying('{"score": ' + value + "}")
    with ExternalScorer(command, name="inline-scorer", timeout=5) as scorer:
        with pytest.raises(ProtocolError, match="inline-scorer.*malformed score"):
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
