import sys
import time

import numpy as np
import pytest

from statuteqa.corpus import Article
from statuteqa.dense import ExternalEmbedder
from statuteqa.lineproto import LineProtocolClient, ProtocolError
from statuteqa.reranker import ExternalScorer, score_candidates

CANDIDATES = [
    Article("a1", "d1", "First title", "First content body."),
    Article("a2", "d1", None, "Second content body, untitled."),
    Article("a3", "d2", "Third title", "Third content body."),
]


def scorer_cmd(scripts_dir, *extra):
    return [sys.executable, str(scripts_dir / "echo_scorer.py"), *extra]


def embedder_cmd(scripts_dir, *extra):
    return [sys.executable, str(scripts_dir / "echo_embedder.py"), *extra]


def test_constant_external_scorer(scripts_dir):
    with ExternalScorer(scorer_cmd(scripts_dir, "--constant", "0.42")) as scorer:
        scored = score_candidates(scorer, "any question", CANDIDATES)
    assert scored == [("a1", 0.42), ("a2", 0.42), ("a3", 0.42)]


def test_external_scorer_order_preserved(scripts_dir):
    """Hash-based echo scores are a function of the request, so shuffling
    the batch must permute the scores identically."""
    with ExternalScorer(scorer_cmd(scripts_dir)) as scorer:
        forward = dict(score_candidates(scorer, "q", CANDIDATES))
        backward = dict(score_candidates(scorer, "q", CANDIDATES[::-1]))
        again = dict(score_candidates(scorer, "q", CANDIDATES))
    assert forward == backward == again
    assert len(set(forward.values())) == len(CANDIDATES)  # distinct inputs, distinct scores


def test_external_scorer_multiple_batches_one_process(scripts_dir):
    with ExternalScorer(scorer_cmd(scripts_dir)) as scorer:
        first = score_candidates(scorer, "question one", CANDIDATES[:2])
        second = score_candidates(scorer, "question two", CANDIDATES[2:])
    assert len(first) == 2 and len(second) == 1


def test_external_scorer_timeout_names_batch(scripts_dir):
    silent = [sys.executable, "-c", "import time; time.sleep(30)"]
    with ExternalScorer(silent, timeout=0.3) as scorer:
        with pytest.raises(ProtocolError, match=r"a1.*timed out|timed out.*a1"):
            score_candidates(scorer, "q", CANDIDATES[:1])


def test_external_scorer_rejects_out_of_range_scores(scripts_dir):
    with ExternalScorer(scorer_cmd(scripts_dir, "--constant", "1.5")) as scorer:
        with pytest.raises(ProtocolError, match="malformed score"):
            score_candidates(scorer, "q", CANDIDATES)


def test_external_scorer_rejects_garbage_output():
    garbage = [sys.executable, "-c", "import sys; [print('not json') for _ in sys.stdin]"]
    with ExternalScorer(garbage, timeout=5) as scorer:
        with pytest.raises(ProtocolError):
            score_candidates(scorer, "q", CANDIDATES[:1])


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
