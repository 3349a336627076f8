import json
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from statuteqa.corpus import file_digest, write_corpus_file
from statuteqa.dense import HashedProjectionEmbedder, build_dense_index, save_dense_index
from statuteqa.evaluation import write_gold_file
from statuteqa.lexical import build_lex_index, save_lex_index
from statuteqa.pipeline import Pipeline, PipelineConfig, question_id_for
from statuteqa.reranker import save_model
from statuteqa.server import make_server
from statuteqa.synth import synthetic_corpus, title_gold_queries


@pytest.fixture(scope="module")
def service(tmp_path_factory, request):
    root = tmp_path_factory.mktemp("server_ws")
    docs = synthetic_corpus(40, seed=2)
    queries = title_gold_queries(docs)
    write_corpus_file(docs, root / "corpus.jsonl")
    write_gold_file(queries, root / "gold.jsonl")

    from statuteqa.corpus import TokenizerConfig, iter_articles
    from statuteqa.reranker import FeatureExtractor, TrainConfig, train_stage, zero_model
    from statuteqa.weak_label import WeakGenConfig, generate_weak_dataset

    articles = list(iter_articles(docs))
    tok = TokenizerConfig()
    digest = file_digest(root / "corpus.jsonl")
    lex = build_lex_index(articles, tok, corpus_digest=digest)
    embedder = HashedProjectionEmbedder(dimension=64, seed=0)
    dense, _ = build_dense_index(articles, embedder, tok, corpus_digest=digest)
    save_lex_index(lex, root / "lex.bin")
    save_dense_index(dense, root / "dense.bin")
    extractor = FeatureExtractor(lex, dense, tok)
    weak = generate_weak_dataset(articles, WeakGenConfig(4, 0))
    model = train_stage(zero_model(), weak, [], TrainConfig(epochs=15), extractor)
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
    server = make_server(pipeline, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base_url = f"http://127.0.0.1:{server.server_address[1]}"

    def teardown():
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    request.addfinalizer(teardown)
    return base_url, pipeline, queries


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
    assert payload["tokenizer"] == pipeline.lex.tokenizer_fingerprint
    assert payload["embedder"] == pipeline.dense.embedder_fingerprint
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
