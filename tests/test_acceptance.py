"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from bm25_oracle import BruteForceBm25, oracle_topk
from conftest import field_token_lists, pairs, ranking_of
from statuteqa.corpus import Article, TokenizerConfig, clean_text, iter_articles, tokenize
from statuteqa.dense import HashedProjectionEmbedder, build_dense_index
from statuteqa.ensemble import (
    RankedCandidate,
    minmax_normalize,
    rank_and_select,
    select_answer_set,
)
from statuteqa.evaluation import (
    f2,
    precision_recall,
    recall_at_k,
    split_train_valid,
)
from statuteqa.lexical import bm25, build_lex_index, retrieve_topk
from statuteqa.pipeline import PipelineConfig
from statuteqa.reranker import (
    FeatureExtractor,
    ModelScorer,
    cross_entropy_gradient,
    mean_cross_entropy,
    train_stage,
    train_two_stage,
    zero_model,
)
from statuteqa.synth import (
    paraphrase_gold_queries,
    synthetic_corpus,
    synthetic_family_corpus,
    title_gold_queries,
)
from statuteqa.weak_label import (
    dataset_stats,
    generate_gold_examples,
    generate_weak_dataset,
    write_dataset,
)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def _random_corpus(rng, n_articles, vocab_size=40):
    vocab = [f"term{i}" for i in range(vocab_size)]
    articles = []
    for i in range(n_articles):
        title = (
            " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
            if rng.random() > 0.25
            else None
        )
        content = " ".join(rng.choices(vocab, k=rng.randint(2, 25)))
        articles.append(Article(f"a{i:03d}", f"d{i // 6}", title, content))
    return articles


def test_c1_bm25_oracle_equivalence():
    with criterion(
        "C1 BM25 oracle equivalence (<=50 articles, <=200 queries, 1e-9; top-k exact)"
    ):
        started = time.perf_counter()
        rng = random.Random(42)
        vocab = [f"term{i}" for i in range(40)]
        for corpus_size, n_queries in ((50, 120), (23, 80)):
            articles = _random_corpus(rng, corpus_size)
            index = build_lex_index(articles, PipelineConfig())
            oracles = {
                field: BruteForceBm25(field_token_lists(articles, field))
                for field in ("title", "content")
            }
            for _ in range(n_queries):
                query = rng.choices(vocab, k=rng.randint(1, 5))
                for article in articles:
                    for field in ("title", "content"):
                        expected = oracles[field].score(query, article.article_id)
                        got = bm25(index, field, query, article.article_id)
                        assert abs(got - expected) <= 1e-9
                k = rng.randint(1, corpus_size)
                got = pairs(retrieve_topk(index, query, k, PipelineConfig()))
                assert got == oracle_topk(
                    oracles["title"], oracles["content"], query, k, 1.5, 1.0
                )
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"


def test_c2_quickview_composition():
    with criterion("C2 quickview = alpha*title + beta*content for random boosts (1e-9)"):
        rng = random.Random(7)
        articles = _random_corpus(rng, 40)
        index = build_lex_index(articles, PipelineConfig())
        oracle_title = BruteForceBm25(field_token_lists(articles, "title"))
        oracle_content = BruteForceBm25(field_token_lists(articles, "content"))
        vocab = [f"term{i}" for i in range(40)]
        for _ in range(60):
            alpha = rng.uniform(0.0, 3.0)
            beta = rng.uniform(0.01, 3.0)
            query = rng.choices(vocab, k=rng.randint(1, 4))
            ranked = retrieve_topk(
                index, query, len(articles), PipelineConfig(alpha=alpha, beta=beta)
            )
            got = dict(pairs(ranked))
            for article in articles:
                expected = alpha * oracle_title.score(
                    query, article.article_id
                ) + beta * oracle_content.score(query, article.article_id)
                assert abs(got.get(article.article_id, 0.0) - expected) <= 1e-9


def test_c3_f2_table_arithmetic():
    with criterion("C3 F2 arithmetic reproduces the reported end-to-end rows (1e-4)"):
        assert abs(f2(0.2399, 0.4454) - 0.3803) <= 1e-4
        assert abs(f2(0.1461, 0.6165) - 0.3750) <= 1e-4
        assert abs(f2(0.4331, 0.6651) - 0.6007) <= 1e-4


def test_c4_fixture_end_to_end():
    with criterion(
        "C4 100-article fixture: Recall@10 = 1.0 and ensemble returns every gold (<2s)"
    ):
        started = time.perf_counter()
        docs = synthetic_corpus(100, seed=0)
        articles = list(iter_articles(docs))
        queries = title_gold_queries(docs)
        tok = TokenizerConfig()
        lex = build_lex_index(articles, PipelineConfig())
        dense, _ = build_dense_index(articles, HashedProjectionEmbedder(300, 0), tok)
        quickview_cfg = PipelineConfig(alpha=1.5, beta=1.0)

        total_recall = 0.0
        for query in queries:
            tokens = tokenize(clean_text(query.question), tok)
            ranked = retrieve_topk(lex, tokens, 10, quickview_cfg).ids()
            total_recall += recall_at_k(ranked, query.gold_article_ids, 10)
        assert total_recall / len(queries) == 1.0

        extractor = FeatureExtractor(lex, dense)
        weak = generate_weak_dataset(articles, PipelineConfig(weak_seed=0))
        train_q, valid_q = split_train_valid(queries, 0.9, seed=0)
        gold_train = generate_gold_examples(
            [(q.question, sorted(q.gold_article_ids)) for q in train_q],
            articles, PipelineConfig(weak_seed=1),
        )
        gold_valid = generate_gold_examples(
            [(q.question, sorted(q.gold_article_ids)) for q in valid_q],
            articles, PipelineConfig(weak_seed=2),
        )
        model = train_two_stage(
            extractor.matrix(weak), extractor.matrix(gold_train),
            extractor.matrix(gold_valid), PipelineConfig(epochs=20, train_seed=0),
        )
        scorer = ModelScorer(model, extractor)
        cfg = PipelineConfig(gamma=0.5, top_k=10, threshold=0.26)
        for query in queries:
            tokens = tokenize(clean_text(query.question), tok)
            ranked = retrieve_topk(lex, tokens, cfg.top_k, quickview_cfg)
            answer = rank_and_select(query.question_id, query.question, ranked, scorer, cfg)
            returned = {c.article_id for c in answer.returned}
            assert query.gold_article_ids <= returned
        elapsed = time.perf_counter() - started
        assert elapsed < 2.0, f"fixture pipeline took {elapsed:.2f}s"


def test_c5_weak_label_generator(tmp_path):
    with criterion(
        "C5 weak labels: exact counts, 1:4 ratio, seeded byte-identity, no duplicates"
    ):
        docs = synthetic_corpus(100, seed=0)
        articles = list(iter_articles(docs))
        titled = sum(1 for a in articles if a.title)
        examples = generate_weak_dataset(articles, PipelineConfig(weak_seed=123))
        stats = dataset_stats(examples)
        assert stats.positives == titled
        assert stats.negatives == 4 * titled
        assert stats.duplicate_pairs == 0
        pairs = {(ex.question, ex.article_id) for ex in examples}
        assert len(pairs) == len(examples)

        p1, p2 = tmp_path / "w1.jsonl", tmp_path / "w2.jsonl"
        write_dataset(examples, p1)
        write_dataset(generate_weak_dataset(articles, PipelineConfig(weak_seed=123)), p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_c6_gradient_check():
    with criterion(
        "C6 analytic vs central-difference gradients, rel error < 1e-4 at 20 points"
    ):
        rng = np.random.default_rng(2024)
        x = rng.normal(size=(60, 8))
        y = (rng.random(60) < 0.5).astype(float)
        h = 1e-5
        for _ in range(20):
            w = rng.normal(scale=2.0, size=8)
            analytic = cross_entropy_gradient(w, x, y)
            numeric = np.empty(8)
            for j in range(8):
                step = np.zeros(8)
                step[j] = h
                numeric[j] = (
                    mean_cross_entropy(w + step, x, y)
                    - mean_cross_entropy(w - step, x, y)
                ) / (2 * h)
            rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
            assert rel < 1e-4


def _validation_f2(model, extractor, lex, tok, valid_queries):
    scorer = ModelScorer(model, extractor)
    cfg = PipelineConfig(gamma=0.0, top_k=10, threshold=0.26)
    precisions, recalls = [], []
    for query in valid_queries:
        tokens = tokenize(clean_text(query.question), tok)
        ranked = retrieve_topk(lex, tokens, cfg.top_k, PipelineConfig(alpha=1.5, beta=1.0))
        answer = rank_and_select(query.question_id, query.question, ranked, scorer, cfg)
        p, r = precision_recall(answer, query.gold_article_ids)
        precisions.append(p)
        recalls.append(r)
    return f2(sum(precisions) / len(precisions), sum(recalls) / len(recalls))


def test_c7_two_stage_training_direction():
    with criterion(
        "C7 two-stage validation F2 >= gold-only-from-zero on 5 seeds"
    ):
        docs = synthetic_family_corpus(16, 4)
        articles = list(iter_articles(docs))
        tok = TokenizerConfig()
        lex = build_lex_index(articles, PipelineConfig())
        dense, _ = build_dense_index(articles, HashedProjectionEmbedder(128, 0), tok)
        extractor = FeatureExtractor(lex, dense)
        weak = extractor.matrix(generate_weak_dataset(articles, PipelineConfig(weak_seed=0)))
        queries = paraphrase_gold_queries(docs, seed=1)

        for seed in range(5):
            train_q, valid_q = split_train_valid(queries, 0.7, seed)
            gold_small = train_q[:3]  # scarce gold data, the regime weak labels target
            gold_train = generate_gold_examples(
                [(q.question, sorted(q.gold_article_ids)) for q in gold_small],
                articles, PipelineConfig(weak_seed=seed),
            )
            gold_valid = generate_gold_examples(
                [(q.question, sorted(q.gold_article_ids)) for q in valid_q],
                articles, PipelineConfig(weak_seed=seed + 100),
            )
            cfg = PipelineConfig(epochs=1, train_seed=seed)
            gold, valid = extractor.matrix(gold_train), extractor.matrix(gold_valid)
            two_stage = train_two_stage(weak, gold, valid, cfg)
            gold_only = train_stage(zero_model(), gold, valid, cfg, stage="gold_only")
            f2_two = _validation_f2(two_stage, extractor, lex, tok, valid_q)
            f2_gold = _validation_f2(gold_only, extractor, lex, tok, valid_q)
            assert f2_two >= f2_gold, f"seed {seed}: {f2_two:.4f} < {f2_gold:.4f}"


class _TableScorer:
    def __init__(self, table):
        self.table = table

    def score_batch(self, question, candidates):
        return [self.table[article_id] for article_id in candidates.ids()]


def test_c8_ensemble_order_identities(synth):
    with criterion("C8 gamma=1 follows raw quickview order; gamma=0 follows raw scorer order"):
        rng = random.Random(5)
        for query in synth.queries[:15]:
            tokens = tokenize(clean_text(query.question), synth.tok)
            ranked = retrieve_topk(synth.lex, tokens, 10, PipelineConfig(alpha=1.5, beta=1.0))
            table = {a: rng.random() for a in ranked.ids()}
            scorer = _TableScorer(table)

            for gamma, key in ((1.0, "qs"), (0.0, "ss")):
                cfg = PipelineConfig(gamma=gamma, top_k=10, threshold=2.0)
                answer = rank_and_select(
                    query.question_id, query.question, ranked, scorer, cfg
                )
                raw = {c.article_id: (c.qs_raw if key == "qs" else c.ss_raw)
                       for c in answer.returned}
                expected = sorted(raw, key=lambda a: (-raw[a], a))
                assert [c.article_id for c in answer.returned] == expected


def _select(candidates, threshold):
    """``select_answer_set`` on the candidates' ids and combined scores."""
    ids = np.array([c.article_id for c in candidates])
    combined = np.array([c.combined for c in candidates])
    keep = select_answer_set(ids, combined, threshold)
    return [candidates[i] for i in keep]


def test_c9_selection_rule():
    with criterion(
        "C9 top candidate always returned; size monotone in threshold; strict boundary"
    ):
        rng = random.Random(11)
        for _ in range(200):
            scores = [rng.random() for _ in range(rng.randint(1, 12))]
            candidates = [
                RankedCandidate(f"c{i:02d}", 0, 0, 0, 0, s) for i, s in enumerate(scores)
            ]
            best = max(scores)
            previous_size = 0
            for threshold in (0.0, 0.05, 0.2, 0.5, 1.0):
                returned = _select(candidates, threshold)
                assert returned[0].combined == best  # top of combined always there
                assert len(returned) >= max(previous_size, 1)
                previous_size = len(returned)
        # strict inequality at an exact gap
        exact = [
            RankedCandidate("a", 0, 0, 0, 0, 1.0),
            RankedCandidate("b", 0, 0, 0, 0, 0.75),
        ]
        assert len(_select(exact, 0.25)) == 1
        assert len(_select(exact, 0.25000001)) == 2


def test_c10_metric_and_normalization_properties():
    with criterion(
        "C10 recall@k monotone in k; min-max range and degenerate cases (1000+ cases)"
    ):
        rng = random.Random(99)
        for _ in range(1000):
            pool = [f"a{i}" for i in range(rng.randint(1, 40))]
            ranked = rng.sample(pool, k=rng.randint(0, len(pool)))
            gold = set(rng.sample(pool, k=rng.randint(1, len(pool))))
            values = [recall_at_k(ranked, gold, k) for k in range(1, len(pool) + 2)]
            assert values == sorted(values)
            assert all(0.0 <= v <= 1.0 for v in values)

        for _ in range(1000):
            scores = [rng.uniform(-50, 50) for _ in range(rng.randint(1, 30))]
            if rng.random() < 0.2:
                scores = [scores[0]] * len(scores)  # force the degenerate case
            normalized = minmax_normalize(np.array(scores))
            assert all(0.0 <= v <= 1.0 for v in normalized)
            assert max(normalized) == 1.0
            if max(scores) == min(scores):
                assert normalized.tolist() == [1.0] * len(scores)


def test_c11_protocol_conformance(scripts_dir):
    with criterion("C11 echo scorer and echo embedder round-trip in order"):
        import sys as _sys

        from statuteqa.dense import ExternalEmbedder
        from statuteqa.reranker import ExternalScorer

        candidates = [
            Article(f"p{i}", "d", f"Title {i}", f"Content body {i}.") for i in range(5)
        ]
        cmd = [_sys.executable, str(scripts_dir / "echo_scorer.py")]
        ids = [c.article_id for c in candidates]
        with ExternalScorer(cmd, candidates) as scorer:
            forward = list(zip(ids, scorer.score_batch("question", ranking_of(candidates))))
            backward = zip(
                ids[::-1], scorer.score_batch("question", ranking_of(candidates[::-1]))
            )
        assert [a for a, _ in forward] == [c.article_id for c in candidates]
        assert dict(forward) == dict(backward)
        assert len({s for _, s in forward}) == len(candidates)

        cmd = [_sys.executable, str(scripts_dir / "echo_embedder.py"), "--dim", "6"]
        with ExternalEmbedder(cmd, dimension=6) as embedder:
            texts = [f"text number {i}" for i in range(5)]
            vectors = embedder.embed_texts(texts)
            again = embedder.embed_texts(texts[::-1])
        for vec, rev in zip(vectors, again[::-1]):
            assert np.array_equal(vec, rev)
        assert len({tuple(v) for v in vectors}) == 5
