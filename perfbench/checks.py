"""Output checks and quality figures, computed by the benchmark's own code.

Each check raises ``CheckFailed`` on the first mismatch; a run that fails
a check reports no numbers. The oracles reuse only the package's text
normalization (``clean_text``, ``tokenize``, ``split_sentences``) and the
embedder, which define the input; scoring, ranking, fusion and selection
are recomputed here, in the same arithmetic order as the rules the
package documents, so exact ties break the same way.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter

import numpy as np

from statuteqa import dense, lexical
from statuteqa.corpus import clean_text, split_sentences, tokenize

SCORE_TOL = 1e-9


class CheckFailed(AssertionError):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Bm25Oracle:
    """Fielded BM25 by brute force from each article's raw tokens."""

    def __init__(self, articles, tok, k1: float, b: float) -> None:
        self.tok = tok
        self.k1, self.b = k1, b
        self.ids = [a.article_id for a in articles]
        self.fields = {}
        for field in ("title", "content"):
            tf = {}
            for a in articles:
                text = a.title if field == "title" else a.content
                tokens = tokenize(clean_text(text), tok) if text else []
                if tokens:
                    tf[a.article_id] = Counter(tokens)
            lengths = {aid: sum(c.values()) for aid, c in tf.items()}
            df = Counter(t for c in tf.values() for t in c)
            avgdl = sum(lengths.values()) / len(lengths) if lengths else 0.0
            self.fields[field] = (tf, lengths, df, len(lengths), avgdl)

    def _field_score(self, field: str, query: list[str], article_id: str) -> float:
        tf, lengths, df, big_n, avgdl = self.fields[field]
        counts = tf.get(article_id)
        if counts is None:
            return 0.0
        norm = self.k1 * (1.0 - self.b + self.b * lengths[article_id] / avgdl)
        score = 0.0
        for token in query:
            f = counts.get(token)
            if f:
                n = df[token]
                idf = math.log(1.0 + (big_n - n + 0.5) / (n + 0.5))
                score += idf * f * (self.k1 + 1.0) / (f + norm)
        return score

    def topk(self, question: str, k: int, alpha: float, beta: float):
        query = tokenize(clean_text(question), self.tok)
        scored = []
        for article_id in self.ids:
            score = 0.0
            score += alpha * self._field_score("title", query, article_id)
            score += beta * self._field_score("content", query, article_id)
            if score > 0.0:
                scored.append((article_id, score))
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:k]


class DenseOracle:
    """Max cosine over sentence vectors embedded afresh from raw content."""

    def __init__(self, articles, embedder, tok) -> None:
        self.embedder = embedder
        self.tok = tok
        self.matrices = {}
        for a in articles:
            rows = []
            for sentence in split_sentences(a.content):
                tokens = tokenize(clean_text(sentence), tok)
                if tokens:
                    rows.append(self._unit(embedder.embed_tokens(tokens)))
            if rows:
                self.matrices[a.article_id] = np.vstack(rows)

    @staticmethod
    def _unit(vec: np.ndarray) -> np.ndarray:
        norm = float(np.linalg.norm(vec))
        return vec / norm if norm > 0.0 else vec

    def topk(self, question: str, k: int):
        q = self.embedder.embed_tokens(tokenize(clean_text(question), self.tok))
        qnorm = float(np.linalg.norm(q))
        scored = [
            (aid, float(np.max(m @ (q / qnorm))) if qnorm > 0.0 else 0.0)
            for aid, m in self.matrices.items()
        ]
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:k]


def _compare_ranked(kind: str, question: str, got, want) -> None:
    got_ids = [aid for aid, _ in got]
    want_ids = [aid for aid, _ in want]
    _require(got_ids == want_ids, f"{kind} ids differ from the oracle for {question!r}")
    worst = max((abs(g - w) for (_, g), (_, w) in zip(got, want)), default=0.0)
    _require(worst <= SCORE_TOL, f"{kind} score off by {worst:.3g} for {question!r}")


def check_answer_shape(question: str, returned, threshold: float) -> None:
    """Selection rule on one answer set: [(article_id, combined), ...]."""
    _require(bool(returned), f"no candidates for {question!r}")
    best = returned[0][1]
    order = [(-c, aid) for aid, c in returned]
    _require(order == sorted(order), f"answer set out of order for {question!r}")
    for aid, combined in returned:
        _require(
            best - combined < threshold or combined == best,
            f"{aid} outside the threshold of the best candidate for {question!r}",
        )


def expected_answer(pipeline, question: str, ranked) -> list[tuple[str, float]]:
    """Min-max normalize, fuse and select from the quickview ranking."""
    cfg = pipeline.cfg.ensemble_config()
    articles = [pipeline.by_id[aid] for aid, _ in ranked]
    ss = [float(s) for s in pipeline.scorer.score_batch(question, articles)]
    qs = [score for _, score in ranked]

    def norm(values):
        low, high = min(values), max(values)
        if high == low:
            return [1.0] * len(values)
        return [(v - low) / (high - low) for v in values]

    combined = [
        (aid, cfg.gamma * qn + (1.0 - cfg.gamma) * sn)
        for (aid, _), qn, sn in zip(ranked, norm(qs), norm(ss))
    ]
    combined.sort(key=lambda item: (-item[1], item[0]))
    best = combined[0][1]
    threshold = cfg.effective_threshold()
    return [(aid, c) for aid, c in combined if best - c < threshold or c == best]


def quickview(pipeline, question: str, k: int):
    cfg = pipeline.cfg
    if cfg.quickview_source == "dense":
        return dense.dense_retrieve_topk(pipeline.dense, question, k, pipeline.tok)
    tokens = tokenize(clean_text(question), pipeline.tok)
    return lexical.retrieve_topk(pipeline.lex, tokens, k, cfg.quickview_config())


def check_and_score(pipeline, quality, answers, oracle_questions: int):
    """Oracle checks on a sample, then recall@200, F2 and the answer digest.

    ``quality`` is a fixed, seeded list of GoldQuery asked in the run and
    ``answers`` maps question text to its answer set. The first
    ``oracle_questions`` of them are recomputed end to end: quickview
    against brute-force BM25 and max-cosine, and the answer set against
    fusion and selection done here.
    """
    k = 200
    cfg = pipeline.cfg
    qv = cfg.quickview_config()
    bm25 = Bm25Oracle(pipeline.articles, pipeline.tok, cfg.k1, cfg.b)
    maxcos = DenseOracle(pipeline.articles, pipeline.dense.embedder, pipeline.tok)
    for q in quality[:oracle_questions]:
        tokens = tokenize(clean_text(q.question), pipeline.tok)
        _compare_ranked(
            "retrieve_topk", q.question,
            lexical.retrieve_topk(pipeline.lex, tokens, k, qv),
            bm25.topk(q.question, k, qv.alpha, qv.beta),
        )
        _compare_ranked(
            "dense_retrieve_topk", q.question,
            dense.dense_retrieve_topk(pipeline.dense, q.question, k, pipeline.tok),
            maxcos.topk(q.question, k),
        )
        ranked = quickview(pipeline, q.question, cfg.top_k)
        want = expected_answer(pipeline, q.question, ranked)
        _compare_ranked("answer set", q.question, answers[q.question], want)

    recall = precision_sum = recall_sum = 0.0
    for q in quality:
        ranked_ids = [aid for aid, _ in quickview(pipeline, q.question, k)]
        recall += len(set(ranked_ids) & q.gold_article_ids) / len(q.gold_article_ids)
        returned = {aid for aid, _ in answers[q.question]}
        hits = len(returned & q.gold_article_ids)
        precision_sum += hits / len(returned)
        recall_sum += hits / len(q.gold_article_ids)
    n = len(quality)
    p, r = precision_sum / n, recall_sum / n
    sets = sorted([q.question, [aid for aid, _ in answers[q.question]]] for q in quality)
    digest = hashlib.sha256(json.dumps(sets).encode("utf-8")).hexdigest()[:16]
    return {
        "recall_at_200": recall / n,
        "f2": 5.0 * p * r / (4.0 * p + r) if p + r else 0.0,
        "digest": digest,
    }
