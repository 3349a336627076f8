"""Per-row reference for the reranker's features and scores.

Feature rows are built one article at a time from whole-corpus BM25 and
matched-term counts, and a row's relevance probability is its logit
summed as Python floats in feature order. The package builds one
feature matrix per batch and sums the logits one column at a time; its
values must equal these bit for bit.
"""

import math
from itertools import groupby

import numpy as np

from statuteqa.corpus import clean_text, tokenize
from statuteqa.dense import embed, quickview_dense_score, sentence_cosines
from statuteqa.lexical import score_query
from statuteqa.reranker import _PROB_EPS, NUM_FEATURES, _sigmoid


def _saturate(score):
    return score / (1.0 + score)


def _jaccard(matched, question_terms, article_terms):
    if not article_terms:
        return 0.0
    return matched / (question_terms + article_terms - matched)


def whole_corpus_scores(lex, tokens):
    """Per-field BM25 and matched distinct query terms of every column; the
    counts are taken here, not from ``score_query``'s pass."""
    bm25 = {field: scores[0] for field, scores in score_query(lex, tokens).items()}
    matched = {}
    for field in ("title", "content"):
        matrix = lex.stats(field)
        rows = [matrix.row(t) for t in set(tokens)]
        columns = [matrix.columns[r] for r in rows if r is not None]
        matched[field] = np.bincount(
            np.concatenate(columns or [matrix.columns[:0]]),
            minlength=len(lex.article_ids),
        )
    return bm25, matched


def extract_features(tokens, bm25, matched, article_id, lex, dense_score):
    """One article's feature row under a question's whole-corpus scores."""
    column = lex.column.get(article_id)
    if column is None or not lex.content.lengths[column]:
        raise ValueError(f"article {article_id!r} not in lexical index")
    distinct = len(set(tokens))
    features = np.empty(NUM_FEATURES, dtype=np.float64)
    features[0] = _saturate(bm25["title"][column])
    features[1] = _saturate(bm25["content"][column])
    features[2] = dense_score
    features[3] = _jaccard(
        int(matched["title"][column]), distinct, int(lex.title.distinct[column])
    )
    features[4] = _jaccard(
        int(matched["content"][column]), distinct, int(lex.content.distinct[column])
    )
    features[5] = math.log1p(len(tokens))
    features[6] = math.log1p(lex.content.lengths[column])
    features[7] = 1.0
    return features


def rows(extractor, question, article_ids, tok=None):
    """``FeatureExtractor.rows`` as a loop over the articles, with the
    question cut by ``tok`` (default: the lexical index's tokenizer); the
    dense positions are looked up in the dense index's own id list."""
    tokens = tokenize(clean_text(question), tok or extractor.lex.tokenizer)
    vector = embed(extractor.dense.embedder, tokens)
    bm25, matched = whole_corpus_scores(extractor.lex, tokens)
    positions = [extractor.dense.article_ids.index(a) for a in article_ids]
    cosines = sentence_cosines(extractor.dense, vector)
    dense_scores = quickview_dense_score(extractor.dense, cosines, positions)
    x = np.empty((len(article_ids), NUM_FEATURES), dtype=np.float64)
    for i, (article_id, dense_score) in enumerate(zip(article_ids, dense_scores)):
        x[i] = extract_features(tokens, bm25, matched, article_id, extractor.lex, dense_score)
    return x


def matrix(extractor, examples):
    """``FeatureExtractor.matrix`` with the per-article rows above."""
    x = np.empty((len(examples), NUM_FEATURES), dtype=np.float64)
    by_question = sorted(range(len(examples)), key=lambda i: examples[i].question)
    for question, group in groupby(by_question, key=lambda i: examples[i].question):
        group = list(group)
        x[group] = rows(extractor, question, [examples[i].article_id for i in group])
    return x


def logit(model, features):
    """w . f summed as Python floats in feature order."""
    weights = model.weights.tolist()
    values = features.tolist()
    z = values[0] * weights[0]
    for j in range(1, NUM_FEATURES):
        z += values[j] * weights[j]
    return z


def predict(model, features):
    """Relevance probability of one feature row, clamped to the open unit interval."""
    p = float(_sigmoid(np.array([logit(model, features)]))[0])
    return min(max(p, _PROB_EPS), 1.0 - _PROB_EPS)
