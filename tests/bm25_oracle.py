"""Independent brute-force BM25 evaluator.

Computes scores directly from raw per-article token lists with list.count
and linear scans: no inverted index, no shared code with the engine. Used
as the ground truth the engine must match.
"""

import math


def oracle_idf(field_tokens, term):
    """ln(1 + (N - n + 0.5) / (n + 0.5)) over the articles present in the field."""
    docs = [t for t in field_tokens.values() if t]
    n = sum(1 for t in docs if term in t)
    return math.log(1.0 + (len(docs) - n + 0.5) / (n + 0.5))


def oracle_bm25(field_tokens, query, article_id, k1=1.2, b=0.75):
    """Score one article's field from raw token lists.

    field_tokens: mapping article_id -> token list for one field; articles
    whose list is empty count as absent from the field.
    """
    docs = {a: t for a, t in field_tokens.items() if t}
    tokens = docs.get(article_id)
    if tokens is None:
        return 0.0
    big_n = len(docs)
    avgdl = sum(len(t) for t in docs.values()) / big_n
    dl = len(tokens)
    score = 0.0
    for term in query:
        tf = tokens.count(term)
        if tf == 0:
            continue
        idf = oracle_idf(docs, term)
        score += idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
    return score


def oracle_quickview(title_tokens, content_tokens, query, article_id, alpha, beta, k1=1.2, b=0.75):
    return alpha * oracle_bm25(title_tokens, query, article_id, k1, b) + beta * oracle_bm25(
        content_tokens, query, article_id, k1, b
    )


class BruteForceBm25:
    """Same brute-force arithmetic with memoized document frequencies.

    Document frequency is still computed by linearly scanning every raw
    token list; the cache only avoids rescanning for repeated terms so
    all-pairs checks stay inside the acceptance time budget.
    """

    def __init__(self, field_tokens, k1=1.2, b=0.75):
        self.docs = {a: list(t) for a, t in field_tokens.items() if t}
        self.k1 = k1
        self.b = b
        self.big_n = len(self.docs)
        self.avgdl = (
            sum(len(t) for t in self.docs.values()) / self.big_n if self.big_n else 0.0
        )
        self._df = {}

    def _doc_freq(self, term):
        cached = self._df.get(term)
        if cached is None:
            cached = sum(1 for tokens in self.docs.values() if term in tokens)
            self._df[term] = cached
        return cached

    def score(self, query, article_id):
        tokens = self.docs.get(article_id)
        if tokens is None:
            return 0.0
        dl = len(tokens)
        score = 0.0
        for term in query:
            tf = tokens.count(term)
            if tf == 0:
                continue
            n = self._doc_freq(term)
            idf = math.log(1.0 + (self.big_n - n + 0.5) / (n + 0.5))
            score += (
                idf
                * tf
                * (self.k1 + 1.0)
                / (tf + self.k1 * (1.0 - self.b + self.b * dl / self.avgdl))
            )
        return score


def oracle_topk(title, content, query, k, alpha, beta):
    """Quickview top-k by scoring every article with ``BruteForceBm25``.

    ``title`` and ``content`` are the two fields' BruteForceBm25. A zero
    boost skips its field; only positive scores are kept, ordered by
    descending score then ascending article id.
    """
    scored = []
    for article_id in sorted(set(title.docs) | set(content.docs)):
        score = 0.0
        if alpha:
            score += alpha * title.score(query, article_id)
        if beta:
            score += beta * content.score(query, article_id)
        if score > 0.0:
            scored.append((article_id, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]
