"""Fielded BM25 over article titles and contents, as precomputed impact matrices.

The quickview lexical score of an article is a weighted sum of two
whole-field BM25 scores: ``alpha * bm25(title) + beta * bm25(content)``.

Each field is held as one CSR term×article matrix. Row ``r`` lists the
articles containing term ``r`` (rows in sorted term order), with the term
frequency and the BM25 impact ``idf·tf·(k1+1)/(tf+norm)`` of each entry,
where ``norm = k1·(1 - b + b·len/avgdl)``. Columns number the indexed
articles in sorted article-id order (Python string order), so ascending
column is ascending id and column order breaks score ties the way the
ranking contract asks. An article has a column when its content has
tokens, the rule the dense index keeps articles by, so both indexes number
the same articles alike. Per-article token counts and distinct-term counts
are arrays over the same columns; an untitled article has title length 0.

Query-time BM25 is a sum of impacts taken in query order, once per token
occurrence, into float64 accumulators that start at 0.0. ``score_query``
takes it for every article in one pass, with each field's count of
matched distinct query terms; the quickview ranks by the pass and the
reranker's features read it at the candidates' columns. Each article
thus receives the same additions, in the same order, as a per-article
loop over the query tokens, and each impact is computed with the same
operations in the same order as the scalar formula (idf with
``math.log``), so the pass equals that loop bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from . import indexfile
from .corpus import Article, TokenizerConfig, clean_text, sorted_articles, tokenize
from .ensemble import Ranking, top_k_positions
from .lineproto import finite_real

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

__all__ = [
    "FieldMatrix",
    "LexIndex",
    "build_lex_index",
    "score_query",
    "bm25",
    "retrieve_topk",
    "save_lex_index",
    "load_lex_index",
]

FIELDS = ("title", "content")

LEX_INDEX_FORMAT = "statuteqa.lexindex"
LEX_INDEX_VERSION = 5

# The FieldMatrix arrays an index file holds for each field, with their dtypes
_SAVED = {"indptr": np.int64, "columns": np.int32, "tf": np.int32, "lengths": np.int64}
_LAYOUT = {
    f"{field}.{name}": (dtype, 1) for field in FIELDS for name, dtype in _SAVED.items()
}


@dataclass(frozen=True)
class FieldMatrix:
    """One field's postings and statistics over the index's article columns."""

    terms: Mapping[str, int]  # term -> row; rows in sorted term order
    indptr: np.ndarray  # int64, rows + 1; row r is entries indptr[r]:indptr[r+1]
    columns: np.ndarray  # int32 article column of each entry, ascending in a row
    tf: np.ndarray  # int32 term frequency of each entry
    impact: np.ndarray  # float64 idf·tf·(k1+1)/(tf+norm) of each entry
    lengths: np.ndarray  # int64 tokens per article column; 0 = absent
    distinct: np.ndarray  # int64 distinct terms per article column
    doc_count: int
    avgdl: float

    def row(self, term: str) -> slice | None:
        r = self.terms.get(term)
        if r is None:
            return None
        return slice(int(self.indptr[r]), int(self.indptr[r + 1]))


@dataclass(frozen=True)
class LexIndex:
    """Both fields' BM25 impact matrices over one set of article columns.

    Column ``c`` is ``article_ids[c]``, the ids sorted in Python string
    order, so a stable sort on column breaks score ties by ascending id.
    Each field stores the impact ``idf·tf·(k1+1)/(tf+norm)`` of every
    posting, computed elementwise with the scalar formula's operations in
    its order, so a query's per-article sum of impacts, taken in query
    order from 0.0 (see ``score_query``), equals the per-article BM25 loop
    bit for bit. ``k1`` and ``b`` are the BM25 settings the impacts were
    computed with; ``tokenizer`` cut the fields and cuts questions read
    against the index. Immutable after build; safe for concurrent readers.
    """

    article_ids: tuple[str, ...]  # sorted; position = matrix column
    title: FieldMatrix
    content: FieldMatrix
    k1: float
    b: float
    tokenizer: TokenizerConfig
    corpus_digest: str  # sha256 of the corpus file's bytes; "" if built in memory
    column: Mapping[str, int] = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        column = dict(zip(self.article_ids, range(len(self.article_ids))))
        object.__setattr__(self, "column", column)

    def stats(self, field: str) -> FieldMatrix:
        if field == "title":
            return self.title
        if field == "content":
            return self.content
        raise ValueError(f"unknown field: {field!r}")


def _idf(big_n: int, n: int) -> float:
    return math.log(1.0 + (big_n - n + 0.5) / (n + 0.5))


def _field_matrix(
    terms: Sequence[str],
    indptr: np.ndarray,
    columns: np.ndarray,
    tf: np.ndarray,
    lengths: np.ndarray,
    k1: float,
    b: float,
) -> FieldMatrix:
    """Impacts and per-column statistics of one field's CSR postings.

    Build and load both come through here, so they produce the same arrays.
    """
    df = np.diff(indptr)
    big_n = int(np.count_nonzero(lengths))
    avgdl = int(lengths.sum()) / big_n if big_n else 0.0
    # few distinct document frequencies: math.log once for each
    distinct_df, row_df = np.unique(df, return_inverse=True)
    idf_df = np.array([_idf(big_n, n) for n in distinct_df.tolist()], dtype=np.float64)
    idf_rows = idf_df[row_df]
    tf_f = tf.astype(np.float64)
    # per column, then gathered; avgdl is 0 only when no column has tokens
    # (no postings), so the stand-in divisor is never read
    norm = k1 * (1.0 - b + b * lengths / (avgdl or 1.0))
    impact = np.repeat(idf_rows, df) * tf_f * (k1 + 1.0) / (tf_f + norm[columns])
    return FieldMatrix(
        terms=dict(zip(terms, range(len(terms)))),
        indptr=indptr,
        columns=columns,
        tf=tf,
        impact=impact,
        lengths=lengths,
        distinct=np.bincount(columns, minlength=len(lengths)),
        doc_count=big_n,
        avgdl=avgdl,
    )


def _field_tokens(article: Article, field: str, tok: TokenizerConfig) -> list[str]:
    if field == "title":
        return tokenize(clean_text(article.title), tok) if article.title else []
    return tokenize(clean_text(article.content), tok)


def build_lex_index(
    articles: Sequence[Article], cfg: PipelineConfig, corpus_digest: str = ""
) -> LexIndex:
    """Index title and content tokens of every article whose content has tokens,
    with ``cfg``'s tokenizer and BM25 ``k1`` and ``b``.

    An article whose cleaned content has no tokens gets no column, whatever
    its title; title tokens are indexed only when a title is present.
    ``corpus_digest`` is recorded as given: ``index`` passes the sha256 of
    the corpus file the articles were parsed from.
    """
    ordered = sorted_articles(articles)
    tok = cfg.tokenizer_config()
    tokens = {f: [_field_tokens(a, f, tok) for a in ordered] for f in FIELDS}
    kept = [i for i, content in enumerate(tokens["content"]) if content]
    matrices = {}
    for field in FIELDS:
        postings: dict[str, list[tuple[int, int]]] = {}
        lengths = np.zeros(len(kept), dtype=np.int64)
        for column, i in enumerate(kept):
            lengths[column] = len(tokens[field][i])
            for token, count in Counter(tokens[field][i]).items():
                postings.setdefault(token, []).append((column, count))
        terms = sorted(postings)
        indptr = np.cumsum([0, *(len(postings[t]) for t in terms)], dtype=np.int64)
        entries = [entry for term in terms for entry in postings[term]]
        flat = np.fromiter(chain.from_iterable(entries), np.int32, 2 * len(entries))
        columns, tf = flat.reshape(-1, 2).T.copy()  # two contiguous rows
        matrices[field] = _field_matrix(
            terms, indptr, columns, tf, lengths, cfg.k1, cfg.b
        )
    return LexIndex(
        article_ids=tuple(ordered[i].article_id for i in kept),
        title=matrices["title"],
        content=matrices["content"],
        k1=cfg.k1,
        b=cfg.b,
        tokenizer=tok,
        corpus_digest=corpus_digest,
    )


def score_query(
    index: LexIndex, query: Sequence[str]
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per field, the BM25 and the matched distinct query terms of every
    article column, in one pass over the query's rows.

    Each token's row is taken once per occurrence, in query order, and
    ``np.bincount`` adds the entries into zeroed float64 accumulators in
    that order; a second ``np.bincount`` counts the rows of the distinct
    tokens.
    """
    n_cols = len(index.article_ids)
    scores = {}
    for field in FIELDS:
        matrix = index.stats(field)
        rows = {token: matrix.row(token) for token in query}
        occurrences = [rows[token] for token in query if rows[token] is not None]
        # astype: with no occurrences bincount returns integer zeros
        bm25 = np.bincount(
            _concat(matrix.columns, occurrences),
            weights=_concat(matrix.impact, occurrences),
            minlength=n_cols,
        ).astype(np.float64, copy=False)
        distinct = [row for row in rows.values() if row is not None]
        matched = np.bincount(_concat(matrix.columns, distinct), minlength=n_cols)
        scores[field] = bm25, matched
    return scores


def _concat(values: np.ndarray, rows: Sequence[slice]) -> np.ndarray:
    return np.concatenate([values[row] for row in rows] or [values[:0]])


def bm25(index: LexIndex, field: str, query: Sequence[str], article_id: str) -> float:
    """BM25 score of one article's field against the query token sequence.

    Repeated query tokens contribute once per occurrence. Articles unknown
    to the field score 0.
    """
    index.stats(field)  # rejects an unknown field
    column = index.column.get(article_id)
    if column is None:
        return 0.0
    return float(score_query(index, query)[field][0][column])


def retrieve_topk(
    index: LexIndex,
    query: Sequence[str],
    k: int,
    cfg: PipelineConfig,
) -> Ranking:
    """Top-k article columns by raw quickview score, descending: the title
    and content BM25 boosted by ``cfg.alpha`` and ``cfg.beta``.

    Only articles with score > 0 are returned; ties break by ascending
    column, which is ascending article id, for a deterministic total order.
    The ranking carries the query and its ``score_query`` pass.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    field_scores = score_query(index, query)
    scores = np.zeros(len(index.article_ids), dtype=np.float64)
    if cfg.alpha:
        scores += cfg.alpha * field_scores["title"][0]
    if cfg.beta:
        scores += cfg.beta * field_scores["content"][0]
    hits = np.flatnonzero(scores > 0.0)
    top = top_k_positions(hits, scores[hits], k)
    return Ranking(index.article_ids, top, scores[top], tuple(query), None, field_scores)


def save_lex_index(index: LexIndex, path: str | Path) -> None:
    """Persist both fields' postings, their columns gap-coded, and lengths
    (see ``indexfile``).

    Deterministic. Load recomputes the impacts and per-column statistics
    with the function build uses, so they are equal bit for bit.
    """
    header = {
        "tokenizer_fingerprint": index.tokenizer.fingerprint(),
        "corpus_digest": index.corpus_digest,
        "k1": index.k1,
        "b": index.b,
        "article_ids": list(index.article_ids),
        "terms": {field: list(index.stats(field).terms) for field in FIELDS},
    }
    arrays = {
        f"{field}.{name}": getattr(index.stats(field), name)
        for field in FIELDS
        for name in _SAVED
    }
    for field in FIELDS:
        matrix = index.stats(field)
        arrays[f"{field}.columns"] = indexfile.gap_encode(matrix.indptr, matrix.columns)
    indexfile.save(path, LEX_INDEX_FORMAT, LEX_INDEX_VERSION, header, arrays)


def load_lex_index(path: str | Path, tokenizer: TokenizerConfig) -> LexIndex:
    """Load a persisted index built with ``tokenizer``, which the loaded
    index keeps for its questions.

    Raises ``ValueError`` naming ``path`` for a header whose ``terms`` are
    not a list of strings per field, or whose ``k1`` and ``b`` are not
    finite reals in their config ranges.
    """
    header, arrays = indexfile.load(
        path, LEX_INDEX_FORMAT, LEX_INDEX_VERSION, _LAYOUT,
        {"tokenizer_fingerprint": tokenizer.fingerprint()},
    )
    ids = header["article_ids"]
    k1, b = header.get("k1"), header.get("b")
    in_range = finite_real(k1) is not None and k1 >= 0
    indexfile.require(in_range, path, "k1 must be a finite real >= 0")
    in_range = finite_real(b) is not None and 0 <= b <= 1
    indexfile.require(in_range, path, "b must be a finite real in [0, 1]")
    fields = header.get("terms")
    matrices = {}
    for field in FIELDS:
        terms = fields.get(field) if isinstance(fields, dict) else None
        strings = isinstance(terms, list) and all(isinstance(t, str) for t in terms)
        indexfile.require(strings, path, f"{field} terms must be a list of strings")
        indptr, gaps, tf, lengths = (arrays[f"{field}.{name}"] for name in _SAVED)
        indexfile.require_offsets(path, f"{field} indptr", indptr, len(terms), len(tf))
        columns = indexfile.gap_decode(path, f"{field} columns", indptr, gaps, len(ids))
        agree = len(lengths) == len(ids)
        indexfile.require(agree, path, f"{field} postings disagree with the header")
        matrices[field] = _field_matrix(terms, indptr, columns, tf, lengths, k1, b)
    return LexIndex(
        article_ids=tuple(ids),
        title=matrices["title"],
        content=matrices["content"],
        k1=k1,
        b=b,
        tokenizer=tokenizer,
        corpus_digest=header["corpus_digest"],
    )
