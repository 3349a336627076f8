"""Fielded BM25 over article titles and contents, as precomputed impact matrices.

The quickview lexical score of an article is a weighted sum of two
whole-field BM25 scores: ``alpha * bm25(title) + beta * bm25(content)``.

Both fields are CSR term×article matrices over one sorted vocabulary:
row ``r`` lists the articles whose field has term ``r``, with the term
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
takes it for every article in one pass; the quickview ranks by the pass
and the reranker's features read it at the candidates' columns. Each
article thus receives the same additions, in the same order, as a
per-article loop over the query tokens, and each impact is computed with
the same operations in the same order as the scalar formula (idf with
``math.log``), so the pass equals that loop bit for bit. A common term,
one posted in more than half of a field's columns (``stored_lists``),
also has its impacts as one dense row over the columns, which the pass
adds whole: the columns it does not post in receive +0.0, which changes
no sum. The features' matched distinct query terms are counted by one
rule: the rare terms' postings by one ``np.bincount``, the common terms'
dense rows at the candidates' columns only.

``save_lex_index`` describes what a file stores.
"""

from __future__ import annotations

import functools
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

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

__all__ = [
    "FieldMatrix",
    "LexIndex",
    "QueryScores",
    "build_lex_index",
    "score_query",
    "bm25",
    "retrieve_topk",
    "save_lex_index",
    "load_lex_index",
]

FIELDS = ("title", "content")

LEX_INDEX_FORMAT = "statuteqa.lexindex"
LEX_INDEX_VERSION = 10

# The string tables' prefixes, then each field's stored postings (see
# save_lex_index)
_TABLES = ("article_ids", "terms")
_SAVED = {"df": np.int64, "columns": np.int32, "tf": np.int32}
_LAYOUT = {
    **{f"{table}.prefix": (np.int64, 1) for table in _TABLES},
    **{f"{field}.{name}": (dtype, 1) for field in FIELDS for name, dtype in _SAVED.items()},
}


@dataclass(frozen=True, eq=False)
class FieldMatrix:
    """One field's postings and per-column statistics over the index's
    terms and columns.

    ``lengths`` is the per-column sum of ``tf``. The field's document
    count and average length enter the impacts only, so they are not kept.
    ``dense`` maps each common term's row (``stored_lists``) to its
    impacts over every column, 0.0 where it has no posting; every
    posting's impact is positive, so a column has the term where its
    value is above 0.
    """

    indptr: np.ndarray  # int64, terms + 1; row r is entries indptr[r]:indptr[r+1]
    columns: np.ndarray  # int32 article column of each entry, ascending in a row
    tf: np.ndarray  # int32 term frequency of each entry
    impact: np.ndarray  # float64 idf·tf·(k1+1)/(tf+norm) of each entry
    lengths: np.ndarray  # int64 tokens per article column (its tf sum); 0 = absent
    distinct: np.ndarray  # int64 distinct terms per article column
    dense: Mapping[int, np.ndarray]  # common term row -> float64 impact per column


@dataclass(frozen=True, eq=False)
class LexIndex:
    """Both fields' BM25 impact matrices over one set of article columns.

    Term ``t`` is row ``terms[t]`` of both fields. Column ``c`` is
    ``article_ids[c]``, the ids sorted in Python string order, so a stable
    sort on column breaks score ties by ascending id.
    Each field stores the impact ``idf·tf·(k1+1)/(tf+norm)`` of every
    posting, computed elementwise with the scalar formula's operations in
    its order, so a query's per-article sum of impacts, taken in query
    order from 0.0 (see ``score_query``), equals the per-article BM25 loop
    bit for bit. ``k1`` and ``b`` are the BM25 settings the impacts were
    computed with; ``tokenizer`` cut the fields and cuts questions read
    against the index. Build and load take all three from the config; see
    ``save_lex_index`` for what a file stores. Immutable after build; safe
    for concurrent readers.
    """

    article_ids: tuple[str, ...]  # sorted; position = matrix column
    terms: Mapping[str, int]  # term -> row of both fields, in sorted term order
    title: FieldMatrix
    content: FieldMatrix
    k1: float
    b: float
    tokenizer: TokenizerConfig
    corpus_digest: str  # sha256 of the corpus file's bytes; "" if built in memory

    @functools.cached_property
    def column(self) -> Mapping[str, int]:
        """Article id -> column, built on first read: no answer reads it."""
        return dict(zip(self.article_ids, range(len(self.article_ids))))


def _idf(big_n: int, n: int) -> float:
    return math.log(1.0 + (big_n - n + 0.5) / (n + 0.5))


def _field_matrix(
    indptr: np.ndarray,
    columns: np.ndarray,
    tf: np.ndarray,
    n_columns: int,
    k1: float,
    b: float,
) -> FieldMatrix:
    """Impacts, common terms' dense rows and per-column statistics of one
    field's CSR postings over ``n_columns`` article columns.

    A column's length is the sum of its ``tf``, summed in float64, which is
    exact below 2**53.
    """
    df = np.diff(indptr)
    lengths = np.bincount(columns, weights=tf, minlength=n_columns).astype(np.int64)
    impact = _impacts(df, columns, tf, lengths, k1, b)
    common = np.flatnonzero(stored_lists(df, n_columns)[0]).tolist()
    dense = np.zeros((len(common), n_columns))
    for row, r in zip(dense, common):
        span = slice(indptr[r], indptr[r + 1])
        row[columns[span]] = impact[span]
    return FieldMatrix(
        indptr=indptr,
        columns=columns,
        tf=tf,
        impact=impact,
        lengths=lengths,
        distinct=np.bincount(columns, minlength=n_columns),
        dense=dict(zip(common, dense)),
    )


def _impacts(
    df: np.ndarray, columns: np.ndarray, tf: np.ndarray, lengths: np.ndarray, k1: float, b: float
) -> np.ndarray:
    """Each posting's ``idf·tf·(k1+1)/(tf+norm)``, its temporaries freed on return."""
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
    return np.repeat(idf_rows, df) * tf_f * (k1 + 1.0) / (tf_f + norm[columns])


def stored_lists(df: np.ndarray, n_columns: int) -> tuple[np.ndarray, np.ndarray]:
    """(complemented, counts): the common term rows, those posted in more
    than half the columns, and the length of each row's stored list.

    This is the one rule for a common term: a file stores its row as the
    columns it lacks, and the index holds its impacts as a dense row. It
    is a fixed rule of the file's version."""
    complemented = 2 * df > n_columns
    return complemented, np.where(complemented, n_columns - df, df)


def _swap_lists(
    n_columns: int, ptr: np.ndarray, lists: np.ndarray, out_ptr: np.ndarray, swapped: np.ndarray
) -> np.ndarray:
    """The int32 lists over ``out_ptr``: list ``r`` of ``lists`` (over
    ``ptr``) as it is, or where ``swapped[r]``, the ascending columns of
    ``[0, n_columns)`` that it lacks, by a keep-mask. That is its own
    inverse: save turns postings into absences and load turns them back."""
    out = np.empty(out_ptr[-1], dtype=np.int32)
    rows = np.flatnonzero(swapped).tolist()
    # the runs of rows between swapped ones are copied whole, a slice each
    for start, stop in zip([0, *(r + 1 for r in rows)], [*rows, len(swapped)]):
        out[out_ptr[start] : out_ptr[stop]] = lists[ptr[start] : ptr[stop]]
    columns = np.arange(n_columns, dtype=np.int32)
    for r in rows:
        listed = lists[ptr[r] : ptr[r + 1]]
        if listed.size:
            keep = np.ones(n_columns, dtype=bool)
            keep[listed] = False
            out[out_ptr[r] : out_ptr[r + 1]] = columns[keep]
        else:  # a term in every column, the common case: the mask would keep all
            out[out_ptr[r] : out_ptr[r + 1]] = columns
    return out


def _lex_index(ids, terms, postings, cfg: PipelineConfig, corpus_digest: str) -> LexIndex:
    """The index of ``postings``, each field's CSR ``(indptr, columns, tf)``
    over the sorted ``terms`` and the article columns ``ids``, with
    ``cfg``'s tokenizer and BM25 ``k1`` and ``b``. Build and load both come
    through here, so they produce the same arrays."""
    return LexIndex(
        article_ids=tuple(ids),
        terms=dict(zip(terms, range(len(terms)))),
        **{f: _field_matrix(*postings[f], len(ids), cfg.k1, cfg.b) for f in FIELDS},
        k1=cfg.k1,
        b=cfg.b,
        tokenizer=cfg.tokenizer_config(),
        corpus_digest=corpus_digest,
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
    posted: dict[str, dict[str, list[tuple[int, int]]]] = {field: {} for field in FIELDS}
    for field in FIELDS:
        for column, i in enumerate(kept):
            for token, count in Counter(tokens[field][i]).items():
                posted[field].setdefault(token, []).append((column, count))
    terms = sorted(posted["title"].keys() | posted["content"].keys())
    postings = {}
    for field in FIELDS:
        lists = [posted[field].get(term, ()) for term in terms]
        indptr = np.cumsum([0, *map(len, lists)], dtype=np.int64)
        entries = chain.from_iterable(chain.from_iterable(lists))
        flat = np.fromiter(entries, np.int32, 2 * int(indptr[-1]))
        columns, tf = flat.reshape(-1, 2).T.copy()  # two contiguous rows
        postings[field] = indptr, columns, tf
    return _lex_index([ordered[i].article_id for i in kept], terms, postings, cfg, corpus_digest)


@dataclass(frozen=True, eq=False)
class QueryScores:
    """One question's ``score_query`` pass: each field's BM25 of every
    article column, and the rows of its distinct tokens in ``index``, from
    which ``matched`` counts them at the columns asked for."""

    index: LexIndex
    bm25: Mapping[str, np.ndarray]  # field -> float64 BM25 of every column
    rows: tuple[int, ...]  # the distinct query tokens' term rows

    def matched(self, field: str, columns: np.ndarray) -> np.ndarray:
        """The int64 number of distinct query terms that ``field`` of the
        article at each of ``columns`` has: one ``np.bincount`` over the
        rare rows' postings, read at ``columns``, and each dense row read
        at ``columns``, adding one where it is above 0."""
        matrix = getattr(self.index, field)
        ptr, dense = matrix.indptr, matrix.dense
        rare = [matrix.columns[ptr[r] : ptr[r + 1]] for r in self.rows if r not in dense]
        found = np.concatenate(rare or [matrix.columns[:0]])
        counts = np.bincount(found, minlength=len(self.index.article_ids))[columns]
        for r in self.rows:
            if r in dense:
                counts += dense[r][columns] > 0.0
        return counts


def score_query(index: LexIndex, query: Sequence[str]) -> QueryScores:
    """Per field, the BM25 of every article column, in one pass over the
    query's rows.

    Each distinct token is looked up once. Per field, each occurrence in
    query order adds its row into a zeroed float64 accumulator: a dense
    row whole, or a sparse row's impacts at its columns by ``np.add.at``,
    one addition per posting in posting order. A row's columns are
    distinct, so each column receives one addition per occurrence whose
    row posts in it, in query order.
    """
    rows = {token: index.terms.get(token) for token in dict.fromkeys(query)}
    occurrences = [rows[token] for token in query if rows[token] is not None]
    bm25 = {}
    for field in FIELDS:
        matrix = getattr(index, field)
        acc = np.zeros(len(index.article_ids))
        for r in occurrences:
            if r in matrix.dense:
                acc += matrix.dense[r]
                continue
            start, stop = matrix.indptr[r : r + 2].tolist()
            if start < stop:  # a term of the other field only has no posting here
                np.add.at(acc, matrix.columns[start:stop], matrix.impact[start:stop])
        bm25[field] = acc
    distinct = tuple(row for row in rows.values() if row is not None)
    return QueryScores(index, bm25, distinct)


def bm25(index: LexIndex, field: str, query: Sequence[str], article_id: str) -> float:
    """BM25 score of one article's field against the query token sequence.

    Repeated query tokens contribute once per occurrence. Articles unknown
    to the field score 0.
    """
    if field not in FIELDS:
        raise ValueError(f"unknown field: {field!r}")
    column = index.column.get(article_id)
    if column is None:
        return 0.0
    return float(score_query(index, query).bm25[field][column])


def retrieve_topk(
    index: LexIndex,
    query: Sequence[str],
    k: int,
    cfg: PipelineConfig,
) -> Ranking:
    """Top-k article columns by raw quickview score, descending: the title
    and content BM25 boosted by ``cfg.alpha`` and ``cfg.beta``, fused as
    ``alpha·title`` then ``+= beta·content`` (both terms are >= +0.0, so
    this is a zeroed accumulator's sum bit for bit).

    ``top_k_positions`` keeps scores of at least the smallest positive
    double, so only articles with score > 0 are returned; ties break by
    ascending column, which is ascending article id, for a deterministic
    total order. The ranking carries the query and its ``score_query`` pass.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    field_scores = score_query(index, query)
    scores = cfg.alpha * field_scores.bm25["title"]
    scores += cfg.beta * field_scores.bm25["content"]
    top = top_k_positions(scores, k, math.ulp(0.0))
    return Ranking(index.article_ids, top, scores[top], tuple(query), field_scores)


def save_lex_index(index: LexIndex, path: str | Path) -> None:
    """Persist what load cannot derive, as file version 10 (see
    ``indexfile``).

    The header records the tokenizer's fingerprint, ``k1``, ``b`` and the
    corpus digest for load to check. The article ids and terms are
    front-coded: their suffixes are in the header and their prefixes are
    arrays. Each field stores its per-term posting counts (``df``), its
    column lists gap-coded, and ``tf``. A common term's list
    (``stored_lists``: posted in more than half of the ``n`` columns, so
    ``2·df > n``) is the ascending columns it lacks, gap-coded like any
    list. Load tells those rows by ``df`` and ``n`` alone, so no array
    records them, and expands each straight into ``columns``. Function
    words, such as the Vietnamese "của", "và" and "các", are in most
    articles: on the 10k synthetic bench corpus 2 title and 19 content
    rows are stored this way and the file fell from 61,103 to 47,454
    bytes; on the family build (2 and 29 rows) from 6,621 to 6,201.

    Deterministic. Load rebuilds ``indptr`` from the counts, and the
    impacts and per-column statistics through the constructor build uses,
    so every loaded array is the built one, bit for bit.
    """
    header = {
        "tokenizer_fingerprint": index.tokenizer.fingerprint(),
        "corpus_digest": index.corpus_digest,
        "k1": index.k1,
        "b": index.b,
    }
    arrays = {}
    for table, strings in zip(_TABLES, (index.article_ids, index.terms)):
        arrays[f"{table}.prefix"], header[table] = indexfile.front_encode(strings)
    n_columns = len(index.article_ids)
    for field in FIELDS:
        matrix = getattr(index, field)
        df = arrays[f"{field}.df"] = np.diff(matrix.indptr)
        swapped, counts = stored_lists(df, n_columns)
        ptr = np.concatenate([matrix.indptr[:1], np.cumsum(counts)])
        lists = _swap_lists(n_columns, matrix.indptr, matrix.columns, ptr, swapped)
        arrays[f"{field}.columns"] = indexfile.gap_encode(ptr, lists)
        arrays[f"{field}.tf"] = matrix.tf
    indexfile.save(path, LEX_INDEX_FORMAT, LEX_INDEX_VERSION, header, arrays)


def _load_columns(path, field: str, df, indptr, gaps: np.ndarray, n_columns: int) -> np.ndarray:
    """A field's ``columns`` from the ``gaps`` a file stores them as (see
    ``save_lex_index``): every stored list checked by one
    ``indexfile.gap_decode``, then each complemented row's absences
    expanded into its postings. ``gaps`` is decoded in place."""
    indexfile.require(df.max(initial=0) <= n_columns, path, f"{field}.df past {n_columns} columns")
    swapped, counts = stored_lists(df, n_columns)
    ptr = indexfile.pointers(path, f"{field} column lists", counts, len(df), len(gaps))
    lists = indexfile.gap_decode(path, f"{field} columns", ptr, gaps, n_columns)
    return _swap_lists(n_columns, ptr, lists, indptr, swapped)


def load_lex_index(path: str | Path, cfg: PipelineConfig, corpus_digest: str) -> LexIndex:
    """Load what ``build_lex_index(articles, cfg, corpus_digest)`` saved; the
    header must record ``cfg``'s tokenizer, ``k1`` and ``b`` and
    ``corpus_digest``, checked by ``indexfile.check_header`` before any
    array is decoded (``<path>: k1 mismatch (index 2.0, expected 1.2)``).

    Raises ``ValueError`` naming ``path`` for ``article_ids`` or ``terms``
    that are not front-coded lists of strings in strictly ascending order,
    a field's posting counts that are negative, not one per term, above the
    column count or not adding up to its ``tf``, stored column lists (a
    term's postings or the columns it lacks) that do not add up to the
    file's entries, rise strictly or lie in ``[0, columns)``, a ``tf``
    below 1, an article column with no content posting, and a term with no
    posting in either field.
    """
    tok = cfg.tokenizer_config()
    expected = {
        "tokenizer_fingerprint": tok.fingerprint(),
        "k1": cfg.k1,
        "b": cfg.b,
        "corpus_digest": corpus_digest,
    }
    header, arrays = indexfile.load(path, LEX_INDEX_FORMAT, LEX_INDEX_VERSION, _LAYOUT, expected)
    ids, terms = (
        indexfile.front_decode(path, table, arrays[f"{table}.prefix"], header.get(table))
        for table in _TABLES
    )
    indexfile.require_ascending(path, "article ids", ids)
    indexfile.require_ascending(path, "terms", terms)
    postings = {}
    for field in FIELDS:
        df, tf = arrays[f"{field}.df"], arrays[f"{field}.tf"]
        indptr = indexfile.pointers(path, f"{field}.df", df, len(terms), len(tf))
        # popped, so the stored lists are freed before the impacts are computed
        columns = _load_columns(path, field, df, indptr, arrays.pop(f"{field}.columns"), len(ids))
        # lengths are tf sums: a tf below 1 would shorten its article
        indexfile.require(tf.min(initial=1) >= 1, path, f"{field}.tf must be at least 1")
        postings[field] = indptr, columns, tf
    index = _lex_index(ids, terms, postings, cfg, corpus_digest)
    posted = index.content.distinct.all()
    indexfile.require(posted, path, "every article column must have a content posting")
    used = np.diff(index.title.indptr) + np.diff(index.content.indptr)
    indexfile.require(used.all(), path, "every term must have a posting in a field")
    return index
