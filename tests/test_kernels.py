"""Rewritten kernels against their earlier formulations, bit for bit.

``kernel_oracle`` keeps each kernel as it was computed before: BM25 and
matched counts by whole-corpus ``np.bincount``, and hashed coordinates
hashed afresh.
"""

import string

import numpy as np
from hypothesis import example, given, settings, strategies as st

import kernel_oracle
from statuteqa import dense
from statuteqa.corpus import Article
from statuteqa.dense import HashedProjectionEmbedder
from statuteqa.lexical import FIELDS, build_lex_index, score_query, stored_lists
from statuteqa.pipeline import PipelineConfig

# three words most articles have, so most of their rows are dense, and
# rare ones posted in a few articles
_COMMON = ["c0", "c1", "c2"]
_RARE = [f"r{i}" for i in range(8)]
_TEXT = st.lists(st.sampled_from(_COMMON * 4 + _RARE), min_size=1, max_size=10).map(" ".join)


@st.composite
def _corpus_query_columns(draw):
    """Articles (some untitled), a query of common, rare and unknown tokens in
    any order with repeats, and columns in any order with repeats."""
    n = draw(st.integers(1, 12))
    articles = [
        Article(f"a{i:02d}", "d", draw(st.none() | _TEXT), draw(_TEXT)) for i in range(n)
    ]
    query = draw(st.lists(st.sampled_from(_COMMON + _RARE + ["oov", "zz"]), max_size=10))
    columns = draw(st.lists(st.integers(0, n - 1), max_size=15))
    return articles, query, columns


def _all_common_corpus():
    """Every article holds every word, so every row of both fields is dense."""
    words = _COMMON + _RARE
    articles = [
        Article(f"a{i}", "d", " ".join(words[i:] + words[:i]), " ".join(words * (1 + i % 3)))
        for i in range(6)
    ]
    return articles, ["r3", "c0", "r3", "oov", "c2", "r7", "c0"], [5, 0, 0, 3]


def _check_pass(articles, query, columns):
    """BM25 bits, and matched counts, the dense rows read at the columns,
    against every row counted over all columns."""
    index = build_lex_index(articles, PipelineConfig())
    got = score_query(index, query)
    want = kernel_oracle.bincount_pass(index, query)
    for field in FIELDS:
        bm25, matched = want[field]
        assert got.bm25[field].dtype == np.float64
        assert got.bm25[field].tobytes() == bm25.tobytes()
        counted = got.matched(field, np.array(columns, dtype=np.int64))
        assert counted.dtype == matched.dtype
        assert counted.tobytes() == matched[columns].tobytes()
    return index


@settings(max_examples=300, deadline=None)
@given(_corpus_query_columns())
@example(_all_common_corpus())
def test_bm25_with_dense_rows_equals_the_bincount_pass(case):
    _check_pass(*case)


def test_a_corpus_of_common_terms_has_only_dense_rows():
    articles, query, columns = _all_common_corpus()
    index = _check_pass(articles, query, columns)
    for field in FIELDS:
        matrix = getattr(index, field)
        assert sorted(matrix.dense) == list(range(len(index.terms)))


def test_dense_rows_are_the_common_terms_impacts():
    articles = [
        Article(f"a{i}", "d", "c0 r1" if i < 7 else None, " ".join(["c0", f"r{i % 6}"] * (i + 1)))
        for i in range(12)
    ]
    index = build_lex_index(articles, PipelineConfig())
    n = len(index.article_ids)
    for field in FIELDS:
        matrix = getattr(index, field)
        df = np.diff(matrix.indptr)
        # the one rule for a common term: the rows a file stores by their absences
        assert sorted(matrix.dense) == np.flatnonzero(stored_lists(df, n)[0]).tolist()
        for r, row in matrix.dense.items():
            want = np.zeros(n)
            span = slice(matrix.indptr[r], matrix.indptr[r + 1])
            want[matrix.columns[span]] = matrix.impact[span]
            assert row.tobytes() == want.tobytes()
            assert (row > 0.0).sum() == df[r]
    # c0 is in every content and 7 of the 12 titles; r1 is in 2 of 12 contents
    assert index.terms["c0"] in index.content.dense and index.terms["c0"] in index.title.dense
    assert index.terms["r1"] not in index.content.dense


_TOKENS = st.text(string.ascii_lowercase + "đươ", min_size=1, max_size=6)


@given(st.lists(_TOKENS, max_size=12), st.integers(0, 3), st.sampled_from([1, 7, 64, 300]))
def test_the_coordinate_cache_equals_hashing_afresh(tokens, seed, dimension):
    for token in tokens:
        want = kernel_oracle.hashed_coordinate(token, seed, dimension)
        assert dense._coordinate(token, seed, dimension) == want
    embedder = HashedProjectionEmbedder(dimension=dimension, seed=seed)
    want = kernel_oracle.hashed_embedding(tokens, seed, dimension)
    dense._coordinate.cache_clear()
    cold = embedder.embed_tokens(tokens)
    warm = embedder.embed_tokens(tokens)
    assert cold.tobytes() == warm.tobytes() == want.tobytes()


def test_the_coordinate_cache_is_bounded():
    """Tokens evicted in the middle of a batch are hashed again, alike."""
    tokens = [f"t{i}" for i in range(3000)]
    dense._coordinate.cache_clear()
    first, second = HashedProjectionEmbedder(dimension=16).embed_batch([tokens, tokens])
    info = dense._coordinate.cache_info()
    assert info.maxsize == dense._HASH_CACHE and info.currsize <= dense._HASH_CACHE
    assert info.misses == 2 * len(tokens)  # each evicted before it is asked again
    want = kernel_oracle.hashed_embedding(tokens, 0, 16)
    assert first.tobytes() == second.tobytes() == want.tobytes()
