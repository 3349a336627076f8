"""The package's earlier formulations of kernels it now computes another way.

Each function here is the formulation a kernel had before it was
rewritten; the kernel must still equal it bit for bit (see
``test_kernels.py``).
"""

import numpy as np

from statuteqa.dense import _token_hash
from statuteqa.lexical import FIELDS


def _concat(values, indptr, rows):
    return np.concatenate([values[indptr[r] : indptr[r + 1]] for r in rows] or [values[:0]])


def bincount_pass(index, query):
    """Per field, (BM25, matched distinct query terms) of every column: each
    occurrence's postings concatenated in query order and summed by one
    ``np.bincount``, and the distinct tokens' postings counted by another."""
    n_cols = len(index.article_ids)
    rows = {token: index.terms.get(token) for token in dict.fromkeys(query)}
    occurrences = [rows[token] for token in query if rows[token] is not None]
    distinct = [row for row in rows.values() if row is not None]
    scores = {}
    for field in FIELDS:
        matrix = getattr(index, field)
        bm25 = np.bincount(
            _concat(matrix.columns, matrix.indptr, occurrences),
            weights=_concat(matrix.impact, matrix.indptr, occurrences),
            minlength=n_cols,
        ).astype(np.float64, copy=False)
        matched = np.bincount(_concat(matrix.columns, matrix.indptr, distinct), minlength=n_cols)
        scores[field] = bm25, matched
    return scores


def hashed_coordinate(token, seed, dimension):
    """A token's hashed projection coordinate and sign, hashed afresh."""
    coord = _token_hash(token, seed, "coord") % dimension
    sign = 1.0 if _token_hash(token, seed, "sign") % 2 == 0 else -1.0
    return coord, sign


def hashed_embedding(tokens, seed, dimension):
    """The hashed projection of one token list, each token hashed afresh."""
    vec = np.zeros(dimension, dtype=np.float64)
    for token in tokens:
        coord, sign = hashed_coordinate(token, seed, dimension)
        vec[coord] += sign
    if tokens:
        vec /= len(tokens)
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
    return vec

