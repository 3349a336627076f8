"""Reference max-cosine arithmetic for the dense index tests."""

import numpy as np


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; 0 when either vector has zero norm."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def densify(index, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Sentences ``start:stop`` of the index (all by default) as a dense
    ``(sentences, dimension)`` matrix: the vector rows, written one
    coordinate's postings at a time, read through ``sentence_vector``."""
    stop = int(index.offsets[-1]) if stop is None else stop
    vectors = np.zeros((index.vectors, index.embedder.dimension))
    for c in range(index.embedder.dimension):
        low, high = index.colptr[c], index.colptr[c + 1]
        vectors[index.rows[low:high], c] = index.data[low:high]
    return vectors[index.sentence_vector[start:stop]]


def sentence_rows(index, article_id: str) -> np.ndarray:
    """The article's sentence rows as a dense matrix."""
    i = index.article_ids.index(article_id)
    return densify(index, index.offsets[i], index.offsets[i + 1])


def per_article_max_cosine(index, question_vector: np.ndarray, article_ids) -> np.ndarray:
    """Each listed article's max cosine by a loop over its rows, one at a time."""
    return np.array(
        [
            max(cosine(question_vector, row) for row in sentence_rows(index, a))
            for a in article_ids
        ]
    )


def per_article_topk(index, question_vector: np.ndarray, k: int):
    """Max cosine by a loop over separately copied per-article matrices."""
    qnorm = float(np.linalg.norm(question_vector))
    scored = [
        (a, float(np.max(sentence_rows(index, a).copy() @ (question_vector / qnorm))))
        for a in index.article_ids
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


class OneAtATime:
    """An embedder whose ``embed_batch`` embeds each token list on its own,
    the reference for the batch methods."""

    def __init__(self, inner):
        self.inner = inner
        self.dimension = inner.dimension

    def fingerprint(self):
        return self.inner.fingerprint()

    def embed_tokens(self, tokens):
        return self.inner.embed_tokens(tokens)

    def embed_batch(self, token_lists):
        return (self.inner.embed_tokens(tokens) for tokens in token_lists)


def ordered_cosines(index, question_vector: np.ndarray) -> np.ndarray:
    """Every sentence's cosine, one sentence at a time: from 0.0, its value
    times the question's unit value at each nonzero coordinate of both, in
    ascending coordinate order, as ``sentence_cosines`` promises per row."""
    matrix = densify(index)
    qnorm = float(np.linalg.norm(question_vector))
    if qnorm == 0.0:
        return np.zeros(len(matrix))
    unit = question_vector / qnorm
    cosines = []
    for row in matrix:
        total = 0.0
        for c in np.flatnonzero(unit):
            if row[c] != 0.0:
                total += row[c] * unit[c]
        cosines.append(total)
    return np.array(cosines, dtype=np.float64)
