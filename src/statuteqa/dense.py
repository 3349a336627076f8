"""Sentence-level dense indexing and max-cosine article scoring.

Articles are split into sentences; each sentence is cleaned, tokenized and
embedded to a fixed-dimension vector. An article's dense quickview score
for a question is the maximum cosine similarity between the question
vector and any of the article's sentence vectors.

The bundled embedder is a seeded feature-hashing projection: every token
deterministically maps to a coordinate and a sign, the token vectors are
averaged and the result L2-normalized. Real sentence encoders plug in
through the external embedder line protocol.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Protocol, Sequence

import numpy as np

from . import indexfile
from .corpus import (
    Article,
    TokenizerConfig,
    clean_text,
    corpus_digest,
    split_sentences,
    tokenize,
)
from .lineproto import LineProtocolClient, ProtocolError, finite_real

__all__ = [
    "Embedder",
    "HashedProjectionEmbedder",
    "ExternalEmbedder",
    "DenseIndex",
    "embed",
    "build_dense_index",
    "quickview_dense_score",
    "dense_retrieve_topk",
    "save_dense_index",
    "load_dense_index",
]

DENSE_INDEX_FORMAT = "statuteqa.denseindex"
DENSE_INDEX_VERSION = 2
_LAYOUT = {"offsets": (np.int64, 1), "matrix": (np.float64, 2)}

DEFAULT_DIMENSION = 300
_GATHER_ROWS = 64  # sentence rows copied at a time to score a candidate batch


class Embedder(Protocol):
    dimension: int

    def fingerprint(self) -> str: ...

    def embed_tokens(self, tokens: Sequence[str]) -> np.ndarray: ...


def _token_hash(token: str, seed: int, purpose: str) -> int:
    key = f"{purpose}:{seed}".encode("utf-8")
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8, key=key)
    return int.from_bytes(digest.digest(), "big")


@dataclass(frozen=True)
class HashedProjectionEmbedder:
    """Deterministic signed feature hashing into ``dimension`` coordinates."""

    dimension: int = DEFAULT_DIMENSION
    seed: int = 0

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")

    def fingerprint(self) -> str:
        payload = f"hashed_projection:d={self.dimension}:seed={self.seed}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def embed_tokens(self, tokens: Sequence[str]) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=np.float64)
        if not tokens:
            return vec
        for token in tokens:
            coord = _token_hash(token, self.seed, "coord") % self.dimension
            sign = 1.0 if _token_hash(token, self.seed, "sign") % 2 == 0 else -1.0
            vec[coord] += sign
        vec /= len(tokens)
        norm = float(np.linalg.norm(vec))
        if norm > 0.0:
            vec /= norm
        return vec


class ExternalEmbedder:
    """Embedder backed by a child process speaking the line protocol.

    Requests are JSON lines ``{"text": str}`` on the child's stdin and
    responses ``{"vector": [float; dimension]}`` arrive in order on its
    stdout.
    """

    def __init__(
        self,
        command: Sequence[str],
        dimension: int,
        timeout: float = 30.0,
        name: str | None = None,
    ) -> None:
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self._name = name or " ".join(command)
        self._client = LineProtocolClient(command, timeout=timeout)

    def fingerprint(self) -> str:
        payload = f"external:d={self.dimension}:{self._name}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def embed_tokens(self, tokens: Sequence[str]) -> np.ndarray:
        return self.embed_texts([" ".join(tokens)])[0]

    def embed_texts(self, texts: Sequence[str]) -> list[np.ndarray]:
        responses = self._client.call([{"text": text} for text in texts])
        vectors = []
        for response in responses:
            vector = response.get("vector")
            reals = [finite_real(v) for v in vector] if isinstance(vector, list) else []
            if len(reals) != self.dimension or None in reals:
                raise ProtocolError(
                    f"external embedder {self._name!r} returned a malformed vector "
                    f"(expected {self.dimension} finite reals)"
                )
            vectors.append(np.asarray(reals, dtype=np.float64))
        return vectors

    def close(self) -> None:
        self._client.close()

    def __enter__(self) -> "ExternalEmbedder":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def embed(embedder: Embedder, tokens: Sequence[str]) -> np.ndarray:
    """Embed a token sequence; the empty sequence maps to the zero vector."""
    return embedder.embed_tokens(tokens)


@dataclass(frozen=True)
class DenseIndex:
    """Every indexed article's sentence vectors as rows of one matrix.

    Article ``i`` is ``article_ids[i]`` (sorted) and owns matrix rows
    ``offsets[i]:offsets[i + 1]``, in sentence order; every indexed
    article has at least one row. Position ``i`` is also the article's
    lexical column. Rows are unit or zero vectors.
    ``embedder`` embeds questions; its fingerprint is the index's.
    Immutable after build; safe for concurrent readers.
    """

    embedder_fingerprint: str
    dimension: int
    article_ids: tuple[str, ...]
    offsets: np.ndarray  # int64, articles + 1
    matrix: np.ndarray  # C-contiguous float64, (sentences, dimension)
    corpus_digest: str  # corpus.corpus_digest of the articles given to build
    embedder: Embedder


def build_dense_index(
    articles: Sequence[Article],
    embedder: Embedder | None = None,
    tok: TokenizerConfig | None = None,
) -> tuple[DenseIndex, int]:
    """Embed every article's sentences; returns (index, excluded_count).

    Articles with zero non-empty sentences after cleaning are excluded
    from the index and counted.
    """
    if not articles:
        raise ValueError("empty corpus")
    embedder = embedder or HashedProjectionEmbedder()
    tok = tok or TokenizerConfig()

    seen: set[str] = set()
    for article in articles:
        if article.article_id in seen:
            raise ValueError(f"duplicate article id {article.article_id!r}")
        seen.add(article.article_id)

    article_ids, counts, sentences = [], [], []
    for article in sorted(articles, key=lambda a: a.article_id):
        tokenized = [
            tokens
            for sentence in split_sentences(article.content)
            if (tokens := tokenize(clean_text(sentence), tok))
        ]
        if tokenized:
            article_ids.append(article.article_id)
            counts.append(len(tokenized))
            sentences.extend(tokenized)
    offsets = np.cumsum([0, *counts], dtype=np.int64)
    matrix = np.zeros((len(sentences), embedder.dimension), dtype=np.float64)
    for r, tokens in enumerate(sentences):
        vec = embed(embedder, tokens)
        norm = float(np.linalg.norm(vec))
        matrix[r] = vec / norm if norm > 0.0 else vec  # unit or zero rows

    index = DenseIndex(
        embedder_fingerprint=embedder.fingerprint(),
        dimension=embedder.dimension,
        article_ids=tuple(article_ids),
        offsets=offsets,
        matrix=matrix,
        corpus_digest=corpus_digest(articles),
        embedder=embedder,
    )
    return index, len(articles) - len(article_ids)


def _max_cosine(blocks: Iterable, vector: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Max cosine with ``vector`` over each run of unit or zero rows; ``blocks``
    yields the rows in order, and non-empty run ``j`` starts at row
    ``starts[j]``. A zero vector scores 0."""
    qnorm = float(np.linalg.norm(vector))
    if qnorm == 0.0:
        return np.zeros(len(starts))
    unit = vector / qnorm
    sims = [np.zeros(0), *(block @ unit for block in blocks)]
    return np.maximum.reduceat(np.concatenate(sims), starts)


def quickview_dense_score(
    index: DenseIndex, question_vector: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """Max sentence cosine of the articles at ``positions``, in order. Rows are
    copied ``_GATHER_ROWS`` at a time, so concurrent answers hold small copies."""
    positions = np.asarray(positions, dtype=np.int64)
    question_vector = np.asarray(question_vector, dtype=np.float64)
    if question_vector.shape != (index.dimension,):
        raise ValueError(
            f"dimension mismatch: {question_vector.shape} vs ({index.dimension},)"
        )
    first = index.offsets[positions]
    counts = index.offsets[positions + 1] - first
    starts = np.cumsum(counts) - counts  # each article's first gathered row
    rows = np.repeat(first - starts, counts) + np.arange(counts.sum())
    chunks = range(0, len(rows), _GATHER_ROWS)
    blocks = (index.matrix[rows[i : i + _GATHER_ROWS]] for i in chunks)
    return _max_cosine(blocks, question_vector, starts)


def dense_retrieve_topk(
    index: DenseIndex,
    question: str,
    k: int,
    tok: TokenizerConfig | None = None,
) -> list[tuple[str, float]]:
    """Exhaustive scan of all articles, ranked by max sentence cosine.

    One matrix-vector product gives every sentence's cosine and
    ``np.maximum.reduceat`` takes each article's maximum over its rows;
    ties break by ascending article id. A question that embeds to the
    zero vector (one that cleans to no tokens) has no cosine with anything
    and retrieves nothing.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    question_vector = embed(index.embedder, tokenize(clean_text(question), tok))
    if not np.any(question_vector):
        return []
    scores = _max_cosine([index.matrix], question_vector, index.offsets[:-1])
    top = np.argsort(-scores, kind="stable")[:k]  # positions are in id order
    return [(index.article_ids[i], float(scores[i])) for i in top.tolist()]


def save_dense_index(index: DenseIndex, path: str | Path) -> None:
    """Persist the offsets and the sentence matrix (see ``indexfile``).

    Deterministic: equal indexes save to equal bytes.
    """
    header = {
        "embedder_fingerprint": index.embedder_fingerprint,
        "corpus_digest": index.corpus_digest,
        "dimension": index.dimension,
        "article_ids": list(index.article_ids),
    }
    arrays = {"offsets": index.offsets, "matrix": index.matrix}
    indexfile.save(path, DENSE_INDEX_FORMAT, DENSE_INDEX_VERSION, header, arrays)


def load_dense_index(path: str | Path, embedder: Embedder) -> DenseIndex:
    """Load a persisted dense index built with ``embedder``.

    The file must record ``embedder``'s fingerprint; the loaded index
    embeds questions with it.
    """
    fingerprint = embedder.fingerprint()
    header, arrays = indexfile.load(
        path, DENSE_INDEX_FORMAT, DENSE_INDEX_VERSION, _LAYOUT,
        {"embedder_fingerprint": fingerprint},
    )
    dimension = header["dimension"]
    ids = header["article_ids"]
    offsets, matrix = arrays["offsets"], arrays["matrix"]
    indexfile.require_offsets(path, "offsets", offsets, len(ids), len(matrix))
    width = f"matrix width {matrix.shape[1]} differs from dimension {dimension}"
    indexfile.require(matrix.shape[1] == dimension, path, width)
    return DenseIndex(
        embedder_fingerprint=fingerprint,
        dimension=dimension,
        article_ids=tuple(ids),
        offsets=offsets,
        matrix=matrix,
        corpus_digest=header["corpus_digest"],
        embedder=embedder,
    )
