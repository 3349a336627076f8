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
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Protocol, Sequence

import numpy as np

from .corpus import Article, TokenizerConfig, clean_text, split_sentences, tokenize
from .lineproto import LineProtocolClient, ProtocolError

__all__ = [
    "Embedder",
    "HashedProjectionEmbedder",
    "ExternalEmbedder",
    "SentenceVector",
    "DenseIndex",
    "embed",
    "build_dense_index",
    "cosine",
    "quickview_dense_score",
    "dense_retrieve_topk",
    "save_dense_index",
    "load_dense_index",
]

DENSE_INDEX_FORMAT = "statuteqa.denseindex"
DENSE_INDEX_VERSION = 1

DEFAULT_DIMENSION = 300


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
            if not isinstance(vector, list) or len(vector) != self.dimension:
                raise ProtocolError(
                    f"external embedder returned a malformed vector "
                    f"(expected {self.dimension} reals)"
                )
            vectors.append(np.asarray(vector, dtype=np.float64))
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
class SentenceVector:
    article_id: str
    sentence_index: int
    vector: np.ndarray  # L2-normalized or all-zero


@dataclass(frozen=True)
class DenseIndex:
    """Per-article sentence vector matrices; immutable after build."""

    embedder_fingerprint: str
    dimension: int
    # article_id -> (n_sentences, dimension) matrix, rows in sentence order
    vectors: Mapping[str, np.ndarray]
    embedder: Embedder | None = None
    embedder_spec: dict | None = None

    def sentence_count(self, article_id: str) -> int:
        return int(self.vectors[article_id].shape[0])

    def article_ids(self) -> list[str]:
        return sorted(self.vectors)


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
    vectors: dict[str, np.ndarray] = {}
    excluded = 0
    for article in articles:
        if article.article_id in seen:
            raise ValueError(f"duplicate article id {article.article_id!r}")
        seen.add(article.article_id)
        rows = []
        for sentence in split_sentences(article.content):
            tokens = tokenize(clean_text(sentence), tok)
            if not tokens:
                continue
            vec = embed(embedder, tokens)
            norm = float(np.linalg.norm(vec))
            if norm > 0.0:
                vec = vec / norm  # stored rows are unit or zero vectors
            rows.append(vec)
        if not rows:
            excluded += 1
            continue
        vectors[article.article_id] = np.vstack(rows)

    spec = None
    if isinstance(embedder, HashedProjectionEmbedder):
        spec = {
            "kind": "hashed_projection",
            "dimension": embedder.dimension,
            "seed": embedder.seed,
        }
    index = DenseIndex(
        embedder_fingerprint=embedder.fingerprint(),
        dimension=embedder.dimension,
        vectors=vectors,
        embedder=embedder,
        embedder_spec=spec,
    )
    return index, excluded


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


def quickview_dense_score(
    index: DenseIndex, question_vector: np.ndarray, article_id: str
) -> float:
    """Maximum cosine between the question vector and the article's sentences."""
    matrix = index.vectors.get(article_id)
    if matrix is None:
        raise KeyError(f"article {article_id!r} not in dense index")
    question_vector = np.asarray(question_vector, dtype=np.float64)
    if question_vector.shape != (index.dimension,):
        raise ValueError(
            f"dimension mismatch: {question_vector.shape} vs ({index.dimension},)"
        )
    qnorm = float(np.linalg.norm(question_vector))
    if qnorm == 0.0:
        return 0.0
    # Sentence rows are unit or zero vectors, so row dot / qnorm is the cosine.
    sims = matrix @ (question_vector / qnorm)
    return float(np.max(sims))


def embed_question(
    index: DenseIndex, question: str, tok: TokenizerConfig | None = None
) -> np.ndarray:
    """Embed a question as a single unit with the index's embedder."""
    if index.embedder is None:
        raise ValueError("dense index has no runtime embedder attached")
    return embed(index.embedder, tokenize(clean_text(question), tok))


def dense_retrieve_topk(
    index: DenseIndex,
    question: str,
    k: int,
    tok: TokenizerConfig | None = None,
) -> list[tuple[str, float]]:
    """Exhaustive scan of all articles, ranked by max sentence cosine.

    A question that embeds to the zero vector (one that cleans to no
    tokens) has no cosine with anything and retrieves nothing.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    question_vector = embed_question(index, question, tok)
    if not np.any(question_vector):
        return []
    scored = [
        (article_id, quickview_dense_score(index, question_vector, article_id))
        for article_id in index.vectors
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


def save_dense_index(index: DenseIndex, path: str | Path) -> None:
    """Persist as line-delimited JSON with a version header. Deterministic."""
    header = {
        "format": DENSE_INDEX_FORMAT,
        "version": DENSE_INDEX_VERSION,
        "embedder_fingerprint": index.embedder_fingerprint,
        "dimension": index.dimension,
        "embedder_spec": index.embedder_spec,
    }
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for article_id in sorted(index.vectors):
            matrix = index.vectors[article_id]
            for sentence_index in range(matrix.shape[0]):
                record = {
                    "article_id": article_id,
                    "sentence_index": sentence_index,
                    "vector": [float(x) for x in matrix[sentence_index]],
                }
                handle.write(
                    json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
                )


def load_dense_index(
    path: str | Path,
    embedder: Embedder | None = None,
    expected_fingerprint: str | None = None,
) -> DenseIndex:
    """Load a persisted dense index.

    Hashed-projection indexes rebuild their embedder from the stored spec;
    externally embedded indexes require a matching ``embedder`` argument to
    answer new questions.
    """
    with open(path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        if header.get("format") != DENSE_INDEX_FORMAT:
            raise ValueError(f"{path}: not a dense index file")
        if header.get("version") != DENSE_INDEX_VERSION:
            raise ValueError(f"{path}: unsupported version {header.get('version')}")
        fingerprint = header["embedder_fingerprint"]
        dimension = header["dimension"]
        if expected_fingerprint is not None and fingerprint != expected_fingerprint:
            raise ValueError(
                f"{path}: embedder fingerprint mismatch "
                f"(index {fingerprint}, expected {expected_fingerprint})"
            )
        rows: dict[str, list[tuple[int, list[float]]]] = {}
        for line in handle:
            record = json.loads(line)
            rows.setdefault(record["article_id"], []).append(
                (record["sentence_index"], record["vector"])
            )

    spec = header.get("embedder_spec")
    if embedder is None and spec and spec.get("kind") == "hashed_projection":
        embedder = HashedProjectionEmbedder(
            dimension=spec["dimension"], seed=spec["seed"]
        )
    if embedder is not None and embedder.fingerprint() != fingerprint:
        raise ValueError(
            f"embedder fingerprint mismatch "
            f"(index {fingerprint}, embedder {embedder.fingerprint()})"
        )

    vectors = {
        article_id: np.asarray(
            [vec for _, vec in sorted(items)], dtype=np.float64
        )
        for article_id, items in rows.items()
    }
    return DenseIndex(
        embedder_fingerprint=fingerprint,
        dimension=dimension,
        vectors=vectors,
        embedder=embedder,
        embedder_spec=spec,
    )
