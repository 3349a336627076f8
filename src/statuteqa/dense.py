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
from typing import Iterator, Protocol, Sequence

import numpy as np

from . import indexfile
from .corpus import (
    Article,
    TokenizerConfig,
    clean_text,
    sorted_articles,
    split_sentences,
    tokenize,
)
from .ensemble import Ranking, top_k_positions
from .lineproto import LineProtocolClient, ProtocolError, finite_real

__all__ = [
    "Embedder",
    "HashedProjectionEmbedder",
    "ExternalEmbedder",
    "DenseIndex",
    "embed",
    "build_dense_index",
    "sentence_cosines",
    "quickview_dense_score",
    "dense_retrieve_topk",
    "save_dense_index",
    "load_dense_index",
]

DENSE_INDEX_FORMAT = "statuteqa.denseindex"
DENSE_INDEX_VERSION = 6
_LAYOUT = {
    "offsets": (np.int64, 1),
    "colptr": (np.int64, 1),
    "rows": (np.int32, 1),  # gap-coded in the file
    "data": (np.float64, 1),
}

DEFAULT_DIMENSION = 300
# Vector values an external embedder returns per build request
_CHUNK_ENTRIES = 1 << 14


class Embedder(Protocol):
    dimension: int

    def fingerprint(self) -> str: ...

    def embed_tokens(self, tokens: Sequence[str]) -> np.ndarray: ...

    def embed_batch(self, token_lists: Sequence[Sequence[str]]) -> Iterator[np.ndarray]:
        """``embed_tokens`` of each token list, in order."""
        ...


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
        return next(self.embed_batch([tokens]))

    def embed_batch(self, token_lists: Sequence[Sequence[str]]) -> Iterator[np.ndarray]:
        """``embed_tokens`` of each token list, in order, hashing each distinct
        token once. The token map lives only as long as the iteration."""
        hashed: dict[str, tuple[int, float]] = {}  # token -> (coordinate, sign)
        for tokens in token_lists:
            vec = np.zeros(self.dimension, dtype=np.float64)
            for token in tokens:
                if token not in hashed:
                    coord = _token_hash(token, self.seed, "coord") % self.dimension
                    sign = 1.0 if _token_hash(token, self.seed, "sign") % 2 == 0 else -1.0
                    hashed[token] = (coord, sign)
                coord, sign = hashed[token]
                vec[coord] += sign
            if tokens:
                vec /= len(tokens)
                norm = float(np.linalg.norm(vec))
                if norm > 0.0:
                    vec /= norm
            yield vec


class ExternalEmbedder:
    """Embedder backed by a child process speaking the line protocol.

    Requests are JSON lines ``{"text": str}`` on the child's stdin and
    responses ``{"vector": [float; dimension]}`` arrive in order on its
    stdout.
    """

    def __init__(self, command: Sequence[str], dimension: int, timeout: float = 30.0) -> None:
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self._name = " ".join(command)
        self._client = LineProtocolClient(command, timeout=timeout)

    def fingerprint(self) -> str:
        payload = f"external:d={self.dimension}:{self._name}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def embed_tokens(self, tokens: Sequence[str]) -> np.ndarray:
        return self.embed_texts([" ".join(tokens)])[0]

    def embed_batch(self, token_lists: Sequence[Sequence[str]]) -> Iterator[np.ndarray]:
        """``embed_tokens`` of each token list, in order, requested with
        ``embed_texts`` in chunks of at most ``_CHUNK_ENTRIES`` vector values."""
        size = max(1, _CHUNK_ENTRIES // self.dimension)
        for start in range(0, len(token_lists), size):
            chunk = token_lists[start : start + size]
            yield from self.embed_texts([" ".join(tokens) for tokens in chunk])

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
    """Embed a token sequence; an empty one is the zero vector, not embedded."""
    if not tokens:
        return np.zeros(embedder.dimension)
    return embedder.embed_tokens(tokens)


@dataclass(frozen=True)
class DenseIndex:
    """Every indexed article's sentence vectors as coordinate postings.

    Article ``i`` is ``article_ids[i]`` (sorted) and owns sentence rows
    ``offsets[i]:offsets[i + 1]``, in sentence order; every indexed
    article has at least one row. Position ``i`` is also the article's
    lexical column. Coordinate ``c`` holds the value ``data[e]`` of
    sentence row ``rows[e]`` (strictly ascending) for ``e`` in
    ``colptr[c]:colptr[c + 1]``; every other value is 0. Rows are unit or
    zero vectors.
    ``embedder`` embeds questions; its fingerprint is the index's.
    ``tokenizer`` tokenized the sentences and cuts every question read
    against the index. Immutable after build; safe for concurrent readers.
    """

    embedder_fingerprint: str
    tokenizer: TokenizerConfig
    dimension: int
    article_ids: tuple[str, ...]
    offsets: np.ndarray  # int64, articles + 1, into the sentence rows
    colptr: np.ndarray  # int64, dimension + 1, into the entries
    rows: np.ndarray  # int32 sentence rows, one per entry
    data: np.ndarray  # float64 values, one per entry
    corpus_digest: str  # sha256 of the corpus file's bytes; "" if built in memory
    embedder: Embedder


def build_dense_index(
    articles: Sequence[Article],
    embedder: Embedder,
    tok: TokenizerConfig,
    corpus_digest: str = "",
) -> tuple[DenseIndex, int]:
    """Embed every article's sentences, cut with ``tok``; returns (index,
    excluded_count). The index keeps ``embedder`` and ``tok`` for questions.

    Articles with zero non-empty sentences after cleaning are excluded
    from the index and counted. ``corpus_digest`` is recorded as given
    (see ``lexical.build_lex_index``).
    """
    ordered = sorted_articles(articles)

    article_ids, counts, sentences = [], [], []
    for article in ordered:
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
    rows, coords, values = [np.zeros(0, np.int32)], [np.zeros(0, np.int64)], [np.zeros(0)]
    for r, vec in enumerate(embedder.embed_batch(sentences)):
        norm = float(np.linalg.norm(vec))
        row = vec / norm if norm > 0.0 else vec  # unit or zero rows
        nonzero = np.flatnonzero(row)
        rows.append(np.full(len(nonzero), r, dtype=np.int32))
        coords.append(nonzero)
        values.append(row[nonzero])
    coords = np.concatenate(coords)
    by_coord = np.argsort(coords, kind="stable")  # rows stay ascending
    colptr = np.searchsorted(coords[by_coord], np.arange(embedder.dimension + 1))

    index = DenseIndex(
        embedder_fingerprint=embedder.fingerprint(),
        tokenizer=tok,
        dimension=embedder.dimension,
        article_ids=tuple(article_ids),
        offsets=offsets,
        colptr=colptr.astype(np.int64),
        rows=np.concatenate(rows)[by_coord],
        data=np.concatenate(values)[by_coord],
        corpus_digest=corpus_digest,
        embedder=embedder,
    )
    return index, len(articles) - len(article_ids)


def sentence_cosines(index: DenseIndex, vector: np.ndarray) -> np.ndarray:
    """Cosine of ``vector`` with every sentence row; a zero row or zero
    ``vector`` scores 0.

    From 0.0, each nonzero coordinate ``c`` of the question's unit vector,
    in ascending order, adds ``data * unit[c]`` at its postings' rows, so a
    row's cosine is summed from its own entries alone, in coordinate order:
    it depends on the row and the question, never on where the row sits.
    One coordinate's temporaries are held at a time. For distinct rows
    ``np.add.at`` adds as ``cosines[rows] += ...`` would, in half the time.
    """
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (index.dimension,):
        raise ValueError(f"dimension mismatch: {vector.shape} vs ({index.dimension},)")
    cosines = np.zeros(int(index.offsets[-1]))
    qnorm = float(np.linalg.norm(vector))
    if qnorm == 0.0:
        return cosines
    unit = vector / qnorm
    for c in np.flatnonzero(unit).tolist():
        span = slice(index.colptr[c], index.colptr[c + 1])
        np.add.at(cosines, index.rows[span], index.data[span] * unit[c])
    return cosines


def quickview_dense_score(
    index: DenseIndex, cosines: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """Max sentence cosine of the articles at ``positions``, in order.

    ``cosines`` are one question's ``sentence_cosines``. The maximum is
    taken over the candidates' sentence ranges only.
    """
    positions = np.asarray(positions, dtype=np.int64)
    sentences = int(index.offsets[-1])
    if cosines.shape != (sentences,):
        raise ValueError(f"{cosines.shape} cosines for {sentences} sentences")
    first = index.offsets[positions]
    counts = index.offsets[positions + 1] - first
    starts = np.cumsum(counts) - counts  # where each range starts in the gather
    rows = np.repeat(first - starts, counts) + np.arange(counts.sum())
    return np.maximum.reduceat(cosines[rows], starts)


def dense_retrieve_topk(
    index: DenseIndex,
    question: str,
    k: int,
    tok: TokenizerConfig | None = None,
) -> Ranking:
    """Exhaustive scan of all articles, ranked by max sentence cosine; the
    question is cut with ``index.tokenizer``, which a given ``tok`` must be.

    Every sentence's cosine comes from its own entries (see
    ``sentence_cosines``), and ``np.maximum.at`` takes each article's
    maximum over its rows from -inf; ties break by ascending position,
    which is ascending article id. The ranking carries the question's
    tokens and sentence cosines, which the reranker's features read. A
    question that embeds to the zero vector (one that cleans to no tokens)
    has no cosine with anything and retrieves nothing.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if tok not in (None, index.tokenizer):
        raise ValueError(f"tokenizer {tok.fingerprint()} is not the dense index's")
    tokens = tuple(tokenize(clean_text(question), index.tokenizer))
    question_vector = embed(index.embedder, tokens)
    cosines = sentence_cosines(index, question_vector)
    scores = np.full(len(index.article_ids), -np.inf)
    article = np.repeat(np.arange(len(scores)), np.diff(index.offsets))
    np.maximum.at(scores, article, cosines)
    # positions are in id order; a zero question vector ranks none of them
    n = len(scores) if np.any(question_vector) else 0
    top = top_k_positions(np.arange(n), scores[:n], k)
    return Ranking(index.article_ids, top, scores[top], tokens, cosines, None)


def save_dense_index(index: DenseIndex, path: str | Path) -> None:
    """Persist the offsets and the coordinate postings, their rows
    gap-coded (see ``indexfile``).

    Deterministic: equal indexes save to equal bytes.
    """
    header = {
        "embedder_fingerprint": index.embedder_fingerprint,
        "tokenizer_fingerprint": index.tokenizer.fingerprint(),
        "corpus_digest": index.corpus_digest,
        "dimension": index.dimension,
        "article_ids": list(index.article_ids),
    }
    arrays = {name: getattr(index, name) for name in _LAYOUT}
    arrays["rows"] = indexfile.gap_encode(index.colptr, index.rows)
    indexfile.save(path, DENSE_INDEX_FORMAT, DENSE_INDEX_VERSION, header, arrays)


def load_dense_index(
    path: str | Path, embedder: Embedder, tokenizer: TokenizerConfig
) -> DenseIndex:
    """Load a persisted dense index built with ``embedder`` and ``tokenizer``.

    The file must record ``embedder``'s fingerprint and dimension and
    ``tokenizer``'s fingerprint; the loaded index cuts and embeds questions
    with ``tokenizer`` and ``embedder``.
    """
    fingerprint, dimension = embedder.fingerprint(), embedder.dimension
    header, arrays = indexfile.load(
        path, DENSE_INDEX_FORMAT, DENSE_INDEX_VERSION, _LAYOUT,
        {
            "embedder_fingerprint": fingerprint,
            "tokenizer_fingerprint": tokenizer.fingerprint(),
            "dimension": dimension,
        },
    )
    ids = header["article_ids"]
    offsets, colptr, gaps, data = (arrays[name] for name in _LAYOUT)
    sentences = int(offsets[-1]) if len(offsets) else 0  # offsets alone count them
    indexfile.require_offsets(path, "offsets", offsets, len(ids), sentences)
    coordinates = len(colptr) == dimension + 1
    indexfile.require(coordinates, path, f"colptr must have {dimension + 1} entries")
    rows = indexfile.gap_decode(path, "rows", colptr, gaps, sentences)
    same = len(data) == len(rows)
    indexfile.require(same, path, f"{len(rows)} rows but {len(data)} data")
    indexfile.require(bool(np.all(np.isfinite(data))), path, "data not finite")
    return DenseIndex(
        embedder_fingerprint=fingerprint,
        tokenizer=tokenizer,
        dimension=dimension,
        article_ids=tuple(ids),
        offsets=offsets,
        colptr=colptr,
        rows=rows,
        data=data,
        corpus_digest=header["corpus_digest"],
        embedder=embedder,
    )
