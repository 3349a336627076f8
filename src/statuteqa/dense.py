"""Sentence-level dense indexing and max-cosine article scoring.

Articles are split into sentences; each sentence is cleaned, tokenized and
embedded to a fixed-dimension vector, once per distinct token list. An
article's dense quickview score for a question is the maximum cosine
similarity between the question vector and any of the article's sentence
vectors.

The bundled embedder is a seeded feature-hashing projection: every token
deterministically maps to a coordinate and a sign, the token vectors are
averaged and the result L2-normalized. Real sentence encoders plug in
through the external embedder line protocol.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
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
DENSE_INDEX_VERSION = 11
_LAYOUT = {
    "sentence_counts": (np.int64, 1),  # offsets, as each article's sentence count
    "sentence_vector": (np.intp, 1),  # first-use coded in the file
    "entry_counts": (np.int64, 1),  # colptr, as each coordinate's entry count
    "rows": (np.int32, 1),  # gap-coded in the file
    "values": (np.float64, 1),  # data's distinct values, in first-use order
    "data": (np.intp, 1),  # first-use codes into values
}

DEFAULT_DIMENSION = 300
# Vector values an external embedder returns per build request
_CHUNK_ENTRIES = 1 << 14
# Tokens whose hashed coordinate and sign are kept across embed_batch calls
_HASH_CACHE = 1024


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


@functools.lru_cache(maxsize=_HASH_CACHE)
def _coordinate(token: str, seed: int, dimension: int) -> tuple[int, float]:
    """A token's hashed coordinate and sign; the last ``_HASH_CACHE`` asked
    for are kept, so a question's common tokens are not hashed again."""
    coord = _token_hash(token, seed, "coord") % dimension
    sign = 1.0 if _token_hash(token, seed, "sign") % 2 == 0 else -1.0
    return coord, sign


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
        """``embed_tokens`` of each token list, in order, each token's
        coordinate and sign looked up in ``_coordinate``'s bounded cache."""
        for tokens in token_lists:
            vec = np.zeros(self.dimension, dtype=np.float64)
            for token in tokens:
                coord, sign = _coordinate(token, self.seed, self.dimension)
                vec[coord] += sign
            if tokens:
                vec /= len(tokens)
                norm = float(np.linalg.norm(vec))
                if norm > 0.0:
                    vec /= norm
            yield vec


class ExternalEmbedder:
    """Embedder backed by a child process speaking the line protocol.

    Requests are JSON lines ``{"id", "text": str}`` on the child's stdin
    and responses ``{"id", "vector": [float; dimension]}`` arrive in order
    on its stdout, each echoing its request's id (see ``LineProtocolClient``).
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


def embed(embedder: Embedder, tokens: Sequence[str]) -> np.ndarray:
    """Embed a token sequence; an empty one is the zero vector, not embedded."""
    if not tokens:
        return np.zeros(embedder.dimension)
    return embedder.embed_tokens(tokens)


@dataclass(frozen=True, eq=False)
class DenseIndex:
    """Every indexed article's sentence vectors as coordinate postings,
    each distinct vector stored once.

    Article ``i`` is ``article_ids[i]`` (sorted) and owns sentences
    ``offsets[i]:offsets[i + 1]``, in sentence order; every indexed
    article has at least one sentence. Position ``i`` is also the
    article's lexical column: a loaded index shares the lexical index's
    ``article_ids`` tuple, which the file does not store. Sentence ``s``
    has vector row ``sentence_vector[s]`` (intp); rows are numbered by
    first use, one per distinct sentence token list, so sentences with
    equal tokens share a row. Coordinate ``c`` holds the value ``data[e]`` of vector row
    ``rows[e]`` (strictly ascending) for ``e`` in ``colptr[c]:colptr[c + 1]``;
    every other value is 0. Rows are unit or zero vectors.
    ``embedder`` embeds questions; its fingerprint and dimension are the
    index's, and the index keeps no copy of them.
    ``tokenizer`` tokenized the sentences and cuts every question read
    against the index. ``sentence_article`` is each sentence's article
    position (int32) and ``vectors`` the number of vector rows, derived
    from ``offsets`` and ``sentence_vector`` once, when the index is built
    or loaded; they are not saved and take no part in ``repr``. A file
    stores ``offsets`` and ``colptr`` as per-article sentence counts and
    per-coordinate entry counts, which load sums back. ``==`` is identity.
    Immutable after build; safe for concurrent readers.
    """

    tokenizer: TokenizerConfig
    article_ids: tuple[str, ...]
    offsets: np.ndarray  # int64, articles + 1, into the sentences
    sentence_vector: np.ndarray  # intp vector row of each sentence
    colptr: np.ndarray  # int64, dimension + 1, into the entries
    rows: np.ndarray  # int32 vector rows, one per entry
    data: np.ndarray  # float64 values, one per entry
    corpus_digest: str  # sha256 of the corpus file's bytes; "" if built in memory
    embedder: Embedder
    sentence_article: np.ndarray = field(init=False, repr=False)
    vectors: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        counts = np.diff(self.offsets)
        article = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
        object.__setattr__(self, "sentence_article", article)
        object.__setattr__(self, "vectors", int(self.sentence_vector.max(initial=-1)) + 1)


def build_dense_index(
    articles: Sequence[Article],
    embedder: Embedder,
    tok: TokenizerConfig,
    corpus_digest: str = "",
) -> tuple[DenseIndex, int]:
    """Embed every article's sentences, cut with ``tok``; returns (index,
    excluded_count). The index keeps ``embedder`` and ``tok`` for questions.

    Articles with zero non-empty sentences after cleaning are excluded
    from the index and counted. Each distinct token list is embedded once,
    in first-use order, and its sentences share its vector row.
    ``corpus_digest`` is recorded as given (see ``lexical.build_lex_index``).
    """
    ordered = sorted_articles(articles)

    article_ids, counts, sentence_vector = [], [], []
    distinct: dict[tuple[str, ...], int] = {}  # token list -> vector row
    for article in ordered:
        tokenized = [
            tuple(tokens)
            for sentence in split_sentences(article.content)
            if (tokens := tokenize(clean_text(sentence), tok))
        ]
        if tokenized:
            article_ids.append(article.article_id)
            counts.append(len(tokenized))
            sentence_vector.extend(distinct.setdefault(t, len(distinct)) for t in tokenized)
    offsets = np.cumsum([0, *counts], dtype=np.int64)
    rows, coords, values = [np.zeros(0, np.int32)], [np.zeros(0, np.int64)], [np.zeros(0)]
    for r, vec in enumerate(embedder.embed_batch(list(distinct))):
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
        tokenizer=tok,
        article_ids=tuple(article_ids),
        offsets=offsets,
        sentence_vector=np.array(sentence_vector, dtype=np.intp),
        colptr=colptr.astype(np.int64),
        rows=np.concatenate(rows)[by_coord],
        data=np.concatenate(values)[by_coord],
        corpus_digest=corpus_digest,
        embedder=embedder,
    )
    return index, len(articles) - len(article_ids)


def sentence_cosines(index: DenseIndex, vector: np.ndarray) -> np.ndarray:
    """Cosine of ``vector`` with every vector row, one value per distinct
    sentence vector (a sentence's is at its ``sentence_vector`` row); a
    zero row or zero ``vector`` scores 0.

    From 0.0, each nonzero coordinate ``c`` of the question's unit vector,
    in ascending order, adds ``data * unit[c]`` at its postings' rows, so a
    row's cosine is summed from its own entries alone, in coordinate order:
    it depends on the row and the question, never on where the row sits.
    One coordinate's temporaries are held at a time. For distinct rows
    ``np.add.at`` adds as ``cosines[rows] += ...`` would, in half the time.
    """
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (index.embedder.dimension,):
        raise ValueError(f"dimension mismatch: {vector.shape} vs ({index.embedder.dimension},)")
    cosines = np.zeros(index.vectors)
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

    ``cosines`` are one question's ``sentence_cosines``, one per vector
    row. The maximum is taken over the candidates' sentence ranges only,
    each sentence's cosine read at its ``sentence_vector`` row.
    """
    positions = np.asarray(positions, dtype=np.int64)
    if cosines.shape != (index.vectors,):
        raise ValueError(f"{cosines.shape} cosines for {index.vectors} vectors")
    first = index.offsets[positions]
    counts = index.offsets[positions + 1] - first
    starts = np.cumsum(counts) - counts  # where each range starts in the gather
    sentences = np.repeat(first - starts, counts) + np.arange(counts.sum())
    return np.maximum.reduceat(cosines[index.sentence_vector[sentences]], starts)


def dense_retrieve_topk(
    index: DenseIndex,
    question: str,
    k: int,
    tok: TokenizerConfig | None = None,
) -> Ranking:
    """Exhaustive scan of all articles, ranked by max sentence cosine; the
    question is cut with ``index.tokenizer``, which a given ``tok`` must be.

    Every vector's cosine comes from its own entries (see
    ``sentence_cosines``), each sentence reads its vector's through
    ``sentence_vector``, and ``np.maximum.at`` takes each article's
    maximum over its sentences from -inf, through the index's
    ``sentence_article`` map. ``top_k_positions`` takes the best ``k`` in
    one partition with no floor; ties break by ascending position, which
    is ascending article id. The ranking carries the question's
    tokens, and its scores are the reranker's dense feature. A
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
    np.maximum.at(scores, index.sentence_article, np.take(cosines, index.sentence_vector))
    # a zero question vector ranks no article
    ranked = scores if np.any(question_vector) else scores[:0]
    top = top_k_positions(ranked, k, -np.inf)
    return Ranking(index.article_ids, top, scores[top], tokens, None)


def _value_table(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, ids): the distinct float64 values of ``data`` in first-use
    order, told apart by their bits (so -0.0 and 0.0 are two values), and
    each entry's position in them, so that ``values[ids]`` is ``data``."""
    _, first, inverse = np.unique(data.view(np.uint64), return_index=True, return_inverse=True)
    order = np.argsort(first)  # the distinct values in first-use order
    return data[first[order]], np.argsort(order)[inverse]


def save_dense_index(index: DenseIndex, path: str | Path) -> None:
    """Persist what load cannot derive (see ``indexfile``): each article's
    sentence count (``offsets`` as counts), the sentence map in first-use
    code, and the coordinate postings as each coordinate's entry count
    (``colptr`` as counts), rows gap-coded, and data as a table of its
    distinct values with first-use codes into it (a hashed projection's
    row is small counts over one norm, so its rows share a few values).
    The article ids are not stored, only their
    ``indexfile.strings_digest``: the lexical index of the same build
    stores them.

    Deterministic: equal indexes save to equal bytes.
    """
    header = {
        "embedder_fingerprint": index.embedder.fingerprint(),
        "tokenizer_fingerprint": index.tokenizer.fingerprint(),
        "corpus_digest": index.corpus_digest,
        "dimension": index.embedder.dimension,
        "article_ids_sha256": indexfile.strings_digest(index.article_ids),
    }
    values, ids = _value_table(index.data)
    arrays = {
        "sentence_counts": np.diff(index.offsets),
        "sentence_vector": indexfile.first_use_encode(index.sentence_vector),
        "entry_counts": np.diff(index.colptr),
        "rows": indexfile.gap_encode(index.colptr, index.rows),
        "values": values,
        "data": indexfile.first_use_encode(ids),
    }
    indexfile.save(path, DENSE_INDEX_FORMAT, DENSE_INDEX_VERSION, header, arrays)


def load_dense_index(
    path: str | Path,
    embedder: Embedder,
    tokenizer: TokenizerConfig,
    article_ids: tuple[str, ...],
    corpus_digest: str,
) -> DenseIndex:
    """Load a persisted dense index built with ``embedder`` and ``tokenizer``
    over ``article_ids``, the lexical index's ids, which it shares, from the
    corpus whose digest is ``corpus_digest``.

    The header must record ``embedder``'s fingerprint and dimension,
    ``tokenizer``'s fingerprint, ``corpus_digest`` and the digest of
    ``article_ids``, checked by ``indexfile.check_header`` before any array
    is decoded (other ids: ``<path>: article ids sha256 mismatch (...);
    rebuild both files with `statuteqa index```); ``article_ids`` must be
    strictly ascending. The loaded index cuts and embeds questions with
    ``tokenizer`` and ``embedder``. ``offsets`` and ``colptr`` are the
    running sums of the stored counts: one count of at least 1 sentence
    per article, adding up to the sentence map's length, and one count of
    entries per coordinate, adding up to the posting rows. ``data`` is
    ``values[ids]``: one first-use code per posting row, using every
    stored value, each finite.
    """
    expected = {
        "embedder_fingerprint": embedder.fingerprint(),
        "tokenizer_fingerprint": tokenizer.fingerprint(),
        "dimension": embedder.dimension,
        "corpus_digest": corpus_digest,
        "article_ids_sha256": indexfile.strings_digest(article_ids),
    }
    _, arrays = indexfile.load(path, DENSE_INDEX_FORMAT, DENSE_INDEX_VERSION, _LAYOUT, expected)
    indexfile.require_ascending(path, "article ids", article_ids)
    sentences, codes, entries, gaps, values, data_codes = (arrays[name] for name in _LAYOUT)
    offsets = indexfile.pointers(
        path, "sentence_counts", sentences, len(article_ids), len(codes), least=1
    )
    sentence_vector, vectors = indexfile.first_use_decode(path, "sentence_vector", codes)
    colptr = indexfile.pointers(path, "entry_counts", entries, embedder.dimension, len(gaps))
    rows = indexfile.gap_decode(path, "rows", colptr, gaps, vectors)
    same = len(data_codes) == len(rows)
    indexfile.require(same, path, f"{len(rows)} rows but {len(data_codes)} data")
    ids, used = indexfile.first_use_decode(path, "data", data_codes)
    same = used == len(values)
    indexfile.require(same, path, f"data uses {used} values but {len(values)} are stored")
    indexfile.require(bool(np.all(np.isfinite(values))), path, "values not finite")
    return DenseIndex(
        tokenizer=tokenizer,
        article_ids=tuple(article_ids),
        offsets=offsets,
        sentence_vector=sentence_vector,
        colptr=colptr,
        rows=rows,
        data=values[ids],
        corpus_digest=corpus_digest,
        embedder=embedder,
    )
