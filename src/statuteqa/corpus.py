"""Statute corpus parsing: documents, articles, cleaning, tokenization.

Corpus file format: UTF-8, one JSON object per line:
    {"doc_id": str, "articles": [{"article_id": str, "title": str|null, "content": str}]}
Article order within a document is preserved.
"""

from __future__ import annotations

import hashlib
import json
import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from . import indexfile

__all__ = [
    "Article",
    "LegalDocument",
    "TokenizerConfig",
    "ParseStats",
    "CorpusFormatError",
    "clean_text",
    "tokenize",
    "split_sentences",
    "parse_corpus",
    "load_corpus_file",
    "write_corpus_file",
    "file_digest",
]

PHRASE_JOINER = "_"
NORMAL_FORM = "NFC"  # the Unicode normal form clean_text cuts tokens from
DIGEST_CHUNK = 1 << 20  # bytes file_digest reads at a time

_SENTENCE_DELIMS = re.compile(r"[.;?!\n]")
# UTF-8 cannot encode a lone surrogate, which JSON can escape ("\ud800")
_SURROGATE = re.compile("[\ud800-\udfff]")


class CorpusFormatError(ValueError):
    """Raised for malformed corpus records or duplicate identifiers."""


@dataclass(frozen=True)
class Article:
    """One statute article, the retrieval unit. Content is stored raw."""

    article_id: str
    doc_id: str
    title: str | None
    content: str


@dataclass(frozen=True)
class LegalDocument:
    doc_id: str
    articles: tuple[Article, ...]


@dataclass(frozen=True)
class TokenizerConfig:
    """Whitespace tokenizer that merges the phrases of ``phrase_lexicon``.

    Adjacent tokens matching a lexicon phrase (greedy, longest match first)
    are joined with ``PHRASE_JOINER`` into a single token. Each entry is
    cleaned like text (``clean_text``), so ``"Bộ Luật"``, NFD ``"bộ luật"``
    and ``"bộ-luật"`` are the one phrase ``"bộ luật"``; an entry that cleans
    to nothing is dropped. The lexicon alone configures merging: an empty
    one (the default) merges nothing.
    """

    phrase_lexicon: frozenset[str] = field(default_factory=frozenset)
    # phrases of 2+ tokens by first token, longest first; derived, so not compared
    _phrases_by_first: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.phrase_lexicon, str):
            raise ValueError(f"phrase_lexicon is one string: {self.phrase_lexicon!r}")
        cleaned = frozenset(filter(None, map(clean_text, self.phrase_lexicon)))
        object.__setattr__(self, "phrase_lexicon", cleaned)
        by_first: dict[str, list[tuple[str, ...]]] = {}
        phrases = {tuple(phrase.split()) for phrase in cleaned}
        for parts in sorted(phrases, key=len, reverse=True):
            if len(parts) > 1:
                by_first.setdefault(parts[0], []).append(parts)
        object.__setattr__(self, "_phrases_by_first", by_first)

    def fingerprint(self) -> str:
        # the normal form tag: tokens are cut from NFC text (see clean_text)
        payload = f"{NORMAL_FORM}|" + ",".join(sorted(self.phrase_lexicon))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def clean_text(raw: str) -> str:
    """NFC-normalize, lowercase and keep only letters (any script) and
    decimal digits.

    Every run of other characters collapses to a single space; the result
    has no leading or trailing space. Idempotent. Composing first keeps a
    decomposed letter whole: NFD "người" has combining marks, which are
    not letters, but cleans to the same "người" as its NFC form. A mark
    that NFC does not compose (such as the dot of ``"İ".lower()``) still
    breaks the word.
    """
    out: list[str] = []
    space_pending = False
    for ch in unicodedata.normalize(NORMAL_FORM, raw).lower():
        if ch.isalpha() or ch.isdecimal():
            if space_pending and out:
                out.append(" ")
            space_pending = False
            out.append(ch)
        else:
            space_pending = True
    return "".join(out)


def _has_text(raw: str) -> bool:
    """Whether ``clean_text(raw)`` is non-empty, without building it."""
    text = unicodedata.normalize(NORMAL_FORM, raw).lower()
    return any(ch.isalpha() or ch.isdecimal() for ch in text)


def tokenize(text: str, cfg: TokenizerConfig) -> list[str]:
    """Split cleaned text into tokens, merging ``cfg``'s lexicon phrases."""
    tokens = text.split()
    if not cfg._phrases_by_first or not tokens:
        return tokens

    merged: list[str] = []
    i = 0
    while i < len(tokens):
        for parts in cfg._phrases_by_first.get(tokens[i], ()):
            n = len(parts)
            if tuple(tokens[i : i + n]) == parts:
                merged.append(PHRASE_JOINER.join(parts))
                i += n
                break
        else:
            merged.append(tokens[i])
            i += 1
    return merged


def split_sentences(content: str) -> list[str]:
    """Split raw article content on '.', ';', '?', '!' and newlines.

    Segments are trimmed and empty segments dropped.
    """
    return [seg.strip() for seg in _SENTENCE_DELIMS.split(content) if seg.strip()]


@dataclass
class ParseStats:
    documents: int = 0
    articles: int = 0
    titled: int = 0
    missing_title: int = 0
    dropped_empty_content: int = 0
    digest: str = ""  # sha256 of the file bytes parsed (load_corpus_file)


def parse_corpus(lines: Iterable[str]) -> tuple[list[LegalDocument], ParseStats]:
    """Parse a corpus record stream into documents plus parse statistics.

    Articles whose cleaned content is empty are dropped and counted.
    Titles that clean to empty are treated as missing. Raises
    CorpusFormatError with the offending line number for malformed records
    (including an id, title or content holding a lone surrogate) and names
    the id for duplicate article or document ids.
    """
    docs: list[LegalDocument] = []
    stats = ParseStats()
    seen_articles: set[str] = set()
    seen_docs: set[str] = set()

    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise CorpusFormatError(f"line {lineno}: record must be a JSON object")

        doc_id = record.get("doc_id")
        if not isinstance(doc_id, str) or not doc_id:
            raise CorpusFormatError(f"line {lineno}: missing or empty doc_id")
        if doc_id in seen_docs:
            raise CorpusFormatError(f"line {lineno}: duplicate doc id {doc_id!r}")
        seen_docs.add(doc_id)
        _require_encodable(lineno, "doc_id", doc_id)

        raw_articles = record.get("articles")
        if not isinstance(raw_articles, list):
            raise CorpusFormatError(f"line {lineno}: articles must be a list")

        kept: list[Article] = []
        for raw in raw_articles:
            if not isinstance(raw, dict):
                raise CorpusFormatError(f"line {lineno}: article must be a JSON object")
            article_id = raw.get("article_id")
            if not isinstance(article_id, str) or not article_id:
                raise CorpusFormatError(f"line {lineno}: missing or empty article_id")
            if article_id in seen_articles:
                raise CorpusFormatError(
                    f"line {lineno}: duplicate article id {article_id!r}"
                )
            seen_articles.add(article_id)
            title = raw.get("title")
            if title is not None and not isinstance(title, str):
                raise CorpusFormatError(f"line {lineno}: title must be string or null")
            content = raw.get("content")
            if not isinstance(content, str):
                raise CorpusFormatError(f"line {lineno}: content must be a string")
            fields = {"article_id": article_id, "title": title, "content": content}
            for name, text in fields.items():
                _require_encodable(lineno, name, text)

            if not _has_text(content):
                stats.dropped_empty_content += 1
                continue
            if title is not None and not _has_text(title):
                title = None
            kept.append(Article(article_id, doc_id, title, content))
            stats.articles += 1
            if title is None:
                stats.missing_title += 1
            else:
                stats.titled += 1

        docs.append(LegalDocument(doc_id, tuple(kept)))
        stats.documents += 1

    return docs, stats


def _require_encodable(lineno: int, name: str, text: str | None) -> None:
    if text and _SURROGATE.search(text):
        raise CorpusFormatError(f"line {lineno}: {name} holds a lone surrogate")


def load_corpus_file(path: str | Path) -> tuple[list[LegalDocument], ParseStats]:
    """Parse a corpus file; ``stats.digest`` is the sha256 of the bytes parsed.

    A ``CorpusFormatError`` names the file as well as the line, also for
    bytes that are not UTF-8.
    """
    data = Path(path).read_bytes()
    text = indexfile.utf8_text(path, data, CorpusFormatError)
    try:
        docs, stats = parse_corpus(indexfile.text_lines(text))
    except CorpusFormatError as exc:
        raise CorpusFormatError(f"{path}: {exc}") from exc
    stats.digest = hashlib.sha256(data).hexdigest()
    return docs, stats


def file_digest(path: str | Path) -> str:
    """sha256 of a file's bytes, read in ``DIGEST_CHUNK`` pieces; for a
    corpus file, the digest indexes record."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(DIGEST_CHUNK), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_corpus_file(docs: Iterable[LegalDocument], path: str | Path) -> None:
    fields = ("article_id", "title", "content")
    records = (
        {
            "doc_id": doc.doc_id,
            "articles": [{f: getattr(a, f) for f in fields} for a in doc.articles],
        }
        for doc in docs
    )
    indexfile.write_json_lines(path, records)


def iter_articles(docs: Iterable[LegalDocument]) -> Iterator[Article]:
    for doc in docs:
        yield from doc.articles


def sorted_articles(articles: Iterable[Article]) -> list[Article]:
    """The articles by ascending id, the order both indexes number them in.

    Raises ``ValueError`` for no articles (``"empty corpus"``) or an id that
    occurs twice.
    """
    ordered = sorted(articles, key=lambda a: a.article_id)
    if not ordered:
        raise ValueError("empty corpus")
    for before, after in zip(ordered, ordered[1:]):
        if before.article_id == after.article_id:
            raise ValueError(f"duplicate article id {after.article_id!r}")
    return ordered
