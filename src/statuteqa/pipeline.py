"""Declarative pipeline configuration and runtime assembly.

A single flat config (JSON file, overridable by CLI flags) carries every
path and parameter of the phases: indexing, weak-label generation,
training, querying, evaluation and serving. It is the only record of each
setting's default and allowed range: the phase functions are handed the
config and read their settings from it, so a bad value is rejected when
the config is built, before any phase runs.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .corpus import (
    Article,
    TokenizerConfig,
    clean_text,
    file_digest,
    iter_articles,
    load_corpus_file,
    tokenize,
)
from .dense import (
    DEFAULT_DIMENSION,
    DenseIndex,
    ExternalEmbedder,
    HashedProjectionEmbedder,
    dense_retrieve_topk,
    load_dense_index,
)
from .ensemble import AnswerSet, Ranking, default_threshold, rank_and_select
from .lexical import LexIndex, load_lex_index, retrieve_topk
from .lineproto import finite_real
from .reranker import ExternalScorer, FeatureExtractor, ModelScorer, load_model

__all__ = [
    "PipelineConfig",
    "Pipeline",
    "question_id_for",
    "load_artifacts",
    "load_articles",
    "close_all",
]

CONFIG_ENV_VAR = "STATUTEQA_CONFIG"

_COMMAND = ("null or a list of strings", lambda v: _has_type(v, "list[str] | None"))

# key -> (its allowed range, as messages and the README state it; the test)
RANGES = {
    "k1": (">= 0", lambda v: v >= 0),
    "b": ("in [0, 1]", lambda v: 0 <= v <= 1),
    "alpha": (">= 0", lambda v: v >= 0),
    "beta": (">= 0", lambda v: v >= 0),
    "gamma": ("in [0, 1]", lambda v: 0 <= v <= 1),
    "top_k": (">= 1", lambda v: v >= 1),
    "threshold": ("null or >= 0", lambda v: v is None or v >= 0),
    "quickview_source": ("'lexical' or 'dense'", lambda v: v in ("lexical", "dense")),
    "phrase_lexicon": ("a list of strings", lambda v: _has_type(v, "list[str]")),
    "embedder_dimension": (">= 1", lambda v: v >= 1),
    "external_embedder_cmd": _COMMAND,
    "external_embedder_timeout": ("> 0", lambda v: v > 0),
    "external_scorer_cmd": _COMMAND,
    "external_scorer_timeout": ("> 0", lambda v: v > 0),
    "learning_rate": ("> 0", lambda v: v > 0),
    "epochs": (">= 1", lambda v: v >= 1),
    "batch_size": (">= 1", lambda v: v >= 1),
    "train_seed": (">= 0", lambda v: v >= 0),
    "patience": (">= 1", lambda v: v >= 1),
    "weak_negative_ratio": (">= 1", lambda v: v >= 1),
    "split_ratio": ("in (0, 1)", lambda v: 0 < v < 1),
    "max_question_chars": (">= 1", lambda v: v >= 1),
}


@dataclass(frozen=True)
class PipelineConfig:
    # paths
    corpus_path: str = "corpus.jsonl"
    lex_index_path: str = "lex_index.bin"
    dense_index_path: str = "dense_index.bin"
    model_path: str = "model.json"
    weak_dataset_path: str = "weak_dataset.jsonl"
    gold_path: str = "gold_queries.jsonl"
    report_path: str = "eval_report.json"
    # lexical scoring
    k1: float = 1.2
    b: float = 0.75
    alpha: float = 1.5
    beta: float = 1.0
    # ensemble
    gamma: float = 0.5
    top_k: int = 200
    threshold: float | None = None
    quickview_source: str = "lexical"
    # tokenizer: phrases to merge into one token (none by default)
    phrase_lexicon: list[str] = field(default_factory=list)
    # embedder
    embedder_dimension: int = DEFAULT_DIMENSION
    embedder_seed: int = 0
    external_embedder_cmd: list[str] | None = None
    external_embedder_timeout: float = 30.0
    # supervised scorer
    external_scorer_cmd: list[str] | None = None
    external_scorer_timeout: float = 30.0
    # training
    learning_rate: float = 0.1
    epochs: int = 50
    batch_size: int = 32
    train_seed: int = 0
    patience: int = 10  # early-stop patience on validation loss
    # weak labels and splits
    weak_negative_ratio: int = 4
    weak_seed: int = 0
    split_ratio: float = 0.9
    split_seed: int = 0
    # service
    max_question_chars: int = 2000

    def __post_init__(self) -> None:
        """Every range once; a NaN fails every comparison, so it is rejected.
        The config is frozen, and ``dataclasses.replace`` checks again."""
        for key, (allowed, holds) in RANGES.items():
            value = getattr(self, key)
            if not holds(value):
                raise ValueError(f"{key} must be {allowed}, not {value!r}")
        if not self.alpha + self.beta > 0:
            raise ValueError(f"alpha + beta must be > 0, not {self.alpha + self.beta!r}")

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(raw) - set(types)
        if unknown:
            raise ValueError(f"{path}: unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            if not _has_type(value, types[key]):
                raise ValueError(f"{path}: {key} must be {types[key]}, not {value!r}")
        try:
            return cls(**raw)
        except ValueError as exc:  # an out-of-range value
            raise ValueError(f"{path}: {exc}") from None

    def tokenizer_config(self) -> TokenizerConfig:
        return TokenizerConfig(frozenset(self.phrase_lexicon))

    def effective_threshold(self) -> float:
        """``threshold``, or the default for ``top_k`` when it is None."""
        if self.threshold is None:
            return default_threshold(self.top_k)
        return self.threshold

    def ensemble_config(self) -> "PipelineConfig":
        """The config itself. Only the benchmark's code (``perfbench/``)
        calls this; it goes once that reads the config directly."""
        return self

    def quickview_config(self) -> "PipelineConfig":
        """The config itself; kept for the benchmark, as ``ensemble_config``."""
        return self

    def make_embedder(self):
        if self.external_embedder_cmd:
            return ExternalEmbedder(
                self.external_embedder_cmd,
                dimension=self.embedder_dimension,
                timeout=self.external_embedder_timeout,
            )
        return HashedProjectionEmbedder(
            dimension=self.embedder_dimension, seed=self.embedder_seed
        )


def _has_type(value, annotation: str) -> bool:
    """Whether a JSON value fits a config field's annotation; a float is a
    finite real (``lineproto.finite_real``), a bool is not a number."""
    if annotation.endswith(" | None"):
        return value is None or _has_type(value, annotation.removesuffix(" | None"))
    if annotation == "list[str]":
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    if annotation == "float":
        return finite_real(value) is not None
    if isinstance(value, bool):
        return False
    return isinstance(value, {"int": int, "str": str}[annotation])


def question_id_for(question: str) -> str:
    """Stable id for ad-hoc questions (CLI query and HTTP answer agree)."""
    return "q" + hashlib.sha1(question.encode("utf-8")).hexdigest()[:8]


def close_all(*resources) -> None:
    """Close each resource that has a ``close`` (external child processes)."""
    for resource in resources:
        close = getattr(resource, "close", None)
        if callable(close):
            close()


def load_artifacts(cfg: PipelineConfig) -> tuple[LexIndex, DenseIndex]:
    """Both indexes, checked against the config, each other and the corpus.

    Every command that reads the indexes loads them here. Both indexes
    must record the configured tokenizer, the lexical index BM25 ``k1`` and
    ``b``, the dense index the configured embedder (which it then uses for
    questions), and both the sha256 of the corpus file's bytes: the corpus
    is checked with one hash and is not parsed (see ``load_articles``). The
    caller owns ``dense.embedder`` and closes it; when loading fails it is
    closed here.
    """
    tokenizer = cfg.tokenizer_config()
    lex = load_lex_index(cfg.lex_index_path, tokenizer)
    if (lex.k1, lex.b) != (cfg.k1, cfg.b):
        raise ValueError(
            f"{cfg.lex_index_path}: index built with BM25 k1={lex.k1}, "
            f"b={lex.b}, but the config has k1={cfg.k1}, b={cfg.b}"
        )
    embedder = cfg.make_embedder()
    try:
        dense = load_dense_index(cfg.dense_index_path, embedder, tokenizer)
        digest = file_digest(cfg.corpus_path)
        for path, index in ((cfg.lex_index_path, lex), (cfg.dense_index_path, dense)):
            _require_corpus(cfg, path, index.corpus_digest, digest)
    except BaseException:
        close_all(embedder)
        raise
    return lex, dense


def load_articles(cfg: PipelineConfig, digest: str) -> list[Article]:
    """The corpus's articles, parsed from bytes whose sha256 must be ``digest``,
    the corpus digest of the indexes (``cfg.lex_index_path``) loaded with it."""
    docs, stats = load_corpus_file(cfg.corpus_path)
    _require_corpus(cfg, cfg.lex_index_path, digest, stats.digest)
    return list(iter_articles(docs))


def _require_corpus(
    cfg: PipelineConfig, index_path: str, recorded: str, found: str
) -> None:
    if recorded != found:
        raise ValueError(
            f"{index_path}: index built from a different corpus "
            f"(index {recorded[:16]}, {cfg.corpus_path} {found[:16]})"
        )


class Pipeline:
    """Loaded indexes and scorer behind one answer() call.

    Questions are cut with the indexes' tokenizer, not one built from ``cfg``.
    Every scorer is handed the quickview's ``Ranking``: the in-process model
    (``ModelScorer``) reads its features from the indexes, so answering with
    it never reads article text, and an ``ExternalScorer`` owns the
    articles whose text it sends, which ``load`` parses for it up front, so
    the parse never lands in the first answer.

    ``articles`` and ``by_id`` hold the corpus's articles for the
    benchmark's checks (``perfbench/checks.py``), the only reader; when the
    constructor is given None, they are parsed on first read, by
    ``load_articles`` against the indexes' corpus digest.

    The pipeline owns ``scorer`` and ``dense.embedder`` and closes them in
    ``close``. ``scorer`` may be None for quickview-only use.
    """

    def __init__(
        self,
        cfg: PipelineConfig,
        articles: Sequence[Article] | None,
        lex: LexIndex,
        dense: DenseIndex,
        scorer,
    ) -> None:
        self.cfg = cfg
        if articles is not None:
            self.articles = list(articles)
        self.lex = lex
        self.dense = dense
        self.scorer = scorer
        self.tok = lex.tokenizer  # read only by the benchmark's code (perfbench/)

    @functools.cached_property
    def articles(self) -> list[Article]:
        return load_articles(self.cfg, self.lex.corpus_digest)

    @functools.cached_property
    def by_id(self) -> dict[str, Article]:
        return {a.article_id: a for a in self.articles}

    @classmethod
    def load(cls, cfg: PipelineConfig) -> "Pipeline":
        lex, dense = load_artifacts(cfg)
        try:
            if cfg.external_scorer_cmd:
                articles = load_articles(cfg, lex.corpus_digest)
                scorer = ExternalScorer(
                    cfg.external_scorer_cmd, articles, timeout=cfg.external_scorer_timeout
                )
            else:
                model = load_model(cfg.model_path)
                extractor = FeatureExtractor(lex, dense)
                scorer = ModelScorer(model, extractor)
        except BaseException:
            close_all(dense.embedder)
            raise
        return cls(cfg, None, lex, dense, scorer)

    def quickview_rank(self, question: str, k: int) -> Ranking:
        """The ``k`` best candidates of the configured quickview, as index
        positions and scores: fielded BM25 (``"lexical"``) or max sentence
        cosine (``"dense"``). The ranking carries the question's tokens and
        its BM25 pass or sentence cosines, which the reranker's features
        read, so an answer tokenizes its question once."""
        if self.cfg.quickview_source == "dense":
            return dense_retrieve_topk(self.dense, question, k)
        tokens = tokenize(clean_text(question), self.lex.tokenizer)
        return retrieve_topk(self.lex, tokens, k, self.cfg)

    def answer(
        self, question_id: str, question: str, top_k: int | None = None
    ) -> AnswerSet:
        """Quickview at ``top_k`` (default: the configured one), then fusion
        and selection."""
        cfg = self.cfg
        if top_k is not None:
            cfg = dataclasses.replace(cfg, top_k=top_k)
        ranked = self.quickview_rank(question, cfg.top_k)
        return rank_and_select(question_id, question, ranked, self.scorer, cfg)

    def answer_ranked(
        self, question_id: str, question: str, ranked: Ranking
    ) -> AnswerSet:
        """``answer`` from a ranking of ``quickview_rank`` at least ``top_k`` deep.

        The quickview is a total order, so the ranking's ``top_k`` prefix is
        the candidate list ``answer`` would rank.
        """
        cfg = self.cfg
        ranked = ranked[: cfg.top_k]
        return rank_and_select(question_id, question, ranked, self.scorer, cfg)

    def fingerprints(self) -> dict[str, str]:
        info = {
            "tokenizer": self.lex.tokenizer.fingerprint(),
            "embedder": self.dense.embedder_fingerprint,
            "corpus": self.lex.corpus_digest,
        }
        if hasattr(self.scorer, "fingerprint"):
            info["scorer"] = self.scorer.fingerprint()
        return info

    def close(self) -> None:
        close_all(self.scorer, self.dense.embedder)
