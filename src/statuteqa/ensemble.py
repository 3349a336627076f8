"""Score fusion and answer-set selection.

Quickview and supervised scores are min-max normalized over the retrieved
candidate list, combined as ``gamma * quickview + (1 - gamma) * supervised``,
and the answer set is every candidate whose combined score lies strictly
within ``threshold`` of the best candidate. The best candidate (and any
exact ties with it) is always returned.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

from .corpus import Article, TokenizerConfig, clean_text, tokenize
from .dense import DenseIndex, dense_retrieve_topk
from .lexical import LexIndex, QuickviewConfig, retrieve_topk

__all__ = [
    "RankedCandidate",
    "AnswerSet",
    "EnsembleConfig",
    "DEFAULT_THRESHOLDS",
    "default_threshold",
    "minmax_normalize",
    "combine",
    "select_answer_set",
    "quickview_topk",
    "rank_and_select",
    "answer_set_to_json",
]

# top_k -> selection threshold defaults
DEFAULT_THRESHOLDS: Mapping[int, float] = {
    20: 0.38,
    50: 0.28,
    100: 0.26,
    200: 0.26,
    500: 0.25,
    1000: 0.2,
}


def default_threshold(top_k: int) -> float:
    """Threshold default for a candidate-list size; nearest listed size wins."""
    if top_k in DEFAULT_THRESHOLDS:
        return DEFAULT_THRESHOLDS[top_k]
    nearest = min(DEFAULT_THRESHOLDS, key=lambda k: (abs(k - top_k), k))
    return DEFAULT_THRESHOLDS[nearest]


@dataclass(frozen=True)
class EnsembleConfig:
    gamma: float = 0.5
    top_k: int = 200
    threshold: float | None = None  # None -> default_threshold(top_k)
    quickview_source: str = "lexical"  # or "dense"

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.threshold is not None and self.threshold < 0:
            raise ValueError("threshold must be >= 0")
        if self.quickview_source not in ("lexical", "dense"):
            raise ValueError("quickview_source must be 'lexical' or 'dense'")

    def effective_threshold(self) -> float:
        return self.threshold if self.threshold is not None else default_threshold(
            self.top_k
        )


@dataclass(frozen=True)
class RankedCandidate:
    article_id: str
    qs_raw: float
    qs_norm: float
    ss_raw: float
    ss_norm: float
    combined: float


@dataclass(frozen=True)
class AnswerSet:
    question_id: str
    returned: tuple[RankedCandidate, ...]
    no_candidates: bool = False


def minmax_normalize(scores: Sequence[float]) -> list[float]:
    """(s - min) / (max - min); a constant list maps to all ones."""
    if not scores:
        raise ValueError("cannot normalize an empty score list")
    low = min(scores)
    high = max(scores)
    if high == low:
        return [1.0] * len(scores)
    span = high - low
    return [(s - low) / span for s in scores]


def combine(qs_norm: float, ss_norm: float, gamma: float) -> float:
    """gamma-weighted sum of the normalized quickview and supervised scores."""
    return gamma * qs_norm + (1.0 - gamma) * ss_norm


def select_answer_set(
    candidates: Sequence[RankedCandidate], threshold: float
) -> list[RankedCandidate]:
    """Candidates within ``threshold`` (strict) of the best combined score.

    The best candidate and exact ties with it are always selected, so a
    zero threshold returns exactly the top combined score group.
    """
    if not candidates:
        return []
    ordered = sorted(candidates, key=lambda c: (-c.combined, c.article_id))
    best = ordered[0].combined
    return [c for c in ordered if best - c.combined < threshold or c.combined == best]


def quickview_topk(
    question: str,
    k: int,
    source: str,
    lex: LexIndex,
    dense: DenseIndex | None,
    quickview_cfg: QuickviewConfig | None = None,
    tok: TokenizerConfig | None = None,
) -> list[tuple[str, float]]:
    """The ``k`` best (article id, score) of the ``source`` quickview.

    ``source`` is ``"lexical"`` (fielded BM25) or ``"dense"`` (max
    sentence cosine), as in ``EnsembleConfig.quickview_source``.
    """
    if source == "dense":
        if dense is None:
            raise ValueError("dense quickview requested but no dense index given")
        return dense_retrieve_topk(dense, question, k, tok)
    return retrieve_topk(lex, tokenize(clean_text(question), tok), k, quickview_cfg)


def rank_and_select(
    question_id: str,
    question: str,
    lex: LexIndex,
    scorer,
    articles_by_id: Mapping[str, Article],
    cfg: EnsembleConfig,
    quickview_cfg: QuickviewConfig | None = None,
    tok: TokenizerConfig | None = None,
    dense: DenseIndex | None = None,
) -> AnswerSet:
    """Full per-question pipeline: retrieve, score, normalize, fuse, select.

    ``scorer`` is anything with ``score_batch(question, articles)``. When no
    quickview candidate scores above zero the answer set is empty and
    flagged, which is distinct from selecting the best candidate.
    """
    ranked = quickview_topk(
        question, cfg.top_k, cfg.quickview_source, lex, dense, quickview_cfg, tok
    )
    if not ranked:
        return AnswerSet(question_id=question_id, returned=(), no_candidates=True)

    candidate_articles = [articles_by_id[article_id] for article_id, _ in ranked]
    qs_raw = [score for _, score in ranked]
    ss_raw = [float(s) for s in scorer.score_batch(question, candidate_articles)]
    qs_norm = minmax_normalize(qs_raw)
    ss_norm = minmax_normalize(ss_raw)

    candidates = [
        RankedCandidate(
            article_id=article_id,
            qs_raw=qs,
            qs_norm=qn,
            ss_raw=ss,
            ss_norm=sn,
            combined=combine(qn, sn, cfg.gamma),
        )
        for (article_id, _), qs, qn, ss, sn in zip(
            ranked, qs_raw, qs_norm, ss_raw, ss_norm
        )
    ]
    returned = select_answer_set(candidates, cfg.effective_threshold())
    return AnswerSet(question_id=question_id, returned=tuple(returned))


def answer_set_to_json(answer: AnswerSet) -> str:
    """One query-result line: normalized component scores plus the fusion."""
    record = {
        "question_id": answer.question_id,
        "returned": [
            {
                "article_id": c.article_id,
                "qs": c.qs_norm,
                "ss": c.ss_norm,
                "combined": c.combined,
            }
            for c in answer.returned
        ],
    }
    return json.dumps(record, ensure_ascii=False, sort_keys=True)
