"""Score fusion and answer-set selection.

Quickview and supervised scores are min-max normalized over the retrieved
candidate list, combined as ``gamma * quickview + (1 - gamma) * supervised``,
and the answer set is every candidate whose combined score lies strictly
within ``threshold`` of the best candidate. The best candidate (and any
exact ties with it) is always returned.

Both quickviews return a ``Ranking``: the candidates as positions in the
index, best first, with their scores. Scores stay arrays over the
candidate list from quickview to selection: normalization, fusion and
selection are elementwise, with the operations of the scalar rules in
their order, ties break by position (which is id order), and an id and a
``RankedCandidate`` are built only for a returned article.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .corpus import Article

__all__ = [
    "Ranking",
    "top_k_positions",
    "RankedCandidate",
    "AnswerSet",
    "EnsembleConfig",
    "DEFAULT_THRESHOLDS",
    "default_threshold",
    "minmax_normalize",
    "combine",
    "select_answer_set",
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


@dataclass(frozen=True, eq=False)
class Ranking(Sequence):
    """A quickview's candidates as positions in an index, best first.

    Candidate ``i`` is ``article_ids[positions[i]]`` with quickview score
    ``scores[i]``. ``article_ids`` is the index's sorted id tuple, shared
    and not copied; both indexes number their articles by sorted id, so
    ascending position is ascending id. The question view it was ranked
    from goes with it: the question's ``tokens`` and, for a dense ranking,
    ``cosines`` (every dense-index sentence's cosine with the question) or,
    for a lexical one, ``field_scores`` (the ``lexical.score_query`` pass);
    the other is None.

    It reads as the ``(article id, score)`` list it stands for: an integer
    index gives a ``(str, float)`` pair, a slice gives a ``Ranking`` with
    the same question view, and it equals any sequence of the same pairs
    (the question view takes no part in equality).
    """

    article_ids: tuple[str, ...]
    positions: np.ndarray  # int64 positions in article_ids
    scores: np.ndarray  # float64 quickview score of each position
    tokens: tuple[str, ...]  # cleaned question tokens
    cosines: np.ndarray | None  # dense: float64 per dense-index sentence
    field_scores: Mapping[str, tuple[np.ndarray, np.ndarray]] | None  # lexical

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return replace(self, positions=self.positions[item], scores=self.scores[item])
        return self.article_ids[self.positions[item]], float(self.scores[item])

    def __iter__(self):
        return zip(self.ids(), self.scores.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return list(self) == list(other)

    def ids(self) -> list[str]:
        """The candidates' article ids, best first."""
        return list(map(self.article_ids.__getitem__, self.positions.tolist()))


def top_k_positions(positions: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` best ``positions`` by their ``scores`` (``scores[i]`` is the
    score of ``positions[i]``), ordered by (-score, position): every tie at
    the k-th score survives ``argpartition``, so the ``lexsort`` breaks it by
    position, which is id."""
    if positions.size > k:
        kth = scores[np.argpartition(scores, -k)[-k]]
        keep = scores >= kth  # every tie at the k-th score
        positions, scores = positions[keep], scores[keep]
    return positions[np.lexsort((positions, -scores))[:k]]


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


def minmax_normalize(scores: Sequence[float] | np.ndarray) -> np.ndarray:
    """(s - min) / (max - min) as float64; a constant list maps to all ones."""
    scores = np.asarray(scores, dtype=np.float64)
    if not scores.size:
        raise ValueError("cannot normalize an empty score list")
    low = scores.min()
    high = scores.max()
    if high == low:
        return np.ones_like(scores)
    return (scores - low) / (high - low)


def combine(
    qs_norm: float | np.ndarray, ss_norm: float | np.ndarray, gamma: float
) -> float | np.ndarray:
    """gamma-weighted sum of the normalized quickview and supervised scores,
    of two floats or elementwise of two arrays."""
    return gamma * qs_norm + (1.0 - gamma) * ss_norm


def select_answer_set(
    keys: np.ndarray | Sequence, combined: np.ndarray, threshold: float
) -> np.ndarray:
    """Indices of the candidates within ``threshold`` (strict) of the best
    combined score, ordered by descending combined score, ties by ascending
    key.

    ``keys`` break ties; ``rank_and_select`` passes the candidates' index
    positions, whose order is id order. The best candidate and exact ties
    with it are always selected, so a zero threshold returns exactly the
    top combined score group.
    """
    combined = np.asarray(combined, dtype=np.float64)
    if not combined.size:
        return np.zeros(0, dtype=np.intp)
    order = np.lexsort((np.asarray(keys), -combined))
    ordered = combined[order]
    best = ordered[0]
    return order[(best - ordered < threshold) | (ordered == best)]


def rank_and_select(
    question_id: str,
    question: str,
    ranked: Ranking,
    scorer,
    articles_by_id: Mapping[str, Article] | None,
    cfg: EnsembleConfig,
) -> AnswerSet:
    """Score, normalize, fuse and select over a quickview ranking.

    ``ranked`` is the quickview's ``Ranking``, as ``Pipeline.quickview_rank``
    returns it, and ``scorer`` is anything with ``score_batch(question,
    candidates)``. The scorer is handed the candidates' articles from
    ``articles_by_id``, or the ranking itself when that is None (the
    in-process ``ModelScorer`` reads its features at the positions). Scores
    are read from the ranking as an array, ties break by position, and ids
    are looked up only for the returned articles. When the quickview found
    no candidate (``ranked`` is empty) the answer set is empty and flagged,
    which is distinct from selecting the best candidate.
    """
    if not ranked:
        return AnswerSet(question_id=question_id, returned=(), no_candidates=True)

    if articles_by_id is not None:
        candidates = list(map(articles_by_id.__getitem__, ranked.ids()))
    else:
        candidates = ranked
    qs_raw = ranked.scores
    ss_raw = np.asarray(scorer.score_batch(question, candidates), dtype=np.float64)
    if ss_raw.shape != qs_raw.shape:
        raise ValueError(
            f"scorer returned {ss_raw.shape} scores for {len(ranked)} candidates"
        )
    qs_norm = minmax_normalize(qs_raw)
    ss_norm = minmax_normalize(ss_raw)
    combined = combine(qs_norm, ss_norm, cfg.gamma)

    keep = select_answer_set(ranked.positions, combined, cfg.effective_threshold())
    table = np.column_stack((qs_raw, qs_norm, ss_raw, ss_norm, combined))
    ids = ranked.article_ids
    returned = tuple(
        RankedCandidate(ids[p], *row)
        for p, row in zip(ranked.positions[keep].tolist(), table[keep].tolist())
    )
    return AnswerSet(question_id=question_id, returned=returned)


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
