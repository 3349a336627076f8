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
from collections.abc import Mapping
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .lexical import QueryScores
    from .pipeline import PipelineConfig

__all__ = [
    "Ranking",
    "top_k_positions",
    "RankedCandidate",
    "AnswerSet",
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


@dataclass(frozen=True, eq=False)
class Ranking:
    """A quickview's candidates as positions in an index, best first.

    Candidate ``i`` is ``article_ids[positions[i]]`` with quickview score
    ``scores[i]``. ``article_ids`` is the index's sorted id tuple, shared
    and not copied; both indexes number their articles by sorted id, so
    ascending position is ascending id. The question's ``tokens`` go with
    it, and a lexical ranking carries its ``field_scores`` (the
    ``lexical.score_query`` pass). A ranking whose ``field_scores`` is None
    came from ``dense.dense_retrieve_topk``: its ``scores`` are the
    candidates' max sentence cosines, which are the reranker's dense
    feature.

    It is a record, not a list: ``len`` counts the candidates, a slice gives
    a ``Ranking`` with the same question view, and an integer index raises
    ``TypeError``; read ``ids()``, ``positions`` and ``scores`` instead.
    """

    article_ids: tuple[str, ...]
    positions: np.ndarray  # int64 positions in article_ids
    scores: np.ndarray  # float64 quickview score of each position
    tokens: tuple[str, ...]  # cleaned question tokens
    field_scores: QueryScores | None  # lexical

    def __len__(self) -> int:
        return len(self.positions)

    def __getitem__(self, item: slice) -> Ranking:
        if not isinstance(item, slice):
            raise TypeError(f"a Ranking is sliced, not indexed: {item!r}")
        return replace(self, positions=self.positions[item], scores=self.scores[item])

    def __iter__(self):
        """``(id, score)`` pairs, best first. Only the benchmark's checks
        (``perfbench/checks.py``) iterate a ranking; this goes once they read
        ``ids()`` and ``scores``."""
        return zip(self.ids(), self.scores.tolist())

    def ids(self) -> list[str]:
        """The candidates' article ids, best first."""
        return list(map(self.article_ids.__getitem__, self.positions.tolist()))


def top_k_positions(scores: np.ndarray, k: int, floor: float) -> np.ndarray:
    """Positions of the ``k`` best ``scores`` that are at least ``floor``,
    ordered by (-score, position), so ties break by position, which is id.

    One ``np.partition`` over the whole array finds the k-th best value;
    every score at or above it and ``floor`` is kept, every tie at the k-th
    value included, and only those are sorted. A caller passes the smallest
    positive double to keep positive scores only, or ``-inf`` to keep all.
    """
    if scores.size > k:
        floor = max(floor, np.partition(scores, -k)[-k])
    positions = np.flatnonzero(scores >= floor)
    return positions[np.argsort(-scores[positions], kind="stable")[:k]]


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


def minmax_normalize(scores: np.ndarray) -> np.ndarray:
    """(s - min) / (max - min) of a float64 array; a constant one maps to ones."""
    if not scores.size:
        raise ValueError("cannot normalize an empty score list")
    low = scores.min()
    high = scores.max()
    if high == low:
        return np.ones_like(scores)
    return (scores - low) / (high - low)


def combine(qs_norm: np.ndarray, ss_norm: np.ndarray, gamma: float) -> np.ndarray:
    """gamma-weighted sum of the normalized quickview and supervised scores,
    elementwise over two float64 arrays."""
    return gamma * qs_norm + (1.0 - gamma) * ss_norm


def select_answer_set(
    keys: np.ndarray, combined: np.ndarray, threshold: float
) -> np.ndarray:
    """Indices of the candidates within ``threshold`` (strict) of the best
    combined score, ordered by descending combined score, ties by ascending
    key.

    ``keys`` break ties; ``rank_and_select`` passes the candidates' index
    positions, whose order is id order. The best candidate and exact ties
    with it are always selected, so a zero threshold returns exactly the
    top combined score group. Only the selected candidates are sorted.
    """
    if not combined.size:
        return np.zeros(0, dtype=np.intp)
    best = combined.max()
    near = np.flatnonzero((best - combined < threshold) | (combined == best))
    return near[np.lexsort((keys[near], -combined[near]))]


def rank_and_select(
    question_id: str, question: str, ranked: Ranking, scorer, cfg: PipelineConfig
) -> AnswerSet:
    """Score, normalize, fuse and select over a quickview ranking.

    ``ranked`` is the quickview's ``Ranking``, as ``Pipeline.quickview_rank``
    returns it, and ``scorer`` is anything with ``score_batch(question,
    ranked)``: every scorer is handed the ranking itself and reads what it
    needs from it, the in-process model its index positions and an external
    scorer its ids. Fusion reads ``cfg.gamma`` and
    ``cfg.effective_threshold()``. Scores are read from the ranking as an
    array, ties break by position, and ids are looked up only for the
    returned articles. When the quickview found no candidate (``ranked`` is
    empty) the answer set is empty and flagged, which is distinct from
    selecting the best candidate.
    """
    if not ranked:
        return AnswerSet(question_id=question_id, returned=(), no_candidates=True)

    qs_raw = ranked.scores
    ss_raw = np.asarray(scorer.score_batch(question, ranked), dtype=np.float64)
    if ss_raw.shape != qs_raw.shape:
        raise ValueError(
            f"scorer returned {ss_raw.shape} scores for {len(ranked)} candidates"
        )
    qs_norm = minmax_normalize(qs_raw)
    ss_norm = minmax_normalize(ss_raw)
    combined = combine(qs_norm, ss_norm, cfg.gamma)

    keep = select_answer_set(ranked.positions, combined, cfg.effective_threshold())
    ids = map(ranked.article_ids.__getitem__, ranked.positions[keep].tolist())
    columns = (a[keep].tolist() for a in (qs_raw, qs_norm, ss_raw, ss_norm, combined))
    returned = tuple(map(RankedCandidate, ids, *columns))
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
