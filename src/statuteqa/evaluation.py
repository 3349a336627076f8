"""Retrieval metrics, dataset splitting, and the evaluation harness.

Recall@k is macro-averaged over queries. The F-measure weights recall
twice as heavily as precision and is computed from the dataset-mean
precision and recall, matching how the end-to-end system is reported.

Gold query file format: UTF-8 JSON lines
    {"question_id": str, "question": str, "gold": [str, ...]}
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import indexfile
from .ensemble import AnswerSet, Ranking

__all__ = [
    "GoldQuery",
    "EvalReport",
    "recall_at_k",
    "precision_recall",
    "f2",
    "split_train_valid",
    "run_eval",
    "load_gold_file",
    "write_gold_file",
    "save_report",
]


@dataclass(frozen=True)
class GoldQuery:
    question_id: str
    question: str
    gold_article_ids: frozenset[str]

    def __post_init__(self) -> None:
        if not isinstance(self.question_id, str) or not isinstance(self.question, str):
            raise ValueError("question_id and question must be strings")
        object.__setattr__(self, "gold_article_ids", frozenset(self.gold_article_ids))
        if not self.gold_article_ids:
            raise ValueError(f"query {self.question_id!r} has an empty gold set")


def recall_at_k(ranked: Sequence[str], gold: Iterable[str], k: int) -> float:
    """|top-k intersected with gold| / |gold| for one query."""
    if k < 1:
        raise ValueError("k must be >= 1")
    gold_set = set(gold)
    if not gold_set:
        raise ValueError("gold set must be non-empty")
    hits = sum(1 for article_id in ranked[:k] if article_id in gold_set)
    return hits / len(gold_set)


def precision_recall(answer: AnswerSet, gold: Iterable[str]) -> tuple[float, float]:
    """Precision and recall of the returned answer set; empty set gives (0, 0)."""
    gold_set = set(gold)
    if not gold_set:
        raise ValueError("gold set must be non-empty")
    returned = {c.article_id for c in answer.returned}
    if not returned:
        return 0.0, 0.0
    hits = len(returned & gold_set)
    return hits / len(returned), hits / len(gold_set)


def f2(mean_precision: float, mean_recall: float) -> float:
    """5PR / (4P + R) from dataset-mean precision and recall; (0, 0) -> 0."""
    if not 0.0 <= mean_precision <= 1.0 or not 0.0 <= mean_recall <= 1.0:
        raise ValueError("precision and recall must be in [0, 1]")
    if mean_precision == 0.0 and mean_recall == 0.0:
        return 0.0
    return 5.0 * mean_precision * mean_recall / (4.0 * mean_precision + mean_recall)


def split_train_valid(
    queries: Sequence[GoldQuery], ratio: float, seed: int = 0
) -> tuple[list[GoldQuery], list[GoldQuery]]:
    """Seeded shuffle then exact partition; both halves non-empty."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")
    if len(queries) < 2:
        raise ValueError("need at least 2 queries to split")
    shuffled = list(queries)
    random.Random(seed).shuffle(shuffled)
    n_train = round(len(shuffled) * ratio)
    n_train = min(max(n_train, 1), len(shuffled) - 1)
    return shuffled[:n_train], shuffled[n_train:]


@dataclass
class EvalReport:
    recall_at_k: dict[int, float] = field(default_factory=dict)
    mean_precision: float | None = None
    mean_recall: float | None = None
    f2: float | None = None
    mean_latency_ms: float | None = None
    queries: int = 0
    failures: int = 0
    per_query: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "recall_at_k": {str(k): v for k, v in sorted(self.recall_at_k.items())},
            "mean_precision": self.mean_precision,
            "mean_recall": self.mean_recall,
            "f2": self.f2,
            "mean_latency_ms": self.mean_latency_ms,
            "queries": self.queries,
            "failures": self.failures,
            "per_query": self.per_query,
        }


def run_eval(
    queries: Sequence[GoldQuery],
    quickview_rank: Callable[[str], Ranking],
    ks: Sequence[int] = (),
    answer: Callable[[str, str, Ranking], AnswerSet] | None = None,
) -> EvalReport:
    """Evaluate quickview recall and/or end-to-end answer sets per query.

    ``quickview_rank`` ranks each query once; Recall@k for each k in ``ks``
    (over the ranking's ids) and ``answer(question_id, question, ranking)``
    both read that ranking.
    A query whose pipeline call raises is marked failed and skipped from
    the aggregates; evaluation continues. Aggregates stay None when every
    query failed.
    """
    if not ks and answer is None:
        raise ValueError("nothing to evaluate: no recall cutoffs, no answerer")

    report = EvalReport(queries=len(queries))
    recall_sums = {k: 0.0 for k in ks}
    precision_sum = 0.0
    recall_sum = 0.0
    latency_sum = 0.0
    evaluated = 0

    for query in queries:
        row: dict = {"question_id": query.question_id}
        started = time.perf_counter()
        try:
            ranked = quickview_rank(query.question)
            if ks:
                ranked_ids = ranked.ids()
                row["recall_at_k"] = {
                    str(k): recall_at_k(ranked_ids, query.gold_article_ids, k)
                    for k in ks
                }
            if answer is not None:
                answer_set = answer(query.question_id, query.question, ranked)
                p, r = precision_recall(answer_set, query.gold_article_ids)
                row["precision"] = p
                row["recall"] = r
                row["returned"] = [c.article_id for c in answer_set.returned]
        except Exception as exc:  # isolate per-query failures
            row["failed"] = True
            row["error"] = f"{type(exc).__name__}: {exc}"
            report.failures += 1
            report.per_query.append(row)
            continue
        latency_ms = (time.perf_counter() - started) * 1000.0
        row["latency_ms"] = latency_ms
        report.per_query.append(row)

        evaluated += 1
        latency_sum += latency_ms
        for k in ks:
            recall_sums[k] += row["recall_at_k"][str(k)]
        if answer is not None:
            precision_sum += row["precision"]
            recall_sum += row["recall"]

    if evaluated:
        report.mean_latency_ms = latency_sum / evaluated
        report.recall_at_k = {k: recall_sums[k] / evaluated for k in ks}
        if answer is not None:
            report.mean_precision = precision_sum / evaluated
            report.mean_recall = recall_sum / evaluated
            report.f2 = f2(report.mean_precision, report.mean_recall)
    return report


def load_gold_file(path: str | Path) -> list[GoldQuery]:
    queries = []
    for lineno, record in indexfile.read_json_lines(path):
        try:
            gold = record["gold"]
            if not isinstance(gold, list) or not all(isinstance(a, str) for a in gold):
                raise ValueError("gold must be a list of article-id strings")
            queries.append(GoldQuery(record["question_id"], record["question"], gold))
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: missing key {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return queries


def write_gold_file(queries: Iterable[GoldQuery], path: str | Path) -> None:
    records = (
        {
            "question_id": query.question_id,
            "question": query.question,
            "gold": sorted(query.gold_article_ids),
        }
        for query in queries
    )
    indexfile.write_json_lines(path, records)


def save_report(report: EvalReport, path: str | Path) -> None:
    """Write the report as indented JSON through ``indexfile.replacing``."""
    with indexfile.replacing(path) as handle:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        handle.write(text.encode("utf-8"))
