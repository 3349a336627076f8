"""Weak-label training data: article titles treated as answered questions.

Every titled article yields one positive example (its cleaned title paired
with itself) and the config's ``weak_negative_ratio`` negatives sampled
uniformly, without replacement, from the other articles, seeded with
``weak_seed``. Gold question/article pairs reuse the same sampler for
their negatives.

Dataset file format: UTF-8 JSON lines
    {"question": str, "article_id": str, "label": 0|1, "origin": "weak"|"gold"}
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from . import indexfile
from .corpus import Article, clean_text

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

__all__ = [
    "TrainingExample",
    "DatasetStats",
    "generate_weak_dataset",
    "generate_gold_examples",
    "dataset_stats",
    "write_dataset",
    "read_dataset",
]


@dataclass(frozen=True)
class TrainingExample:
    question: str
    article_id: str
    label: int
    origin: str  # "weak" or "gold"

    def __post_init__(self) -> None:
        if not isinstance(self.question, str) or not isinstance(self.article_id, str):
            raise ValueError("question and article_id must be strings")
        if type(self.label) is not int or self.label not in (0, 1):
            raise ValueError("label must be the integer 0 or 1")
        if self.origin not in ("weak", "gold"):
            raise ValueError("origin must be 'weak' or 'gold'")


def _positions(pool: Sequence[str]) -> dict[str, list[int]]:
    """Each article id's positions in the pool, ascending."""
    where: dict[str, list[int]] = {}
    for position, article_id in enumerate(pool):
        where.setdefault(article_id, []).append(position)
    return where


def _sample_negatives(
    question: str,
    excluded: Sequence[int],
    pool: Sequence[str],
    count: int,
    rng: random.Random,
    origin: str,
) -> list[TrainingExample]:
    """``count`` ids sampled from the pool without its ``excluded`` positions.

    ``random.Random.sample`` uses only its population's length and indexes
    into it, so sampling ``range(available)`` and shifting each index past
    the excluded positions (ascending) draws the same ids in the same order
    as sampling the filtered list, without building that list.
    """
    available = len(pool) - len(excluded)
    if available < count:
        raise ValueError(
            f"corpus too small: need {count} negative candidates, "
            f"have {available}"
        )
    examples = []
    for index in rng.sample(range(available), count):
        for position in excluded:
            if index < position:
                break
            index += 1
        examples.append(TrainingExample(question, pool[index], 0, origin))
    return examples


def generate_weak_dataset(
    articles: Sequence[Article], cfg: PipelineConfig
) -> list[TrainingExample]:
    """One positive plus ``cfg.weak_negative_ratio`` negatives per titled
    article.

    Untitled articles contribute nothing. Output order is deterministic
    given ``cfg.weak_seed``: articles in input order, each positive
    followed by its negatives in sample order.
    """
    ratio = cfg.weak_negative_ratio
    if len(articles) < ratio + 1:
        raise ValueError(
            f"corpus smaller than weak_negative_ratio + 1 articles "
            f"({len(articles)} < {ratio + 1})"
        )
    pool = [a.article_id for a in articles]
    where = _positions(pool)
    rng = random.Random(cfg.weak_seed)
    examples: list[TrainingExample] = []
    for article in articles:
        if article.title is None:
            continue
        question = clean_text(article.title)
        if not question:
            continue
        examples.append(TrainingExample(question, article.article_id, 1, "weak"))
        excluded = where[article.article_id]
        examples.extend(
            _sample_negatives(question, excluded, pool, ratio, rng, "weak")
        )
    return examples


def generate_gold_examples(
    question_gold_pairs: Sequence[tuple[str, Sequence[str]]],
    articles: Sequence[Article],
    cfg: PipelineConfig,
) -> list[TrainingExample]:
    """Labeled examples from (question, gold article ids) pairs.

    One positive per (question, gold article); ``cfg.weak_negative_ratio``
    negatives per positive, sampled with ``cfg.weak_seed`` from the corpus
    excluding every gold article of that question.
    """
    pool = [a.article_id for a in articles]
    where = _positions(pool)
    rng = random.Random(cfg.weak_seed)
    examples: list[TrainingExample] = []
    for question, gold_ids in question_gold_pairs:
        gold = list(gold_ids)
        if not gold:
            raise ValueError(f"question {question!r} has an empty gold set")
        for article_id in gold:
            examples.append(TrainingExample(question, article_id, 1, "gold"))
        excluded = sorted(i for a in set(gold) for i in where.get(a, ()))
        examples.extend(
            _sample_negatives(
                question, excluded, pool, cfg.weak_negative_ratio * len(gold), rng, "gold"
            )
        )
    return examples


@dataclass(frozen=True)
class DatasetStats:
    total: int
    positives: int
    negatives: int
    ratio: float
    duplicate_pairs: int


def dataset_stats(examples: Sequence[TrainingExample]) -> DatasetStats:
    positives = sum(1 for ex in examples if ex.label == 1)
    negatives = len(examples) - positives
    pairs = {(ex.question, ex.article_id) for ex in examples}
    return DatasetStats(
        total=len(examples),
        positives=positives,
        negatives=negatives,
        ratio=negatives / positives if positives else 0.0,
        duplicate_pairs=len(examples) - len(pairs),
    )


def write_dataset(examples: Iterable[TrainingExample], path: str | Path) -> None:
    keys = ("question", "article_id", "label", "origin")
    records = ({key: getattr(ex, key) for key in keys} for ex in examples)
    indexfile.write_json_lines(path, records)


def read_dataset(path: str | Path) -> list[TrainingExample]:
    examples = []
    keys = ("question", "article_id", "label", "origin")
    for lineno, record in indexfile.read_json_lines(path):
        try:
            examples.append(TrainingExample(*(record[key] for key in keys)))
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: missing key {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return examples
