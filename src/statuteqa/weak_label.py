"""Weak-label training data: gold labels of title questions.

Weak labeling treats each titled article's cleaned title as a question
that its own article answers. ``generate_weak_dataset`` builds those
questions and labels them as gold question/article pairs are labeled
(``generate_gold_examples``): one positive per gold article, then the
config's ``weak_negative_ratio`` negatives per positive, sampled
uniformly, without replacement, from the articles outside the question's
gold set, seeded with ``weak_seed``.

Dataset file format: UTF-8 JSON lines
    {"article_id": str, "label": 0|1, "question": str}
Any other key, such as the ``"origin"`` of older files, is ignored.
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

    def __post_init__(self) -> None:
        if not isinstance(self.question, str) or not isinstance(self.article_id, str):
            raise ValueError("question and article_id must be strings")
        if type(self.label) is not int or self.label not in (0, 1):
            raise ValueError("label must be the integer 0 or 1")


def generate_weak_dataset(
    articles: Sequence[Article], cfg: PipelineConfig
) -> list[TrainingExample]:
    """The gold examples of the title questions.

    Each titled article asks its cleaned title of itself alone, in article
    order, so it yields one positive and ``cfg.weak_negative_ratio``
    negatives. Repeated titles are not grouped: each is its own question.
    Untitled articles and titles that clean to nothing ask nothing.
    """
    ratio = cfg.weak_negative_ratio
    if len(articles) < ratio + 1:
        raise ValueError(
            f"corpus smaller than weak_negative_ratio + 1 articles "
            f"({len(articles)} < {ratio + 1})"
        )
    # a generator: a list would keep two tuples per article alive, and the
    # garbage collector would run about a third more often
    questions = (
        (question, (a.article_id,))
        for a in articles
        if a.title is not None and (question := clean_text(a.title))
    )
    return generate_gold_examples(questions, articles, cfg)


def generate_gold_examples(
    question_gold_pairs: Iterable[tuple[str, Sequence[str]]],
    articles: Sequence[Article],
    cfg: PipelineConfig,
) -> list[TrainingExample]:
    """Labeled examples from (question, gold article ids) pairs.

    Per question, in order: one positive per gold article, then
    ``cfg.weak_negative_ratio`` negatives per positive, sampled without
    replacement with one ``cfg.weak_seed`` stream from the corpus
    excluding every gold article of that question.

    ``random.Random.sample`` uses only its population's length and indexes
    into it, so sampling ``range(available)`` and shifting each index past
    the excluded pool positions (ascending) draws the same ids in the same
    order as sampling the filtered list, without building that list.
    """
    pool = [a.article_id for a in articles]
    where: dict[str, list[int]] = {}  # each id's pool positions, ascending
    for position, article_id in enumerate(pool):
        where.setdefault(article_id, []).append(position)
    rng = random.Random(cfg.weak_seed)
    ratio = cfg.weak_negative_ratio
    examples: list[TrainingExample] = []
    for question, gold in question_gold_pairs:
        if not gold:
            raise ValueError(f"question {question!r} has an empty gold set")
        for article_id in gold:
            examples.append(TrainingExample(question, article_id, 1))
        excluded = sorted({i for a in gold for i in where.get(a, ())})
        count = ratio * len(gold)
        available = len(pool) - len(excluded)
        if available < count:
            raise ValueError(
                f"corpus too small: need {count} negative candidates, "
                f"have {available}"
            )
        for index in rng.sample(range(available), count):
            for position in excluded:
                if index < position:
                    break
                index += 1
            examples.append(TrainingExample(question, pool[index], 0))
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
    indexfile.write_json_lines(path, map(vars, examples))


def read_dataset(path: str | Path) -> list[TrainingExample]:
    return indexfile.read_records(
        path, lambda r: TrainingExample(r["question"], r["article_id"], r["label"])
    )
