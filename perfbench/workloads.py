"""Workload table and seeded input generation for the benchmark.

A workload fixes a synthetic corpus, the questions asked of it and how
they are asked. The corpus and the training questions are fixed, so the
built artifacts depend only on the code; the run's seed sets the order in
which questions are asked, and so which ones a run reaches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from statuteqa.evaluation import GoldQuery
from statuteqa.synth import (
    family_mixed_queries,
    paraphrase_gold_queries,
    synthetic_corpus,
    synthetic_family_corpus,
    title_gold_queries,
)


CORPUS_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: str  # "statute": synthetic_corpus, "family": synthetic_family_corpus
    size: int  # articles for "statute", families for "family"
    why: str
    members: int = 4  # articles per family
    quickview_source: str = "lexical"
    serve: bool = False  # answer over HTTP from a `statuteqa serve` child
    clients: int = 1  # closed-loop callers
    train_questions: int = 1000  # gold questions the scorer is fine-tuned on
    epochs: int = 3  # fixed epoch count; patience (10) never stops early
    quality: int = 20  # first timed questions scored for recall, F2, digest


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="answer-lex-10k",
            corpus="statute",
            size=10_000,
            why="title questions share 'of' with every article, so lexical "
            "quickview scans the whole corpus and dominates answer time",
        ),
        Workload(
            name="answer-dense-10k",
            corpus="statute",
            size=10_000,
            quickview_source="dense",
            why="same corpus with dense quickview: the max-cosine scan "
            "dominates and lexical quickview is never called",
        ),
        Workload(
            name="serve-family-1k",
            corpus="family",
            size=250,
            serve=True,
            clients=2,
            quality=150,
            why="the HTTP service on a small family corpus, 2 closed-loop clients: "
            "reranking dominates and answers must separate sibling articles",
        ),
    )
}


def make_corpus(workload: Workload):
    """(docs, training gold queries); fixed, so artifacts depend on code only.

    Training questions are worded differently from the asked ones
    (paraphrases against titles, titles against mixed questions), so no
    timed question was seen in training.
    """
    rng = random.Random(CORPUS_SEED)
    if workload.corpus == "family":
        docs = synthetic_family_corpus(workload.size, workload.members)
        train = title_gold_queries(docs)
    else:
        docs = synthetic_corpus(workload.size, seed=CORPUS_SEED)
        train = paraphrase_gold_queries(docs, seed=CORPUS_SEED)
    return docs, rng.sample(train, min(workload.train_questions, len(train)))


def make_questions(workload: Workload, docs, seed: int):
    """Distinct asked questions: the quality set first, then the rest.

    The quality set (``workload.quality`` questions) is the same for every
    seed, so recall, F2 and the answer digest compare across runs and
    commits; the seed sets the order within each part. Questions are
    distinct strings because the reranker caches question vectors by
    string, and a repeat would be faster than real traffic. On the family
    corpus they are all the questions ``family_mixed_queries`` can ask:
    every article's specific question and every family's family-only one.
    """
    if workload.corpus == "family":
        asked = family_mixed_queries(docs, family_only_rate=0.0)
        asked += family_mixed_queries(docs, family_only_rate=1.0)
    else:
        asked = title_gold_queries(docs)
    first_by_text = {}
    for query in asked:
        first_by_text.setdefault(query.question, query)
    asked = [
        GoldQuery(f"q{i:05d}", q.question, q.gold_article_ids)
        for i, q in enumerate(first_by_text.values())
    ]
    random.Random(CORPUS_SEED).shuffle(asked)
    quality, rest = asked[: workload.quality], asked[workload.quality :]
    rng = random.Random(seed)
    rng.shuffle(quality)
    rng.shuffle(rest)
    return quality + rest
