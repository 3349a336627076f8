import json
import math
import random
import re

import pytest

from statuteqa.corpus import Article, clean_text
from statuteqa.pipeline import PipelineConfig
from statuteqa.weak_label import (
    TrainingExample,
    dataset_stats,
    generate_gold_examples,
    generate_weak_dataset,
    read_dataset,
    write_dataset,
)


def _titled_articles(n, untitled=()):
    return [
        Article(
            f"a{i:02d}",
            f"d{i // 5}",
            None if i in untitled else f"Topic {i} heading words",
            f"Body text number {i}.",
        )
        for i in range(n)
    ]


def test_counts_ten_titled_ratio_four():
    examples = generate_weak_dataset(_titled_articles(10), PipelineConfig(weak_seed=0))
    assert len(examples) == 50
    stats = dataset_stats(examples)
    assert (stats.total, stats.positives, stats.negatives) == (50, 10, 40)
    assert stats.ratio == 4.0
    assert stats.duplicate_pairs == 0


def test_untitled_articles_contribute_nothing():
    articles = _titled_articles(10, untitled={3, 7})
    examples = generate_weak_dataset(articles, PipelineConfig(weak_seed=0))
    assert len(examples) == 40
    questioned = {ex.article_id for ex in examples if ex.label == 1}
    assert "a03" not in questioned and "a07" not in questioned
    # untitled articles still serve as negative candidates
    negatives = {ex.article_id for ex in examples if ex.label == 0}
    assert negatives & {"a03", "a07"}


def test_same_seed_byte_identical(tmp_path):
    articles = _titled_articles(12)
    p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    write_dataset(generate_weak_dataset(articles, PipelineConfig(weak_seed=9)), p1)
    write_dataset(generate_weak_dataset(articles, PipelineConfig(weak_seed=9)), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert generate_weak_dataset(articles, PipelineConfig(weak_seed=10)) != generate_weak_dataset(
        articles, PipelineConfig(weak_seed=9)
    )


def test_corpus_too_small():
    with pytest.raises(ValueError, match="smaller"):
        generate_weak_dataset(_titled_articles(4), PipelineConfig(weak_seed=0))
    # exactly ratio + 1 articles is fine
    generate_weak_dataset(_titled_articles(5), PipelineConfig(weak_seed=0))


def test_negatives_exclude_positive_and_are_distinct():
    examples = generate_weak_dataset(_titled_articles(10), PipelineConfig(weak_seed=3))
    by_question = {}
    for ex in examples:
        by_question.setdefault(ex.question, []).append(ex)
    for group in by_question.values():
        positives = [ex for ex in group if ex.label == 1]
        negatives = [ex for ex in group if ex.label == 0]
        assert len(positives) == 1
        assert len(negatives) == 4
        assert positives[0].article_id not in {ex.article_id for ex in negatives}
        pairs = {(ex.question, ex.article_id) for ex in group}
        assert len(pairs) == len(group)


def test_weak_positive_question_is_cleaned_title():
    articles = _titled_articles(6)
    by_id = {a.article_id: a for a in articles}
    for ex in generate_weak_dataset(articles, PipelineConfig(weak_seed=0)):
        if ex.label == 1:
            assert ex.question == clean_text(by_id[ex.article_id].title)


def test_negative_sampling_close_to_uniform():
    """Each candidate's inclusion count stays within 3 sigma of uniform.

    Seeds are spread out; consecutive Mersenne seeds correlate enough to
    push single bins past 3 sigma.
    """
    articles = _titled_articles(20)
    target = "a00"
    candidates = [a.article_id for a in articles if a.article_id != target]
    trials = 1500
    counts = dict.fromkeys(candidates, 0)
    for trial in range(trials):
        examples = generate_weak_dataset(articles, PipelineConfig(weak_seed=trial * 9973 + 17))
        group = [
            ex.article_id
            for ex in examples
            if ex.label == 0 and ex.question == clean_text("Topic 0 heading words")
        ]
        assert len(group) == 4
        for article_id in group:
            counts[article_id] += 1
    p = 4 / 19
    sigma = math.sqrt(trials * p * (1 - p))
    for article_id, count in counts.items():
        assert abs(count - trials * p) <= 3 * sigma, article_id


def test_dataset_stats_edge_cases():
    empty = dataset_stats([])
    assert (empty.total, empty.positives, empty.negatives, empty.ratio) == (0, 0, 0, 0.0)
    dup = dataset_stats(
        [
            TrainingExample("q", "a", 1),
            TrainingExample("q", "a", 1),
        ]
    )
    assert dup.duplicate_pairs == 1


def test_training_example_validation():
    with pytest.raises(ValueError):
        TrainingExample("q", "a", 2)


def test_gold_examples_structure():
    articles = _titled_articles(12)
    pairs = [("how is topic three handled", ["a03", "a04"]), ("topic nine rules", ["a09"])]
    examples = generate_gold_examples(pairs, articles, PipelineConfig(weak_seed=5))
    stats = dataset_stats(examples)
    assert stats.positives == 3
    assert stats.negatives == 12
    first = [ex for ex in examples if ex.question == pairs[0][0]]
    gold_ids = {"a03", "a04"}
    assert {ex.article_id for ex in first if ex.label == 1} == gold_ids
    assert not gold_ids & {ex.article_id for ex in first if ex.label == 0}


def test_gold_examples_empty_gold_set_rejected():
    with pytest.raises(ValueError, match="empty gold"):
        generate_gold_examples([("q", [])], _titled_articles(10), PipelineConfig(weak_seed=0))


def test_dataset_file_round_trip(tmp_path):
    examples = generate_weak_dataset(_titled_articles(8), PipelineConfig(weak_seed=2))
    path = tmp_path / "weak.jsonl"
    write_dataset(examples, path)
    assert read_dataset(path) == examples


def test_dataset_write_that_fails_midway_leaves_the_old_file(tmp_path):
    examples = generate_weak_dataset(_titled_articles(8), PipelineConfig(weak_seed=2))
    path = tmp_path / "weak.jsonl"
    write_dataset(examples, path)
    before = path.read_bytes()

    def interrupted():
        yield from examples[:3]
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        write_dataset(interrupted(), path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # the partial file is removed


def test_a_dataset_file_with_origin_keys_reads_to_the_same_examples(tmp_path):
    """Lines hold a question, an article id and a label. Older files also
    carried each example's "origin"; that key is read past."""
    examples = generate_weak_dataset(_titled_articles(8), PipelineConfig(weak_seed=2))
    path = tmp_path / "weak.jsonl"
    write_dataset(examples, path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert all(record.keys() == {"question", "article_id", "label"} for record in records)
    old = tmp_path / "old.jsonl"
    old.write_text("".join(
        json.dumps({**record, "origin": origin}, sort_keys=True) + "\n"
        for record, origin in zip(records, ["weak", "gold"] * len(records))
    ))
    assert read_dataset(old) == read_dataset(path) == examples


GOOD_RECORD = {"question": "q", "article_id": "a", "label": 1}


@pytest.mark.parametrize(
    "line, message",
    [
        (json.dumps({**GOOD_RECORD, "label": True}), "label must be"),
        (json.dumps({**GOOD_RECORD, "label": "1"}), "label must be"),
        (json.dumps({**GOOD_RECORD, "label": 1.7}), "label must be"),
        (json.dumps({**GOOD_RECORD, "label": 2}), "label must be"),
        (json.dumps({**GOOD_RECORD, "question": 3}), "question and article_id"),
        (json.dumps({**GOOD_RECORD, "article_id": None}), "question and article_id"),
        ("[1, 2]", "record must be a JSON object"),
        ('{"question": "q",', "invalid JSON: "),
    ],
    ids=["label-true", "label-string", "label-float", "label-two", "question-number",
         "article-null", "list-record", "invalid-json"],
)
def test_dataset_file_malformed_record_names_the_line(tmp_path, line, message):
    """Line 3, after a good record and a blank line, which still counts."""
    path = tmp_path / "weak.jsonl"
    path.write_text(json.dumps(GOOD_RECORD) + "\n\n" + line + "\n")
    with pytest.raises(ValueError, match=f"weak.jsonl:3: {re.escape(message)}"):
        read_dataset(path)


def _filtered_list_negatives(question, exclude, pool, count, rng):
    """The sampler as first written: O(N) per call, rebuilding the pool."""
    candidates = [article_id for article_id in pool if article_id not in exclude]
    if len(candidates) < count:
        raise ValueError("corpus too small")
    return [
        TrainingExample(question, article_id, 0)
        for article_id in rng.sample(candidates, count)
    ]


def _reference_weak(articles, cfg):
    pool = [a.article_id for a in articles]
    rng = random.Random(cfg.weak_seed)
    examples = []
    for article in articles:
        question = clean_text(article.title or "")
        if question:
            examples.append(TrainingExample(question, article.article_id, 1))
            examples += _filtered_list_negatives(
                question, {article.article_id}, pool, cfg.weak_negative_ratio, rng
            )
    return examples


def _reference_gold(pairs, articles, cfg):
    pool = [a.article_id for a in articles]
    rng = random.Random(cfg.weak_seed)
    examples = []
    for question, gold in pairs:
        examples += [TrainingExample(question, a, 1) for a in gold]
        examples += _filtered_list_negatives(
            question, set(gold), pool, cfg.weak_negative_ratio * len(gold), rng
        )
    return examples


@pytest.mark.parametrize("n", [5, 9, 30, 400])
@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_weak_sampling_draws_the_filtered_list_stream(n, seed):
    """Index shifting gives the examples of sampling the rebuilt pool list,
    one title question per article: a title that cleans like another's and
    an id that two articles share are each asked of their own article."""
    articles = _titled_articles(n, untitled={2, 3}) + [
        Article("a90", "d90", "Topic 3 heading words", "Body text of one."),
        Article("a91", "d90", "topic 3: heading words", "Body text of another."),
        Article("a01", "d91", "Topic 1 heading, again", "Body text of a twin."),
    ]
    assert clean_text(articles[-3].title) == clean_text(articles[-2].title)
    cfg = PipelineConfig(weak_seed=seed)
    assert generate_weak_dataset(articles, cfg) == _reference_weak(articles, cfg)


@pytest.mark.parametrize("n", [12, 40, 400])
@pytest.mark.parametrize("seed", [0, 3, 99])
def test_gold_sampling_draws_the_filtered_list_stream(n, seed):
    """Gold sets of several ids, repeated ids and ids outside the corpus."""
    articles = _titled_articles(n)
    rng = random.Random(seed)
    ids = [a.article_id for a in articles]
    pairs = [
        (f"question {i}", rng.sample(ids, rng.randint(1, 2)) + extra)
        for i, extra in enumerate([[], ["a00"], ["ghost"], [], ["a01", "a01"]])
    ]
    cfg = PipelineConfig(weak_negative_ratio=2, weak_seed=seed)
    assert generate_gold_examples(pairs, articles, cfg) == _reference_gold(
        pairs, articles, cfg
    )
