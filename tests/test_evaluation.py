import json
import re

import numpy as np
import pytest

from statuteqa.ensemble import AnswerSet, RankedCandidate, Ranking
from statuteqa.evaluation import (
    EvalReport,
    GoldQuery,
    f2,
    load_gold_file,
    precision_recall,
    recall_at_k,
    run_eval,
    save_report,
    split_train_valid,
    write_gold_file,
)


def _answer(question_id, ids):
    returned = tuple(RankedCandidate(a, 0, 0, 0, 0, 1.0) for a in ids)
    return AnswerSet(question_id, returned)


def test_recall_at_k_examples():
    assert recall_at_k(["a", "x", "y"], {"a", "b"}, 3) == 0.5
    assert recall_at_k(["a", "b", "y"], {"a", "b"}, 3) == 1.0
    assert recall_at_k(["x", "y"], {"a"}, 2) == 0.0
    with pytest.raises(ValueError):
        recall_at_k(["a"], set(), 1)
    with pytest.raises(ValueError):
        recall_at_k(["a"], {"a"}, 0)


def test_recall_at_k_monotone_in_k():
    ranked = [f"c{i}" for i in range(30)]
    gold = {"c3", "c11", "c29"}
    values = [recall_at_k(ranked, gold, k) for k in range(1, 31)]
    assert values == sorted(values)
    assert values[-1] == 1.0


def test_precision_recall_examples():
    p, r = precision_recall(_answer("q", ["a", "b", "c"]), {"a", "d"})
    assert (p, r) == (pytest.approx(1 / 3), 0.5)
    assert precision_recall(_answer("q", ["a", "d"]), {"a", "d"}) == (1.0, 1.0)
    assert precision_recall(_answer("q", []), {"a"}) == (0.0, 0.0)


def test_f2_paper_rows():
    assert f2(0.2399, 0.4454) == pytest.approx(0.3803, abs=1e-4)
    assert f2(0.1461, 0.6165) == pytest.approx(0.3750, abs=1e-4)
    assert f2(0.4331, 0.6651) == pytest.approx(0.6007, abs=1e-4)


def test_f2_conventions_and_identity():
    assert f2(0.0, 0.0) == 0.0
    for value in (0.1, 0.37, 0.9):
        assert f2(value, value) == pytest.approx(value, abs=1e-12)
    with pytest.raises(ValueError):
        f2(1.2, 0.5)


def _queries(n):
    return [GoldQuery(f"q{i}", f"question {i}", frozenset({f"a{i}"})) for i in range(n)]


def test_split_sizes_and_determinism():
    queries = _queries(10)
    train, valid = split_train_valid(queries, 0.9, seed=4)
    assert len(train) == 9 and len(valid) == 1
    train2, valid2 = split_train_valid(queries, 0.9, seed=4)
    assert train == train2 and valid == valid2
    assert set(train) | set(valid) == set(queries)
    assert not set(train) & set(valid)


def test_split_validation():
    with pytest.raises(ValueError):
        split_train_valid(_queries(1), 0.9)
    with pytest.raises(ValueError):
        split_train_valid(_queries(5), 1.0)
    # extreme ratios still leave both halves non-empty
    train, valid = split_train_valid(_queries(3), 0.999)
    assert len(train) == 2 and len(valid) == 1


def test_gold_query_requires_nonempty_gold():
    with pytest.raises(ValueError):
        GoldQuery("q", "text", frozenset())


_FAKE_IDS = tuple(f"a{i}" for i in range(5))


def _fake_quickview(question):
    n = int(question.split()[-1])
    positions = np.array([(n + offset) % 5 for offset in range(3)])
    return Ranking(_FAKE_IDS, positions, np.array([1.0, 0.9, 0.8]), (), None)


def _fake_answer(question_id, question, ranked):
    n = int(question.split()[-1])
    return _answer(question_id, [f"a{n}", f"a{(n + 1) % 5}"])


def test_run_eval_report_contents():
    queries = _queries(5)
    report = run_eval(queries, _fake_quickview, ks=(1, 2, 3), answer=_fake_answer)
    assert sorted(report.recall_at_k) == [1, 2, 3]
    assert report.recall_at_k[1] == 1.0  # fake ranker puts gold first
    assert report.mean_precision == pytest.approx(0.5)
    assert report.mean_recall == 1.0
    assert report.f2 == pytest.approx(f2(0.5, 1.0))
    assert report.queries == 5 and report.failures == 0
    assert len(report.per_query) == 5
    assert all(row["latency_ms"] >= 0 for row in report.per_query)


def test_run_eval_requires_some_work():
    with pytest.raises(ValueError, match="nothing to evaluate"):
        run_eval(_queries(2), _fake_quickview)
    with pytest.raises(ValueError, match="nothing to evaluate"):
        run_eval(_queries(2), _fake_quickview, ks=(), answer=None)


def test_run_eval_ranks_each_query_once_for_both_metrics():
    rankings, seen = [], []

    def rank(question):
        rankings.append(_fake_quickview(question))
        return rankings[-1]

    def answer(question_id, question, ranked):
        seen.append(ranked)
        return _fake_answer(question_id, question, ranked)

    report = run_eval(_queries(5), rank, ks=(1, 3), answer=answer)
    assert report.failures == 0
    assert len(rankings) == 5
    assert all(got is want for got, want in zip(seen, rankings, strict=True))


def test_run_eval_with_every_query_failed_has_no_aggregates():
    def failing(question_id, question, ranked):
        raise RuntimeError("down")

    report = run_eval(_queries(3), _fake_quickview, ks=(1, 2), answer=failing)
    assert report.failures == report.queries == 3
    assert report.recall_at_k == {}
    assert report.mean_precision is report.mean_recall is report.f2 is None
    assert report.mean_latency_ms is None


def test_run_eval_marks_failures_and_continues():
    def flaky_answer(question_id, question, ranked):
        if question.endswith("2"):
            raise RuntimeError("boom")
        return _fake_answer(question_id, question, ranked)

    report = run_eval(_queries(4), _fake_quickview, answer=flaky_answer)
    assert report.failures == 1
    failed = [row for row in report.per_query if row.get("failed")]
    assert len(failed) == 1 and "boom" in failed[0]["error"]
    assert report.mean_precision is not None  # other queries still aggregated

    # answered and failed questions mixed, with uneven values: each mean is
    # summed over the answered rows, in their order, bit for bit
    def uneven_answer(question_id, question, ranked):
        n = int(question.split()[-1])
        if n % 3 == 2:
            raise RuntimeError("boom")
        return _answer(question_id, ranked[: 1 + n % 4].ids())

    report = run_eval(_queries(10), _fake_quickview, ks=(1, 2), answer=uneven_answer)
    rows = [row for row in report.per_query if not row.get("failed")]
    assert report.failures == 3 and len(rows) == 7
    assert {row["precision"] for row in rows} >= {1.0, 1 / 2, 1 / 3, 0.0}

    def mean(values):
        return sum(values) / len(rows)

    assert report.mean_precision == mean(row["precision"] for row in rows)
    assert report.mean_recall == mean(row["recall"] for row in rows)
    assert report.f2 == f2(report.mean_precision, report.mean_recall)
    assert report.mean_latency_ms == mean(row["latency_ms"] for row in rows)
    assert report.recall_at_k == {
        k: mean(row["recall_at_k"][str(k)] for row in rows) for k in (1, 2)
    }


def test_run_eval_deterministic_apart_from_latency():
    queries = _queries(5)
    r1 = run_eval(queries, _fake_quickview, ks=(1, 2), answer=_fake_answer)
    r2 = run_eval(queries, _fake_quickview, ks=(1, 2), answer=_fake_answer)
    def strip(report):
        d = report.to_dict()
        d.pop("mean_latency_ms")
        for row in d["per_query"]:
            row.pop("latency_ms", None)
        return d
    assert strip(r1) == strip(r2)


def test_metric_paths_agree():
    """Mean recall over answer sets built from top-k equals mean recall@k."""
    queries = _queries(5)
    k = 2

    def topk_answer(question_id, question, ranked):
        return _answer(question_id, ranked[:k].ids())

    report = run_eval(queries, _fake_quickview, ks=(k,), answer=topk_answer)
    assert report.mean_recall == pytest.approx(report.recall_at_k[k], abs=1e-12)


def test_gold_file_round_trip(tmp_path):
    queries = [
        GoldQuery("q1", "первый вопрос", frozenset({"a", "b"})),
        GoldQuery("q2", "câu hỏi thứ hai", frozenset({"c"})),
    ]
    path = tmp_path / "gold.jsonl"
    write_gold_file(queries, path)
    assert load_gold_file(path) == queries


def test_gold_file_write_that_fails_midway_leaves_the_old_file(tmp_path):
    queries = [GoldQuery(f"q{i}", f"question {i}", frozenset({"a"})) for i in range(4)]
    path = tmp_path / "gold.jsonl"
    write_gold_file(queries, path)
    before = path.read_bytes()

    def interrupted():
        yield from queries[:2]
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        write_gold_file(interrupted(), path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # the partial file is removed


@pytest.mark.parametrize(
    "record, message",
    [
        ('{"question_id": "q1", "question": "a", "gold": "306/2015/QH13#865"}', "gold must be"),
        ('{"question_id": "q1", "question": "a", "gold": []}', "query 'q1' has an empty gold set"),
        ('{"question_id": "q1", "question": "a", "gold": [865]}', "gold must be"),
        ("[1, 2]", "record must be a JSON object"),
        ('{"question_id": "q1", "question": 7, "gold": ["x"]}', "question_id and question"),
        ('{"question_id": 1, "question": "a", "gold": ["x"]}', "question_id and question"),
        ('{"question_id": "q1", "question": "a"}', "missing key 'gold'"),
        ('{"question_id": "q1", "gold": ["x"]}', "missing key 'question'"),
        ('{"question_id": "q1", "question":', "invalid JSON: "),
    ],
    ids=["gold-string", "gold-empty", "gold-number", "list-record", "question-number",
         "id-number", "no-gold", "no-question", "invalid-json"],
)
def test_gold_file_malformed_record_names_the_line(tmp_path, record, message):
    """Line 3, after a good record and a blank line, which still counts."""
    path = tmp_path / "gold.jsonl"
    path.write_text('{"question_id": "q0", "question": "b", "gold": ["y"]}\n\n' + record + "\n")
    with pytest.raises(ValueError, match=f"gold.jsonl:3: {re.escape(message)}"):
        load_gold_file(path)


def test_report_file_shape(tmp_path):
    report = EvalReport(recall_at_k={10: 0.5}, mean_latency_ms=1.25, queries=2)
    path = tmp_path / "report.json"
    save_report(report, path)
    data = json.loads(path.read_text())
    assert data["recall_at_k"] == {"10": 0.5}
    assert data["queries"] == 2


def test_report_write_that_fails_midway_leaves_the_old_report(tmp_path):
    path = tmp_path / "report.json"
    save_report(EvalReport(recall_at_k={10: 0.5}, queries=2), path)
    before = path.read_bytes()
    broken = EvalReport(queries=2, per_query=[{"question_id": "q1"}, {"bad": object()}])
    with pytest.raises(TypeError):
        save_report(broken, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # the partial file is removed
