import json

import pytest
from hypothesis import given, strategies as st

import fusion_oracle
from statuteqa.corpus import clean_text, tokenize
from statuteqa.lexical import QuickviewConfig, retrieve_topk
from statuteqa.ensemble import (
    DEFAULT_THRESHOLDS,
    AnswerSet,
    EnsembleConfig,
    RankedCandidate,
    answer_set_to_json,
    combine,
    default_threshold,
    minmax_normalize,
    rank_and_select,
    select_answer_set,
)


def _candidate(article_id, combined):
    return RankedCandidate(article_id, 0.0, 0.0, 0.0, 0.0, combined)


def _select(candidates, threshold):
    """``select_answer_set`` on the candidates' ids and combined scores."""
    ids = [c.article_id for c in candidates]
    keep = select_answer_set(ids, [c.combined for c in candidates], threshold)
    return [candidates[i] for i in keep]


def test_minmax_examples():
    assert minmax_normalize([2, 4, 6]).tolist() == [0.0, 0.5, 1.0]
    assert minmax_normalize([5]).tolist() == [1.0]
    assert minmax_normalize([3, 3, 3]).tolist() == [1.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        minmax_normalize([])


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
def test_minmax_range_and_extremes(scores):
    normalized = minmax_normalize(scores)
    assert all(0.0 <= v <= 1.0 for v in normalized)
    assert max(normalized) == 1.0
    if max(scores) > min(scores):
        assert normalized[scores.index(min(scores))] == 0.0
        assert normalized[scores.index(max(scores))] == 1.0


def test_combine_examples():
    assert combine(0.3, 0.9, 1.0) == 0.3
    assert combine(0.3, 0.9, 0.0) == 0.9
    assert combine(0.8, 0.6, 0.5) == pytest.approx(0.7)


def test_selection_rule_example():
    candidates = [_candidate(c, s) for c, s in zip("abcd", [1.0, 0.8, 0.7, 0.5])]
    returned = _select(candidates, 0.26)
    assert [c.article_id for c in returned] == ["a", "b"]


def test_selection_threshold_zero_keeps_top_and_exact_ties():
    candidates = [_candidate("b", 1.0), _candidate("a", 1.0), _candidate("c", 0.99)]
    returned = _select(candidates, 0.0)
    assert [c.article_id for c in returned] == ["a", "b"]


def test_selection_strict_inequality_at_exact_gap():
    candidates = [_candidate("a", 1.0), _candidate("b", 0.75)]
    assert len(_select(candidates, 0.25)) == 1  # gap == threshold: excluded
    assert len(_select(candidates, 0.2500001)) == 2


def test_selection_size_monotone_in_threshold():
    candidates = [_candidate(f"c{i}", 1.0 - i * 0.07) for i in range(10)]
    sizes = [len(_select(candidates, t / 20)) for t in range(21)]
    assert sizes == sorted(sizes)
    assert all(size >= 1 for size in sizes)


@given(
    st.lists(st.floats(0, 1), min_size=1, max_size=20),
    st.floats(0, 1.2),
    st.floats(0, 1.2),
)
def test_selection_properties_random(combined, t1, t2):
    candidates = [_candidate(f"c{i:02d}", s) for i, s in enumerate(combined)]
    low, high = sorted((t1, t2))
    small = _select(candidates, low)
    large = _select(candidates, high)
    assert len(small) >= 1  # top candidate always returned
    assert len(small) <= len(large)
    best = max(combined)
    assert small[0].combined == best


def test_default_thresholds_table():
    assert DEFAULT_THRESHOLDS == {20: 0.38, 50: 0.28, 100: 0.26, 200: 0.26, 500: 0.25, 1000: 0.2}
    assert default_threshold(200) == 0.26
    assert default_threshold(10) == 0.38   # nearest listed size
    assert default_threshold(4000) == 0.2
    assert EnsembleConfig(top_k=50).effective_threshold() == 0.28
    assert EnsembleConfig(top_k=50, threshold=0.1).effective_threshold() == 0.1


def test_ensemble_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(gamma=1.5)
    with pytest.raises(ValueError):
        EnsembleConfig(top_k=0)
    with pytest.raises(ValueError):
        EnsembleConfig(threshold=-0.1)
    with pytest.raises(ValueError):
        EnsembleConfig(quickview_source="graph")


class ConstantScorer:
    def __init__(self, value=0.5):
        self.value = value

    def score_batch(self, question, candidates):
        return [self.value] * len(candidates)


class LookupScorer:
    def __init__(self, table, default=0.01):
        self.table = table
        self.default = default

    def score_batch(self, question, candidates):
        return [self.table.get(a.article_id, self.default) for a in candidates]


def test_rank_and_select_returns_gold_on_fixture(synth):
    cfg = EnsembleConfig(gamma=0.5, top_k=10, threshold=0.26)
    for query in synth.queries[:20]:
        answer = rank_and_select(
            query.question_id, query.question, synth.lex, synth.scorer,
            synth.by_id, cfg, tok=synth.tok, dense=synth.dense,
        )
        assert not answer.no_candidates
        returned = {c.article_id for c in answer.returned}
        assert query.gold_article_ids <= returned


def test_rank_and_select_no_candidates(synth):
    cfg = EnsembleConfig(top_k=10)
    answer = rank_and_select(
        "qx", "zzz unseen gibberish", synth.lex, ConstantScorer(),
        synth.by_id, cfg, tok=synth.tok,
    )
    assert answer.no_candidates
    assert answer.returned == ()


def test_gamma_one_preserves_quickview_order(synth):
    question = synth.queries[5].question
    cfg = EnsembleConfig(gamma=1.0, top_k=10, threshold=1.1)
    answer = rank_and_select(
        "q", question, synth.lex, ConstantScorer(), synth.by_id, cfg,
        tok=synth.tok,
    )
    by_quickview = sorted(answer.returned, key=lambda c: (-c.qs_raw, c.article_id))
    assert [c.article_id for c in answer.returned] == [c.article_id for c in by_quickview]


def test_gamma_zero_preserves_supervised_order(synth):
    question = synth.queries[5].question
    tokens = tokenize(clean_text(question), synth.tok)
    ranked = [a for a, _ in retrieve_topk(synth.lex, tokens, 10)]
    table = {article_id: 1.0 - i * 0.05 for i, article_id in enumerate(sorted(ranked))}
    cfg = EnsembleConfig(gamma=0.0, top_k=10, threshold=1.1)
    answer = rank_and_select(
        "q", question, synth.lex, LookupScorer(table), synth.by_id, cfg,
        tok=synth.tok,
    )
    by_supervised = sorted(answer.returned, key=lambda c: (-c.ss_raw, c.article_id))
    assert [c.article_id for c in answer.returned] == [c.article_id for c in by_supervised]


def test_quickview_scale_invariance(synth):
    """Scaling every raw quickview score by c > 0 leaves the answer set alone."""
    question = synth.queries[7].question
    cfg = EnsembleConfig(gamma=0.5, top_k=10, threshold=0.26)
    base = rank_and_select(
        "q", question, synth.lex, ConstantScorer(0.4), synth.by_id, cfg,
        tok=synth.tok,
    )
    # same pipeline with alpha, beta scaled by 3 -> raw quickview scores scale by 3
    scaled = rank_and_select(
        "q", question, synth.lex, ConstantScorer(0.4), synth.by_id, cfg,
        quickview_cfg=QuickviewConfig(alpha=4.5, beta=3.0), tok=synth.tok,
    )
    assert [c.article_id for c in base.returned] == [c.article_id for c in scaled.returned]
    for b, s in zip(base.returned, scaled.returned):
        assert s.qs_norm == pytest.approx(b.qs_norm, abs=1e-12)
        assert s.combined == pytest.approx(b.combined, abs=1e-12)


def test_normalized_scores_in_unit_interval(synth):
    cfg = EnsembleConfig(gamma=0.5, top_k=10, threshold=1.1)
    for query in synth.queries[:10]:
        answer = rank_and_select(
            query.question_id, query.question, synth.lex, synth.scorer,
            synth.by_id, cfg, tok=synth.tok, dense=synth.dense,
        )
        for c in answer.returned:
            assert 0.0 <= c.qs_norm <= 1.0
            assert 0.0 <= c.ss_norm <= 1.0
            assert 0.0 <= c.combined <= 1.0


def test_dense_quickview_source(synth):
    cfg = EnsembleConfig(gamma=1.0, top_k=5, threshold=1.1, quickview_source="dense")
    query = synth.queries[0]
    answer = rank_and_select(
        query.question_id, query.question, synth.lex, ConstantScorer(),
        synth.by_id, cfg, tok=synth.tok, dense=synth.dense,
    )
    assert len(answer.returned) == 5
    with pytest.raises(ValueError, match="dense"):
        rank_and_select(
            "q", query.question, synth.lex, ConstantScorer(), synth.by_id,
            cfg, tok=synth.tok, dense=None,
        )


def test_answer_set_json_shape():
    answer = AnswerSet("q1", (RankedCandidate("a", 2.0, 1.0, 0.6, 1.0, 1.0),))
    record = json.loads(answer_set_to_json(answer))
    assert record == {
        "question_id": "q1",
        "returned": [{"article_id": "a", "qs": 1.0, "ss": 1.0, "combined": 1.0}],
    }


def _ranked_ids(synth, question, k=10):
    return [a for a, _ in retrieve_topk(synth.lex, tokenize(clean_text(question), synth.tok), k)]


def _both(synth, question, scorer, cfg):
    """rank_and_select and the list-based reference on the same inputs."""
    args = ("q", question, synth.lex, scorer, synth.by_id, cfg)
    got = rank_and_select(*args, quickview_cfg=QuickviewConfig(), tok=synth.tok)
    want = fusion_oracle.rank_and_select(*args, QuickviewConfig(), synth.tok)
    return got, want


def _assert_same(got, want):
    assert [c.article_id for c in got.returned] == [c.article_id for c in want.returned]
    assert [c.combined.hex() for c in got.returned] == [c.combined.hex() for c in want.returned]
    assert got == want


def test_rank_and_select_matches_list_reference(synth):
    """Array fusion and selection equal the list-based reference exactly,
    for the trained scorer and for table scores with many exact ties."""
    for query in synth.queries[:25]:
        ranked = _ranked_ids(synth, query.question, 50)
        coarse = LookupScorer({a: round((i * 7 % 5) / 4, 2) for i, a in enumerate(ranked)})
        for scorer in (synth.scorer, coarse, ConstantScorer(0.3)):
            for gamma in (0.0, 0.3, 0.5, 1.0):
                for threshold in (0.0, 0.26, 0.5, 1.1):
                    cfg = EnsembleConfig(gamma=gamma, top_k=50, threshold=threshold)
                    _assert_same(*_both(synth, query.question, scorer, cfg))


def test_rank_and_select_breaks_exact_ties_by_id(synth):
    question = synth.queries[2].question
    ranked = _ranked_ids(synth, question)
    tied = sorted(ranked)[-3:]  # tie the three largest ids at the top score
    scorer = LookupScorer({a: 0.9 for a in tied}, default=0.1)
    got, want = _both(synth, question, scorer, EnsembleConfig(gamma=0.0, top_k=10, threshold=0.0))
    _assert_same(got, want)
    assert [c.article_id for c in got.returned] == tied


def test_rank_and_select_gap_equal_to_threshold(synth):
    question = synth.queries[2].question
    first, second = _ranked_ids(synth, question)[-2:]
    scorer = LookupScorer({first: 1.0, second: 0.75}, default=0.5)  # ss_norm 1, 0.5, 0
    for threshold, size in ((0.5, 1), (0.5000001, 2)):
        cfg = EnsembleConfig(gamma=0.0, top_k=10, threshold=threshold)
        got, want = _both(synth, question, scorer, cfg)
        _assert_same(got, want)
        assert [c.article_id for c in got.returned] == [first, second][:size]


def test_rank_and_select_constant_scores(synth):
    question = synth.queries[4].question
    got, want = _both(synth, question, ConstantScorer(0.7), EnsembleConfig(gamma=0.4, top_k=10))
    _assert_same(got, want)
    assert all(c.ss_norm == 1.0 for c in got.returned)


def test_rank_and_select_rejects_a_short_score_list(synth):
    class OneScore:
        def score_batch(self, question, candidates):
            return [0.5]

    with pytest.raises(ValueError, match="scores for"):
        rank_and_select(
            "q", synth.queries[0].question, synth.lex, OneScore(), synth.by_id,
            EnsembleConfig(top_k=10), tok=synth.tok,
        )
