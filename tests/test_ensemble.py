import json
import math
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import fusion_oracle
from conftest import pairs
from statuteqa.corpus import clean_text, tokenize
from statuteqa.dense import dense_retrieve_topk
from statuteqa.lexical import score_query
from statuteqa.pipeline import Pipeline, PipelineConfig
from statuteqa.ensemble import (
    DEFAULT_THRESHOLDS,
    AnswerSet,
    RankedCandidate,
    Ranking,
    answer_set_to_json,
    combine,
    default_threshold,
    minmax_normalize,
    rank_and_select,
    select_answer_set,
    top_k_positions,
)


def _candidate(article_id, combined):
    return RankedCandidate(article_id, 0.0, 0.0, 0.0, 0.0, combined)


def _select(candidates, threshold):
    """``select_answer_set`` on the candidates' ids and combined scores."""
    ids = np.array([c.article_id for c in candidates])
    combined = np.array([c.combined for c in candidates])
    keep = select_answer_set(ids, combined, threshold)
    return [candidates[i] for i in keep]


def test_minmax_examples():
    assert minmax_normalize(np.array([2.0, 4.0, 6.0])).tolist() == [0.0, 0.5, 1.0]
    assert minmax_normalize(np.array([5.0])).tolist() == [1.0]
    assert minmax_normalize(np.array([3.0, 3.0, 3.0])).tolist() == [1.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        minmax_normalize(np.zeros(0))


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
def test_minmax_range_and_extremes(scores):
    normalized = minmax_normalize(np.array(scores))
    assert all(0.0 <= v <= 1.0 for v in normalized)
    assert max(normalized) == 1.0
    if max(scores) > min(scores):
        assert normalized[scores.index(min(scores))] == 0.0
        assert normalized[scores.index(max(scores))] == 1.0


def test_combine_examples():
    qs, ss = np.array([0.3, 0.8]), np.array([0.9, 0.6])
    assert combine(qs, ss, 1.0).tolist() == [0.3, 0.8]
    assert combine(qs, ss, 0.0).tolist() == [0.9, 0.6]
    assert combine(qs, ss, 0.5)[1] == pytest.approx(0.7)


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


# a few exactly representable values, so exact ties and gaps equal to a
# threshold occur
STEPS = (0.0, 0.25, 0.5, 0.75, 1.0)


@given(
    st.lists(st.sampled_from(STEPS) | st.floats(0, 1), min_size=1, max_size=20),
    st.sampled_from(STEPS) | st.floats(0, 1.2),
    st.sampled_from(STEPS) | st.floats(0, 1.2),
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
    for threshold, got in ((low, small), (high, large)):
        want = fusion_oracle.select_answer_set(candidates, threshold)
        assert [c.article_id for c in got] == [c.article_id for c in want]


any_score = st.floats(allow_nan=False)  # infinities and -0.0 included


@st.composite
def one_tie_group(draw):
    """Most of the array one value (41,037 of 50,000 in a dense 50k
    question's max-cosines), the rest anything, in any order."""
    n = draw(st.integers(5, 60))
    others = draw(st.lists(any_score, max_size=n // 5))
    tie = draw(any_score)
    return draw(st.permutations([tie] * (n - len(others)) + others))


@given(
    st.one_of(
        st.lists(any_score, max_size=50),
        one_tie_group(),
        st.lists(st.sampled_from([-0.0, 0.0, math.ulp(0.0), 1.0, -1.0]), max_size=50),
    ),
    st.integers(1, 55),
    st.sampled_from([-math.inf, math.ulp(0.0)]) | any_score,
)
@example([], 1, -math.inf)  # the empty array
@example([2.0, 1.0, 1.0], 3, -math.inf)  # k equal to the size
@example([1.0, 2.0, 1.0], 7, -math.inf)  # k above the size
@example([0.0, -0.0, 0.0, -0.0, 1.0], 2, -math.inf)  # signed zeros tie
@example([0.0, 3.0, -0.0, 0.0], 2, math.ulp(0.0))  # fewer positive than k
@example([0.0, 3.0, 1.0, -0.0], 2, math.ulp(0.0))  # exactly k positive
@example([2.0, 3.0, 1.0, 0.0, 2.0], 2, math.ulp(0.0))  # more positive than k
def test_top_k_positions_matches_a_full_sort(scores, k, floor):
    got = top_k_positions(np.array(scores, dtype=np.float64), k, floor)
    assert got.tolist() == fusion_oracle.top_k_positions(scores, k, floor)


def test_default_thresholds_table():
    assert DEFAULT_THRESHOLDS == {20: 0.38, 50: 0.28, 100: 0.26, 200: 0.26, 500: 0.25, 1000: 0.2}
    assert default_threshold(200) == 0.26
    assert default_threshold(10) == 0.38   # nearest listed size
    assert default_threshold(4000) == 0.2
    assert PipelineConfig(top_k=50).effective_threshold() == 0.28
    assert PipelineConfig(top_k=50, threshold=0.1).effective_threshold() == 0.1


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
        """Table scores of a ranking's ids, or of articles as the list-based
        reference hands them."""
        if isinstance(candidates, Ranking):
            ids = candidates.ids()
        else:
            ids = [a.article_id for a in candidates]
        return [self.table.get(article_id, self.default) for article_id in ids]


def test_rank_and_select_returns_gold_on_fixture(synth):
    cfg = PipelineConfig(gamma=0.5, top_k=10, threshold=0.26)
    for query in synth.queries[:20]:
        answer = rank_and_select(
            query.question_id, query.question, synth.ranked(query.question, cfg.top_k),
            synth.scorer, cfg,
        )
        assert not answer.no_candidates
        returned = {c.article_id for c in answer.returned}
        assert query.gold_article_ids <= returned


def test_rank_and_select_no_candidates(synth):
    cfg = PipelineConfig(top_k=10)
    question = "zzz unseen gibberish"
    answer = rank_and_select(
        "qx", question, synth.ranked(question, cfg.top_k), ConstantScorer(), cfg,
    )
    assert answer.no_candidates
    assert answer.returned == ()


def test_gamma_one_preserves_quickview_order(synth):
    question = synth.queries[5].question
    cfg = PipelineConfig(gamma=1.0, top_k=10, threshold=1.1)
    answer = rank_and_select(
        "q", question, synth.ranked(question, 10), ConstantScorer(), cfg
    )
    by_quickview = sorted(answer.returned, key=lambda c: (-c.qs_raw, c.article_id))
    assert [c.article_id for c in answer.returned] == [c.article_id for c in by_quickview]


def test_gamma_zero_preserves_supervised_order(synth):
    question = synth.queries[5].question
    ranked = synth.ranked(question, 10)
    table = {article_id: 1.0 - i * 0.05 for i, article_id in enumerate(sorted(ranked.ids()))}
    cfg = PipelineConfig(gamma=0.0, top_k=10, threshold=1.1)
    answer = rank_and_select("q", question, ranked, LookupScorer(table), cfg)
    by_supervised = sorted(answer.returned, key=lambda c: (-c.ss_raw, c.article_id))
    assert [c.article_id for c in answer.returned] == [c.article_id for c in by_supervised]


def test_quickview_scale_invariance(synth):
    """Scaling every raw quickview score by c > 0 leaves the answer set alone."""
    question = synth.queries[7].question
    cfg = PipelineConfig(gamma=0.5, top_k=10, threshold=0.26)
    base = rank_and_select(
        "q", question, synth.ranked(question, 10), ConstantScorer(0.4), cfg
    )
    # same pipeline with alpha, beta scaled by 3 -> raw quickview scores scale by 3
    scaled = rank_and_select(
        "q", question, synth.ranked(question, 10, PipelineConfig(alpha=4.5, beta=3.0)),
        ConstantScorer(0.4), cfg,
    )
    assert [c.article_id for c in base.returned] == [c.article_id for c in scaled.returned]
    for b, s in zip(base.returned, scaled.returned):
        assert s.qs_norm == pytest.approx(b.qs_norm, abs=1e-12)
        assert s.combined == pytest.approx(b.combined, abs=1e-12)


def test_normalized_scores_in_unit_interval(synth):
    cfg = PipelineConfig(gamma=0.5, top_k=10, threshold=1.1)
    for query in synth.queries[:10]:
        answer = rank_and_select(
            query.question_id, query.question, synth.ranked(query.question, cfg.top_k),
            synth.scorer, cfg,
        )
        for c in answer.returned:
            assert 0.0 <= c.qs_norm <= 1.0
            assert 0.0 <= c.ss_norm <= 1.0
            assert 0.0 <= c.combined <= 1.0


def test_dense_quickview_source(synth):
    cfg = PipelineConfig(gamma=1.0, top_k=5, threshold=1.1, quickview_source="dense")
    pipeline = Pipeline(cfg, synth.articles, synth.lex, synth.dense, ConstantScorer())
    query = synth.queries[0]
    ranked = pipeline.quickview_rank(query.question, 5)
    assert pairs(ranked) == pairs(dense_retrieve_topk(synth.dense, query.question, 5, synth.tok))
    answer = pipeline.answer(query.question_id, query.question)
    assert [c.article_id for c in answer.returned] == ranked.ids()


def test_pipeline_answer_rejects_top_k_below_one(synth):
    pipeline = Pipeline(PipelineConfig(), synth.articles, synth.lex, synth.dense, ConstantScorer())
    with pytest.raises(ValueError, match="top_k must be >= 1"):
        pipeline.answer("q", synth.queries[0].question, top_k=0)


def test_answer_set_json_shape():
    answer = AnswerSet("q1", (RankedCandidate("a", 2.0, 1.0, 0.6, 1.0, 1.0),))
    record = json.loads(answer_set_to_json(answer))
    assert record == {
        "question_id": "q1",
        "returned": [{"article_id": "a", "qs": 1.0, "ss": 1.0, "combined": 1.0}],
    }


def _ranked_ids(synth, question, k=10):
    return synth.ranked(question, k).ids()


def _both(synth, question, scorer, cfg):
    """rank_and_select and the list-based reference on the same inputs; the
    reference hands the scorer the candidates' articles."""
    ranked = synth.ranked(question, cfg.top_k)
    return (
        rank_and_select("q", question, ranked, scorer, cfg),
        fusion_oracle.rank_and_select("q", question, ranked, scorer, synth.by_id, cfg),
    )


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
                    cfg = PipelineConfig(gamma=gamma, top_k=50, threshold=threshold)
                    _assert_same(*_both(synth, query.question, scorer, cfg))


def test_rank_and_select_breaks_exact_ties_by_id(synth):
    question = synth.queries[2].question
    ranked = _ranked_ids(synth, question)
    tied = sorted(ranked)[-3:]  # tie the three largest ids at the top score
    scorer = LookupScorer({a: 0.9 for a in tied}, default=0.1)
    got, want = _both(synth, question, scorer, PipelineConfig(gamma=0.0, top_k=10, threshold=0.0))
    _assert_same(got, want)
    assert [c.article_id for c in got.returned] == tied


def test_rank_and_select_gap_equal_to_threshold(synth):
    question = synth.queries[2].question
    first, second = _ranked_ids(synth, question)[-2:]
    scorer = LookupScorer({first: 1.0, second: 0.75}, default=0.5)  # ss_norm 1, 0.5, 0
    for threshold, size in ((0.5, 1), (0.5000001, 2)):
        cfg = PipelineConfig(gamma=0.0, top_k=10, threshold=threshold)
        got, want = _both(synth, question, scorer, cfg)
        _assert_same(got, want)
        assert [c.article_id for c in got.returned] == [first, second][:size]


def test_rank_and_select_constant_scores(synth):
    question = synth.queries[4].question
    got, want = _both(synth, question, ConstantScorer(0.7), PipelineConfig(gamma=0.4, top_k=10))
    _assert_same(got, want)
    assert all(c.ss_norm == 1.0 for c in got.returned)


def test_rank_and_select_rejects_a_short_score_list(synth):
    class OneScore:
        def score_batch(self, question, candidates):
            return [0.5]

    with pytest.raises(ValueError, match="scores for"):
        question = synth.queries[0].question
        rank_and_select(
            "q", question, synth.ranked(question, 10), OneScore(),
            PipelineConfig(top_k=10),
        )


def test_ranking_is_a_record(synth):
    """A ranking is read through ``ids()``, ``positions`` and ``scores``;
    it is not a list: no integer index and no equality with pairs."""
    ranked = synth.ranked(synth.queries[0].question, 10)
    assert isinstance(ranked, Ranking) and not isinstance(ranked, Sequence)
    assert ranked.article_ids is synth.lex.article_ids
    assert ranked.positions.dtype == np.int64 and ranked.scores.dtype == np.float64
    ids = [synth.lex.article_ids[p] for p in ranked.positions.tolist()]
    assert len(ranked) == len(ids) > 2 and ranked.ids() == ids
    for index in (0, -1, np.int64(1)):
        with pytest.raises(TypeError):
            ranked[index]
    assert ranked != pairs(ranked) and ranked != tuple(pairs(ranked))
    head = ranked[:3]
    assert isinstance(head, Ranking) and head.article_ids is ranked.article_ids
    assert pairs(head) == pairs(ranked)[:3]
    odd = ranked[1::2]
    assert odd.positions.tolist() == ranked.positions.tolist()[1::2]
    assert pairs(odd) == pairs(ranked)[1::2]
    # perfbench/checks.py iterates a ranking as (str, float) pairs
    assert list(ranked) == pairs(ranked)
    for article_id, score in ranked:
        assert type(article_id) is str and type(score) is float


def test_empty_ranking_has_no_candidates(synth):
    for empty in (
        synth.ranked("zzz unseen gibberish", 10),
        dense_retrieve_topk(synth.dense, "???", 5, synth.tok),
    ):
        assert isinstance(empty, Ranking) and len(empty) == 0 and not empty
        assert empty.ids() == [] and empty.positions.size == empty.scores.size == 0
        assert len(empty[:3]) == 0 and list(empty) == []


def test_dense_ranking_carries_its_sentence_cosines(synth):
    question = synth.queries[2].question
    ranked = dense_retrieve_topk(synth.dense, question, 10, synth.tok)
    assert ranked.cosines.shape == (int(synth.dense.offsets[-1]),)
    assert ranked[:4].cosines is ranked.cosines
    assert ranked.tokens == tuple(tokenize(clean_text(question), synth.tok))
    assert ranked.field_scores is None
    assert synth.ranked(question, 10).cosines is None


def test_lexical_ranking_carries_its_bm25_pass(synth):
    question = synth.queries[2].question
    tokens = tokenize(clean_text(question), synth.tok)
    ranked = synth.ranked(question, 10)
    assert ranked.tokens == tuple(tokens)
    want = score_query(synth.lex, tokens)
    for field in ("title", "content"):
        for got, expected in zip(ranked.field_scores[field], want[field]):
            assert got.tobytes() == expected.tobytes()
    head = ranked[:4]
    assert head.field_scores is ranked.field_scores and head.tokens is ranked.tokens
