import json
import math
import random
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import feature_oracle
from bm25_oracle import BruteForceBm25
from conftest import field_token_lists, train_two_stage
from feature_oracle import predict
from statuteqa.corpus import Article, TokenizerConfig, clean_text, tokenize
from dense_oracle import cosine, per_article_max_cosine, sentence_rows
from statuteqa.dense import (
    HashedProjectionEmbedder,
    build_dense_index,
    dense_retrieve_topk,
    embed,
)
from statuteqa.ensemble import Ranking, rank_and_select
from statuteqa.lexical import build_lex_index, retrieve_topk
from statuteqa.pipeline import PipelineConfig
from statuteqa.reranker import (
    NUM_FEATURES,
    FeatureExtractor,
    LinearModel,
    ModelScorer,
    cross_entropy_gradient,
    _logits,
    load_model,
    mean_cross_entropy,
    save_model,
    train_stage,
    zero_model,
)
from statuteqa.weak_label import TrainingExample

EMB = HashedProjectionEmbedder(dimension=64, seed=0)


@pytest.fixture(scope="module")
def tiny_setup(tiny_articles):
    lex = build_lex_index(tiny_articles, PipelineConfig())
    dense, _ = build_dense_index(tiny_articles, EMB, TokenizerConfig())
    extractor = FeatureExtractor(lex, dense)
    return tiny_articles, lex, dense, extractor


def _ids(articles):
    return [a.article_id for a in articles]


def test_zero_overlap_features(tiny_setup):
    articles, _, _, extractor = tiny_setup
    f = extractor.rows("zebra quark synergy", ["d1#1"])[0]
    assert f[0] == f[1] == f[3] == f[4] == 0.0
    assert abs(f[2]) < 0.75  # hashed vectors are nearly orthogonal, not exactly
    assert f[7] == 1.0


def test_question_equal_to_title_gives_unit_jaccard(tiny_setup):
    articles, _, _, extractor = tiny_setup
    f = extractor.rows("Law of Contracts", ["d1#1"])[0]
    assert f[3] == 1.0


def test_missing_title_zeroes_title_features(tiny_setup):
    articles, _, _, extractor = tiny_setup
    assert articles[1].title is None
    f = extractor.rows("property law", ["d1#2"])[0]
    assert f[0] == 0.0 and f[3] == 0.0
    assert f[1] > 0.0


def test_fixture_pair_hand_computation(tiny_setup):
    articles, _, dense, extractor = tiny_setup
    question = "civil code obligations"
    f = extractor.rows(question, ["d2#1"])[0]
    assert f[0] == pytest.approx(0.6015659322371294, abs=1e-12)
    assert f[1] == pytest.approx(0.7691562600624373, abs=1e-12)
    question_vector = embed(EMB, question.split())
    expected_f3 = max(
        cosine(question_vector, row) for row in sentence_rows(dense, "d2#1")
    )
    assert f[2] == pytest.approx(expected_f3, abs=1e-12)
    assert f[3] == pytest.approx(2 / 3)
    assert f[4] == pytest.approx(3 / 5)
    assert f[5] == pytest.approx(math.log(4))
    assert f[6] == pytest.approx(math.log(6))
    assert f[7] == 1.0


def test_features_bounded(tiny_setup, synth):
    articles, _, _, extractor = tiny_setup
    questions = ["civil code", "law of contracts", "land registry records titles"]
    for question in questions:
        for f in extractor.rows(question, _ids(articles)):
            assert np.all(np.isfinite(f))
            for i in (0, 1, 3, 4):
                assert 0.0 <= f[i] <= 1.0
            assert -1.0 <= f[2] <= 1.0


def _saturate(score):
    return score / (1.0 + score)


def test_precomputed_view_matches_text_reference(synth):
    """Rows built from one view of the question equal the text-based
    reference: oracle BM25 and set Jaccard exactly, the max cosine of a
    per-article loop within 1e-12. A one-article batch gives the same row."""
    title = BruteForceBm25(field_token_lists(synth.articles, "title"))
    content = BruteForceBm25(field_token_lists(synth.articles, "content"))
    batch = synth.articles[::7]
    lexical = [0, 1, 3, 4, 5, 6, 7]  # every feature but the dense cosine
    for query in synth.queries[:5]:
        question = query.question
        rows = synth.extractor.rows(question, _ids(batch))
        q_tokens = tokenize(clean_text(question), synth.tok)
        vector = embed(synth.embedder, q_tokens)
        cosines = per_article_max_cosine(
            synth.dense, vector, [a.article_id for a in batch]
        )
        for article, shared, max_cosine in zip(batch, rows, cosines):
            alone = synth.extractor.rows(question, [article.article_id])[0]
            assert np.array_equal(alone[lexical], shared[lexical])
            assert alone[2] == pytest.approx(shared[2], abs=1e-12)
            assert shared[2] == pytest.approx(max_cosine, abs=1e-12)

            a_title = set(title.docs.get(article.article_id, ()))
            a_content = set(content.docs[article.article_id])
            q = set(q_tokens)
            assert shared[0] == _saturate(title.score(q_tokens, article.article_id))
            assert shared[1] == _saturate(content.score(q_tokens, article.article_id))
            title_jaccard = len(q & a_title) / len(q | a_title) if a_title else 0.0
            assert shared[3] == title_jaccard
            assert shared[4] == len(q & a_content) / len(q | a_content)
            assert shared[6] == math.log1p(len(content.docs[article.article_id]))


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def test_feature_rows_equal_per_article_oracle(synth, tiny_setup):
    """The batched feature matrix equals the per-article rows bit for bit,
    untitled articles and repeated articles included."""
    articles, _, _, extractor = tiny_setup
    for question in ["civil code", "law of law contracts", "zebra", ""]:
        batch = _ids(articles[::-1] + articles[:1])
        want = feature_oracle.rows(extractor, question, batch)
        assert _bits(extractor.rows(question, batch)) == _bits(want)
    batches = [_ids(b) for b in (synth.articles, synth.articles[::-3], synth.articles[5:6])]
    for query in synth.queries[:10]:
        for batch in batches:
            want = feature_oracle.rows(synth.extractor, query.question, batch)
            assert _bits(synth.extractor.rows(query.question, batch)) == _bits(want)


def test_training_matrix_equals_per_article_oracle(synth):
    x, y = synth.extractor.matrix(synth.weak)
    assert x.shape == (len(synth.weak), NUM_FEATURES)
    assert _bits(x) == _bits(feature_oracle.matrix(synth.extractor, synth.weak))
    assert y.tolist() == [ex.label for ex in synth.weak]


def test_logits_equal_sequential_python_sum(synth):
    """Each logit equals w . f summed as Python floats in feature order, on
    real feature rows and on random rows where ``x @ w`` rounds differently."""
    x = synth.extractor.rows(synth.queries[0].question, _ids(synth.articles))
    rng = np.random.default_rng(3)
    cases = [(synth.model, x)] + [
        (LinearModel(rng.normal(size=NUM_FEATURES)), rng.normal(size=(2000, NUM_FEATURES)))
        for _ in range(5)
    ]
    for model, rows in cases:
        got = _logits(model.weights, rows).tolist()
        assert got == [feature_oracle.logit(model, row) for row in rows]


def test_score_batch_is_batch_independent(synth):
    """A candidate's score has the same bits whatever batch it is scored in:
    permuted, a subset, with duplicates or alone."""
    rng = random.Random(4)
    candidates = synth.articles[:40]
    for query in synth.queries[:5]:
        question = query.question
        full = dict(zip(candidates, synth.scorer.score_batch(question, candidates)))
        shuffled = rng.sample(candidates, len(candidates))
        batches = [shuffled, candidates[::3], candidates + candidates[:7], candidates[9:10]]
        for batch in batches:
            scores = synth.scorer.score_batch(question, batch)
            assert [s.hex() for s in scores] == [full[a].hex() for a in batch]
        for article in candidates[:5]:
            [alone] = synth.scorer.score_batch(question, [article])
            assert alone.hex() == full[article].hex()
            features = synth.extractor.rows(question, [article.article_id])[0]
            assert alone == predict(synth.model, features)


def test_extractor_keeps_no_per_question_state(synth):
    extractor = FeatureExtractor(synth.lex, synth.dense)
    before = {
        name: dict(value) if isinstance(value, Mapping) else value
        for name, value in vars(extractor).items()
    }
    scorer = ModelScorer(synth.model, extractor)
    for query in synth.queries[:6]:
        scorer.score_batch(query.question, synth.articles[:4])
    after = vars(extractor)
    assert after.keys() == before.keys()
    for name, value in after.items():
        if isinstance(value, Mapping):
            assert value == before[name], f"{name} grew while answering"


def test_unknown_article_rejected(tiny_setup):
    articles, _, _, extractor = tiny_setup
    with pytest.raises(ValueError, match="'ghost' not in the indexes"):
        extractor.rows("anything", ["d1#1", "ghost"])
    with pytest.raises(ValueError, match="'ghost' not in the indexes"):
        extractor.matrix([TrainingExample("anything", "ghost", 1)])


# Letters (with a capital and a final sigma, which lowercase by context),
# digits, sentence delimiters, whitespace and other punctuation
_TEXT = st.text(alphabet="aΣσς7 \t\n.;?!-,", max_size=12)


@st.composite
def _hand_built_articles(draw):
    n = draw(st.integers(1, 6))
    return [
        Article(f"a{i}", "d", draw(st.none() | _TEXT), draw(_TEXT)) for i in range(n)
    ]


@settings(max_examples=300, deadline=None)
@given(_hand_built_articles())
def test_both_indexes_number_the_same_articles(articles):
    """An article is indexed when its content has tokens, by both builds."""
    lex = build_lex_index(articles, PipelineConfig())
    dense, excluded = build_dense_index(articles, EMB, TokenizerConfig())
    assert lex.article_ids == dense.article_ids
    assert len(articles) - excluded == len(lex.article_ids)
    tok = TokenizerConfig()
    with_content = [a.article_id for a in articles if tokenize(clean_text(a.content), tok)]
    assert list(lex.article_ids) == sorted(with_content)


def test_title_only_article_is_in_neither_index():
    """A hand-built article with title text and no content text is not a
    candidate, so answers never ask the dense index for it."""
    articles = [
        Article("a", "d", "Tenancy deposits", "A deposit is returned."),
        Article("b", "d", "Tenancy deposits", "..."),
        Article("c", "d", None, "Tenancy ends with notice."),
    ]
    lex = build_lex_index(articles, PipelineConfig())
    dense, _ = build_dense_index(articles, EMB, TokenizerConfig())
    assert lex.article_ids == dense.article_ids == ("a", "c")
    scorer = ModelScorer(zero_model(), FeatureExtractor(lex, dense))
    tokens = tokenize(clean_text("tenancy deposits"), TokenizerConfig())
    ranked = retrieve_topk(lex, tokens, 10, PipelineConfig())
    answer = rank_and_select(
        "q", "tenancy deposits", ranked, scorer, PipelineConfig(top_k=10)
    )
    assert [c.article_id for c in answer.returned] == ["a"]


@pytest.mark.parametrize("lex_count, dense_count", [(3, 2), (2, 3)])
def test_extractor_rejects_indexes_of_different_articles(
    tiny_articles, lex_count, dense_count
):
    lex = build_lex_index(tiny_articles[:lex_count], PipelineConfig())
    dense, _ = build_dense_index(tiny_articles[:dense_count], EMB, TokenizerConfig())
    with pytest.raises(ValueError, match="cover different articles"):
        FeatureExtractor(lex, dense)


def test_extractor_rejects_indexes_of_different_tokenizers(tiny_articles):
    lex = build_lex_index(tiny_articles, PipelineConfig(phrase_lexicon=["civil code"]))
    dense, _ = build_dense_index(tiny_articles, EMB, TokenizerConfig())
    assert lex.article_ids == dense.article_ids
    with pytest.raises(ValueError, match="different tokenizers"):
        FeatureExtractor(lex, dense)


def test_predict_values():
    model = zero_model()
    features = np.ones(NUM_FEATURES)
    assert predict(model, features) == 0.5
    # w . f = ln 3  ->  sigmoid = 0.75
    weights = np.zeros(NUM_FEATURES)
    weights[7] = math.log(3)
    assert predict(LinearModel(weights), features) == pytest.approx(0.75, abs=1e-12)


def test_predict_monotone_in_positive_feature():
    features = np.zeros(NUM_FEATURES)
    features[0] = 0.8
    lo = np.zeros(NUM_FEATURES); lo[0] = 1.0
    hi = np.zeros(NUM_FEATURES); hi[0] = 2.0
    assert predict(LinearModel(hi), features) > predict(LinearModel(lo), features)


def test_predict_open_interval_even_when_saturated():
    weights = np.full(NUM_FEATURES, 500.0)
    features = np.ones(NUM_FEATURES)
    p = predict(LinearModel(weights), features)
    assert 0.0 < p < 1.0
    p = predict(LinearModel(-weights), features)
    assert 0.0 < p < 1.0


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(40, NUM_FEATURES))
    y = (rng.random(40) < 0.5).astype(float)
    h = 1e-5
    for _ in range(20):
        w = rng.normal(scale=2.0, size=NUM_FEATURES)
        analytic = cross_entropy_gradient(w, x, y)
        numeric = np.empty_like(analytic)
        for j in range(NUM_FEATURES):
            step = np.zeros(NUM_FEATURES)
            step[j] = h
            numeric[j] = (
                mean_cross_entropy(w + step, x, y) - mean_cross_entropy(w - step, x, y)
            ) / (2 * h)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        assert rel < 1e-4


class ToyExtractor:
    """Feature source for a linearly separable toy set: f4 carries the label."""

    def matrix(self, examples):
        x = np.zeros((len(examples), NUM_FEATURES))
        for i, ex in enumerate(examples):
            x[i, 3] = float(ex.label)
            x[i, 7] = 1.0
        y = np.asarray([ex.label for ex in examples], dtype=float)
        return x, y


def _toy_examples(n=40):
    return [
        TrainingExample(f"q{i}", f"a{i}", i % 2) for i in range(n)
    ]


def _toy_matrix(n=40):
    return ToyExtractor().matrix(_toy_examples(n))


def test_training_converges_on_separable_toy_set():
    cfg = PipelineConfig(learning_rate=0.1, epochs=300, batch_size=8, train_seed=0, patience=1000)
    model = train_stage(zero_model(), _toy_matrix(), None, cfg)
    curve = model.metadata["stages"][-1]["loss_curve"]
    assert curve[-1] < 0.1
    assert curve[1] < curve[0]  # loss drops within the first epoch


def test_training_deterministic_given_seed():
    cfg = PipelineConfig(epochs=20, train_seed=5)
    a = train_stage(zero_model(), _toy_matrix(), None, cfg)
    b = train_stage(zero_model(), _toy_matrix(), None, cfg)
    assert np.array_equal(a.weights, b.weights)
    assert a.metadata == b.metadata
    c = train_stage(zero_model(), _toy_matrix(), None, PipelineConfig(epochs=20, train_seed=6))
    assert not np.array_equal(a.weights, c.weights)


def test_training_rejects_empty_data():
    with pytest.raises(ValueError, match="gold_only: training data is empty"):
        train_stage(zero_model(), _toy_matrix(0), None, PipelineConfig(), "gold_only")


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_training_reports_divergence():
    x, y = _toy_matrix()
    x[:] = np.nan
    with pytest.raises(ValueError, match="diverged"):
        train_stage(zero_model(), (x, y), None, PipelineConfig(epochs=1))


def _two_stage_matrices():
    toy = ToyExtractor()
    gold = [TrainingExample(f"g{i}", f"a{i}", i % 2) for i in range(20)]
    valid = [TrainingExample(f"v{i}", f"a{i}", i % 2) for i in range(10)]
    return _toy_matrix(40), toy.matrix(gold), toy.matrix(valid)


def test_two_stage_metadata_and_continuity():
    cfg = PipelineConfig(epochs=10, train_seed=0)
    weak, gold, valid = _two_stage_matrices()
    model = train_two_stage(weak, gold, valid, cfg)
    stage1, stage2 = model.metadata["stages"]
    assert stage1["stage"] == "weak_pretrain"
    assert stage2["stage"] == "gold_finetune"
    pretrained = train_stage(zero_model(), weak, valid, cfg, stage="weak_pretrain")
    assert stage2["initial_weights"] == pretrained.weights.tolist()
    tuned = train_stage(pretrained, gold, valid, cfg, stage="gold_finetune")
    assert np.array_equal(model.weights, tuned.weights)
    assert pretrained.metadata == {"stages": [stage1]}
    assert model.metadata == tuned.metadata == {"stages": [stage1, stage2]}


def test_two_stage_rejects_empty_datasets():
    cfg = PipelineConfig(epochs=1)
    with pytest.raises(ValueError, match="weak"):
        train_two_stage(_toy_matrix(0), _toy_matrix(), None, cfg)
    with pytest.raises(ValueError, match="gold"):
        train_two_stage(_toy_matrix(), _toy_matrix(0), None, cfg)


def test_score_batch_order_and_permutation(synth):
    question = synth.queries[0].question
    candidates = synth.articles[:6]
    ids = [a.article_id for a in candidates]
    scored = list(zip(ids, synth.scorer.score_batch(question, candidates)))
    assert [article_id for article_id, _ in scored] == ids
    reversed_scored = zip(ids[::-1], synth.scorer.score_batch(question, candidates[::-1]))
    assert dict(scored) == dict(reversed_scored)
    single = synth.scorer.score_batch(question, candidates[:1])
    assert len(single) == 1
    assert synth.scorer.score_batch(question, []).tolist() == []


def test_model_scorer_matches_predict(synth):
    question = synth.queries[3].question
    article = synth.articles[0]
    scorer = ModelScorer(synth.model, synth.extractor)
    [score] = scorer.score_batch(question, [article])
    features = synth.extractor.rows(question, [article.article_id])[0]
    assert score == predict(synth.model, features)


def test_model_save_load_round_trip(synth, tmp_path):
    path = tmp_path / "model.json"
    save_model(synth.model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.weights, synth.model.weights)
    assert loaded.metadata == synth.model.metadata
    stages = [stage["stage"] for stage in loaded.metadata["stages"]]
    assert stages == ["weak_pretrain", "gold_finetune"]
    with pytest.raises(ValueError, match=r"format mismatch \(model 'other', expected "):
        path2 = tmp_path / "bogus.json"
        path2.write_text('{"format": "other"}')
        load_model(path2)


def test_model_save_that_fails_leaves_the_old_file(synth, tmp_path):
    path = tmp_path / "model.json"
    save_model(synth.model, path)
    before = path.read_bytes()
    unwritable = LinearModel(synth.model.weights, {"stage": object()})
    with pytest.raises(TypeError):
        save_model(unwritable, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


MISSING = object()
RETRAIN = "rebuild it with `statuteqa train`"


@pytest.mark.parametrize(
    "payload, message",
    [
        ([1, 2, 3], r"format mismatch \(model None, expected 'statuteqa.model'\)"),
        ({"version": 99}, rf"version mismatch \(model 99, expected 1\); {RETRAIN}"),
        ({"version": True}, rf"version mismatch \(model True, expected 1\); {RETRAIN}"),
        ({"feature_names": ["bias"] * NUM_FEATURES}, rf"feature names mismatch .*; {RETRAIN}"),
        ({"weights": MISSING}, "weights must be a list of 8 finite"),
        ({"weights": [0.5] * (NUM_FEATURES - 1)}, "weights must be a list of 8 finite"),
        ({"weights": [True] * NUM_FEATURES}, "weights must be a list of 8 finite"),
    ],
)
def test_load_model_rejects_what_save_model_does_not_write(
    synth, tmp_path, payload, message
):
    path = tmp_path / "model.json"
    save_model(synth.model, path)
    if isinstance(payload, dict):
        merged = {**json.loads(path.read_text()), **payload}
        payload = {key: value for key, value in merged.items() if value is not MISSING}
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=message) as raised:
        load_model(path)
    assert str(path) in str(raised.value)


def test_score_batch_is_bit_identical_for_a_ranking_ids_and_articles(synth):
    """A ranking is read at its positions (a dense one with its sentence
    cosines); a ranking over another index of the same articles is refused."""
    rebuilt = build_lex_index(synth.articles, PipelineConfig())
    assert rebuilt.article_ids is not synth.lex.article_ids
    for query in synth.queries[:10]:
        question = query.question
        for ranked in (
            synth.ranked(question, 30),
            dense_retrieve_topk(synth.dense, question, 30, synth.tok),
        ):
            ids = ranked.ids()
            want = _bits(synth.scorer.score_batch(question, ids))
            assert _bits(synth.scorer.score_batch(question, ranked)) == want
            articles = [synth.by_id[a] for a in ids]
            assert _bits(synth.scorer.score_batch(question, articles)) == want
        tokens = tokenize(clean_text(question), synth.tok)
        with pytest.raises(ValueError, match="ranking is over other indexes"):
            synth.scorer.score_batch(question, retrieve_topk(rebuilt, tokens, 30, PipelineConfig()))


def test_a_hand_built_ranking_with_no_question_view_is_refused(synth):
    """Over the extractor's own ids, a ranking with placeholder scores, no
    tokens and no BM25 pass was scored from no question tokens, with its
    placeholder scores as the dense feature. No quickview builds one: a
    question with no tokens ranks nothing. An empty one is still read."""
    ids = synth.lex.article_ids
    positions = np.arange(5, dtype=np.int64)
    placeholder = Ranking(ids, positions, np.ones(5), (), None)
    with pytest.raises(ValueError, match="neither a BM25 pass nor question tokens"):
        synth.extractor.rows("any question", placeholder)
    with pytest.raises(ValueError, match="neither a BM25 pass nor question tokens"):
        synth.scorer.score_batch("any question", placeholder)
    assert synth.extractor.rows("any question", placeholder[:0]).shape == (0, NUM_FEATURES)
    nothing = dense_retrieve_topk(synth.dense, "--- ,,,", 5, synth.tok)
    assert len(nothing) == 0 and synth.extractor.rows("--- ,,,", nothing).shape[0] == 0
