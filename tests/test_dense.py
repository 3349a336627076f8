import numpy as np
import pytest
from hypothesis import given, strategies as st

from statuteqa.corpus import Article, clean_text, split_sentences, tokenize
from statuteqa.dense import (
    HashedProjectionEmbedder,
    build_dense_index,
    cosine,
    dense_retrieve_topk,
    embed,
    load_dense_index,
    quickview_dense_score,
    save_dense_index,
)

EMB = HashedProjectionEmbedder(dimension=64, seed=0)

tokens_strategy = st.lists(st.text(alphabet="abcdefg", min_size=1, max_size=5), max_size=8)


def test_embed_empty_is_zero_vector():
    assert not embed(EMB, []).any()


def test_embed_single_token_is_signed_basis_vector():
    vec = embed(EMB, ["liability"])
    nonzero = np.nonzero(vec)[0]
    assert len(nonzero) == 1
    assert vec[nonzero[0]] in (1.0, -1.0)


def test_embed_deterministic():
    tokens = ["statute", "retrieval", "statute"]
    assert np.array_equal(embed(EMB, tokens), embed(EMB, tokens))
    other_seed = HashedProjectionEmbedder(dimension=64, seed=1)
    assert not np.array_equal(embed(EMB, tokens), embed(other_seed, tokens))


@given(tokens_strategy)
def test_embed_norm_invariant(tokens):
    norm = float(np.linalg.norm(embed(EMB, tokens)))
    assert norm == 0.0 or abs(norm - 1.0) <= 1e-9


def test_cosine_identities():
    u = np.array([1.0, 2.0, -3.0])
    assert cosine(u, u) == pytest.approx(1.0)
    assert cosine(u, -u) == pytest.approx(-1.0)
    e1 = np.array([1.0, 0.0]); e2 = np.array([0.0, 1.0])
    assert cosine(e1, e2) == 0.0
    assert cosine(np.zeros(3), u[:3]) == 0.0


def test_cosine_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        cosine(np.zeros(3), np.zeros(4))


def test_build_counts_sentences(tiny_articles):
    index, excluded = build_dense_index(tiny_articles, EMB)
    assert excluded == 0
    # hand count: 2 + 2 + 1 sentences
    assert index.sentence_count("d1#1") == 2
    assert index.sentence_count("d1#2") == 2
    assert index.sentence_count("d2#1") == 1
    total = sum(m.shape[0] for m in index.vectors.values())
    assert total == 5


def test_build_excludes_unembeddable_articles():
    articles = [
        Article("a", "d", None, "real sentence here."),
        Article("b", "d", None, "--- !!! ..."),
    ]
    index, excluded = build_dense_index(articles, EMB)
    assert excluded == 1
    assert "b" not in index.vectors


def test_build_errors():
    with pytest.raises(ValueError, match="empty corpus"):
        build_dense_index([], EMB)


def test_quickview_dense_score_is_max_of_sentence_cosines(tiny_articles):
    index, _ = build_dense_index(tiny_articles, EMB)
    question_vector = embed(EMB, ["land", "registry", "records"])
    for article in tiny_articles:
        explicit = max(
            cosine(question_vector, row) for row in index.vectors[article.article_id]
        )
        got = quickview_dense_score(index, question_vector, article.article_id)
        assert got == pytest.approx(explicit, abs=1e-12)


def test_quickview_dense_score_edge_cases(tiny_articles):
    index, _ = build_dense_index(tiny_articles, EMB)
    assert quickview_dense_score(index, np.zeros(64), "d1#1") == 0.0
    with pytest.raises(KeyError):
        quickview_dense_score(index, np.zeros(64), "missing")
    with pytest.raises(ValueError, match="dimension mismatch"):
        quickview_dense_score(index, np.zeros(65), "d1#1")


def test_verbatim_sentence_scores_one(tiny_articles):
    index, _ = build_dense_index(tiny_articles, EMB)
    sentence = split_sentences(tiny_articles[0].content)[1]  # "Breach causes damages."
    question_vector = embed(EMB, tokenize(clean_text(sentence)))
    assert quickview_dense_score(index, question_vector, "d1#1") == pytest.approx(
        1.0, abs=1e-9
    )


def test_dense_retrieve_topk(tiny_articles):
    index, _ = build_dense_index(tiny_articles, EMB)
    ranked = dense_retrieve_topk(index, "Breach causes damages", 1)
    assert ranked[0][0] == "d1#1"
    everything = dense_retrieve_topk(index, "law", 50)
    assert len(everything) == 3
    assert dense_retrieve_topk(index, "???", 5) == []  # zero question vector
    with pytest.raises(ValueError):
        dense_retrieve_topk(index, "law", 0)


def test_dense_retrieve_ties_break_by_id():
    articles = [
        Article("b", "d", None, "identical sentence."),
        Article("a", "d", None, "identical sentence."),
    ]
    index, _ = build_dense_index(articles, EMB)
    ranked = dense_retrieve_topk(index, "identical sentence", 2)
    assert [article_id for article_id, _ in ranked] == ["a", "b"]


def test_max_pool_dominance(tiny_articles):
    index, _ = build_dense_index(tiny_articles, EMB)
    question_vector = embed(EMB, ["civil", "code"])
    for article in tiny_articles:
        score = quickview_dense_score(index, question_vector, article.article_id)
        for row in index.vectors[article.article_id]:
            assert score >= cosine(question_vector, row) - 1e-12


def test_adding_sentence_never_decreases_score(tiny_articles):
    before, _ = build_dense_index(tiny_articles, EMB)
    extended = [
        Article(a.article_id, a.doc_id, a.title, a.content + " Extra closing clause.")
        for a in tiny_articles
    ]
    after, _ = build_dense_index(extended, EMB)
    question_vector = embed(EMB, ["closing", "clause"])
    for article in tiny_articles:
        assert quickview_dense_score(
            after, question_vector, article.article_id
        ) >= quickview_dense_score(before, question_vector, article.article_id) - 1e-12


def test_reindex_reproduces_bit_identical_vectors(tiny_articles):
    first, _ = build_dense_index(tiny_articles, EMB)
    second, _ = build_dense_index(tiny_articles, HashedProjectionEmbedder(64, 0))
    for article_id, matrix in first.vectors.items():
        assert np.array_equal(matrix, second.vectors[article_id])


def test_stored_vectors_satisfy_norm_invariant(synth):
    for matrix in synth.dense.vectors.values():
        norms = np.linalg.norm(matrix, axis=1)
        for norm in norms:
            assert norm == 0.0 or abs(norm - 1.0) <= 1e-9


def test_save_load_round_trip(tiny_articles, tmp_path):
    index, _ = build_dense_index(tiny_articles, EMB)
    path = tmp_path / "dense.jsonl"
    save_dense_index(index, path)
    loaded = load_dense_index(path)
    assert loaded.embedder_fingerprint == index.embedder_fingerprint
    for article_id, matrix in index.vectors.items():
        assert np.allclose(loaded.vectors[article_id], matrix, atol=0)
    # reconstructed embedder answers questions identically
    ranked = dense_retrieve_topk(loaded, "Breach causes damages", 1)
    assert ranked[0][0] == "d1#1"


def test_save_deterministic_bytes(tiny_articles, tmp_path):
    index, _ = build_dense_index(tiny_articles, EMB)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dense_index(index, p1)
    save_dense_index(index, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_fingerprint_mismatch(tiny_articles, tmp_path):
    index, _ = build_dense_index(tiny_articles, EMB)
    path = tmp_path / "dense.jsonl"
    save_dense_index(index, path)
    with pytest.raises(ValueError, match="fingerprint mismatch"):
        load_dense_index(path, expected_fingerprint="ffffffffffffffff")
    with pytest.raises(ValueError, match="fingerprint mismatch"):
        load_dense_index(path, embedder=HashedProjectionEmbedder(64, seed=9))
