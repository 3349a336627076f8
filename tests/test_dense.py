import gzip
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dense_oracle import (
    OneAtATime,
    cosine,
    densify,
    per_article_max_cosine,
    per_article_topk,
    sentence_rows,
)
from conftest import pairs
from statuteqa import indexfile
from statuteqa.corpus import Article, TokenizerConfig, clean_text, split_sentences, tokenize
from statuteqa.dense import (
    HashedProjectionEmbedder,
    build_dense_index,
    dense_retrieve_topk,
    embed,
    load_dense_index,
    quickview_dense_score,
    save_dense_index,
    sentence_cosines,
)

EMB = HashedProjectionEmbedder(dimension=64, seed=0)
TOK = TokenizerConfig()

def positions(index, article_ids):
    """The articles' positions in the index (their lexical columns)."""
    return [index.article_ids.index(article_id) for article_id in article_ids]


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
    index, excluded = build_dense_index(tiny_articles, EMB, TOK)
    assert excluded == 0
    # hand count: 2 + 2 + 1 sentences
    assert index.article_ids == ("d1#1", "d1#2", "d2#1")
    assert index.offsets.tolist() == [0, 2, 4, 5]
    assert densify(index).shape == (5, 64)
    assert index.colptr.shape == (65,)


def test_build_excludes_unembeddable_articles():
    articles = [
        Article("a", "d", None, "real sentence here."),
        Article("b", "d", None, "--- !!! ..."),
    ]
    index, excluded = build_dense_index(articles, EMB, TOK)
    assert excluded == 1
    assert index.article_ids == ("a",)


def test_build_errors(tiny_articles):
    with pytest.raises(ValueError, match="empty corpus"):
        build_dense_index([], EMB, TOK)
    with pytest.raises(ValueError, match="duplicate article id 'd1#1'"):
        build_dense_index(tiny_articles + [tiny_articles[0]], EMB, TOK)


def test_quickview_dense_score_is_max_of_sentence_cosines(tiny_articles):
    index, _ = build_dense_index(tiny_articles, EMB, TOK)
    question_vector = embed(EMB, ["land", "registry", "records"])
    for article in tiny_articles:
        explicit = max(
            cosine(question_vector, row) for row in sentence_rows(index, article.article_id)
        )
        got = quickview_dense_score(
            index,
            sentence_cosines(index, question_vector),
            positions(index, [article.article_id]),
        )[0]
        assert got == pytest.approx(explicit, abs=1e-12)


def test_quickview_dense_score_edge_cases(tiny_articles):
    index, _ = build_dense_index(tiny_articles, EMB, TOK)
    assert quickview_dense_score(index, sentence_cosines(index, np.zeros(64)), [0])[0] == 0.0
    with pytest.raises(IndexError):
        quickview_dense_score(
            index, sentence_cosines(index, np.zeros(64)), [len(index.article_ids)]
        )
    with pytest.raises(ValueError, match="dimension mismatch"):
        quickview_dense_score(index, sentence_cosines(index, np.zeros(65)), [0])


def test_verbatim_sentence_scores_one(tiny_articles):
    index, _ = build_dense_index(tiny_articles, EMB, TOK)
    sentence = split_sentences(tiny_articles[0].content)[1]  # "Breach causes damages."
    question_vector = embed(EMB, tokenize(clean_text(sentence)))
    cosines = sentence_cosines(index, question_vector)
    assert quickview_dense_score(index, cosines, [0])[0] == pytest.approx(1.0, abs=1e-9)


def test_dense_retrieve_topk(tiny_articles):
    index, _ = build_dense_index(tiny_articles, EMB, TOK)
    ranked = dense_retrieve_topk(index, "Breach causes damages", 1)
    assert ranked.ids() == ["d1#1"]
    everything = dense_retrieve_topk(index, "law", 50)
    assert len(everything) == 3
    assert len(dense_retrieve_topk(index, "???", 5)) == 0  # zero question vector
    with pytest.raises(ValueError):
        dense_retrieve_topk(index, "law", 0)


def test_dense_retrieve_topk_refuses_another_tokenizer(tiny_articles):
    index, _ = build_dense_index(tiny_articles, EMB, TOK)
    assert dense_retrieve_topk(index, "civil code", 3, TOK).ids()
    other = TokenizerConfig(frozenset({"civil code"}))
    with pytest.raises(ValueError, match="not the dense index's"):
        dense_retrieve_topk(index, "civil code", 3, other)


def test_dense_retrieve_ties_break_by_id():
    articles = [
        Article("b", "d", None, "identical sentence."),
        Article("a", "d", None, "identical sentence."),
    ]
    index, _ = build_dense_index(articles, EMB, TOK)
    ranked = dense_retrieve_topk(index, "identical sentence", 2)
    assert ranked.ids() == ["a", "b"]


def test_matrix_scan_equals_per_article_loop(synth):
    """One matvec and a segment max give the loop's scores and order exactly."""
    questions = [q.question for q in synth.queries[:40]] + ["of", "civil law code"]
    for question in questions:
        vector = embed(synth.embedder, tokenize(clean_text(question)))
        want = per_article_topk(synth.dense, vector, 60)
        assert pairs(dense_retrieve_topk(synth.dense, question, 60)) == want
        for article_id, score in want:
            [at] = positions(synth.dense, [article_id])
            cosines = sentence_cosines(synth.dense, vector)
            assert quickview_dense_score(synth.dense, cosines, [at])[0] == score


def test_batched_score_matches_per_article_loop(synth):
    """One gathered matvec per batch gives each listed article's max cosine,
    in list order, for repeated and unordered ids."""
    ids = list(synth.dense.article_ids)
    rng = np.random.default_rng(5)
    for query in synth.queries[:20]:
        vector = embed(synth.embedder, tokenize(clean_text(query.question)))
        batch = [ids[i] for i in rng.integers(0, len(ids), 60)] + ids[:3] * 2
        got = quickview_dense_score(
            synth.dense, sentence_cosines(synth.dense, vector), positions(synth.dense, batch)
        )
        assert got.shape == (len(batch),)
        want = per_article_max_cosine(synth.dense, vector, batch)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    zero = quickview_dense_score(
        synth.dense, sentence_cosines(synth.dense, np.zeros(synth.dense.dimension)), range(4)
    )
    assert np.array_equal(zero, np.zeros(4))
    empty = quickview_dense_score(synth.dense, sentence_cosines(synth.dense, vector), [])
    assert empty.shape == (0,)


def test_max_pool_dominance(tiny_articles):
    index, _ = build_dense_index(tiny_articles, EMB, TOK)
    question_vector = embed(EMB, ["civil", "code"])
    for article in tiny_articles:
        [at] = positions(index, [article.article_id])
        score = quickview_dense_score(index, sentence_cosines(index, question_vector), [at])[0]
        for row in sentence_rows(index, article.article_id):
            assert score >= cosine(question_vector, row) - 1e-12


def test_adding_sentence_never_decreases_score(tiny_articles):
    before, _ = build_dense_index(tiny_articles, EMB, TOK)
    extended = [
        Article(a.article_id, a.doc_id, a.title, a.content + " Extra closing clause.")
        for a in tiny_articles
    ]
    after, _ = build_dense_index(extended, EMB, TOK)
    question_vector = embed(EMB, ["closing", "clause"])
    assert after.article_ids == before.article_ids
    at = positions(before, [article.article_id for article in tiny_articles])
    grown = quickview_dense_score(after, sentence_cosines(after, question_vector), at)
    shorter = quickview_dense_score(before, sentence_cosines(before, question_vector), at)
    assert np.all(grown >= shorter - 1e-12)


def test_reindex_reproduces_bit_identical_vectors(tiny_articles):
    first, _ = build_dense_index(tiny_articles, EMB, TOK)
    second, _ = build_dense_index(tiny_articles, HashedProjectionEmbedder(64, 0), TOK)
    assert first.article_ids == second.article_ids
    assert np.array_equal(first.offsets, second.offsets)
    for name in ("colptr", "rows", "data"):
        assert np.array_equal(getattr(first, name), getattr(second, name))


def test_stored_vectors_satisfy_norm_invariant(synth):
    for norm in np.linalg.norm(densify(synth.dense), axis=1):
        assert norm == 0.0 or abs(norm - 1.0) <= 1e-9


def test_save_load_round_trip(tiny_articles, tmp_path):
    index, _ = build_dense_index(tiny_articles, EMB, TOK)
    path = tmp_path / "dense.bin"
    save_dense_index(index, path)
    loaded = load_dense_index(path, EMB, TOK)
    assert loaded.embedder_fingerprint == index.embedder_fingerprint
    assert loaded.article_ids == index.article_ids
    assert loaded.corpus_digest == index.corpus_digest
    assert np.array_equal(loaded.offsets, index.offsets)
    for name in ("colptr", "rows", "data"):
        assert np.array_equal(getattr(loaded, name), getattr(index, name))
    # the loaded index answers questions with the given embedder
    ranked = dense_retrieve_topk(loaded, "Breach causes damages", 1)
    assert ranked.ids() == ["d1#1"]
    again = tmp_path / "again.bin"
    save_dense_index(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_save_deterministic_bytes(tiny_articles, tmp_path):
    index, _ = build_dense_index(tiny_articles, EMB, TOK)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_dense_index(index, p1)
    save_dense_index(index, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_fingerprint_mismatch(tiny_articles, tmp_path):
    index, _ = build_dense_index(tiny_articles, EMB, TOK)
    path = tmp_path / "dense.bin"
    save_dense_index(index, path)
    with pytest.raises(ValueError, match="fingerprint mismatch"):
        load_dense_index(path, HashedProjectionEmbedder(32, seed=0), TOK)
    with pytest.raises(ValueError, match="fingerprint mismatch"):
        load_dense_index(path, HashedProjectionEmbedder(64, seed=9), TOK)


def test_file_with_an_embedder_spec_header_still_loads(tiny_articles, tmp_path):
    """Files written before the header lost its ``embedder_spec`` key load."""
    index, _ = build_dense_index(tiny_articles, EMB, TOK)
    path = tmp_path / "dense.bin"
    save_dense_index(index, path)
    with gzip.open(path, "rb") as stream:
        header = json.loads(stream.readline())
    header.pop("embedder_spec", None)
    header["embedder_spec"] = {"kind": "hashed_projection", "dimension": 64, "seed": 0}
    arrays = {name: getattr(index, name) for name in ("offsets", "colptr", "rows", "data")}
    arrays["rows"] = indexfile.gap_encode(index.colptr, index.rows)
    indexfile.save(path, header["format"], header["version"], header, arrays)
    loaded = load_dense_index(path, EMB, TOK)
    assert loaded.embedder is EMB
    assert np.array_equal(loaded.data, index.data)
    assert dense_retrieve_topk(loaded, "Breach causes damages", 1).ids() == ["d1#1"]


def test_equal_rows_score_equal_wherever_they_sit():
    """A row's cosine comes from that row alone: five articles with one and
    the same sentence score bit-identically and rank by id. A matrix-vector
    product gave the last one a different last bit from the first four."""
    content = "Breaching hinjoltor requirements leads to suspension of the contract"
    articles = [Article(f"a{i}", "d", None, content) for i in range(5)]
    embedder = HashedProjectionEmbedder()
    index, _ = build_dense_index(articles, embedder, TOK)
    question = "Regulation of basilsil corsilsil activities"
    vector = embed(embedder, tokenize(clean_text(question)))
    scores = quickview_dense_score(index, sentence_cosines(index, vector), range(5))
    assert len(set(scores.tolist())) == 1
    ranked = dense_retrieve_topk(index, question, 5)
    assert pairs(ranked) == [(f"a{i}", scores[0]) for i in range(5)]


def test_top_k_equals_the_stable_sort_around_a_tie_group():
    """k below, at and above a group of tied articles, and k past the corpus."""
    tied = "Breaching hinjoltor requirements leads to suspension of the contract"
    articles = [Article(f"t{i}", "d", None, tied) for i in range(4)] + [
        Article("a", "d", None, "Regulation of basilsil corsilsil activities."),
        Article("m", "d", None, "Basilsil activities are regulated. Other words."),
        Article("z", "d", None, "Nothing in common here."),
        Article("b", "d", None, "Nothing in common here."),
    ]
    embedder = HashedProjectionEmbedder()
    index, _ = build_dense_index(articles, embedder, TOK)
    question = "Regulation of basilsil corsilsil activities"
    vector = embed(embedder, tokenize(clean_text(question)))
    scores = quickview_dense_score(index, sentence_cosines(index, vector), range(len(articles)))
    order = np.argsort(-scores, kind="stable")
    assert len(set(scores[order[2:6]].tolist())) == 1  # the tie group sits at ranks 3-6
    for k in range(1, len(articles) + 3):
        want = [(index.article_ids[i], scores[i]) for i in order[:k]]
        assert pairs(dense_retrieve_topk(index, question, k)) == want


def test_batch_embedding_saves_the_bytes_of_one_at_a_time(synth, tmp_path):
    single, _ = build_dense_index(synth.articles, OneAtATime(synth.embedder), synth.tok)
    batch, single_path = tmp_path / "batch.bin", tmp_path / "single.bin"
    save_dense_index(synth.dense, batch)
    save_dense_index(single, single_path)
    assert batch.read_bytes() == single_path.read_bytes()
