import dataclasses
import sys
from contextlib import closing

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from dense_oracle import (
    OneAtATime,
    cosine,
    densify,
    ordered_cosines,
    per_article_max_cosine,
    per_article_topk,
    sentence_rows,
)
from conftest import pairs, read_stored
from statuteqa import dense, indexfile
from statuteqa.corpus import Article, TokenizerConfig, clean_text, split_sentences, tokenize
from statuteqa.dense import (
    DENSE_INDEX_VERSION,
    ExternalEmbedder,
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
    question_vector = embed(EMB, tokenize(clean_text(sentence), TokenizerConfig()))
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
        vector = embed(synth.embedder, tokenize(clean_text(question), TokenizerConfig()))
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
        vector = embed(synth.embedder, tokenize(clean_text(query.question), TokenizerConfig()))
        batch = [ids[i] for i in rng.integers(0, len(ids), 60)] + ids[:3] * 2
        got = quickview_dense_score(
            synth.dense, sentence_cosines(synth.dense, vector), positions(synth.dense, batch)
        )
        assert got.shape == (len(batch),)
        want = per_article_max_cosine(synth.dense, vector, batch)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    zero_vector = np.zeros(synth.dense.embedder.dimension)
    zero = quickview_dense_score(synth.dense, sentence_cosines(synth.dense, zero_vector), range(4))
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


def test_sentence_article_map_after_build_and_load(tiny_articles, synth, tmp_path):
    built, _ = build_dense_index(tiny_articles, EMB, TOK)
    save_dense_index(built, tmp_path / "dense.bin")
    loaded = load_dense_index(tmp_path / "dense.bin", EMB, TOK, built.article_ids, "")
    for index in (built, loaded, synth.dense):
        counts = np.diff(index.offsets)
        assert index.sentence_article.dtype == np.int32
        want = np.repeat(np.arange(len(counts)), counts)
        assert np.array_equal(index.sentence_article, want)
    # derived from offsets, so it is not shown; ``==`` is identity, so even
    # a copy sharing every array is another index
    other = dataclasses.replace(built)
    assert other != built and other == other
    assert "sentence_article" not in repr(built)


def test_save_load_round_trip(tiny_articles, tmp_path):
    index, _ = build_dense_index(tiny_articles, EMB, TOK)
    path = tmp_path / "dense.bin"
    save_dense_index(index, path)
    loaded = load_dense_index(path, EMB, TOK, index.article_ids, "")
    assert loaded.embedder is index.embedder
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
        load_dense_index(path, HashedProjectionEmbedder(32, seed=0), TOK, index.article_ids, "")
    with pytest.raises(ValueError, match="fingerprint mismatch"):
        load_dense_index(path, HashedProjectionEmbedder(64, seed=9), TOK, index.article_ids, "")


def test_file_with_an_embedder_spec_header_still_loads(tiny_articles, tmp_path):
    """Files written before the header lost its ``embedder_spec`` key load."""
    index, _ = build_dense_index(tiny_articles, EMB, TOK)
    path = tmp_path / "dense.bin"
    save_dense_index(index, path)
    header, _ = read_stored(path)
    header.pop("embedder_spec", None)
    header["embedder_spec"] = {"kind": "hashed_projection", "dimension": 64, "seed": 0}
    values, ids = dense._value_table(index.data)
    arrays = {
        "sentence_counts": np.diff(index.offsets),
        "sentence_vector": indexfile.first_use_encode(index.sentence_vector),
        "entry_counts": np.diff(index.colptr),
        "rows": indexfile.gap_encode(index.colptr, index.rows),
        "values": values,
        "data": indexfile.first_use_encode(ids),
    }
    indexfile.save(path, header["format"], header["version"], header, arrays)
    loaded = load_dense_index(path, EMB, TOK, index.article_ids, "")
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
    vector = embed(embedder, tokenize(clean_text(question), TokenizerConfig()))
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
    vector = embed(embedder, tokenize(clean_text(question), TokenizerConfig()))
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


# Sentences repeat within and across articles; the first two hold the same
# tokens in another order, and the last cleans to nothing.
SENTENCE_POOL = (
    "Alpha beta gamma",
    "Gamma beta alpha",
    "Delta epsilon",
    "Alpha alpha beta",
    "Zeta eta theta iota",
    "Beta",
    "Kappa lambda mu nu",
    "--- ,,,",
)
POOL_WORDS = ["alpha", "beta", "gamma", "delta", "zeta", "kappa", "nu", "omega"]


class Recording(OneAtATime):
    """An embedder that records the token lists it is asked to embed."""

    def __init__(self, inner):
        super().__init__(inner)
        self.asked = []

    def embed_batch(self, token_lists):
        self.asked.extend(map(tuple, token_lists))
        return self.inner.embed_batch(token_lists)


def pool_corpus(drawn):
    """Articles ``a0, a1, ...``, each the pool sentences at its drawn indexes."""
    return [
        Article(f"a{i}", "d", None, ". ".join(SENTENCE_POOL[s] for s in sentences) + ".")
        for i, sentences in enumerate(drawn)
    ]


def stored_arrays(path):
    """A dense file's arrays as it stores them (the sentence map and data
    in first-use code), integer arrays rebuilt from their byte planes."""
    _, arrays = indexfile.load(
        path, dense.DENSE_INDEX_FORMAT, DENSE_INDEX_VERSION, dense._LAYOUT, {}
    )
    return arrays


@given(
    drawn=st.lists(
        st.lists(st.integers(0, len(SENTENCE_POOL) - 1), min_size=1, max_size=5),
        min_size=1, max_size=6,
    ),
    question=st.lists(st.sampled_from(POOL_WORDS), max_size=4),
)
def test_one_vector_per_distinct_sentence_answers_as_one_per_sentence(
    drawn, question, tmp_path_factory
):
    embedder = Recording(HashedProjectionEmbedder(dimension=8, seed=3))
    articles = pool_corpus(drawn)
    index, excluded = build_dense_index(articles, embedder, TOK)
    sentences = [
        tuple(tokens)
        for article in sorted(articles, key=lambda a: a.article_id)
        for sentence in split_sentences(article.content)
        if (tokens := tokenize(clean_text(sentence), TOK))
    ]
    # each distinct token list is embedded once, in first-use order
    assert embedder.asked == list(dict.fromkeys(sentences))
    assert index.vectors == len(embedder.asked) and len(index.sentence_vector) == len(sentences)
    assert excluded == len(articles) - len(index.article_ids)

    # per-sentence reference, bit for bit
    vector = embed(embedder, tokenize(clean_text(" ".join(question)), TOK))
    reference = ordered_cosines(index, vector)
    best = [reference[low:high].max() for low, high in zip(index.offsets[:-1], index.offsets[1:])]
    everything = np.arange(len(index.article_ids))
    order = np.lexsort((everything, -np.array(best))) if np.any(vector) else everything[:0]
    for k in (1, 3, len(everything) + 1):
        ranked = dense_retrieve_topk(index, " ".join(question), k)
        assert ranked.positions.tolist() == order[:k].tolist()
        assert ranked.scores.tobytes() == np.array(best)[order[:k]].tobytes()
    positions = np.concatenate([everything[::-1], everything[:2]])
    scores = quickview_dense_score(index, sentence_cosines(index, vector), positions)
    assert scores.tobytes() == np.array(best)[positions].tobytes()

    # a save and load round trip re-saves to equal bytes
    directory = tmp_path_factory.mktemp("dedupe")
    path, again = directory / "dense.bin", directory / "again.bin"
    save_dense_index(index, path)
    loaded = load_dense_index(path, embedder, TOK, index.article_ids, "")
    assert np.array_equal(loaded.sentence_vector, index.sentence_vector)
    assert loaded.sentence_vector.dtype == np.intp and loaded.vectors == index.vectors
    save_dense_index(loaded, again)
    assert again.read_bytes() == path.read_bytes()

    # with each distinct sentence once, the stored map is all zeros
    seen, distinct = set(), []
    for sentences in drawn:
        fresh = [s for s in dict.fromkeys(sentences) if s not in seen]
        seen.update(fresh)
        distinct += [fresh] if fresh else []
    single, _ = build_dense_index(pool_corpus(distinct), embedder, TOK)
    assert single.sentence_vector.tolist() == list(range(single.vectors))
    save_dense_index(single, path)
    assert not stored_arrays(path)["sentence_vector"].any()


def test_an_external_embedder_is_sent_each_repeated_sentence_once(scripts_dir, monkeypatch):
    articles = pool_corpus([[0, 1, 0], [2, 0, 7], [1, 2, 3, 3], [7]])
    command = [sys.executable, str(scripts_dir / "echo_embedder.py"), "--dim", "8"]
    with closing(ExternalEmbedder(command, dimension=8)) as emb:
        texts, call = [], emb._client.call
        monkeypatch.setattr(
            emb._client, "call", lambda reqs: texts.extend(r["text"] for r in reqs) or call(reqs)
        )
        index, excluded = build_dense_index(articles, emb, TOK)
        assert texts == ["alpha beta gamma", "gamma beta alpha", "delta epsilon", "alpha alpha beta"]
        single, _ = build_dense_index(articles, OneAtATime(emb), TOK)
    assert excluded == 1 and index.vectors == 4
    assert index.sentence_vector.tolist() == [0, 1, 0, 2, 0, 1, 2, 3, 3]
    assert np.array_equal(index.data, single.data) and np.array_equal(index.rows, single.rows)


# signed zeros, the least subnormal and a larger one, and values a hashed
# projection stores: a count over a norm
FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1.0, -1.0, 1 / 3**0.5, -2 / 7**0.5]


@given(st.lists(st.one_of(st.sampled_from(FLOATS), st.floats(allow_nan=False)), max_size=40))
@example([])
@example([0.0, -0.0, -0.0, 0.0])
@example([float(i) for i in range(-20, 20)])
def test_the_value_table_round_trips_every_bit(values):
    """``data`` is stored as its distinct values (by bits, so -0.0 and 0.0
    are two) in first-use order and first-use codes into them; decoding
    gives back every bit. With no value repeated, the codes are all zeros
    and the table is ``data`` itself."""
    data = np.array(values, dtype=np.float64)
    table, ids = dense._value_table(data)
    bits = data.view(np.uint64)
    first = sorted(np.unique(bits, return_index=True)[1].tolist())
    assert table.view(np.uint64).tolist() == bits[first].tolist()
    codes = indexfile.first_use_encode(ids)
    if len(first) == len(data):
        assert not codes.any() and table.tobytes() == data.tobytes()
    decoded, used = indexfile.first_use_decode("f", "data", codes)
    assert used == len(table)
    assert table[decoded].view(np.uint64).tolist() == bits.tolist()


def test_an_external_embedder_build_answers_from_its_file_as_built(scripts_dir, tmp_path):
    """Every value the echo embedder gives is distinct, so the file stores
    them in entry order with all-zero codes, and the loaded index answers
    bit for bit as the one built."""
    articles = pool_corpus([[0, 1, 0], [2, 0, 7], [1, 2, 3, 3], [4, 5], [6, 2]])
    command = [sys.executable, str(scripts_dir / "echo_embedder.py"), "--dim", "8"]
    path = tmp_path / "dense.bin"
    with closing(ExternalEmbedder(command, dimension=8)) as emb:
        index, _ = build_dense_index(articles, emb, TOK)
        save_dense_index(index, path)
        loaded = load_dense_index(path, emb, TOK, index.article_ids, "")
        questions = [" ".join(POOL_WORDS[i : i + 3]) for i in range(len(POOL_WORDS))]
        for question in questions:
            built, read = (dense_retrieve_topk(x, question, 4) for x in (index, loaded))
            assert read.positions.tolist() == built.positions.tolist()
            assert read.scores.tobytes() == built.scores.tobytes()
    stored = stored_arrays(path)
    assert len(np.unique(index.data)) == len(index.data)
    assert stored["values"].tobytes() == index.data.tobytes()
    assert not stored["data"].any()
    assert loaded.data.tobytes() == index.data.tobytes()
