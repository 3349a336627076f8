import itertools
import math
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from bm25_oracle import BruteForceBm25, oracle_bm25, oracle_idf, oracle_quickview, oracle_topk
from conftest import field_token_lists, pairs
from statuteqa.corpus import Article, TokenizerConfig, clean_text, tokenize
from statuteqa.lexical import (
    bm25,
    build_lex_index,
    load_lex_index,
    retrieve_topk,
    save_lex_index,
    score_query,
)
from statuteqa.pipeline import PipelineConfig


def test_build_field_stats(tiny_lex):
    assert tiny_lex.stats("content").doc_count == 3
    assert tiny_lex.stats("content").avgdl == 7.0
    assert tiny_lex.article_ids == ("d1#1", "d1#2", "d2#1")
    assert tiny_lex.stats("content").lengths.tolist() == [8, 8, 5]
    assert tiny_lex.stats("title").doc_count == 2
    assert tiny_lex.stats("title").avgdl == 2.5
    assert tiny_lex.stats("title").lengths.tolist() == [3, 0, 2]  # d1#2 untitled


def test_build_errors(tiny_articles):
    with pytest.raises(ValueError, match="empty corpus"):
        build_lex_index([], PipelineConfig())
    with pytest.raises(ValueError, match="duplicate article id 'd1#1'"):
        build_lex_index(tiny_articles + [tiny_articles[0]], PipelineConfig())


def test_idf_frozen_values():
    # N=2 title field of the tiny fixture
    a = Article("a", "d", "shared term", "shared text here")
    b = Article("b", "d", "shared other", "different words entirely")
    titles = field_token_lists([a, b], "title")
    assert oracle_idf(titles, "shared") == pytest.approx(0.1823215567939546, abs=1e-12)
    assert oracle_idf(titles, "absent") == pytest.approx(1.791759469228055, abs=1e-12)
    single = field_token_lists([a], "title")
    assert oracle_idf(single, "shared") == pytest.approx(0.28768207245178085, abs=1e-12)
    for articles in ([a, b], [a]):  # the index's BM25 carries the same idf
        index = build_lex_index(articles, PipelineConfig())
        titles = field_token_lists(articles, "title")
        want = [oracle_bm25(titles, ["shared"], i) for i in index.article_ids]
        got = score_query(index, ["shared"])["title"][0].tolist()
        assert got == pytest.approx(want, abs=1e-12)


def test_bm25_trivial_cases(tiny_lex):
    assert bm25(tiny_lex, "content", ["zebra", "quark"], "d1#1") == 0.0
    assert bm25(tiny_lex, "content", [], "d1#1") == 0.0
    assert bm25(tiny_lex, "content", ["law"], "no-such-article") == 0.0


def test_bm25_frozen_value(tiny_lex):
    # idf(civil: N=3, n=1) * 2.2 / (1 + 1.2 * (0.25 + 0.75 * 5/7))
    assert bm25(tiny_lex, "content", ["civil"], "d2#1") == pytest.approx(
        1.110644889439749, abs=1e-12
    )


def test_bm25_repeated_query_token_counts_per_occurrence(tiny_lex):
    once = bm25(tiny_lex, "content", ["law"], "d1#2")
    twice = bm25(tiny_lex, "content", ["law", "law"], "d1#2")
    assert twice == pytest.approx(2 * once, abs=1e-12)


def test_bm25_matches_oracle_on_fixture(tiny_articles, tiny_lex):
    content = field_token_lists(tiny_articles, "content")
    title = field_token_lists(tiny_articles, "title")
    queries = [["civil", "law"], ["land", "registry"], ["contract"], ["the", "code"]]
    for query, article in itertools.product(queries, tiny_articles):
        for field, tokens in (("content", content), ("title", title)):
            expected = oracle_bm25(tokens, query, article.article_id)
            got = bm25(tiny_lex, field, query, article.article_id)
            assert got == pytest.approx(expected, abs=1e-9)


def _random_corpus(rng, n_articles):
    vocab = [f"w{i}" for i in range(30)]
    articles = []
    for i in range(n_articles):
        title = " ".join(rng.choices(vocab, k=rng.randint(1, 6))) if rng.random() > 0.2 else None
        content = " ".join(rng.choices(vocab, k=rng.randint(3, 40)))
        articles.append(Article(f"a{i:03d}", f"d{i // 7}", title, content))
    return articles


def test_bm25_matches_oracle_randomized():
    rng = random.Random(7)
    articles = _random_corpus(rng, 30)
    index = build_lex_index(articles, PipelineConfig())
    content = field_token_lists(articles, "content")
    title = field_token_lists(articles, "title")
    for _ in range(50):
        query = rng.choices([f"w{i}" for i in range(30)], k=rng.randint(1, 5))
        article = rng.choice(articles)
        for field, tokens in (("content", content), ("title", title)):
            expected = oracle_bm25(tokens, query, article.article_id)
            assert bm25(index, field, query, article.article_id) == pytest.approx(
                expected, abs=1e-9
            )


_WORDS = st.sampled_from([f"w{i}" for i in range(8)])


@st.composite
def _corpus_query_columns(draw):
    """Articles (some untitled), a query with repeats and out-of-vocabulary
    tokens, and article columns in any order with repeats."""
    n = draw(st.integers(1, 8))
    articles = [
        Article(
            f"a{i}",
            "d",
            draw(st.none() | st.lists(_WORDS, min_size=1, max_size=4).map(" ".join)),
            " ".join(draw(st.lists(_WORDS, min_size=1, max_size=12))),
        )
        for i in range(n)
    ]
    query = draw(st.lists(_WORDS | st.sampled_from(["oov", "zz"]), max_size=8))
    columns = draw(st.lists(st.integers(0, n - 1), max_size=12))
    return articles, query, columns


@settings(max_examples=200, deadline=None)
@given(_corpus_query_columns())
def test_score_query_counts_matched_distinct_query_terms(case):
    """The pass's matched counts, read at columns as the features read them."""
    articles, query, columns = case
    index = build_lex_index(articles, PipelineConfig())
    scores = score_query(index, query)
    for field in ("title", "content"):
        tokens = field_token_lists(articles, field)
        _, matched = scores[field]
        want = [len(set(query) & set(tokens[index.article_ids[c]])) for c in columns]
        assert matched[columns].tolist() == want


def test_quickview_composition(tiny_articles, tiny_lex):
    query = ["civil", "code"]
    content_only = PipelineConfig(alpha=0.0, beta=1.0)
    content_only = dict(pairs(retrieve_topk(tiny_lex, query, 3, content_only)))
    assert content_only["d2#1"] == pytest.approx(
        bm25(tiny_lex, "content", query, "d2#1")
    )
    # "law" is in the content of untitled d1#2, which a title-only quickview misses
    title_only = retrieve_topk(tiny_lex, ["law"], 3, PipelineConfig(alpha=1.0, beta=0.0))
    assert title_only.ids() == ["d1#1"]

    title = field_token_lists(tiny_articles, "title")
    content = field_token_lists(tiny_articles, "content")
    expected = oracle_quickview(title, content, query, "d2#1", alpha=1.5, beta=1.0)
    boosted = PipelineConfig(alpha=1.5, beta=1.0)
    got = dict(pairs(retrieve_topk(tiny_lex, query, 3, boosted)))["d2#1"]
    assert got == pytest.approx(expected, abs=1e-9)


def test_retrieve_title_match_ranks_first(tiny_lex):
    query = tokenize(clean_text("Law of Contracts"))
    ranked = retrieve_topk(tiny_lex, query, 3, PipelineConfig(alpha=1.5, beta=1.0))
    assert ranked.ids()[0] == "d1#1"


def test_retrieve_k_larger_than_matches(tiny_lex):
    ranked = retrieve_topk(tiny_lex, ["civil"], 100, PipelineConfig())
    assert ranked.ids() == ["d2#1"]


def test_retrieve_only_positive_scores(tiny_lex):
    assert len(retrieve_topk(tiny_lex, ["zebra"], 5, PipelineConfig())) == 0
    for score in retrieve_topk(tiny_lex, ["law", "zebra"], 5, PipelineConfig()).scores.tolist():
        assert score > 0.0


def test_retrieve_tie_broken_by_id():
    a = Article("b-second", "d", "same words", "identical content here")
    b = Article("a-first", "d", "same words", "identical content here")
    index = build_lex_index([a, b], PipelineConfig())
    ranked = retrieve_topk(index, ["identical"], 2, PipelineConfig())
    assert ranked.ids() == ["a-first", "b-second"]
    assert ranked.scores[0] == ranked.scores[1]


# Ties, untitled articles and ids whose string order ("d1#10" < "d1#2")
# differs from their numeric order.
TIE_ARTICLES = (
    Article("d1#1", "d1", "Deposit Rules", "Rent deposit rules apply."),
    Article("d1#2", "d1", None, "Rent deposit."),
    Article("d1#10", "d1", None, "Rent deposit."),
    Article("d1#11", "d1", None, "Rent deposit."),
    Article("d2#1", "d2", "Rent", "The tenant pays rent, rent and more rent."),
    Article("d2#3", "d2", "Notice of Rent", "A notice period of one month."),
)


@pytest.mark.parametrize(
    "query, k, alpha, beta",
    [
        (["rent", "zebra", "rent", "deposit"], 10, 1.5, 1.0),  # repeats, OOV
        (["rent", "notice"], 10, 0.0, 1.0),  # alpha = 0
        (["rent", "notice"], 10, 1.5, 0.0),  # beta = 0: untitled score 0
        (["deposit"], 2, 1.5, 1.0),  # a three-way tie across the k-th score
        (["deposit"], 3, 1.5, 1.0),
        (["notice", "month"], 50, 1.5, 1.0),  # k above the positive count
        ([], 5, 1.5, 1.0),  # empty query
    ],
)
def test_retrieve_topk_equals_oracle_exactly(query, k, alpha, beta):
    index = build_lex_index(TIE_ARTICLES, PipelineConfig())
    title = BruteForceBm25(field_token_lists(TIE_ARTICLES, "title"))
    content = BruteForceBm25(field_token_lists(TIE_ARTICLES, "content"))
    got = retrieve_topk(index, query, k, PipelineConfig(alpha=alpha, beta=beta))
    assert pairs(got) == oracle_topk(title, content, query, k, alpha, beta)
    if query == ["deposit"]:
        assert got.ids() == ["d1#1", "d1#10", "d1#11"][:k]


def test_retrieve_prefix_property(synth):
    rng = random.Random(3)
    vocab = sorted(synth.lex.stats("content").terms)
    for _ in range(20):
        query = rng.sample(vocab, k=3)
        small = retrieve_topk(synth.lex, query, 5, PipelineConfig())
        large = retrieve_topk(synth.lex, query, 15, PipelineConfig())
        assert pairs(large[: len(small)]) == pairs(small)


def test_quickview_score_linearity(tiny_lex):
    query = ["civil", "law", "contract"]
    base = PipelineConfig(alpha=1.5, beta=1.0)
    doubled = PipelineConfig(alpha=3.0, beta=2.0)
    ranked = retrieve_topk(tiny_lex, query, 10, base)
    ranked2 = retrieve_topk(tiny_lex, query, 10, doubled)
    assert ranked.ids() == ranked2.ids()
    for s1, s2 in zip(ranked.scores.tolist(), ranked2.scores.tolist()):
        assert s2 == pytest.approx(2 * s1, rel=1e-12)


def test_content_monotonic_in_term_frequency(tiny_articles):
    # appending one more "law" to d1#2's content must not lower its score
    before = build_lex_index(tiny_articles, PipelineConfig())
    bumped = [
        Article(a.article_id, a.doc_id, a.title, a.content + " law")
        if a.article_id == "d1#2"
        else a
        for a in tiny_articles
    ]
    after = build_lex_index(bumped, PipelineConfig())
    assert bm25(after, "content", ["law"], "d1#2") >= bm25(
        before, "content", ["law"], "d1#2"
    )


def test_save_load_round_trip(tiny_articles, tiny_lex, tmp_path):
    path = tmp_path / "lex.bin"
    save_lex_index(tiny_lex, path)
    loaded = load_lex_index(path, TokenizerConfig())
    query, cfg = ["civil", "law", "contracts"], PipelineConfig()
    for article in tiny_articles:
        for field in ("title", "content"):
            assert bm25(loaded, field, query, article.article_id) == bm25(
                tiny_lex, field, query, article.article_id
            )
    assert pairs(retrieve_topk(loaded, query, 3, cfg)) == pairs(
        retrieve_topk(tiny_lex, query, 3, cfg)
    )
    again = tmp_path / "again.bin"
    save_lex_index(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_untitled_corpus_builds_and_loads_without_warnings(tmp_path):
    """No title has tokens, so the title field's avgdl is 0; its per-column
    BM25 norm must not divide by it (0 / 0 warns)."""
    articles = [Article(f"a{i}", "d", None, f"Rent deposit {i}.") for i in range(3)]
    tok = TokenizerConfig()
    path = tmp_path / "lex.bin"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        index = build_lex_index(articles, PipelineConfig())
        save_lex_index(index, path)
        loaded = load_lex_index(path, tok)
    assert loaded.title.avgdl == 0.0 and loaded.title.impact.size == 0
    assert retrieve_topk(loaded, ["rent"], 3, PipelineConfig()).ids() == ["a0", "a1", "a2"]


def test_save_deterministic_bytes(tiny_lex, tmp_path):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_lex_index(tiny_lex, p1)
    save_lex_index(tiny_lex, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_fingerprint_mismatch(tiny_lex, tmp_path):
    path = tmp_path / "lex.bin"
    save_lex_index(tiny_lex, path)
    with pytest.raises(ValueError, match="fingerprint mismatch"):
        load_lex_index(path, TokenizerConfig(frozenset({"civil code"})))


def test_idf_positive_and_decreasing_in_df():
    articles = [
        Article(f"a{i}", "d", None, " ".join(["common"] + [f"rare{i}"]))
        for i in range(10)
    ]
    contents = field_token_lists(articles, "content")
    assert oracle_idf(contents, "common") > 0
    assert oracle_idf(contents, "rare3") > oracle_idf(contents, "common")
    assert math.isclose(oracle_idf(contents, "never-seen"), math.log(1 + 10.5 / 0.5))
    # equal lengths and term frequencies: the index's BM25 orders terms by idf
    index = build_lex_index(articles, PipelineConfig())
    common = score_query(index, ["common"])["content"][0][3]
    rare = score_query(index, ["rare3"])["content"][0][3]
    assert 0.0 < common < rare
