import json
import unicodedata

import pytest
from hypothesis import example, given, strategies as st

from statuteqa.corpus import (
    CorpusFormatError,
    TokenizerConfig,
    _has_text,
    clean_text,
    iter_articles,
    parse_corpus,
    split_sentences,
    tokenize,
    write_corpus_file,
    load_corpus_file,
)

PHRASE_CFG = TokenizerConfig(frozenset({"bộ luật"}))


def test_clean_text_examples():
    assert clean_text("Điều 117! (Bộ luật)") == "điều 117 bộ luật"
    assert clean_text("") == ""
    assert clean_text("A  B\tC") == "a b c"


def test_clean_text_strips_symbols_and_punctuation():
    assert clean_text("--x--") == "x"
    assert clean_text("§1.2(a): fee = 5%") == "1 2 a fee 5"


@given(st.text())
def test_clean_text_idempotent(raw):
    cleaned = clean_text(raw)
    assert clean_text(cleaned) == cleaned


def test_decomposed_vietnamese_cleans_like_its_composed_form():
    """A combining mark is not a letter, so decomposed (NFD) text used to
    split inside syllables: "người" cleaned to "ngu o i"."""
    assert clean_text(unicodedata.normalize("NFD", "người")) == "người"
    nfd = unicodedata.normalize("NFD", "Bộ luật Dân sự")
    assert clean_text(nfd) == "bộ luật dân sự"


@given(st.text())
def test_clean_text_is_equal_for_canonically_equivalent_text(raw):
    for form in ("NFC", "NFD"):
        equivalent = unicodedata.normalize(form, raw)
        assert clean_text(equivalent) == clean_text(raw)
        assert _has_text(equivalent) == bool(clean_text(raw))


@given(st.text())
def test_clean_text_output_charset(raw):
    cleaned = clean_text(raw)
    assert not cleaned.startswith(" ") and not cleaned.endswith(" ")
    assert "  " not in cleaned
    for ch in cleaned:
        assert ch == " " or ch.isalpha() or ch.isdecimal()


def test_tokenize_whitespace():
    assert tokenize("a b c") == ["a", "b", "c"]
    assert tokenize("") == []


def test_tokenize_phrase_merge():
    assert tokenize("bộ luật dân sự", PHRASE_CFG) == ["bộ_luật", "dân", "sự"]


def test_tokenize_phrase_merge_longest_match_wins():
    cfg = TokenizerConfig(frozenset({"a b", "a b c"}))
    assert tokenize("a b c d", cfg) == ["a_b_c", "d"]
    assert tokenize("a b x", cfg) == ["a_b", "x"]


def merge_phrases_reference(text, lexicon):
    """Phrase merging as first written: every phrase, longest first, tried
    at every position."""
    tokens = text.split()
    phrases = sorted((p.split() for p in lexicon), key=len, reverse=True)
    merged = []
    i = 0
    while i < len(tokens):
        for parts in phrases:
            n = len(parts)
            if n > 1 and tokens[i : i + n] == parts:
                merged.append("_".join(parts))
                i += n
                break
        else:
            merged.append(tokens[i])
            i += 1
    return merged


WORDS = st.sampled_from(["a", "b", "c"])


@given(
    st.lists(WORDS, max_size=12),
    st.sets(
        st.lists(WORDS, max_size=3).map(" ".join) | st.sampled_from(["", " a  b ", "b\tc"]),
        min_size=1,
        max_size=8,
    ),
)
def test_tokenize_phrase_merge_matches_reference(words, lexicon):
    cfg = TokenizerConfig(frozenset(lexicon))
    text = " ".join(words)
    assert tokenize(text, cfg) == merge_phrases_reference(text, lexicon)


def test_tokenizer_config_identity_is_its_mode_and_lexicon():
    rebuilt = TokenizerConfig(["bộ luật"])
    assert rebuilt == PHRASE_CFG and hash(rebuilt) == hash(PHRASE_CFG)
    assert repr(rebuilt) == repr(PHRASE_CFG)
    assert TokenizerConfig().fingerprint() == "addf2d5adc1b6cb7"
    assert PHRASE_CFG.fingerprint() == "6d2a1831eb7869d1"


def test_tokenizer_config_validation():
    # a string is not a lexicon; it is also what a mode argument now passes
    for text in ("whitespace_with_phrase_merge", "bộ luật"):
        with pytest.raises(ValueError, match="phrase_lexicon is one string"):
            TokenizerConfig(text)
    with pytest.raises(TypeError):
        TokenizerConfig("whitespace", frozenset({"a b"}))


@pytest.mark.parametrize(
    "entry",
    ["Bộ Luật", unicodedata.normalize("NFD", "bộ luật"), "bộ-luật", " BỘ  LUẬT! "],
)
def test_lexicon_entries_are_cleaned_like_text(entry):
    """Only the exact lowercase NFC entry used to merge: the lexicon was
    matched against cleaned text without being cleaned itself."""
    cfg = TokenizerConfig(frozenset({entry}))
    assert tokenize(clean_text("Theo Bộ luật Dân sự"), cfg) == ["theo", "bộ_luật", "dân", "sự"]
    assert cfg == PHRASE_CFG and cfg.fingerprint() == PHRASE_CFG.fingerprint()


def test_a_lexicon_that_cleans_to_nothing_merges_nothing():
    cfg = TokenizerConfig(frozenset({"", "--", "!?"}))
    assert cfg == TokenizerConfig() and cfg.fingerprint() == "addf2d5adc1b6cb7"
    assert tokenize("a b", cfg) == ["a", "b"]


def test_tokenizer_fingerprint_sensitivity():
    base = TokenizerConfig()
    assert base.fingerprint() == TokenizerConfig().fingerprint()
    assert base.fingerprint() != PHRASE_CFG.fingerprint()


@given(st.text())
def test_tokenize_cleaned_never_empty_token(raw):
    for token in tokenize(clean_text(raw)):
        assert token


def test_split_sentences_examples():
    assert split_sentences("x. y? z") == ["x", "y", "z"]
    assert split_sentences("a)\nb)\nc)") == ["a)", "b)", "c)"]
    assert split_sentences("no delimiters") == ["no delimiters"]
    assert split_sentences("...") == []


@given(st.text())
def test_split_sentences_properties(raw):
    segments = split_sentences(raw)
    delims = set(".;?!\n")
    for segment in segments:
        assert segment == segment.strip()
        assert not delims & set(segment)
    kept = [ch for ch in "".join(segments) if not ch.isspace()]
    original = [ch for ch in raw if ch not in delims and not ch.isspace()]
    assert kept == original


def _fixture_lines():
    # 2 documents, 5 kept articles, 1 missing title
    doc1 = {
        "doc_id": "d1",
        "articles": [
            {"article_id": "d1#1", "title": "Scope", "content": "This law applies."},
            {"article_id": "d1#2", "title": None, "content": "Definitions follow."},
            {"article_id": "d1#3", "title": "Fees", "content": "Fees are due yearly."},
        ],
    }
    doc2 = {
        "doc_id": "d2",
        "articles": [
            {"article_id": "d2#1", "title": "Appeals", "content": "Appeals in 30 days."},
            {"article_id": "d2#2", "title": "Repeal", "content": "Old rules repealed."},
        ],
    }
    return [json.dumps(doc1), json.dumps(doc2)]


def test_parse_corpus_fixture_counts():
    docs, stats = parse_corpus(_fixture_lines())
    assert stats.documents == 2
    assert stats.articles == 5
    assert stats.missing_title == 1
    assert stats.titled == 4
    assert stats.articles == stats.titled + stats.missing_title
    assert [d.doc_id for d in docs] == ["d1", "d2"]
    assert [a.article_id for a in docs[0].articles] == ["d1#1", "d1#2", "d1#3"]


def test_parse_corpus_empty_file():
    docs, stats = parse_corpus([])
    assert docs == [] and stats.documents == 0


def test_parse_corpus_duplicate_article_id():
    record = {
        "doc_id": "d1",
        "articles": [
            {"article_id": "x", "title": None, "content": "a"},
            {"article_id": "x", "title": None, "content": "b"},
        ],
    }
    with pytest.raises(CorpusFormatError, match="duplicate article id"):
        parse_corpus([json.dumps(record)])


def test_parse_corpus_duplicate_doc_id():
    line = json.dumps({"doc_id": "d", "articles": []})
    with pytest.raises(CorpusFormatError, match="duplicate doc id"):
        parse_corpus([line, line])


def test_parse_corpus_malformed_reports_line_number():
    with pytest.raises(CorpusFormatError, match="line 2"):
        parse_corpus([json.dumps({"doc_id": "d", "articles": []}), "{broken"])


@pytest.mark.parametrize("field", ["doc_id", "article_id", "title", "content"])
def test_parse_corpus_rejects_a_lone_surrogate(field):
    """UTF-8 cannot encode a lone surrogate, which JSON can escape."""
    article = {"article_id": "a", "title": "T", "content": "body"}
    record = {"doc_id": "d", "articles": [article]}
    (record if field == "doc_id" else article)[field] = "x\ud800"
    lines = [json.dumps({"doc_id": "first", "articles": []}), json.dumps(record)]
    assert "\\ud800" in lines[1]
    message = f"line 2: {field} holds a lone surrogate"
    with pytest.raises(CorpusFormatError, match=message):
        parse_corpus(lines)


def test_parse_corpus_drops_empty_cleaned_content():
    record = {
        "doc_id": "d1",
        "articles": [
            {"article_id": "a", "title": "T", "content": "---"},
            {"article_id": "b", "title": "!!!", "content": "kept text"},
        ],
    }
    docs, stats = parse_corpus([json.dumps(record)])
    assert stats.dropped_empty_content == 1
    assert stats.articles == 1
    # a title that cleans to empty counts as missing
    assert stats.missing_title == 1
    assert docs[0].articles[0].article_id == "b"
    assert docs[0].articles[0].title is None


# Superscripts and fractions are digits but not decimals; U+0130 lowercases
# to "i" plus the combining dot U+0307, which alone is not a letter.
TEXT_CASES = {
    "m²": True,
    "²": False,
    "½": False,
    "٣": True,  # Arabic-Indic three is a decimal
    "İ": True,
    "\u0307": False,
    "_": False,
}


def _parse_one(title, content):
    article = {"article_id": "a", "title": title, "content": content}
    record = {"doc_id": "d", "articles": [article]}
    docs, stats = parse_corpus([json.dumps(record)])
    return list(iter_articles(docs)), stats


@pytest.mark.parametrize("raw, has_text", TEXT_CASES.items())
def test_parse_corpus_keeps_text_with_a_letter_or_decimal(raw, has_text):
    articles, stats = _parse_one(raw, raw)
    assert stats.dropped_empty_content == (not has_text)
    articles, _ = _parse_one(raw, "body")
    assert articles[0].title == (raw if has_text else None)


@given(st.text())
@example("")
def test_parse_corpus_keeps_exactly_what_cleans_to_text(raw):
    """Emptiness is tested without cleaning; it must agree with clean_text."""
    cleans_to_text = bool(clean_text(raw))
    articles, stats = _parse_one(raw, raw)
    assert stats.dropped_empty_content == (not cleans_to_text)
    assert [a.content for a in articles] == ([raw] if cleans_to_text else [])
    articles, _ = _parse_one(raw, "body")
    assert articles[0].title == (raw if cleans_to_text else None)


def test_corpus_file_round_trip(tmp_path):
    docs, _ = parse_corpus(_fixture_lines())
    path = tmp_path / "corpus.jsonl"
    write_corpus_file(docs, path)
    loaded, stats = load_corpus_file(path)
    assert loaded == docs
    assert stats.articles == 5
    assert len(list(iter_articles(loaded))) == 5


def test_corpus_file_that_is_not_utf8_names_the_file_and_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    first = json.dumps({"doc_id": "d1", "articles": []}).encode("utf-8")
    latin1 = '{"doc_id": "d2", "articles": [{"article_id": "a", "content": "caf\xe9"}]}'
    path.write_bytes(first + b"\n" + latin1.encode("latin-1") + b"\n")
    with pytest.raises(CorpusFormatError, match=f"{path}: line 2: not UTF-8"):
        load_corpus_file(path)
