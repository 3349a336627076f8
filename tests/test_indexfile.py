"""Index files are checked on load: anything but a well-formed file of the
current format raises ValueError naming the path, and no array is ever
unpickled. Integer arrays are stored as byte planes and rebuilt exactly."""

import dataclasses
import functools
import gzip
import json
import lzma
import os
import re
import unicodedata

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kernel_oracle
from conftest import read_stored, write_stored
from statuteqa import dense, indexfile, lexical
from statuteqa.corpus import Article, CorpusFormatError, TokenizerConfig, load_corpus_file
from statuteqa.dense import (
    DENSE_INDEX_VERSION,
    HashedProjectionEmbedder,
    build_dense_index,
    load_dense_index,
    save_dense_index,
)
from statuteqa.lexical import (
    LEX_INDEX_VERSION,
    build_lex_index,
    load_lex_index,
    save_lex_index,
)
from statuteqa.pipeline import PipelineConfig

KINDS = ("lex", "dense")
LAYOUT = {**lexical._LAYOUT, **dense._LAYOUT}  # every saved array's (dtype, ndim)
VERSIONS = {"lex": LEX_INDEX_VERSION, "dense": DENSE_INDEX_VERSION}
SPRUNG = []


def _spring():
    SPRUNG.append("unpickled")


class Trap:
    """Unpickling an instance calls ``_spring``."""

    def __reduce__(self):
        return (_spring, ())


@pytest.fixture(scope="module")
def indexes(tiny_articles):
    tok, embedder = TokenizerConfig(), HashedProjectionEmbedder(64, 0)
    lex = build_lex_index(tiny_articles, PipelineConfig())
    dense, _ = build_dense_index(tiny_articles, embedder, tok)
    return {
        "lex": (lex, save_lex_index, functools.partial(
            load_lex_index, cfg=PipelineConfig(), corpus_digest=""
        )),
        "dense": (dense, save_dense_index, functools.partial(
            load_dense_index, embedder=embedder, tokenizer=tok, article_ids=lex.article_ids,
            corpus_digest="",
        )),
    }


def _saved(indexes, kind, tmp_path):
    index, save, load = indexes[kind]
    path = tmp_path / f"{kind}.bin"
    save(index, path)
    return path, load


def _read(path):
    """A saved file's header and arrays, integer arrays rebuilt from their
    byte planes; ``_write`` stores them as planes again."""
    header, stored = read_stored(path)
    arrays = {
        name: indexfile.from_planes(path, name, array, LAYOUT[name][0])
        if array.dtype == np.uint8 else array
        for name, array in stored.items()
    }
    return header, arrays


def _write(path, header, arrays):
    indexfile.save(path, header["format"], header["version"], header, arrays)


def _front_coded(header, arrays, table, strings):
    """``header`` and ``arrays`` with the lexical ``table`` front-coded as
    ``strings``: its suffixes in the header, its prefixes an array."""
    prefix, suffix = indexfile.front_encode(strings)
    return {**header, table: suffix}, {**arrays, f"{table}.prefix": prefix}


def _decoded(path, header, arrays, table):
    """The strings of the lexical ``table`` as a file stores them."""
    return indexfile.front_decode(path, table, arrays[f"{table}.prefix"], header[table])


def _ptr(counts):
    """The list pointers that ``counts`` store: their running sums from 0."""
    return np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)


def _list_counts(arrays, name):
    """The length of each list the gap-coded array ``name`` stores: per dense
    coordinate its entries, per lexical term its postings."""
    return arrays["entry_counts" if name == "rows" else name.replace("columns", "df")]


def _postings(arrays, field):
    """Each term's ascending article columns in a lexical file's ``field``."""
    return _lists(_ptr(arrays[f"{field}.df"]), arrays[f"{field}.columns"])


def _store_lists(arrays, field, lists):
    """``arrays`` with ``field``'s stored column lists replaced by ``lists``."""
    ids = np.concatenate([np.zeros(0, np.int32), *lists]).astype(np.int32)
    arrays[f"{field}.columns"] = indexfile.gap_encode(_ptr(list(map(len, lists))), ids)
    return arrays


def _store_postings(arrays, field, postings):
    """``arrays`` with ``field``'s postings, and so its ``df``, replaced by ``postings``."""
    arrays[f"{field}.df"] = np.array(list(map(len, postings)), dtype=np.int64)
    return _store_lists(arrays, field, postings)


def _rebuild_lex(version):
    """The message a lexical file of ``version`` is refused with."""
    return (
        rf"lex.bin: version mismatch \(index {version}, expected {LEX_INDEX_VERSION}\); "
        "rebuild it with `statuteqa index`"
    )


@pytest.mark.parametrize("kind", KINDS)
def test_save_that_fails_midway_leaves_the_old_index(
    kind, indexes, tmp_path, monkeypatch
):
    index, save, _ = indexes[kind]
    path, load = _saved(indexes, kind, tmp_path)
    before = path.read_bytes()
    write_array, calls = np.lib.format.write_array, []

    def third_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise OSError("no space left on device")
        return write_array(*args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", third_fails)
    with pytest.raises(OSError, match="no space left"):
        save(index, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # the partial file is removed
    load(path)


@pytest.mark.parametrize("kind", KINDS)
def test_parent_json_lines_index_is_rejected(kind, indexes, tmp_path):
    _, _, load = indexes[kind]
    path = tmp_path / f"{kind}.jsonl"
    header = {"format": f"statuteqa.{kind}index", "version": 1}
    path.write_text(json.dumps(header) + "\n" + json.dumps({"field": "title"}) + "\n")
    with pytest.raises(ValueError, match=f"{kind}.jsonl: Input format not supported by decoder"):
        load(path)


@pytest.mark.parametrize("kind", KINDS)
def test_a_gzip_index_of_an_earlier_version_is_told_to_rebuild(kind, indexes, tmp_path):
    """Every index file written before the xz stream was one gzip stream."""
    path, load = _saved(indexes, kind, tmp_path)
    payload = lzma.decompress(path.read_bytes(), format=lzma.FORMAT_XZ)
    path.write_bytes(gzip.compress(payload, mtime=0))
    message = "a gzip file of an earlier version; rebuild it with `statuteqa index`"
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load(path)


@pytest.mark.parametrize("kind", KINDS)
def test_every_single_bit_flip_is_refused_naming_the_file(kind, indexes, tmp_path):
    """Bits 0 and 7 of each byte in turn: the xz stream's CRCs, sizes and
    CRC64 check leave no byte uncovered, as gzip's flags and time were."""
    path, load = _saved(indexes, kind, tmp_path)
    whole = path.read_bytes()
    for i in range(len(whole)):
        for bit in (0x01, 0x80):
            flipped = bytearray(whole)
            flipped[i] ^= bit
            path.write_bytes(flipped)
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
                load(path)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tail", ["stream padding", "junk", "a second stream"])
def test_bytes_after_the_stream_are_refused(kind, tail, indexes, tmp_path):
    """``lzma.decompress`` would skip the padding, ignore junk after a
    stream and join a second stream to the first."""
    path, load = _saved(indexes, kind, tmp_path)
    whole = path.read_bytes()
    after = {"stream padding": b"\0" * 4, "junk": b"junk" * 8, "a second stream": whole}
    path.write_bytes(whole + after[tail])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not one whole xz stream$"):
        load(path)


@pytest.mark.parametrize("kind", KINDS)
def test_wrong_format_or_version_is_rejected(kind, indexes, tmp_path):
    path, load = _saved(indexes, kind, tmp_path)
    other = "dense" if kind == "lex" else "lex"
    other_path, _ = _saved(indexes, other, tmp_path)
    with pytest.raises(ValueError, match=f"{other}.bin: format mismatch"):
        load(other_path)
    header, arrays = _read(path)
    _write(path, {**header, "version": 1}, arrays)
    expected = VERSIONS[kind]
    with pytest.raises(ValueError, match=f"{kind}.bin: version mismatch .index 1, expected {expected}"):
        load(path)


@pytest.mark.parametrize("kind", KINDS)
def test_truncated_file_is_rejected(kind, indexes, tmp_path):
    path, load = _saved(indexes, kind, tmp_path)
    whole = path.read_bytes()
    for size in (0, 10, len(whole) // 2, len(whole) - 1):
        path.write_bytes(whole[:size])
        with pytest.raises(ValueError, match=f"{kind}.bin: "):
            load(path)


def test_dense_header_dimension_must_be_the_embedders(indexes, tmp_path):
    path, load = _saved(indexes, "dense", tmp_path)
    header, arrays = _read(path)
    _write(path, {**header, "dimension": 63}, arrays)
    with pytest.raises(ValueError, match="dense.bin: dimension mismatch .index 63, expected 64"):
        load(path)


@pytest.mark.parametrize("kind", KINDS)
def test_a_boolean_header_value_never_matches_a_number(kind, tiny_articles, tmp_path):
    """``True == 1`` in Python, so a dense header's ``"dimension": true``
    loaded under a 1-dimension embedder."""
    cfg, embedder = PipelineConfig(k1=1.0), HashedProjectionEmbedder(1, 0)
    lex = build_lex_index(tiny_articles, cfg)
    path = tmp_path / f"{kind}.bin"
    if kind == "lex":
        save_lex_index(lex, path)
        load, key = functools.partial(load_lex_index, cfg=cfg, corpus_digest=""), "k1"
    else:
        dense_index, _ = build_dense_index(tiny_articles, embedder, lex.tokenizer)
        save_dense_index(dense_index, path)
        load = functools.partial(
            load_dense_index, embedder=embedder, tokenizer=lex.tokenizer,
            article_ids=lex.article_ids, corpus_digest="",
        )
        key = "dimension"
    load(path)
    header, arrays = _read(path)
    _write(path, {**header, key: True}, arrays)
    expected = header[key]
    assert expected == 1
    with pytest.raises(
        ValueError, match=rf"{kind}.bin: {key} mismatch \(index True, expected {expected}\)"
    ):
        load(path)


@pytest.mark.parametrize("kind", KINDS)
def test_a_file_of_another_corpus_is_refused_before_an_array_is_decoded(
    kind, indexes, tmp_path
):
    """The corpus digest is an expected header value: a file of another
    corpus fails on its header, though an array it holds is undecodable."""
    path, load = _saved(indexes, kind, tmp_path)
    header, stored = read_stored(path)
    name = next(name for name, array in stored.items() if array.dtype == np.uint8)
    write_stored(path, header, {**stored, name: np.zeros((3, 1), np.uint8)})
    with pytest.raises(ValueError, match=f"{name} is not 1, 2, 4 or 8 uint8 byte planes"):
        load(path)
    other = "ab" * 32
    message = rf"{kind}.bin: corpus digest mismatch \(index '', expected '{other}'\)$"
    with pytest.raises(ValueError, match=message):
        load(path, corpus_digest=other)


# (a header, the kind of file it heads, the message check_header raises)
HEADER_CHECKS = [
    (
        {"format": "f", "version": 1, "flag": True}, "index",
        "a: version mismatch (index 1, expected 2); rebuild it with `statuteqa index`",
    ),
    ({"format": "f", "version": 2, "flag": 1}, "index", "a: flag mismatch (index 1, expected True)"),
    ({"format": "f", "version": True, "flag": True}, "model", (
        "a: version mismatch (model True, expected 2); rebuild it with `statuteqa train`"
    )),
    ([], "model", "a: format mismatch (model None, expected 'f')"),
    ({}, "index", "a: format mismatch (index None, expected 'f')"),
]


@pytest.mark.parametrize("header, kind, message", HEADER_CHECKS)
def test_check_header_is_one_rule_for_every_artifact(header, kind, message):
    """Keys are checked in the wanted order; a boolean never matches a
    number; a version mismatch names the command that rebuilds the file."""
    wanted = {"format": "f", "version": 2, "flag": True}
    indexfile.check_header("a", kind, {**wanted, "extra": 0}, wanted)
    with pytest.raises(ValueError) as raised:
        indexfile.check_header("a", kind, header, wanted)
    assert str(raised.value) == message


def test_a_number_never_matches_an_expected_boolean(tmp_path):
    path = tmp_path / "flag.bin"
    indexfile.save(path, "f", 1, {"corpus_digest": "", "flag": 1}, {})
    assert indexfile.load(path, "f", 1, {}, {"flag": 1})[0]["flag"] == 1
    with pytest.raises(ValueError, match=r"flag.bin: flag mismatch \(index 1, expected True\)"):
        indexfile.load(path, "f", 1, {}, {"flag": True})


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("order", ["out of order", "repeated"])
def test_article_ids_out_of_order_or_repeated_are_rejected(kind, order, indexes, tmp_path):
    """The dense file stores only the digest of the lexical index's ids."""
    path, load = _saved(indexes, kind, tmp_path)
    header, arrays = _read(path)
    ids = list(indexes["lex"][0].article_ids)
    ids = ids[::-1] if order == "out of order" else [ids[0], *ids[:-1]]
    if kind == "lex":
        _write(path, *_front_coded(header, arrays, "article_ids", ids))
    else:
        _write(path, {**header, "article_ids_sha256": indexfile.strings_digest(ids)}, arrays)
        load = functools.partial(load, article_ids=tuple(ids))
    with pytest.raises(ValueError, match=f"{kind}.bin: article ids out of order"):
        load(path)


# (index kinds, a header edit, the error after the file name)
OTHER_ARTICLES = (
    r"article ids sha256 mismatch \(index {}, expected '[0-9a-f]{{64}}'\); "
    "rebuild both files with `statuteqa index`"
)
HEADER_EDITS = [
    (["lex"], {"article_ids": ["a", 1]}, "article_ids must be a list of strings"),
    (["lex"], {"article_ids": None}, "article_ids must be a list of strings"),
    (["dense"], {"article_ids_sha256": None}, OTHER_ARTICLES.format("None")),
    (["dense"], {"article_ids_sha256": "0" * 64}, OTHER_ARTICLES.format("'0{64}'")),
    (KINDS, {"corpus_digest": 5}, r"corpus digest mismatch \(index 5, expected ''\)"),
    (KINDS, {"corpus_digest": None}, r"corpus digest mismatch \(index None, expected ''\)"),
    (["lex"], {"k1": "x"}, r"k1 mismatch \(index 'x', expected 1.2\)"),
    (["lex"], {"k1": None}, r"k1 mismatch \(index None, expected 1.2\)"),
    (["lex"], {"k1": [1]}, r"k1 mismatch \(index \[1\], expected 1.2\)"),
    (["lex"], {"k1": True}, r"k1 mismatch \(index True, expected 1.2\)"),
    (["lex"], {"k1": float("nan")}, r"k1 mismatch \(index nan, expected 1.2\)"),
    (["lex"], {"k1": -1.0}, r"k1 mismatch \(index -1.0, expected 1.2\)"),
    (["lex"], {"b": 1.5}, r"b mismatch \(index 1.5, expected 0.75\)"),
    (["lex"], {"b": "0.75"}, r"b mismatch \(index '0.75', expected 0.75\)"),
    (["lex"], {"terms": None}, "terms must be a list of strings"),
    (["lex"], {"terms": {"title": [], "content": []}}, "terms must be a list of strings"),
    (["lex"], {"terms": ["a", 2]}, "terms must be a list of strings"),
]


@pytest.mark.parametrize(
    "kind, edit, message",
    [(kind, edit, message) for kinds, edit, message in HEADER_EDITS for kind in kinds],
)
def test_malformed_header_values_are_rejected_naming_the_file(
    kind, edit, message, indexes, tmp_path
):
    """Each used to raise ``TypeError`` (which the CLI does not report), fail
    later on the corpus digest's slice, or fail without naming the file."""
    path, load = _saved(indexes, kind, tmp_path)
    header, arrays = _read(path)
    _write(path, {**header, **edit}, arrays)
    with pytest.raises(ValueError, match=f"{kind}.bin: {message}"):
        load(path)


# Five articles: "clause" is in all of them, "shared" in three, [0, 1, 2],
# and "pair" in two, [0, 1]; each is stored as its postings
FIVE = [
    Article(f"a{i}", "d", None, " ".join(["Clause", *words]))
    for i, words in enumerate([["shared", "pair"], ["shared", "pair"], ["shared"], [], []])
]


def _five_saved(tmp_path):
    """The ``FIVE`` index saved: (path, header, arrays, the content postings
    per term, the row of each term)."""
    index = build_lex_index(FIVE, PipelineConfig())
    path = tmp_path / "lex.bin"
    save_lex_index(index, path)
    header, arrays = _read(path)
    return path, header, arrays, _postings(arrays, "content"), index.terms


def test_lex_columns_swapped_within_a_row_are_rejected(tmp_path):
    """A common term's postings and a rare term's are checked by one rule."""
    for term, stored in [("pair", [0, 1]), ("shared", [0, 1, 2])]:
        path, header, arrays, lists, rows = _five_saved(tmp_path)
        assert lists[rows[term]].tolist() == stored
        assert lists[rows["clause"]].tolist() == [0, 1, 2, 3, 4]
        lists[rows[term]] = lists[rows[term]][::-1]
        _write(path, header, _store_lists(arrays, "content", lists))
        with pytest.raises(ValueError, match="lex.bin: content columns not strictly ascending"):
            load_lex_index(path, PipelineConfig(), "")


# case -> (what is stored for the postings of "shared", [0, 1, 2], the error)
POSTING_EDITS = {
    "repeated": ([0, 0, 2], "content columns not strictly ascending"),
    "falling": ([0, 2, 1], "content columns not strictly ascending"),
    "past the columns": ([0, 1, 5], r"content columns outside \[0, 5\)"),
    "negative": ([-1, 0, 1], r"content columns outside \[0, 5\)"),
    "one long": ([0, 1, 2, 3], "content columns lists must not fall from 0 to 11"),
    "one short": ([0, 1], "content columns lists must not fall from 0 to 9"),
}


@pytest.mark.parametrize("case", sorted(POSTING_EDITS))
def test_malformed_posting_lists_are_rejected_naming_the_file(case, tmp_path):
    """``gap_decode`` refuses a list whose columns do not rise strictly
    within ``[0, n)``, or one of another length than its ``df``."""
    stored, message = POSTING_EDITS[case]
    path, header, arrays, lists, rows = _five_saved(tmp_path)
    lists[rows["shared"]] = np.array(stored, dtype=np.int32)
    _write(path, header, _store_lists(arrays, "content", lists))
    with pytest.raises(ValueError, match=f"lex.bin: {message}"):
        load_lex_index(path, PipelineConfig(), "")


def test_a_term_posted_more_often_than_there_are_columns_is_rejected(tmp_path):
    path, header, arrays, _, rows = _five_saved(tmp_path)
    arrays["content.df"][rows["clause"]] += 1
    arrays["content.tf"] = np.append(arrays["content.tf"], 1).astype(np.int32)
    _write(path, header, arrays)
    with pytest.raises(ValueError, match="lex.bin: content.df past 5 columns"):
        load_lex_index(path, PipelineConfig(), "")


# Two articles share a sentence: 4 sentences, 3 vectors, map [0, 1, 0, 2],
# stored in first-use code as [0, 0, 1, 0]
SHARED_SENTENCE = [
    Article("a", "d", None, "Breach causes damages. A contract binds."),
    Article("b", "d", None, "Breach causes damages. Land registry records titles."),
]

# case -> (array, edit of the stored codes or of the posting rows, message);
# the sentence counts add up to the 4 sentences, not to a map of 3 or 5
MAP_EDITS = {
    "map one short": ("sentence_vector", lambda a: a[:-1], "sentence_counts must add up to 3"),
    "map one long": (
        "sentence_vector", lambda a: np.append(a, 0), "sentence_counts must add up to 5"
    ),
    "code names a later vector": (
        "sentence_vector", lambda a: np.array([0, 0, 3, 0]),
        "sentence_vector must name rows in first-use order",
    ),
    "negative code": (
        "sentence_vector", lambda a: np.array([0, 0, -1, 0]),
        "sentence_vector must name rows in first-use order",
    ),
    "row at the vector count": (
        "rows", lambda a: np.where(a == 2, 3, a), r"rows outside \[0, 3\)"
    ),
}


@pytest.mark.parametrize("case", sorted(MAP_EDITS))
def test_a_malformed_sentence_map_is_rejected_naming_the_file(case, tmp_path):
    """Posting rows number vectors, not sentences, so a row of 3 is past the
    3 vectors although 4 sentences share them."""
    name, edit, message = MAP_EDITS[case]
    embedder, tok = HashedProjectionEmbedder(64, 0), TokenizerConfig()
    index, _ = build_dense_index(SHARED_SENTENCE, embedder, tok)
    assert index.sentence_vector.tolist() == [0, 1, 0, 2]
    path = tmp_path / "dense.bin"
    save_dense_index(index, path)
    header, arrays = _read(path)
    if name == "rows":
        ptr = _ptr(arrays["entry_counts"])
        ids = np.concatenate([edit(ids) for ids in _lists(ptr, arrays["rows"])])
        arrays["rows"] = indexfile.gap_encode(ptr, ids.astype(np.int32))
    else:
        assert arrays[name].tolist() == [0, 0, 1, 0]
        arrays[name] = edit(arrays[name])
    _write(path, header, arrays)
    with pytest.raises(ValueError, match=f"dense.bin: {message}"):
        load_dense_index(path, embedder, tok, index.article_ids, "")


def test_a_version_6_dense_file_says_to_rebuild_the_index(indexes, tmp_path):
    """Version 6 stored one vector per sentence and no sentence map."""
    path, load = _saved(indexes, "dense", tmp_path)
    header, arrays = _read(path)
    arrays.pop("sentence_vector")
    _write(path, {**header, "version": 6}, arrays)
    message = r"dense.bin: version mismatch \(index 6, expected 11\); rebuild it with `statuteqa index`"
    with pytest.raises(ValueError, match=message):
        load(path)


def test_a_version_5_lex_file_says_to_rebuild_the_index(indexes, tmp_path):
    """Version 5 stored one term list per field."""
    path, load = _saved(indexes, "lex", tmp_path)
    header, arrays = _read(path)
    terms = _decoded(path, header, arrays, "terms")
    _write(path, {**header, "version": 5, "terms": {"title": terms, "content": terms}}, arrays)
    with pytest.raises(ValueError, match=_rebuild_lex(5)):
        load(path)


def test_a_version_7_dense_file_says_to_rebuild_the_index(indexes, tmp_path):
    """Version 7 stored its own copy of the article ids, as a plain list."""
    path, load = _saved(indexes, "dense", tmp_path)
    header, arrays = _read(path)
    header.pop("article_ids_sha256")
    ids = list(indexes["dense"][0].article_ids)
    _write(path, {**header, "version": 7, "article_ids": ids}, arrays)
    message = r"dense.bin: version mismatch \(index 7, expected 11\); rebuild it with `statuteqa index`"
    with pytest.raises(ValueError, match=message):
        load(path)


def test_a_version_6_lex_file_says_to_rebuild_the_index(indexes, tmp_path):
    """Version 6 stored the article ids and terms as plain lists."""
    path, load = _saved(indexes, "lex", tmp_path)
    header, arrays = _read(path)
    keys = ("article_ids", "terms")
    plain = {key: _decoded(path, header, arrays, key) for key in keys}
    _write(path, {**header, "version": 6, **plain}, arrays)
    with pytest.raises(ValueError, match=_rebuild_lex(6)):
        load(path)


def test_a_version_7_lex_file_says_to_rebuild_the_index(indexes, tmp_path):
    """Version 7 kept the front codes' prefixes in the header and stored
    each field's indptr and lengths."""
    path, load = _saved(indexes, "lex", tmp_path)
    header, _ = _read(path)
    index = indexes["lex"][0]
    for key, strings in (("article_ids", index.article_ids), ("terms", index.terms)):
        prefix, suffix = indexfile.front_encode(strings)
        header[key] = {"prefix": prefix.tolist(), "suffix": suffix}
    arrays = {}
    for field in lexical.FIELDS:
        matrix = getattr(index, field)
        arrays[f"{field}.indptr"] = matrix.indptr
        arrays[f"{field}.columns"] = indexfile.gap_encode(matrix.indptr, matrix.columns)
        arrays[f"{field}.tf"] = matrix.tf
        arrays[f"{field}.lengths"] = matrix.lengths
    _write(path, {**header, "version": 7}, arrays)
    with pytest.raises(ValueError, match=_rebuild_lex(7)):
        load(path)


def test_a_version_8_lex_file_says_to_rebuild_the_index(indexes, tmp_path):
    """Version 8 stored every term's postings, however common the term, as
    version 11 does: only the version number tells them apart."""
    path, load = _saved(indexes, "lex", tmp_path)
    header, arrays = _read(path)
    _write(path, {**header, "version": 8}, arrays)
    assert LEX_INDEX_VERSION == 11
    with pytest.raises(ValueError, match=_rebuild_lex(8)):
        load(path)


def test_a_version_10_lex_file_says_to_rebuild_the_index(tmp_path):
    """Versions 9 and 10 stored a term posted in more than half the columns
    as the columns it lacks: in ``FIVE``, "clause" as none and "shared" as
    [3, 4]."""
    path, header, arrays, lists, rows = _five_saved(tmp_path)
    lists[rows["clause"]] = np.zeros(0, np.int32)
    lists[rows["shared"]] = np.array([3, 4], np.int32)
    _write(path, {**header, "version": 10}, _store_lists(arrays, "content", lists))
    with pytest.raises(ValueError, match=_rebuild_lex(10)):
        load_lex_index(path, PipelineConfig(), "")


def test_a_version_8_dense_file_says_to_rebuild_the_index(indexes, tmp_path):
    """Version 8 stored offsets and colptr, not counts."""
    path, load = _saved(indexes, "dense", tmp_path)
    header, arrays = _read(path)
    index = indexes["dense"][0]
    arrays = {
        "offsets": index.offsets,
        "sentence_vector": arrays["sentence_vector"],
        "colptr": index.colptr,
        "rows": arrays["rows"],
        "data": index.data,
    }
    _write(path, {**header, "version": 8}, arrays)
    message = r"dense.bin: version mismatch \(index 8, expected 11\); rebuild it with `statuteqa index`"
    with pytest.raises(ValueError, match=message):
        load(path)


def test_a_version_9_dense_file_says_to_rebuild_the_index(indexes, tmp_path):
    """Version 9 stored every float64 value of data, not a value table."""
    path, load = _saved(indexes, "dense", tmp_path)
    header, arrays = _read(path)
    arrays.pop("values")
    arrays["data"] = indexes["dense"][0].data
    _write(path, {**header, "version": 9}, arrays)
    message = r"dense.bin: version mismatch \(index 9, expected 11\); rebuild it with `statuteqa index`"
    with pytest.raises(ValueError, match=message):
        load(path)


# Built as alpha, beta, gamma: with the header's terms edited, "beta" would
# find no row and score 0
ALPHABET = [Article("a", "d", None, "Alpha beta."), Article("b", "d", None, "Gamma.")]


@pytest.mark.parametrize(
    "terms", [["alpha", "alpha", "gamma"], ["gamma", "beta", "alpha"]], ids=["repeated", "falling"]
)
def test_terms_repeated_or_out_of_order_are_rejected(terms, tmp_path):
    """Terms were checked only for being strings, so these loaded."""
    cfg = PipelineConfig()
    index = build_lex_index(ALPHABET, cfg)
    assert list(index.terms) == ["alpha", "beta", "gamma"]
    path = tmp_path / "lex.bin"
    save_lex_index(index, path)
    assert lexical.bm25(load_lex_index(path, cfg, ""), "content", ["beta"], "a") > 0
    header, arrays = _read(path)
    _write(path, *_front_coded(header, arrays, "terms", terms))
    with pytest.raises(ValueError, match="lex.bin: terms out of order"):
        load_lex_index(path, cfg, "")


def test_a_term_with_no_posting_in_either_field_is_rejected(indexes, tmp_path):
    """Both fields keep an empty row for a term added to the vocabulary."""
    path, load = _saved(indexes, "lex", tmp_path)
    header, arrays = _read(path)
    terms = _decoded(path, header, arrays, "terms")
    assert terms[-1] < "zzz"
    for field in lexical.FIELDS:
        arrays[f"{field}.df"] = np.append(arrays[f"{field}.df"], 0)
    _write(path, *_front_coded(header, arrays, "terms", [*terms, "zzz"]))
    with pytest.raises(ValueError, match="lex.bin: every term must have a posting"):
        load(path)


# Vietnamese words in NFC, some of them again in NFD, which clean alike; the
# lexicon merges two phrases of them
WORDS = ["người", "lao", "động", "hợp", "đồng", "bộ", "luật", "điều", "khoản", "2015"]
WORDS += [unicodedata.normalize("NFD", word) for word in WORDS[:5]]
LEXICON = ["bộ luật", "hợp đồng lao động"]
# a sentence, or one of a few drawn again and again so that sentences repeat
SENTENCES = st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join) | st.sampled_from(
    ["Người lao động", "hợp đồng lao động.", "— § —"]
)
# no title, one that cleans to nothing, or words
TITLES = st.none() | st.sampled_from(["", "§ — !"]) | SENTENCES


@st.composite
def corpora(draw):
    """Articles ``<law>/2015/QH13#<i>`` whose sentences may clean to nothing."""
    count = draw(st.integers(1, 6))
    return [
        Article(
            f"{draw(st.integers(1, 300))}/2015/QH13#{i}", "d", draw(TITLES),
            ". ".join(draw(st.lists(SENTENCES, max_size=4))),
        )
        for i in range(count)
    ]


def _same_array(got, built):
    assert (got.dtype, got.shape, got.tobytes()) == (built.dtype, built.shape, built.tobytes())


@settings(deadline=None)
@given(articles=corpora(), lexicon=st.booleans())
def test_saved_indexes_load_to_the_built_arrays_and_save_again_to_equal_bytes(
    articles, lexicon, tmp_path_factory
):
    """Every array a load derives (pointers from counts, lengths from tf,
    strings from front codes) equals the built one bit for bit."""
    cfg = PipelineConfig(phrase_lexicon=LEXICON if lexicon else [])
    tok, embedder = cfg.tokenizer_config(), HashedProjectionEmbedder(16, 0)
    lex = build_lex_index(articles, cfg)
    dense, _ = build_dense_index(articles, embedder, tok)
    directory = tmp_path_factory.getbasetemp()
    paths = [directory / name for name in ("lex.bin", "dense.bin", "lex2.bin", "dense2.bin")]
    save_lex_index(lex, paths[0])
    save_dense_index(dense, paths[1])
    lex_loaded = load_lex_index(paths[0], cfg, "")
    dense_loaded = load_dense_index(paths[1], embedder, tok, lex_loaded.article_ids, "")
    assert lex_loaded.article_ids == lex.article_ids == dense.article_ids
    assert list(lex_loaded.terms.items()) == list(lex.terms.items())
    for field in lexical.FIELDS:
        got, built = getattr(lex_loaded, field), getattr(lex, field)
        for name in ("indptr", "columns", "tf", "impact", "lengths", "distinct"):
            _same_array(getattr(got, name), getattr(built, name))
    for name in ("offsets", "sentence_vector", "colptr", "rows", "data", "sentence_article"):
        _same_array(getattr(dense_loaded, name), getattr(dense, name))
    assert dense_loaded.vectors == dense.vectors
    save_lex_index(lex_loaded, paths[2])
    save_dense_index(dense_loaded, paths[3])
    assert paths[0].read_bytes() == paths[2].read_bytes()
    assert paths[1].read_bytes() == paths[3].read_bytes()


# how many of a field's columns a drawn term row posts in
SHARES = ("all", "half", "over half", "none", "any")


@st.composite
def random_postings(draw):
    """(columns, each field's posting lists per term): rows posted in every
    column, in half (rounded down), in just over half, in none or in any
    number of them. Every column has a content posting and every term a
    posting, as build makes them; a column without a title posting is an
    untitled article."""
    n = draw(st.sampled_from([1, 2]) | st.integers(1, 9))
    terms = draw(st.integers(1, 6))
    sizes = {"all": n, "half": n // 2, "over half": n // 2 + 1, "none": 0}
    fields = {}
    for field in lexical.FIELDS:
        rows = []
        for _ in range(terms):
            share = draw(st.sampled_from(SHARES))
            size = sizes[share] if share in sizes else draw(st.integers(0, n))
            rows.append(sorted(draw(st.permutations(range(n)))[:size]))
        fields[field] = rows
    for column in set(range(n)) - {c for row in fields["content"] for c in row}:
        fields["content"][0] = sorted([*fields["content"][0], column])
    for t in range(terms):
        if not fields["title"][t] and not fields["content"][t]:
            fields["content"][t] = [0]
    return n, fields


@settings(deadline=None)
@given(drawn=random_postings(), seed=st.integers(0, 2**32 - 1))
def test_random_postings_load_to_the_saved_arrays(drawn, seed, tmp_path_factory):
    """Each row is stored as its postings and loads bit for bit; the loaded
    dense rows are the rows the common-term rule picks."""
    n, fields = drawn
    cfg, rng = PipelineConfig(), np.random.default_rng(seed)
    postings = {}
    for field, rows in fields.items():
        columns = np.array([c for row in rows for c in row], dtype=np.int32)
        tf = rng.integers(1, 4, size=len(columns)).astype(np.int32)
        postings[field] = _ptr(list(map(len, rows))), columns, tf
    ids, terms = [f"a{c}" for c in range(n)], [f"t{t}" for t in range(len(fields["title"]))]
    index = lexical._lex_index(ids, terms, postings, cfg, "")
    directory = tmp_path_factory.getbasetemp()
    paths = [directory / "lex.bin", directory / "lex2.bin"]
    save_lex_index(index, paths[0])
    _, arrays = _read(paths[0])
    loaded = load_lex_index(paths[0], cfg, "")
    for field, rows in fields.items():
        assert [ids.tolist() for ids in _postings(arrays, field)] == rows
        got, built = getattr(loaded, field), getattr(index, field)
        for name in ("indptr", "columns", "tf", "impact", "lengths", "distinct"):
            _same_array(getattr(got, name), getattr(built, name))
        common = lexical.common_rows(arrays[f"{field}.df"], n)
        assert sorted(got.dense) == np.flatnonzero(common).tolist()
        assert got.dense.keys() == built.dense.keys()
        for r, row in built.dense.items():
            _same_array(got.dense[r], row)
    save_lex_index(loaded, paths[1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_a_term_in_exactly_half_the_columns_is_not_a_common_term():
    """``2·df = n`` is not common: the row is not a dense row, and BM25 and
    matched counts read its postings alike."""
    articles = [
        Article(f"a{i:02d}", "d", "h t" if i % 2 else "t", "c0 h" if i < 6 else "c0 r")
        for i in range(12)
    ]
    index = build_lex_index(articles, PipelineConfig())
    h, n = index.terms["h"], len(index.article_ids)
    for field in lexical.FIELDS:
        matrix = getattr(index, field)
        assert 2 * (matrix.indptr[h + 1] - matrix.indptr[h]) == n
        assert h not in matrix.dense
    query = ["h", "c0", "h", "t", "oov"]
    got, want = lexical.score_query(index, query), kernel_oracle.bincount_pass(index, query)
    columns = np.arange(n)[::-1]
    for field in lexical.FIELDS:
        bm25, matched = want[field]
        assert got.bm25[field].tobytes() == bm25.tobytes()
        assert got.matched(field, columns).tobytes() == matched[columns].tobytes()


def test_equal_indexes_compare_by_identity_without_raising(tiny_articles):
    """A generated ``__eq__`` compared the numpy fields elementwise and
    raised on the truth value of the resulting array."""
    tok, embedder = TokenizerConfig(), HashedProjectionEmbedder(64, 0)
    builds = [
        lambda: build_lex_index(tiny_articles, PipelineConfig()),
        lambda: build_dense_index(tiny_articles, embedder, tok)[0],
    ]
    for build in builds:
        first, second = build(), build()
        assert first == first and second == second
        assert first != second
        assert not first == second


def test_gap_coding_round_trips_and_rejects_a_gap_that_wraps():
    top = np.iinfo(np.int32).max
    ptr = np.array([0, 0, 3, 3, 5, 5], dtype=np.int64)  # empty lists too
    ids = np.array([0, 7, top - 1, 2, top], dtype=np.int32)
    gaps = indexfile.gap_encode(ptr, ids)
    assert gaps.tolist() == [0, 7, top - 8, 2, top - 2]
    decoded = indexfile.gap_decode("f", "ids", ptr, gaps.copy(), top + 1)
    assert decoded.tolist() == ids.tolist()
    with pytest.raises(ValueError, match=r"f: ids outside \[0, 2147483647\)"):
        indexfile.gap_decode("f", "ids", ptr, gaps.copy(), top)
    gaps[1] = top  # 0, top, then top + (top - 8) wraps below 0
    with pytest.raises(ValueError, match=r"f: ids outside \[0, 2147483648\)"):
        indexfile.gap_decode("f", "ids", ptr, gaps, top + 1)
    nothing = indexfile.gap_decode("f", "ids", np.zeros(3, np.int64), np.zeros(0, np.int32), 0)
    assert nothing.size == 0


# Vietnamese letters in NFC and NFD, ASCII, NUL, and a letter outside the BMP
LETTERS = "aăâđeêoôơuưyàảãáạằẳẵắặầẩẫấậ" + unicodedata.normalize("NFD", "ầẩẫấậ") + "b#/\0𝔞"
# a stem before every string: none, or one longer than front_encode compares
# in bulk, so that neighbours agree on all the characters compared at once
STEMS = ["", "ầ" * (indexfile.FRONT_CHARS - 1), "a" * indexfile.FRONT_CHARS + "ă" * 9]


def _front_encode_one_by_one(strings):
    """The prefixes and suffixes front coding stores, one string at a time."""
    prefix, suffix, before = [], [], ""
    for string in strings:
        shared = len(os.path.commonprefix([before, string]))
        prefix.append(shared)
        suffix.append(string[shared:])
        before = string
    return prefix, suffix


@given(
    strings=st.lists(st.text(LETTERS, max_size=8), unique=True),
    extend=st.booleans(),
    stem=st.sampled_from(STEMS),
)
def test_front_coding_round_trips_sorted_unique_strings(
    strings, extend, stem, tmp_path_factory
):
    """Sorted and unique, one string or none among them, and with ``extend``
    some that begin the next one. The prefixes are the ones a string by
    string comparison finds."""
    strings = sorted({stem + s for s in [*strings, *(s + "a" for s in strings[:2] if extend)]})
    prefix, suffix = indexfile.front_encode(strings)
    assert prefix.dtype == np.int64
    assert (prefix.tolist(), suffix) == _front_encode_one_by_one(strings)
    assert indexfile.front_decode("f", "x", prefix, suffix) == strings
    for before, string, shared in zip(["", *strings], strings, prefix.tolist()):
        # the longest prefix shared with the string before, in characters
        assert string[:shared] == before[:shared]
        assert string[shared : shared + 1] != before[shared : shared + 1] or shared == len(string)
    directory = tmp_path_factory.getbasetemp()
    paths = [directory / "one.bin", directory / "two.bin"]
    header, layout = {"corpus_digest": "", "terms": suffix}, {"terms.prefix": (np.int64, 1)}
    indexfile.save(paths[0], "f", 1, header, {"terms.prefix": prefix})
    loaded, arrays = indexfile.load(paths[0], "f", 1, layout, {})
    again = indexfile.front_decode(paths[0], "terms", arrays["terms.prefix"], loaded["terms"])
    prefix, suffix = indexfile.front_encode(again)
    indexfile.save(paths[1], "f", 1, {**header, "terms": suffix}, {"terms.prefix": prefix})
    assert again == strings
    assert paths[0].read_bytes() == paths[1].read_bytes()


RANGE = "{name} prefixes must start at 0 and not pass the string before"
SHAPE = "{name} must be a list of strings, stored as str suffixes"
PLANES = r"{name}\.prefix is not 1, 2, 4 or 8 uint8 byte planes of int64"

# case -> (malformed prefixes, suffixes, the error, ``name`` the table's);
# prefixes that are not a list stand for an array of another dtype, which
# only a file can hold
MALFORMED_CODES = {
    "prefix longer than the string before": ([0, 3], ["ab", "c"], RANGE),
    "negative prefix": ([0, -1], ["ab", "c"], RANGE),
    # "ab"[:-1] has 2 characters more than -1 and "ac"[:4] 2 fewer than 4,
    # so the decoded lengths add up as if every prefix fitted
    "negative prefix beside a long one": ([0, -1, 4], ["ab", "c", "d"], RANGE),
    "first prefix not 0": ([1, 1], ["ab", "c"], RANGE),
    "bool prefix array": (np.array([False, True]), ["ab", "c"], PLANES),
    "float prefix array": (np.array([0.0, 1.0]), ["ab", "c"], PLANES),
    "prefix array one short": (
        [0], ["ab", "c"], r"{name}\.prefix must hold one prefix per suffix \(2\)"
    ),
    "prefix array one long": (
        [0, 1], ["ab"], r"{name}\.prefix must hold one prefix per suffix \(1\)"
    ),
    "suffix not a string": ([0, 1], ["ab", 3], SHAPE),
    "suffix null": ([0, 1], ["ab", None], SHAPE),
    "prefix array missing": (None, ["ab", "c"], "arrays mismatch"),
    "a version 7 code in the header": (
        [0, 1], {"prefix": [0, 1], "suffix": ["ab", "c"]}, SHAPE
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CODES))
def test_malformed_front_codes_are_rejected_naming_the_file(case, tmp_path):
    prefix, suffix, message = MALFORMED_CODES[case]
    good = np.array([0, 1], dtype=np.int64), ["ab", "c"]
    assert indexfile.front_decode("f", "x", *good) == ["ab", "ac"]
    if isinstance(prefix, list):  # as a file's int64 array
        with pytest.raises(ValueError, match=f"^f: {message.format(name='x')}$"):
            indexfile.front_decode("f", "x", np.array(prefix, dtype=np.int64), suffix)
    path = tmp_path / "lex.bin"
    index = build_lex_index(ALPHABET, PipelineConfig())
    for key in ("article_ids", "terms"):
        save_lex_index(index, path)
        header, arrays = _read(path)
        name = f"{key}.prefix"
        arrays = {  # in the file's order
            n: np.asarray(prefix) if n == name else array
            for n, array in arrays.items()
            if n != name or prefix is not None
        }
        _write(path, {**header, key: suffix}, arrays)
        with pytest.raises(ValueError, match=f"lex.bin: {message.format(name=key)}"):
            load_lex_index(path, PipelineConfig(), "")


def test_object_array_is_never_unpickled(indexes, tmp_path):
    path, load = _saved(indexes, "dense", tmp_path)
    header, arrays = _read(path)
    with pytest.raises(ValueError, match="allow_pickle"):
        _write(path, header, {**arrays, "data": np.array([Trap()], dtype=object)})
    trap = np.array([Trap()], dtype=object)
    write_stored(path, header, {"sentence_counts": arrays["sentence_counts"], "trap": trap})
    with pytest.raises(ValueError, match="dense.bin: .*allow_pickle=False"):
        load(path)
    assert SPRUNG == []


def _last_plus_one(a):
    return a + (np.arange(len(a)) == len(a) - 1)


def _falling(a):
    return np.concatenate([a[:1], a[-2:0:-1], a[-1:]])


def _negative_first(a):
    """The first count made -1, the second raised to keep the total."""
    return np.concatenate([[-1, a[1] + a[0] + 1], a[2:]])


# Gap-coded arrays: a case edits each list's ids
GAPPED = ("rows", "title.columns", "content.columns")

# case -> (index kind, array, edit, expected message); the tiny fixture's
# dense index has 3 articles of 2, 2 and 1 sentences (5 vector rows) and 64
# coordinates, its lexical index 3 article columns and 22 terms with 20
# content postings
DISAGREEMENTS = {
    "zero sentence count": (
        "dense", "sentence_counts", lambda a: np.array([2, 0, 3]),
        "sentence_counts must hold 3 counts, each at least 1",
    ),
    "negative sentence count": (
        "dense", "sentence_counts", lambda a: np.array([4, -1, 2]),
        "sentence_counts must hold 3 counts, each at least 1",
    ),
    "sentence counts one short": (
        "dense", "sentence_counts", lambda a: np.array([2, 3]),
        "sentence_counts must hold 3 counts",
    ),
    "sentence counts past the sentences": (
        "dense", "sentence_counts", _last_plus_one, "sentence_counts must add up to 5"
    ),
    # the int64 sum wraps: 2**63 - 1, then 2**64 - 2 read as -2, then 5
    "sentence counts that wrap round to the total": (
        "dense", "sentence_counts", lambda a: np.array([2**63 - 1, 2**63 - 1, 7]),
        "sentence_counts must add up to 5",
    ),
    "negative entry count": (
        "dense", "entry_counts", _negative_first,
        "entry_counts must hold 64 counts, each at least 0",
    ),
    "entry counts past the entries": (
        "dense", "entry_counts", _last_plus_one, "entry_counts must add up to"
    ),
    "entry counts one short of the coordinates": (
        "dense", "entry_counts", lambda a: a[:-1], "entry_counts must hold 64 counts"
    ),
    "row past the sentences": (
        "dense", "rows", lambda a: np.where(a == 4, 5, a), r"rows outside \[0, 5\)"
    ),
    "negative row": ("dense", "rows", lambda a: np.where(a == 0, -1, a), "rows outside"),
    "rows not ascending": ("dense", "rows", lambda a: a[::-1], "rows not strictly ascending"),
    "repeated row": (
        "dense", "rows", lambda a: np.repeat(a[:1], len(a)), "rows not strictly ascending"
    ),
    "data short": ("dense", "data", lambda a: a[:-1], "rows but"),
    "data one long": ("dense", "data", lambda a: np.append(a, 0), "rows but"),
    "data code names a value not yet used": (
        "dense", "data", lambda a: np.append(a[:-1], a.size + 1),
        "data must name rows in first-use order",
    ),
    "negative data code": (
        "dense", "data", lambda a: np.where(a == a.max(), -1, a),
        "data must name rows in first-use order",
    ),
    "a stored value no code uses": (
        "dense", "values", lambda a: np.append(a, 0.25), "data uses .* values but .* are stored"
    ),
    "values one short": (
        "dense", "values", lambda a: a[:-1], "data uses .* values but .* are stored"
    ),
    "data not finite": (
        "dense", "values", lambda a: np.where(a == a[0], np.nan, a), "values not finite"
    ),
    "infinite value": (
        "dense", "values", lambda a: np.where(a == a[-1], -np.inf, a), "values not finite"
    ),
    "sentence counts stored as float64": (
        "dense", "sentence_counts", lambda a: a.astype(np.float64),
        "sentence_counts is not .* byte planes of int64",
    ),
    "column out of range": (
        "lex", "content.columns", lambda a: np.where(a == a.max(), 3, a),
        r"content columns outside \[0, 3\)",
    ),
    "negative column": ("lex", "title.columns", lambda a: a - 1, "title columns outside"),
    "negative df": (
        "lex", "content.df", _negative_first, "content.df must hold 22 counts, each at least 0"
    ),
    "df past the postings": (
        "lex", "content.df", _last_plus_one, "content.df must add up to 20"
    ),
    "df one entry short": ("lex", "title.df", lambda a: a[:-1], "title.df must hold 22 counts"),
    # a derived length is a tf sum: a tf of 0 or -2 shortened its article
    "zero tf": ("lex", "title.tf", lambda a: a * 0, "title.tf must be at least 1"),
    "negative tf": (
        "lex", "content.tf", lambda a: np.where(a == a.max(), -2, a), "content.tf must be at least 1"
    ),
}


def _lists(ptr, gaps):
    """The id lists ``gaps`` codes: each list's running sum."""
    return [np.cumsum(gaps[low:high]) for low, high in zip(ptr[:-1], ptr[1:])]


@pytest.mark.parametrize("case", sorted(DISAGREEMENTS))
def test_arrays_that_disagree_with_the_header_are_rejected(case, indexes, tmp_path):
    kind, name, edit, message = DISAGREEMENTS[case]
    path, load = _saved(indexes, kind, tmp_path)
    header, arrays = _read(path)
    if name in GAPPED:
        ptr = _ptr(_list_counts(arrays, name))
        lists = _lists(ptr, arrays[name])
        ids = np.concatenate([edit(ids) if len(ids) else ids for ids in lists])
        arrays[name] = indexfile.gap_encode(ptr, ids.astype(np.int32))
    else:
        arrays[name] = edit(arrays[name])
    _write(path, header, arrays)
    with pytest.raises(ValueError, match=f"{kind}.bin: .*{message}"):
        load(path)


def test_an_article_column_with_no_content_posting_is_rejected(indexes, tmp_path):
    """Stored lengths stood for this build rule: every column's content has
    tokens. With the last column's content postings gone, its terms still
    have a posting elsewhere."""
    path, load = _saved(indexes, "lex", tmp_path)
    header, arrays = _read(path)
    postings = _postings(arrays, "content")
    last = max(ids.max() for ids in postings if len(ids))
    kept = np.concatenate([ids != last for ids in postings])
    arrays["content.tf"] = arrays["content.tf"][kept]
    _store_postings(arrays, "content", [ids[ids != last] for ids in postings])
    _write(path, header, arrays)
    with pytest.raises(ValueError, match="lex.bin: every article column must have a content posting"):
        load(path)


@pytest.mark.parametrize("kind", KINDS)
def test_saved_file_is_one_xz_stream_with_a_crc64_check(kind, indexes, tmp_path):
    index, save, _ = indexes[kind]
    path, _ = _saved(indexes, kind, tmp_path)
    raw = path.read_bytes()
    assert raw[:6] == b"\xfd7zXZ\x00"  # the xz header magic
    assert raw[6:8] == b"\x00\x04"  # stream flags: check type 4, CRC64
    assert raw[-4:] == b"\x00\x04YZ"  # the footer repeats them
    again = tmp_path / "again.bin"
    save(index, again)
    assert again.read_bytes() == raw


@pytest.mark.parametrize("kind", KINDS)
def test_a_small_file_decodes_with_a_dictionary_sized_to_it(kind, indexes, tmp_path):
    """The preset's 8 MiB dictionary would need more than 1 MiB to decode."""
    path, _ = _saved(indexes, kind, tmp_path)
    raw = path.read_bytes()
    decoder = lzma.LZMADecompressor(lzma.FORMAT_XZ, memlimit=1 << 20)
    assert decoder.decompress(raw) == lzma.decompress(raw) and decoder.eof


def _width(values, dtype):
    """The planes ``values`` need: all of ``dtype``'s bytes if one is negative."""
    top = max(values, default=0)
    if min(values, default=0) < 0:
        return np.dtype(dtype).itemsize
    return next(w for w in indexfile.WIDTHS if top < 256**w)


EDGES = [0, 1, 255, 256, 65535, 65536, 2**31 - 1, -1, -(2**31)]
WIDE_EDGES = [2**32 - 1, 2**32, 2**63 - 1, -(2**63)]


@st.composite
def integer_arrays(draw):
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    info = np.iinfo(dtype)
    edges = EDGES + (WIDE_EDGES if dtype is np.int64 else [])
    value = st.sampled_from(edges) | st.integers(0, 300) | st.integers(info.min, info.max)
    return np.array(draw(st.lists(value, max_size=20)), dtype=dtype)


@given(array=integer_arrays())
def test_integer_arrays_round_trip_through_their_narrowest_planes(array, tmp_path_factory):
    planes = indexfile.to_planes(array)
    assert planes.dtype == np.uint8
    assert planes.shape == (_width(array.tolist(), array.dtype), len(array))
    directory = tmp_path_factory.getbasetemp()
    paths = [directory / "one.bin", directory / "two.bin"]
    swapped = array.astype(array.dtype.newbyteorder(">"))  # equal values, other bytes
    for path, copy in zip(paths, (array, swapped)):
        header = {"article_ids": [], "corpus_digest": ""}
        indexfile.save(path, "f", 1, header, {"a": copy, "x": np.zeros(2)})
    assert paths[0].read_bytes() == paths[1].read_bytes()  # equal arrays, equal bytes
    layout = {"a": (array.dtype, 1), "x": (np.float64, 1)}
    _, loaded = indexfile.load(paths[0], "f", 1, layout, {})
    assert loaded["a"].dtype == array.dtype
    assert loaded["a"].tolist() == array.tolist()
    assert loaded["x"].tolist() == [0.0, 0.0]  # floats as they are


@pytest.mark.parametrize(
    "dtype, value, width",
    [
        (np.int32, 255, 1), (np.int32, 256, 2), (np.int32, 65535, 2),
        (np.int32, 65536, 4), (np.int32, -1, 4), (np.int64, 2**32 - 1, 4),
        (np.int64, 2**32, 8), (np.int64, -1, 8),
    ],
)
def test_width_is_the_fewest_bytes_of_the_largest_unsigned_value(dtype, value, width):
    planes = indexfile.to_planes(np.array([0, value, 1], dtype=dtype))
    assert planes.shape == (width, 3)
    assert indexfile.from_planes("f", "a", planes, dtype).tolist() == [0, value, 1]
    assert indexfile.to_planes(np.zeros(0, dtype)).shape == (1, 0)


def _from_planes_transposed(planes, dtype):
    """The byte planes decoded through a zeroed ``(n, itemsize)`` byte
    matrix that takes the transposed planes."""
    dtype = np.dtype(dtype)
    bits = np.zeros((planes.shape[1], dtype.itemsize), dtype=np.uint8)
    bits[:, : planes.shape[0]] = planes.T
    return bits.view(dtype.newbyteorder("<")).reshape(-1).astype(dtype, copy=False)


@example(dtype=np.int32, width=4, values=b"\xff" * 4 + b"\0\0\0\x80")
@example(dtype=np.int64, width=8, values=b"\xff" * 8)
@example(dtype=np.intp, width=8, values=b"\0" * 7 + b"\x80")
@given(
    dtype=st.sampled_from([np.int32, np.int64, np.intp]),
    width=st.sampled_from(indexfile.WIDTHS),
    values=st.binary(max_size=64),
)
def test_shift_or_decode_equals_the_transposed_decode(dtype, width, values):
    """Any bytes in any number of planes the dtype holds; in all of its
    bytes, a set top bit is a negative value."""
    width = min(width, np.dtype(dtype).itemsize)
    count = len(values) // width
    planes = np.frombuffer(values[: width * count], np.uint8).reshape(width, count)
    decoded = indexfile.from_planes("f", "a", planes, dtype)
    _same_array(decoded, _from_planes_transposed(planes, dtype))


@pytest.mark.parametrize(
    "planes, dtype",
    [
        (np.zeros(4, np.uint8), np.int64),  # 1-d
        (np.zeros((1, 1, 4), np.uint8), np.int64),  # 3-d
        (np.zeros((2, 4), np.int16), np.int64),  # not uint8
        (np.zeros((3, 4), np.uint8), np.int64),  # 3 planes
        (np.zeros((8, 4), np.uint8), np.int32),  # more planes than an int32 has bytes
    ],
)
def test_planes_of_another_shape_dtype_or_width_are_rejected(planes, dtype):
    with pytest.raises(ValueError, match="f: a is not 1, 2, 4 or 8 uint8 byte planes"):
        indexfile.from_planes("f", "a", planes, dtype)


def test_dense_rows_stored_in_eight_planes_are_rejected(indexes, tmp_path):
    path, load = _saved(indexes, "dense", tmp_path)
    header, stored = read_stored(path)
    stored["rows"] = np.zeros((8, stored["rows"].shape[1]), np.uint8)
    write_stored(path, header, stored)
    with pytest.raises(ValueError, match="dense.bin: rows is not .* byte planes of int32"):
        load(path)


def test_records_round_trip_skipping_blank_lines(tmp_path):
    path = tmp_path / "records.jsonl"
    indexfile.write_json_lines(path, [{"b": 1, "a": "ầ"}, {}])
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('\n  \n{"c": null}\n')  # blank lines 3 and 4 are skipped
    got = indexfile.read_records(path, lambda record: record)
    assert got == [{"a": "ầ", "b": 1}, {}, {"c": None}]


def _positive(record):
    if record["n"] <= 0:
        raise ValueError("n must be positive")
    return record["n"]


@pytest.mark.parametrize(
    "line, message",
    [
        ("[1, 2]", "record must be a JSON object"),
        ('{"n": ', "invalid JSON: "),
        ('{"m": 1}', "missing key 'n'"),
        ('{"n": -1}', "n must be positive"),
    ],
    ids=["list-record", "invalid-json", "missing-key", "rejected-value"],
)
def test_records_reader_names_the_file_and_line(tmp_path, line, message):
    """Blank lines count: the bad record after one is on line 3."""
    path = tmp_path / "records.jsonl"
    path.write_text('{"n": 1}\n\n' + line + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: {message}")):
        indexfile.read_records(path, _positive)
    path.write_text('{"n": 1}\n\n{"n": 2}\n')
    assert indexfile.read_records(path, _positive) == [1, 2]


# a bad third line, and how the records and the corpus readers name it
BAD_THIRD_LINE = [
    (b'{"n": "\xe9"}', "{}: line 3: not UTF-8", "{}: line 3: not UTF-8"),
    (b'{"n": ', "{}:3: invalid JSON", "{}: line 3: invalid JSON"),
]


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_every_reader_numbers_lines_by_one_rule(end, tmp_path):
    """A byte that is not UTF-8 and a record that is not JSON, each on line
    3, are named line 3 by the records and corpus readers alike. With
    ``\\r`` line ends the byte was named line 1."""
    path = tmp_path / "records.jsonl"
    good = [b'{"doc_id": "d1", "articles": []}', b'{"doc_id": "d2", "articles": []}']
    for bad, records_message, corpus_message in BAD_THIRD_LINE:
        path.write_bytes(end.join([*good, bad, b""]))
        with pytest.raises(ValueError, match=re.escape(records_message.format(path))):
            indexfile.read_records(path, lambda record: record)
        with pytest.raises(CorpusFormatError, match=re.escape(corpus_message.format(path))):
            load_corpus_file(path)
