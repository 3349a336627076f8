"""Index files are checked on load: anything but a well-formed file of the
current format raises ValueError naming the path, and no array is ever
unpickled."""

import dataclasses
import functools
import gzip
import json

import numpy as np
import pytest

from statuteqa import indexfile
from statuteqa.corpus import Article, TokenizerConfig
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

KINDS = ("lex", "dense")
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
    lex = build_lex_index(tiny_articles, tok)
    dense, _ = build_dense_index(tiny_articles, embedder)
    return {
        "lex": (lex, save_lex_index, functools.partial(
            load_lex_index, expected_fingerprint=tok.fingerprint()
        )),
        "dense": (dense, save_dense_index, functools.partial(
            load_dense_index, embedder=embedder
        )),
    }


def _saved(indexes, kind, tmp_path):
    index, save, load = indexes[kind]
    path = tmp_path / f"{kind}.bin"
    save(index, path)
    return path, load


def _read(path):
    with gzip.open(path, "rb") as stream:
        header = json.loads(stream.readline())
        arrays = {name: np.lib.format.read_array(stream) for name in header["arrays"]}
    return header, arrays


def _write(path, header, arrays):
    indexfile.save(path, header["format"], header["version"], header, arrays)


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
    with pytest.raises(ValueError, match=f"{kind}.jsonl: Not a gzipped file"):
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
@pytest.mark.parametrize("order", ["out of order", "repeated"])
def test_article_ids_out_of_order_or_repeated_are_rejected(kind, order, indexes, tmp_path):
    path, load = _saved(indexes, kind, tmp_path)
    header, arrays = _read(path)
    ids = header["article_ids"]
    ids = ids[::-1] if order == "out of order" else [ids[0], *ids[:-1]]
    _write(path, {**header, "article_ids": ids}, arrays)
    with pytest.raises(ValueError, match=f"{kind}.bin: article ids out of order"):
        load(path)


def test_lex_columns_swapped_within_a_row_are_rejected(tmp_path):
    articles = [Article(f"a{i}", "d", None, f"Shared clause number {i}.") for i in range(3)]
    tok = TokenizerConfig()
    index = build_lex_index(articles, tok)
    row, columns = index.content.row("shared"), index.content.columns.copy()
    columns[[row.start, row.start + 1]] = columns[[row.start + 1, row.start]]
    swapped = dataclasses.replace(
        index, content=dataclasses.replace(index.content, columns=columns)
    )
    path = tmp_path / "lex.bin"
    save_lex_index(swapped, path)
    with pytest.raises(ValueError, match="lex.bin: content columns not strictly ascending"):
        load_lex_index(path, tok.fingerprint())


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


def test_object_array_is_never_unpickled(indexes, tmp_path):
    path, load = _saved(indexes, "dense", tmp_path)
    header, arrays = _read(path)
    with pytest.raises(ValueError, match="allow_pickle"):
        _write(path, header, {**arrays, "data": np.array([Trap()], dtype=object)})
    trap = np.array([Trap()], dtype=object)
    with gzip.open(path, "wb") as out:
        out.write(json.dumps(header).encode("utf-8") + b"\n")
        np.lib.format.write_array(out, arrays["offsets"])
        np.lib.format.write_array(out, trap, allow_pickle=True)
    with pytest.raises(ValueError, match="dense.bin: .*allow_pickle=False"):
        load(path)
    assert SPRUNG == []


def _last_plus_one(a):
    return a + (np.arange(len(a)) == len(a) - 1)


def _falling(a):
    return np.concatenate([a[:1], a[-2:0:-1], a[-1:]])


# Gap-coded arrays and their list pointers: a case edits each list's ids
GAPPED = {"rows": "colptr", "title.columns": "title.indptr", "content.columns": "content.indptr"}

# case -> (index kind, array, edit, expected message); the tiny fixture's
# dense index has 5 sentence rows, its lexical index 3 article columns
DISAGREEMENTS = {
    "offsets not increasing": (
        "dense", "offsets", lambda a: np.array([0, 3, 2, 5]), "offsets must rise"
    ),
    "colptr falling": ("dense", "colptr", _falling, "rows lists must not fall"),
    "colptr past the entries": ("dense", "colptr", _last_plus_one, "rows lists must not fall"),
    "colptr one short of the coordinates": (
        "dense", "colptr", lambda a: a[:-1], "colptr must have 65 entries"
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
    "data not finite": ("dense", "data", lambda a: np.where(a == a[0], np.nan, a), "not finite"),
    "offsets dtype": ("dense", "offsets", lambda a: a.astype(np.int32), "offsets is not 1-d int64"),
    "column out of range": (
        "lex", "content.columns", lambda a: np.where(a == a.max(), 3, a),
        r"content columns outside \[0, 3\)",
    ),
    "negative column": ("lex", "title.columns", lambda a: a - 1, "title columns outside"),
    "indptr past the postings": (
        "lex", "content.indptr", _last_plus_one, "content indptr must rise"
    ),
    "lengths short": ("lex", "content.lengths", lambda a: a[:-1], "content postings"),
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
        ptr = arrays[GAPPED[name]]
        ids = np.concatenate([edit(ids) for ids in _lists(ptr, arrays[name])])
        arrays[name] = indexfile.gap_encode(ptr, ids.astype(np.int32))
    else:
        arrays[name] = edit(arrays[name])
    _write(path, header, arrays)
    with pytest.raises(ValueError, match=f"{kind}.bin: .*{message}"):
        load(path)


@pytest.mark.parametrize("kind", KINDS)
def test_saved_file_is_one_gzip_stream_without_name_or_time(kind, indexes, tmp_path):
    path, _ = _saved(indexes, kind, tmp_path)
    raw = path.read_bytes()
    assert raw[:2] == b"\x1f\x8b"
    assert raw[3] == 0  # no FNAME (or other optional) header field
    assert raw[4:8] == b"\0\0\0\0"  # mtime 0
