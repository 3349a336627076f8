"""Index files are checked on load: anything but a well-formed file of the
current format raises ValueError naming the path, and no array is ever
unpickled. Integer arrays are stored as byte planes and rebuilt exactly."""

import dataclasses
import functools
import gzip
import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from statuteqa import dense, indexfile, lexical
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
            load_lex_index, tokenizer=tok
        )),
        "dense": (dense, save_dense_index, functools.partial(
            load_dense_index, embedder=embedder, tokenizer=tok
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
    header, stored = _read_stored(path)
    arrays = {
        name: indexfile.from_planes(path, name, array, LAYOUT[name][0])
        if array.dtype == np.uint8 else array
        for name, array in stored.items()
    }
    return header, arrays


def _read_stored(path):
    """A saved file's header and arrays as stored."""
    with gzip.open(path, "rb") as stream:
        header = json.loads(stream.readline())
        stored = {name: np.lib.format.read_array(stream) for name in header["arrays"]}
    return header, stored


def _write_stored(path, header, stored):
    """A file of ``header`` and ``stored`` arrays, written as they are."""
    with gzip.open(path, "wb") as out:
        out.write(json.dumps(header).encode("utf-8") + b"\n")
        for array in stored.values():
            np.lib.format.write_array(out, array)


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


# (index kinds, a header edit, the error after the file name)
HEADER_EDITS = [
    (KINDS, {"article_ids": ["a", 1]}, "article_ids must be a list of strings"),
    (KINDS, {"article_ids": None}, "article_ids must be a list of strings"),
    (KINDS, {"corpus_digest": 5}, "corpus_digest must be a string"),
    (KINDS, {"corpus_digest": None}, "corpus_digest must be a string"),
    (["lex"], {"k1": "x"}, "k1 must be a finite real >= 0"),
    (["lex"], {"k1": None}, "k1 must be a finite real >= 0"),
    (["lex"], {"k1": [1]}, "k1 must be a finite real >= 0"),
    (["lex"], {"k1": True}, "k1 must be a finite real >= 0"),
    (["lex"], {"k1": float("nan")}, "k1 must be a finite real >= 0"),
    (["lex"], {"k1": -1.0}, "k1 must be a finite real >= 0"),
    (["lex"], {"b": 1.5}, r"b must be a finite real in \[0, 1\]"),
    (["lex"], {"b": "0.75"}, r"b must be a finite real in \[0, 1\]"),
    (["lex"], {"terms": None}, "title terms must be a list of strings"),
    (["lex"], {"terms": {"title": None, "content": []}}, "title terms must be a list"),
    (["lex"], {"terms": {"title": ["a", 2], "content": []}}, "title terms must be a list"),
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


def test_lex_columns_swapped_within_a_row_are_rejected(tmp_path):
    articles = [Article(f"a{i}", "d", None, f"Shared clause number {i}.") for i in range(3)]
    tok = TokenizerConfig()
    index = build_lex_index(articles, PipelineConfig())
    row, columns = index.content.row("shared"), index.content.columns.copy()
    columns[[row.start, row.start + 1]] = columns[[row.start + 1, row.start]]
    swapped = dataclasses.replace(
        index, content=dataclasses.replace(index.content, columns=columns)
    )
    path = tmp_path / "lex.bin"
    save_lex_index(swapped, path)
    with pytest.raises(ValueError, match="lex.bin: content columns not strictly ascending"):
        load_lex_index(path, tok)


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
    "offsets stored as float64": (
        "dense", "offsets", lambda a: a.astype(np.float64), "offsets is not .* byte planes of int64"
    ),
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
    header, stored = _read_stored(path)
    stored["rows"] = np.zeros((8, stored["rows"].shape[1]), np.uint8)
    _write_stored(path, header, stored)
    with pytest.raises(ValueError, match="dense.bin: rows is not .* byte planes of int32"):
        load(path)


def test_json_lines_round_trip_with_line_numbers(tmp_path):
    path = tmp_path / "records.jsonl"
    indexfile.write_json_lines(path, [{"b": 1, "a": "ầ"}, {}])
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('\n  \n{"c": null}\n')  # blank lines 3 and 4 are skipped
    got = list(indexfile.read_json_lines(path))
    assert got == [(1, {"a": "ầ", "b": 1}), (2, {}), (5, {"c": None})]


@pytest.mark.parametrize(
    "line, message",
    [("[1, 2]", "record must be a JSON object"), ('{"a": ', "invalid JSON: ")],
)
def test_json_lines_reader_names_the_file_and_line(tmp_path, line, message):
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n' + line + "\n")
    records = indexfile.read_json_lines(path)
    assert next(records) == (1, {"a": 1})
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
        next(records)
