"""The on-disk format of the lexical and dense indexes.

An index file is one xz stream (LZMA2, with a CRC64 of its payload;
https://tukaani.org/xz/xz-file-format.txt) that Python's standard
``lzma`` module writes with its default preset, so statuteqa needs a
Python built with ``lzma``, and equal indexes save to equal bytes under
one liblzma. The LZMA2 dictionary is sized to the payload (``save``), so
a small file is written and read with a small dictionary. The payload is
a sorted-keys JSON header line (``format``, ``version``, the index's
metadata, and ``arrays``, the names of the arrays that follow), then
each array in ``.npy`` format. Arrays are never pickled. ``load`` reads
the file in one piece and decodes it in memory. It refuses, naming the
path, a file that is not exactly one whole xz stream or that fails the
stream's CRCs, sizes or check, which catches any one changed byte. A
gzip file, as every index before lexical version 10 and dense version
11 was, is told to be rebuilt.

Posting lists of ids are stored gap-coded (``gap_encode``) and checked as
they are decoded (``gap_decode``). A map onto rows numbered in first-use
order is stored in first-use code (``first_use_encode``,
``first_use_decode``): the dense sentence map onto vector rows, and the
dense ``data`` as codes into a table of its distinct values, which few
values fill. A sorted string list (article ids, terms) is stored
front-coded (``front_encode``, ``front_decode``): each string as the
number of leading characters it shares with the string before it, then
the rest (Witten, Moffat & Bell, *Managing Gigabytes*, 1999, section
4.1); the rests are a list in the header and the prefixes an array named
``<list>.prefix``.

A file stores nothing that load can derive. List pointers (a lexical
field's ``indptr``, the dense ``offsets`` and ``colptr``) are stored as
the counts that ``np.diff`` gives, and load rebuilds them with one
``cumsum`` (``pointers``), which checks the counts. A lexical field's
per-column lengths are its ``tf`` summed per column, and its impacts and
statistics come from the function build uses, so every derived array
equals the built one bit for bit.

Each 1-d integer array is stored as byte planes (``to_planes``): a
``(width, n)`` uint8 array whose row ``i`` holds byte ``i`` of every
value's little-endian bits. ``width`` is the fewest of 1, 2, 4 or 8 bytes
that holds the largest value read as unsigned, so an array with a
negative value keeps its full width. Gaps, counts and prefixes mostly fit
in one or two bytes; their zero high bytes vanish, and each plane puts
like bytes together, which LZMA2 packs far better than interleaved
values (the byte-shuffle filter of HDF5 and Blosc). Float arrays are
stored as they are. ``load`` rebuilds each integer array in its layout
dtype (``from_planes``, a shift and an or per plane) before it checks
anything else.

Every artifact a command loads is checked by one rule, ``check_header``:
each expected header value must be equal, a boolean never matching a
number, or the load fails with ``<path>: <key> mismatch (<kind> <found>,
expected <value>)`` before anything else is read. ``load`` checks an
index's format, version, array names and the values its loader expects
(the config's settings, the corpus file's digest); ``reranker.load_model``
checks the model's format, version and feature names. A file of another
version is told to be rebuilt with ``statuteqa index`` or ``statuteqa
train``.

Artifacts, the JSON-lines record files (corpus, gold questions, training
examples) among them, are written through ``replacing``, so a reader sees
the old file or the new one, never a half-written one. Gold questions and
training examples are read back with ``read_records``, which names
``path:line`` for any record it cannot turn into its object. Every text
file a command reads is decoded by ``utf8_text``, which names the path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import lzma
import operator
import os
import secrets
from pathlib import Path

import numpy as np

GZIP_MAGIC = b"\x1f\x8b"  # how every index file before xz began
WIDTHS = (1, 2, 4, 8)  # bytes per value an integer array may be stored in
FRONT_CHARS = 32  # leading characters front_encode compares in bulk
# the least LZMA2 dictionary liblzma takes, and the default preset's
DICT_MIN, DICT_MAX = 1 << 12, 1 << 23
# the command that writes an artifact of each kind anew, and what a
# mismatch of a header key asks for, with that command
REBUILD = {"index": "statuteqa index", "model": "statuteqa train"}
HINTS = {
    "version": "rebuild it with `{}`",
    "feature_names": "rebuild it with `{}`",
    "article_ids_sha256": "rebuild both files with `{}`",
}


@contextlib.contextmanager
def replacing(path):
    """A binary file that replaces ``path`` when the block exits cleanly.

    It is a new file in ``path``'s directory, flushed and fsynced before
    ``os.replace`` renames it over ``path``. If the block raises, the new
    file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    handle = open(temp, "xb")
    try:
        with handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_json_lines(path, records) -> None:
    """One sorted-keys JSON line per record, written through ``replacing``."""
    with replacing(path) as handle:
        for record in records:
            line = json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n"
            handle.write(line.encode("utf-8"))


def text_lines(text: str) -> io.StringIO:
    """The lines of ``text`` as every reader numbers them: split at
    universal newlines (``\\r\\n``, ``\\r`` or ``\\n``), each ending in ``\\n``."""
    return io.StringIO(text, newline=None)


def utf8_text(path, data: bytes, error: type[ValueError] = ValueError) -> str:
    """``data``, the bytes of ``path``, as UTF-8, or raises ``error``:
    ``<path>: line <n>: not UTF-8: <reason>``, lines as ``text_lines`` counts them."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = text_lines(data[: exc.start].decode("utf-8")).read().count("\n") + 1
        raise error(f"{path}: line {line}: not UTF-8: {exc.reason}") from exc


def read_json(path):
    """The JSON value of a whole file; raises ``ValueError`` naming ``path``."""
    text = utf8_text(path, Path(path).read_bytes())
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc


def write_json(path, value) -> None:
    """``value`` as one indented, sorted-keys JSON document ending in a
    newline, written through ``replacing``."""
    text = json.dumps(value, indent=2, sort_keys=True) + "\n"
    with replacing(path) as handle:
        handle.write(text.encode("utf-8"))


def read_records(path, parse) -> list:
    """``parse(record)`` for each non-blank line of a JSON-lines file, in
    order. Raises ``ValueError`` naming ``path`` and the line, counted from
    1, for bytes that are not UTF-8, a line that is not a JSON object, or
    a record that lacks a key ``parse`` reads or holds a value it rejects."""
    text = utf8_text(path, Path(path).read_bytes())
    items = []
    for lineno, line in enumerate(text_lines(text), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("record must be a JSON object")
            items.append(parse(record))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: missing key {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return items


def save(path, fmt: str, version: int, header: dict, arrays: dict) -> None:
    """Write ``header`` and then ``arrays``, in their order, to ``path`` as
    one xz stream; integer arrays as their byte planes.

    The LZMA2 dictionary is the payload's size rounded up to a power of
    two, at least 4 KiB (liblzma's least) and at most the default preset's
    8 MiB, so a small file is compressed and decoded with a dictionary
    that fits it, not 8 MiB. No match reaches back past the payload's
    start, so a larger dictionary would find no more.
    """
    head = {**header, "format": fmt, "version": version, "arrays": list(arrays)}
    line = json.dumps(head, sort_keys=True, ensure_ascii=False) + "\n"
    payload = io.BytesIO()
    payload.write(line.encode("utf-8"))
    for array in arrays.values():
        stored = to_planes(array) if array.dtype.kind in "iu" else array
        np.lib.format.write_array(payload, stored, allow_pickle=False)
    size = min(max(payload.tell(), DICT_MIN), DICT_MAX)
    dict_size = 1 << (size - 1).bit_length()  # a power of two that holds the payload
    lzma2 = {"id": lzma.FILTER_LZMA2, "preset": lzma.PRESET_DEFAULT, "dict_size": dict_size}
    with replacing(path) as out:
        out.write(lzma.compress(payload.getbuffer(), check=lzma.CHECK_CRC64, filters=[lzma2]))


def load(path, fmt: str, version: int, layout: dict, expected: dict):
    """(header, arrays) of a saved file; ``layout`` is name -> (dtype, ndim).

    The header must hold ``fmt``, ``version``, ``layout``'s array names and
    each of ``expected``'s values, checked by ``check_header`` before any
    array is read. Raises ``ValueError`` naming ``path`` for a gzip file
    (of an earlier version), a file that is not one whole xz stream, a
    header that fails that check, or arrays that are malformed.
    """
    wanted = {"format": fmt, "version": version, "arrays": list(layout), **expected}
    stream = io.BytesIO(_payload(path))
    with _naming(path):
        header = json.loads(stream.readline())
        if not isinstance(header, dict):
            raise ValueError("no header line")
    check_header(path, "index", header, wanted)
    with _naming(path):
        read = np.lib.format.read_array
        arrays = {name: read(stream, allow_pickle=False) for name in layout}
        if stream.read(1):
            raise ValueError("data after the last array")
    for name, (dtype, ndim) in layout.items():
        if np.dtype(dtype).kind in "iu":
            arrays[name] = from_planes(path, name, arrays[name], dtype)
        ok = arrays[name].dtype == dtype and arrays[name].ndim == ndim
        require(ok, path, f"{name} is not {ndim}-d {np.dtype(dtype)}")
    return header, arrays


def _payload(path) -> bytes:
    """The payload of the one xz stream that is the file ``path``; the
    decoder and its dictionary are freed before any array is read."""
    data = Path(path).read_bytes()
    hint = HINTS["version"].format(REBUILD["index"])
    require(not data.startswith(GZIP_MAGIC), path, f"a gzip file of an earlier version; {hint}")
    with _naming(path):
        decoder = lzma.LZMADecompressor(lzma.FORMAT_XZ)
        payload = decoder.decompress(data)
        if not decoder.eof or decoder.unused_data:
            raise ValueError("not one whole xz stream")
    return payload


@contextlib.contextmanager
def _naming(path):
    """A read or decode error of the block, raised as ``ValueError`` naming ``path``."""
    try:
        yield
    except (ValueError, lzma.LZMAError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def check_header(path, kind: str, header, wanted: dict) -> None:
    """The one rule every artifact's header is checked by: ``header`` must
    hold each of ``wanted``'s keys with its value, in ``wanted``'s order,
    and a boolean never matches a number, nor a number a boolean, though
    ``True == 1`` in Python. A header that is not a dict holds no key.

    Raises ``ValueError``: ``<path>: <key> mismatch (<kind> <found>,
    expected <value>)``, the key with spaces for underscores and ``<found>``
    None for a missing key; a key in ``HINTS`` adds what to do, with the
    command that rebuilds a file of ``kind`` (``REBUILD``).
    """
    held = header if isinstance(header, dict) else {}
    for key, value in wanted.items():
        found = held.get(key)
        if found != value or isinstance(found, bool) != isinstance(value, bool):
            hint = f"; {HINTS[key].format(REBUILD[kind])}" if key in HINTS else ""
            name = key.replace("_", " ")
            raise ValueError(
                f"{path}: {name} mismatch ({kind} {found!r}, expected {value!r}){hint}"
            )


def front_encode(strings) -> tuple[np.ndarray, list[str]]:
    """``strings`` as (prefixes, suffixes): for each string, the number of
    leading characters (not bytes) it shares with the string before it, as
    an int64 array, then the rest. A sorted list shares long prefixes,
    which leaves short suffixes.

    Neighbours are compared in bulk on their first ``FRONT_CHARS``
    characters; only a pair that agrees on all of them is compared whole.
    """
    strings = list(strings)
    count = len(strings)
    lengths = np.fromiter(map(len, strings), np.int64, count)
    # code points side by side, cut or zero-padded to FRONT_CHARS; a
    # padding zero that matches never counts past the shorter string
    chars = np.array(strings, dtype=f"<U{FRONT_CHARS}").view(np.uint32)
    chars = chars.reshape(count, FRONT_CHARS)
    differ = chars[1:] != chars[:-1]
    shared = np.where(differ.any(axis=1), differ.argmax(axis=1), FRONT_CHARS)
    prefix = np.zeros(count, dtype=np.int64)
    prefix[1:] = np.minimum(shared, np.minimum(lengths[1:], lengths[:-1]))
    for i in np.flatnonzero(prefix == FRONT_CHARS).tolist():
        prefix[i] = len(os.path.commonprefix(strings[i - 1 : i + 1]))
    return prefix, [string[k:] for string, k in zip(strings, prefix.tolist())]


def front_decode(path, name: str, prefix, suffix) -> list[str]:
    """The strings ``front_encode`` stored as ``prefix`` (an int64 array,
    stored as ``{name}.prefix``) and ``suffix`` (a list, stored as ``name``).

    Decoded in one comprehension, then checked whole: raises
    ``ValueError`` naming ``path`` and ``name`` unless ``suffix`` is a list
    of strings with one prefix each, the first prefix is 0, and no prefix
    is negative or longer than the string before it.
    """
    shape = f"{name} must be a list of strings, stored as str suffixes"
    require(isinstance(suffix, list), path, shape)
    try:
        rests = len("".join(suffix))
    except TypeError:  # a suffix that is not a string
        raise ValueError(f"{path}: {shape}") from None
    count = len(suffix)
    message = f"{name}.prefix must hold one prefix per suffix ({count})"
    require(len(prefix) == count, path, message)
    before, shared = "", prefix.tolist()
    strings = [before := before[:k] + rest for k, rest in zip(shared, suffix)]
    # with no prefix negative, each string is as long as its prefix and
    # suffix together exactly when the prefix does not pass the string
    # before, which for the first string is "": its prefix must be 0
    fits = len("".join(strings)) == sum(shared) + rests
    ok = prefix.min(initial=0) >= 0 and fits
    require(ok, path, f"{name} prefixes must start at 0 and not pass the string before")
    return strings


def require_ascending(path, name: str, strings) -> None:
    """``strings`` rise strictly in Python string order."""
    require(all(map(operator.lt, strings, strings[1:])), path, f"{name} out of order")


def strings_digest(strings) -> str:
    """The sha256 of the JSON of ``strings`` (a list or tuple), which no
    other list of strings shares."""
    return hashlib.sha256(json.dumps(strings).encode("ascii")).hexdigest()


def to_planes(array: np.ndarray) -> np.ndarray:
    """The ``(width, n)`` uint8 byte planes of a 1-d integer array's
    little-endian bits, ``width`` the fewest of ``WIDTHS`` bytes that holds
    its largest value read as unsigned."""
    size = array.dtype.itemsize
    bits = np.ascontiguousarray(array, array.dtype.newbyteorder("<"))
    top = int(bits.view(f"<u{size}").max(initial=0))
    width = next(w for w in WIDTHS if top >> 8 * w == 0)
    return np.ascontiguousarray(bits.view(np.uint8).reshape(-1, size)[:, :width].T)


def from_planes(path, name: str, planes, dtype) -> np.ndarray:
    """The 1-d ``dtype`` array whose ``to_planes`` is ``planes``.

    Raises ``ValueError`` naming ``path`` and ``name`` unless ``planes`` is
    a 2-d uint8 array of 1, 2, 4 or 8 planes, no more than ``dtype`` has
    bytes. The missing high bytes are zero.
    """
    dtype = np.dtype(dtype)
    width = planes.shape[0] if planes.ndim == 2 else 0
    ok = planes.dtype == np.uint8 and width in WIDTHS and width <= dtype.itemsize
    require(ok, path, f"{name} is not 1, 2, 4 or 8 uint8 byte planes of {dtype}")
    unsigned = np.dtype(f"u{dtype.itemsize}")
    bits = planes[0].astype(unsigned)
    for i in range(1, width):
        bits |= planes[i].astype(unsigned) << 8 * i
    return bits.view(dtype)


def require(condition, path, message: str) -> None:
    """Raise ``ValueError`` naming ``path`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(f"{path}: {message}")


def pointers(path, name: str, counts, rows: int, total: int, least: int = 0) -> np.ndarray:
    """The int64 running sums ``0, c[0], c[0] + c[1], ...`` of ``counts``,
    the pointers into ``total`` entries that ``np.diff`` stored as counts.

    Raises ``ValueError`` naming ``path`` and ``name`` unless there are
    ``rows`` counts, each at least ``least`` (at least 0), adding up to
    ``total``.
    """
    ok = counts.shape == (rows,) and counts.min(initial=least) >= least
    require(ok, path, f"{name} must hold {rows} counts, each at least {least}")
    ptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    # with no count negative, a sum that wraps is negative where it first wraps
    require(ptr[-1] == total and ptr.min() >= 0, path, f"{name} must add up to {total}")
    return ptr


def gap_encode(ptr, ids) -> np.ndarray:
    """int32 ``ids`` in lists ``ids[ptr[i]:ptr[i + 1]]``, each list stored as
    its first id and then the differences between neighbours: small numbers
    for ascending ids, which compress far better than the ids."""
    gaps = np.array(ids, dtype=np.int32)
    gaps[1:] -= ids[:-1]
    starts = ptr[:-1][ptr[:-1] < ptr[1:]]  # the first entry of each list
    gaps[starts] = ids[starts]
    return gaps


def gap_decode(path, name: str, ptr, gaps, bound: int) -> np.ndarray:
    """The int32 ids that ``gap_encode(ptr, ids)`` stored as ``gaps``,
    decoded in place (a load reads ``gaps`` for this alone).

    Raises ``ValueError`` naming ``path`` and ``name`` unless ``ptr`` rises
    from 0 to ``len(gaps)`` without falling, the ids rise strictly within
    each list and all lie in ``[0, bound)``. The running sums are int32: one
    that wraps still yields each stored id exactly, and any other id is
    out of range or fails to rise.
    """
    ok = len(ptr) > 0 and ptr[0] == 0 and ptr[-1] == len(gaps) and np.all(ptr[1:] >= ptr[:-1])
    require(ok, path, f"{name} lists must not fall from 0 to {len(gaps)}")
    starts = ptr[:-1][ptr[:-1] < ptr[1:]]  # the first entry of each list
    first = gaps[starts]
    gaps[starts] = 1
    require(gaps.min(initial=1) > 0, path, f"{name} not strictly ascending within a list")
    gaps[starts] = 0
    # each list's first id, less the previous list's last, restarts the sum
    last = np.add.reduceat(gaps, starts, dtype=np.int32) + first
    gaps[starts] = first
    gaps[starts[1:]] -= last[:-1]
    ids = np.cumsum(gaps, dtype=np.int32, out=gaps)
    ok = ids.min(initial=0) >= 0 and ids.max(initial=-1) < bound
    require(ok, path, f"{name} outside [0, {bound})")
    return ids


def first_use_encode(ids) -> np.ndarray:
    """Row ``ids`` numbered in first-use order (each id at most one above
    every id before it) as codes: 0 where an id is used for the first
    time, else the id + 1. A map with no repeats codes as all zeros."""
    first = np.ones(len(ids), dtype=bool)
    first[1:] = ids[1:] > np.maximum.accumulate(ids)[:-1]
    return np.where(first, 0, ids + 1)


def first_use_decode(path, name: str, codes) -> tuple[np.ndarray, int]:
    """(ids, distinct count) of the codes ``first_use_encode`` stored,
    decoded in place (a load reads ``codes`` for this alone), so a load
    holds no more than the codes and their running count of first uses.

    Raises ``ValueError`` naming ``path`` and ``name`` for a code that is
    negative or names an id not yet used.
    """
    first = codes == 0
    seen = np.cumsum(first)  # ids used up to and including each entry
    ok = codes.min(initial=0) >= 0 and bool(np.all(codes <= seen))
    require(ok, path, f"{name} must name rows in first-use order")
    codes -= 1
    seen -= 1
    np.copyto(codes, seen, where=first)
    return codes, int(np.count_nonzero(first))
