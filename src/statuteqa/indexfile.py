"""The on-disk format of the lexical and dense indexes.

An index file is one gzip stream, written with ``mtime=0`` and no file
name so that equal indexes save to equal bytes. It holds a sorted-keys
JSON header line (``format``, ``version``, the index's metadata, and
``arrays``, the names of the arrays that follow), then each array in
``.npy`` format. Arrays are never pickled. Posting lists of ids are
stored gap-coded (``gap_encode``) and checked as they are decoded
(``gap_decode``).

Each 1-d integer array is stored as byte planes (``to_planes``): a
``(width, n)`` uint8 array whose row ``i`` holds byte ``i`` of every
value's little-endian bits. ``width`` is the fewest of 1, 2, 4 or 8 bytes
that holds the largest value read as unsigned, so an array with a
negative value keeps its full width. Gaps, counts and offsets mostly fit
in one or two bytes; their zero high bytes vanish, and each plane puts
like bytes together, which deflate packs far better than interleaved
values (the byte-shuffle filter of HDF5 and Blosc). Float arrays are
stored as they are. ``load`` rebuilds each integer array in its layout
dtype (``from_planes``) before it checks anything else. Lexical files
before version 5 and dense files before version 6 stored plain arrays;
they fail with a version mismatch and are rebuilt with ``statuteqa index``.

Artifacts, the JSON-lines record files (corpus, gold questions, training
examples) among them, are written through ``replacing``, so a reader sees
the old file or the new one, never a half-written one. Gold questions and
training examples are read back with ``read_json_lines``.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import operator
import os
import secrets
import zlib
from pathlib import Path

import numpy as np

COMPRESS_LEVEL = 6
WIDTHS = (1, 2, 4, 8)  # bytes per value an integer array may be stored in


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


def read_json_lines(path):
    """``(lineno, record)`` for each non-blank line of a JSON-lines file,
    counting lines from 1. Raises ``ValueError`` naming ``path`` and the
    line for a line that is not JSON or not a JSON object."""
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: record must be a JSON object")
            yield lineno, record


def save(path, fmt: str, version: int, header: dict, arrays: dict) -> None:
    """Write ``header`` and then ``arrays``, in their order, to ``path``;
    integer arrays as their byte planes."""
    head = {**header, "format": fmt, "version": version, "arrays": list(arrays)}
    line = json.dumps(head, sort_keys=True, ensure_ascii=False) + "\n"
    with replacing(path) as raw, gzip.GzipFile(
        filename="", mode="wb", compresslevel=COMPRESS_LEVEL, fileobj=raw, mtime=0
    ) as out:
        out.write(line.encode("utf-8"))
        for array in arrays.values():
            stored = to_planes(array) if array.dtype.kind in "iu" else array
            np.lib.format.write_array(out, stored, allow_pickle=False)


def load(path, fmt: str, version: int, layout: dict, expected: dict):
    """(header, arrays) of a saved file; ``layout`` is name -> (dtype, ndim).

    Raises ``ValueError`` naming ``path`` for a file that is not gzip or is
    truncated; that has another format, version or set of arrays, or a
    header value other than one in ``expected``; or whose arrays or
    article ids are malformed.
    """
    wanted = {"format": fmt, "version": version, "arrays": list(layout), **expected}
    try:
        with gzip.open(path, "rb") as stream:
            header = json.loads(stream.readline())
            if not isinstance(header, dict):
                raise ValueError("no header line")
            for key, value in wanted.items():
                if header.get(key) != value:
                    name, found = key.replace("_", " "), header.get(key)
                    raise ValueError(f"{name} mismatch (index {found}, expected {value})")
            read = np.lib.format.read_array
            arrays = {name: read(stream, allow_pickle=False) for name in layout}
            if stream.read(1):
                raise ValueError("data after the last array")
    except (ValueError, EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    for name, (dtype, ndim) in layout.items():
        if np.dtype(dtype).kind in "iu":
            arrays[name] = from_planes(path, name, arrays[name], dtype)
        ok = arrays[name].dtype == dtype and arrays[name].ndim == ndim
        require(ok, path, f"{name} is not {ndim}-d {np.dtype(dtype)}")
    ids = header["article_ids"]
    ordered = isinstance(ids, list) and all(map(operator.lt, ids, ids[1:]))
    require(ordered, path, "article ids out of order")
    return header, arrays


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
    bits = np.zeros((planes.shape[1], dtype.itemsize), dtype=np.uint8)
    bits[:, :width] = planes.T
    return bits.view(dtype.newbyteorder("<")).reshape(-1).astype(dtype, copy=False)


def require(condition, path, message: str) -> None:
    """Raise ``ValueError`` naming ``path`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(f"{path}: {message}")


def require_offsets(path, name: str, offsets, rows: int, total: int) -> None:
    """``offsets`` splits ``total`` entries into ``rows`` non-empty runs."""
    ok = offsets.shape == (rows + 1,) and offsets[0] == 0 and offsets[-1] == total
    ok = ok and bool(np.all(np.diff(offsets) > 0))
    require(ok, path, f"{name} must rise strictly from 0 to {total}")


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
