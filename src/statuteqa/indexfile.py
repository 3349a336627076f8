"""The on-disk format of the lexical and dense indexes.

An index file is one gzip stream, written with ``mtime=0`` and no file
name so that equal indexes save to equal bytes. It holds a sorted-keys
JSON header line (``format``, ``version``, the index's metadata, and
``arrays``, the names of the arrays that follow), then each array in
``.npy`` format. Arrays are never pickled.

Artifacts are written through ``replacing``, so a reader sees the old
file or the new one, never a half-written one.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
import secrets
import zlib
from pathlib import Path

import numpy as np

COMPRESS_LEVEL = 6


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


def save(path, fmt: str, version: int, header: dict, arrays: dict) -> None:
    """Write ``header`` and then ``arrays``, in their order, to ``path``."""
    head = {**header, "format": fmt, "version": version, "arrays": list(arrays)}
    line = json.dumps(head, sort_keys=True, ensure_ascii=False) + "\n"
    with replacing(path) as raw, gzip.GzipFile(
        filename="", mode="wb", compresslevel=COMPRESS_LEVEL, fileobj=raw, mtime=0
    ) as out:
        out.write(line.encode("utf-8"))
        for array in arrays.values():
            np.lib.format.write_array(out, array, allow_pickle=False)


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
        ok = arrays[name].dtype == dtype and arrays[name].ndim == ndim
        require(ok, path, f"{name} is not {ndim}-d {np.dtype(dtype)}")
    ids = header["article_ids"]
    require(ids == sorted(set(ids)), path, "article ids out of order")
    return header, arrays


def require(condition, path, message: str) -> None:
    """Raise ``ValueError`` naming ``path`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(f"{path}: {message}")


def require_offsets(path, name: str, offsets, rows: int, total: int) -> None:
    """``offsets`` splits ``total`` entries into ``rows`` non-empty runs."""
    ok = offsets.shape == (rows + 1,) and offsets[0] == 0 and offsets[-1] == total
    ok = ok and bool(np.all(np.diff(offsets) > 0))
    require(ok, path, f"{name} must rise strictly from 0 to {total}")
