#!/usr/bin/env python3
"""Print where the bytes of each index file go.

    python3 scripts/index_sizes.py lex_index.bin dense_index.bin

For each file: its size, format and version; the header line's bytes,
then those of each header entry as the header's JSON holds it (among
them the suffix lists of a lexical file's front-coded string tables,
``header.article_ids`` and ``header.terms``, and a dense file's
``header.article_ids_sha256``); and each array as stored (integer arrays
as byte planes), in file order, with its dtype, shape, raw bytes and
xz bytes. The string tables' prefixes are the arrays
``article_ids.prefix`` and ``terms.prefix``; the lists' pointers are
stored as counts (``title.df``, ``sentence_counts``, ...). A part's xz
bytes are its bytes compressed alone as a raw LZMA2 stream with the
files' default preset, without the xz container's header, index and
check, which would swamp a small part; so a size change can be traced to
the entries and arrays that make it. They need not sum to the file's
size, which is one xz stream over all of them.
"""

import argparse
import io
import json
import lzma
import os
import sys

import numpy as np


LZMA2 = [{"id": lzma.FILTER_LZMA2, "preset": lzma.PRESET_DEFAULT}]


def xz(raw: bytes) -> int:
    return len(lzma.compress(raw, format=lzma.FORMAT_RAW, filters=LZMA2))


def row(name: str, raw: bytes, dtype: str = "", shape: str = "") -> str:
    return f"  {name:<28} {dtype:<7} {shape:<16} {len(raw):>10} {xz(raw):>10}"


def report(path: str) -> list[str]:
    with open(path, "rb") as raw:
        stream = io.BytesIO(lzma.decompress(raw.read(), format=lzma.FORMAT_XZ))
    line = stream.readline()
    header = json.loads(line)
    arrays = {
        name: np.lib.format.read_array(stream, allow_pickle=False)
        for name in header["arrays"]
    }
    lines = [
        f"{path}: {os.path.getsize(path)} bytes "
        f"({header['format']}, version {header['version']})",
        row("header", line),
    ]
    for key, value in sorted(header.items()):
        entry = json.dumps(value, sort_keys=True, ensure_ascii=False)
        lines.append(row(f"header.{key}", entry.encode("utf-8")))
    for name, array in arrays.items():
        buffer = io.BytesIO()
        np.lib.format.write_array(buffer, array, allow_pickle=False)
        shape = "x".join(map(str, array.shape))
        lines.append(row(name, buffer.getvalue(), str(array.dtype), shape))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description="bytes per header and array of index files")
    parser.add_argument("files", nargs="+", help="lexical or dense index files")
    args = parser.parse_args()
    print(f"  {'part':<28} {'dtype':<7} {'shape':<16} {'bytes':>10} {'xz':>10}")
    for path in args.files:
        print("\n".join(report(path)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
