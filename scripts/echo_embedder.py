#!/usr/bin/env python3
"""Reference external embedder for the line protocol.

Reads ``{"id", "text": str}`` JSON lines on stdin and writes
``{"id", "vector": [float; dim]}`` lines in order, each echoing its
request's id. Vectors are a stable hash of the text, so identical texts
embed identically and callers can verify order preservation.
Dependency-free on purpose.
"""

import argparse
import hashlib
import json
import sys


def stable_vector(text: str, dim: int) -> list:
    vector = []
    counter = 0
    while len(vector) < dim:
        digest = hashlib.sha256(f"{counter}:{text}".encode("utf-8")).digest()
        for offset in range(0, len(digest) - 7, 8):
            if len(vector) == dim:
                break
            raw = int.from_bytes(digest[offset : offset + 8], "big")
            vector.append(raw / 2**63 - 1.0)
        counter += 1
    return vector


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dim", type=int, default=8)
    args = parser.parse_args()

    for line in sys.stdin:
        if not line.strip():
            continue
        record = json.loads(line)
        vector = stable_vector(record["text"], args.dim)
        sys.stdout.write(json.dumps({"id": record["id"], "vector": vector}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
