#!/usr/bin/env python3
"""Reference external scorer for the line protocol.

Reads ``{"id", "question", "title", "content"}`` JSON lines on stdin and
writes ``{"id", "score": float in [0, 1]}`` lines in order, each echoing
its request's id. The score is a stable hash of the request without its
id, so callers can verify order preservation; ``--constant`` pins every
score instead. Deliberately dependency-free: this emulates a
scorer living outside the package.
"""

import argparse
import hashlib
import json
import sys


def stable_score(record: dict) -> float:
    payload = json.dumps(record, sort_keys=True, ensure_ascii=False).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--constant", type=float, default=None)
    args = parser.parse_args()

    for line in sys.stdin:
        if not line.strip():
            continue
        record = json.loads(line)
        request_id = record.pop("id")
        score = args.constant if args.constant is not None else stable_score(record)
        sys.stdout.write(json.dumps({"id": request_id, "score": score}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
