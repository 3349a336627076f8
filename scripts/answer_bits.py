#!/usr/bin/env python3
"""Print each question's answer set with its scores' exact bits.

    python3 scripts/answer_bits.py --config config.json --questions gold.jsonl

Loads the pipeline the config names and answers every question of a gold
file (the ``question_id``/``question``/``gold`` lines ``eval`` reads), in
file order. Each question prints one JSON line: its id, whether the
quickview found no candidate, and every returned ``RankedCandidate`` in
order, its id and each score field as ``float.hex``. Two versions of the
package that print the same lines give the same answers bit for bit, so
their outputs can be compared with ``diff``.
"""

import argparse
import dataclasses
import json
import sys

from statuteqa.evaluation import load_gold_file
from statuteqa.pipeline import Pipeline, PipelineConfig


def answer_line(answer) -> str:
    returned = [
        {
            name: value if isinstance(value, str) else float.hex(value)
            for name, value in dataclasses.asdict(candidate).items()
        }
        for candidate in answer.returned
    ]
    record = {
        "question_id": answer.question_id,
        "no_candidates": answer.no_candidates,
        "returned": returned,
    }
    return json.dumps(record, ensure_ascii=False, sort_keys=True)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True, help="JSON pipeline config file")
    parser.add_argument("--questions", required=True, help="gold-format question file")
    args = parser.parse_args()

    queries = load_gold_file(args.questions)
    pipeline = Pipeline.load(PipelineConfig.from_file(args.config))
    try:
        for query in queries:
            print(answer_line(pipeline.answer(query.question_id, query.question)))
    finally:
        pipeline.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
