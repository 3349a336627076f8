#!/usr/bin/env python3
"""End-to-end walkthrough on a synthetic corpus.

Generates a corpus and gold queries, then drives every CLI phase in
order: index, weaklabel, train, eval, and a sample query. Everything
lands in a work directory (default ./demo_run).
"""

import argparse
import json
import sys
from pathlib import Path

from statuteqa.cli import main as cli_main
from statuteqa.corpus import write_corpus_file
from statuteqa.evaluation import write_gold_file
from statuteqa.synth import synthetic_corpus, title_gold_queries


def run(argv: list) -> None:
    code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"command failed ({code}): {' '.join(argv)}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workdir", default="demo_run")
    parser.add_argument("--articles", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    docs = synthetic_corpus(args.articles, seed=args.seed)
    queries = title_gold_queries(docs)
    write_corpus_file(docs, workdir / "corpus.jsonl")
    write_gold_file(queries, workdir / "gold_queries.jsonl")

    config = {
        "corpus_path": str(workdir / "corpus.jsonl"),
        "lex_index_path": str(workdir / "lex_index.bin"),
        "dense_index_path": str(workdir / "dense_index.bin"),
        "model_path": str(workdir / "model.json"),
        "weak_dataset_path": str(workdir / "weak_dataset.jsonl"),
        "gold_path": str(workdir / "gold_queries.jsonl"),
        "report_path": str(workdir / "eval_report.json"),
        "top_k": 20,
        "epochs": 30,
    }
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    base = ["--config", str(config_path)]

    print("== index ==")
    run(base + ["index"])
    print("== weaklabel ==")
    run(base + ["weaklabel"])
    print("== train ==")
    run(base + ["train", "--mode", "two-stage"])
    print("== eval ==")
    run(base + ["eval", "--k", "1,5,10"])
    print("== query ==")
    sample = queries[0]
    print(f"question: {sample.question!r} (gold {sorted(sample.gold_article_ids)})")
    run(base + ["query", "--question", sample.question, "--top-k", "20"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
