#!/usr/bin/env python3
"""Sweep quickview boosting weights and report Recall@k per setting.

Mirrors the title/content boost experiments at synthetic-corpus scale:
content-only, title-only, balanced, and title-boosted quickview over a
family-structured corpus with a mix of specific and ambiguous queries.
"""

import argparse
import sys
import time

from statuteqa.corpus import TokenizerConfig, clean_text, iter_articles, tokenize
from statuteqa.evaluation import recall_at_k
from statuteqa.lexical import build_lex_index, retrieve_topk
from statuteqa.pipeline import PipelineConfig
from statuteqa.synth import family_mixed_queries, synthetic_family_corpus

SETTINGS = ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (1.5, 1.0))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--families", type=int, default=30)
    parser.add_argument("--members", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k", default="1,5,10,20")
    args = parser.parse_args()

    ks = sorted({int(part) for part in args.k.split(",")})
    docs = synthetic_family_corpus(args.families, args.members)
    articles = list(iter_articles(docs))
    queries = family_mixed_queries(docs, seed=args.seed)
    tok = TokenizerConfig()
    lex = build_lex_index(articles, PipelineConfig())

    header = "BM25(alpha,beta)".ljust(20) + "".join(f"R@{k}".rjust(9) for k in ks)
    print(header + "  ms/query")
    for alpha, beta in SETTINGS:
        cfg = PipelineConfig(alpha=alpha, beta=beta)
        sums = {k: 0.0 for k in ks}
        started = time.perf_counter()
        for query in queries:
            tokens = tokenize(clean_text(query.question), tok)
            ranked = retrieve_topk(lex, tokens, max(ks), cfg).ids()
            for k in ks:
                sums[k] += recall_at_k(ranked, query.gold_article_ids, k)
        elapsed_ms = (time.perf_counter() - started) * 1000.0 / len(queries)
        row = f"BM25({alpha:g},{beta:g})".ljust(20)
        row += "".join(f"{sums[k] / len(queries):9.4f}" for k in ks)
        print(row + f"  {elapsed_ms:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
