"""Command-line entry point for the pipeline phases.

Subcommands: ``index``, ``weaklabel``, ``train``, ``query``, ``eval``,
``serve``. Parameters come from a JSON config file (``--config`` or the
STATUTEQA_CONFIG environment variable) with per-flag overrides; flags win.
Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import fcntl
import os
import sys
from pathlib import Path
from typing import Iterable

from . import server as server_mod
from .corpus import iter_articles, load_corpus_file
from .dense import build_dense_index, save_dense_index
from .ensemble import answer_set_to_json
from .evaluation import load_gold_file, run_eval, save_report, split_train_valid
from .lexical import LexIndex, build_lex_index, save_lex_index
from .lineproto import finite_real
from .pipeline import (
    CONFIG_ENV_VAR,
    Pipeline,
    PipelineConfig,
    close_all,
    load_articles,
    load_artifacts,
    question_id_for,
)
from .reranker import FeatureExtractor, save_model, train_stage, zero_model
from .weak_label import (
    dataset_stats,
    generate_gold_examples,
    generate_weak_dataset,
    read_dataset,
    write_dataset,
)

LOCK_FILE_NAME = ".statuteqa.lock"
# each ``train --mode``'s stages, in order: (stage name, the examples it trains on)
TRAIN_MODES = {
    "two-stage": (("weak_pretrain", "weak"), ("gold_finetune", "gold")),
    "gold-only": (("gold_only", "gold"),),
    "weak-only": (("weak_only", "weak"),),
}


@contextlib.contextmanager
def _exclusive_lock(directory: Path):
    """index/train are exclusive single-process operations.

    The kernel holds an exclusive ``flock`` on the lock file and releases
    it when the holder closes the file or exits, however it exits. The file
    stays in place and its content is never read: unlinking it would let a
    later run lock a new file while an earlier run still holds the old one.
    """
    directory.mkdir(parents=True, exist_ok=True)
    lock_path = directory / LOCK_FILE_NAME
    with open(lock_path, "a") as handle:
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise RuntimeError(
                f"lock file {lock_path} is held by another index/train run"
            ) from None
        yield


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    cfg = PipelineConfig.from_file(path) if path else PipelineConfig()
    overrides = {}
    for field in dataclasses.fields(PipelineConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            overrides[field.name] = value
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _add_override(parser: argparse.ArgumentParser, *names: str) -> None:
    types = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}
    casts = {"float | None": _finite_float, "float": _finite_float, "int": int, "str": str}
    for name in names:
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, dest=name, type=casts[types[name]], default=None)


def _finite_float(text: str) -> float:
    try:
        value = finite_real(float(text))
    except ValueError:
        value = None
    if value is None:
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statuteqa",
        description="Article-level retrieval question answering over statute corpora.",
    )
    parser.add_argument("--config", help="JSON pipeline config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build the lexical and dense indexes")
    _add_override(
        p_index,
        "corpus_path", "lex_index_path", "dense_index_path",
        "k1", "b", "embedder_dimension", "embedder_seed",
    )

    p_weak = sub.add_parser("weaklabel", help="generate the weak-label dataset")
    _add_override(p_weak, "corpus_path", "weak_dataset_path", "weak_negative_ratio")
    p_weak.add_argument("--seed", dest="weak_seed", type=int, default=None)

    p_train = sub.add_parser("train", help="train the supervised scorer")
    _add_override(
        p_train,
        "corpus_path", "lex_index_path", "dense_index_path", "model_path",
        "weak_dataset_path", "gold_path",
        "learning_rate", "epochs", "batch_size", "patience",
        "weak_negative_ratio", "split_ratio",
    )
    p_train.add_argument("--seed", dest="train_seed", type=int, default=None)
    p_train.add_argument("--weak-seed", dest="weak_seed", type=int, default=None)
    p_train.add_argument("--split-seed", dest="split_seed", type=int, default=None)
    p_train.add_argument("--mode", choices=tuple(TRAIN_MODES), default="two-stage")

    p_query = sub.add_parser("query", help="answer one question or run a REPL")
    _add_override(
        p_query,
        "corpus_path", "lex_index_path", "dense_index_path", "model_path",
        "alpha", "beta", "gamma", "threshold", "top_k",
    )
    p_query.add_argument("--question", help="one-shot question (otherwise interactive)")
    p_query.add_argument("--json", action="store_true", help="print result JSON lines")

    p_eval = sub.add_parser("eval", help="evaluate quickview and/or end-to-end")
    _add_override(
        p_eval,
        "corpus_path", "lex_index_path", "dense_index_path", "model_path",
        "gold_path", "report_path",
        "alpha", "beta", "gamma", "threshold", "top_k",
    )
    p_eval.add_argument("--quickview", action="store_true", help="quickview recall only")
    p_eval.add_argument("--end-to-end", action="store_true", help="answer-set metrics only")
    p_eval.add_argument("--k", default="50,100,200", help="comma-separated recall cutoffs")

    p_serve = sub.add_parser("serve", help="HTTP query service")
    _add_override(
        p_serve,
        "corpus_path", "lex_index_path", "dense_index_path", "model_path",
        "max_question_chars",
    )
    p_serve.add_argument("--bind", default="127.0.0.1:8080")

    return parser


def _cmd_index(cfg: PipelineConfig) -> int:
    docs, stats = load_corpus_file(cfg.corpus_path)
    articles = list(iter_articles(docs))
    outputs = (cfg.lex_index_path, cfg.dense_index_path)
    # an embedder that cannot start fails before either index is replaced
    embedder = cfg.make_embedder()
    with contextlib.ExitStack() as stack:
        stack.callback(close_all, embedder)
        # each output directory, in one order, so two runs cannot deadlock
        for directory in sorted({Path(path).resolve().parent for path in outputs}):
            stack.enter_context(_exclusive_lock(directory))
        lex = build_lex_index(articles, cfg, stats.digest)
        dense, excluded = build_dense_index(articles, embedder, lex.tokenizer, stats.digest)
        save_lex_index(lex, cfg.lex_index_path)
        save_dense_index(dense, cfg.dense_index_path)
    print(
        f"indexed {stats.documents} documents, {stats.articles} articles "
        f"({stats.titled} titled, {stats.missing_title} untitled, "
        f"{stats.dropped_empty_content} dropped empty)"
    )
    lex_bytes, dense_bytes = map(os.path.getsize, outputs)
    print(
        f"lexical index: {cfg.lex_index_path} ({lex_bytes} bytes, "
        f"tokenizer {lex.tokenizer.fingerprint()})"
    )
    print(
        f"dense index: {cfg.dense_index_path} ({dense_bytes} bytes, "
        f"embedder {dense.embedder.fingerprint()}, {dense.offsets[-1]} sentences as "
        f"{dense.vectors} distinct vectors, {excluded} articles without sentences)"
    )
    return 0


def _cmd_weaklabel(cfg: PipelineConfig) -> int:
    docs, _ = load_corpus_file(cfg.corpus_path)
    articles = list(iter_articles(docs))
    examples = generate_weak_dataset(articles, cfg)
    write_dataset(examples, cfg.weak_dataset_path)
    stats = dataset_stats(examples)
    print(
        f"wrote {stats.total} examples ({stats.positives} positive, "
        f"{stats.negatives} negative, ratio {stats.ratio:.1f}, "
        f"{stats.duplicate_pairs} duplicate pairs) to {cfg.weak_dataset_path}"
    )
    return 0


def _cmd_train(cfg: PipelineConfig, mode: str) -> int:
    stages = TRAIN_MODES[mode]
    uses = dict.fromkeys(examples for _, examples in stages)  # in stage order
    lex, dense = load_artifacts(cfg)
    try:
        articles = load_articles(cfg, lex.corpus_digest)
        extractor = FeatureExtractor(lex, dense)
        gold_queries = load_gold_file(cfg.gold_path)
        weak_examples = read_dataset(cfg.weak_dataset_path) if "weak" in uses else []
        # every id, before any feature matrix is built
        for query in gold_queries:
            where = f"{cfg.gold_path}: question {query.question_id!r}"
            _require_indexed(lex, sorted(query.gold_article_ids), where)
        _require_indexed(lex, (ex.article_id for ex in weak_examples), cfg.weak_dataset_path)
        train_queries, valid_queries = split_train_valid(
            gold_queries, cfg.split_ratio, cfg.split_seed
        )
        gold_train = generate_gold_examples(
            [(q.question, sorted(q.gold_article_ids)) for q in train_queries],
            articles,
            cfg,
        )
        gold_valid = generate_gold_examples(
            [(q.question, sorted(q.gold_article_ids)) for q in valid_queries],
            articles,
            dataclasses.replace(cfg, weak_seed=cfg.weak_seed + 1),
        )
        datasets = {"weak": weak_examples, "gold": gold_train}

        with _exclusive_lock(Path(cfg.model_path).resolve().parent):
            # each dataset's features once; every stage shares the validation set's
            valid = extractor.matrix(gold_valid) if gold_valid else None
            matrices = {name: extractor.matrix(datasets[name]) for name in uses}
            model = zero_model()
            for stage, name in stages:
                model = train_stage(model, matrices[name], valid, cfg, stage)
            save_model(model, cfg.model_path)
    finally:
        close_all(dense.embedder)

    best = model.metadata["stages"][-1]["best_val_loss"]
    best_text = f"{best:.4f}" if isinstance(best, float) else "n/a"
    trained_on = " and ".join(f"{len(datasets[name])} {name}" for name in uses)
    print(
        f"trained {mode} model on {trained_on} examples "
        f"(validation loss {best_text}); saved to {cfg.model_path}"
    )
    return 0


def _require_indexed(lex: LexIndex, article_ids: Iterable[str], where: str) -> None:
    """Raise ``ValueError`` naming ``where`` for the first id outside the indexes."""
    ghost = next((a for a in article_ids if a not in lex.column), None)
    if ghost is not None:
        raise ValueError(f"{where}: article {ghost!r} not in the indexes")


def _cmd_query(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    pipeline = Pipeline.load(cfg)
    try:
        if args.question is not None:
            _answer_one(pipeline, args.question, args.json)
            return 0
        for line in sys.stdin:
            question = line.strip()
            if not question:
                continue
            _answer_one(pipeline, question, args.json)
        return 0
    finally:
        pipeline.close()


def _answer_one(pipeline: Pipeline, question: str, as_json: bool) -> None:
    answer = pipeline.answer(question_id_for(question), question)
    if as_json:
        print(answer_set_to_json(answer))
        return
    if answer.no_candidates:
        print("(no candidates)")
        return
    for candidate in answer.returned:
        print(
            f"{candidate.article_id}\tcombined={candidate.combined:.6f}"
            f"\tqs={candidate.qs_norm:.6f}\tss={candidate.ss_norm:.6f}"
        )


def _cmd_eval(cfg: PipelineConfig, args: argparse.Namespace) -> int:
    try:
        ks = sorted({int(part) for part in args.k.split(",") if part.strip()})
    except ValueError:
        ks = []
    if not ks or ks[0] < 1:
        print(f"invalid --k list: {args.k!r} (cutoffs >= 1)", file=sys.stderr)
        return 2
    do_quickview = args.quickview or not args.end_to_end
    do_end_to_end = args.end_to_end or not args.quickview
    ks = ks if do_quickview else []

    queries = load_gold_file(cfg.gold_path)
    if do_end_to_end:
        pipeline = Pipeline.load(cfg)
    else:  # quickview recall needs no scorer
        pipeline = Pipeline(cfg, *load_artifacts(cfg), scorer=None)
    # one quickview per question, deep enough for every cutoff and the answer
    depth = max([*ks, cfg.top_k] if do_end_to_end else ks)
    try:
        report = run_eval(
            queries,
            lambda question: pipeline.quickview_rank(question, depth),
            ks=ks,
            answer=pipeline.answer_ranked if do_end_to_end else None,
        )
    finally:
        pipeline.close()

    def show(value: float | None, spec: str) -> str:
        return "n/a" if value is None else format(value, spec)

    for k in ks:
        print(f"Recall@{k}: {show(report.recall_at_k.get(k), '.4f')}")
    if do_end_to_end:
        print(f"Precision: {show(report.mean_precision, '.4f')}")
        print(f"Recall: {show(report.mean_recall, '.4f')}")
        print(f"F2: {show(report.f2, '.4f')}")
    latency = show(report.mean_latency_ms, ".2f")
    print(f"Mean latency: {latency} ms over {report.queries} queries")
    save_report(report, cfg.report_path)
    print(f"report written to {cfg.report_path}")
    if report.failures:
        print(f"{report.failures} queries failed", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(cfg: PipelineConfig, bind: str) -> int:
    host, port = server_mod.parse_bind(bind)
    pipeline = Pipeline.load(cfg)
    try:
        with server_mod.make_server(pipeline, host, port) as server:
            port = server.server_address[1]
            print(f"serving on http://{host}:{port}  (GET /answer?q=...&k=..., GET /healthz)",
                  flush=True)
            with contextlib.suppress(KeyboardInterrupt):
                server.serve_forever()
    finally:
        pipeline.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "index":
            return _cmd_index(cfg)
        if args.command == "weaklabel":
            return _cmd_weaklabel(cfg)
        if args.command == "train":
            return _cmd_train(cfg, args.mode)
        if args.command == "query":
            return _cmd_query(cfg, args)
        if args.command == "eval":
            return _cmd_eval(cfg, args)
        if args.command == "serve":
            return _cmd_serve(cfg, args.bind)
        parser.error(f"unknown command {args.command!r}")
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
