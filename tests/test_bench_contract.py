"""The benchmark's tracer still finds what it wraps.

``perfbench/tracing.py`` replaces package functions named by module and
attribute, and ``perfbench/run.py`` reads per-layer metrics from the spans
and counts of a traced ``Pipeline.answer``: quickview time from the
``lexical.retrieve_topk`` span, reranker time from the
``reranker.score_batch`` span, divided by the ``extract_features`` count,
one per scored batch. A refactor that renames one of those functions, or
calls one of them other than once per answer through its module-level
name, would break the traced run without failing any other test. The
tracer file is only read here, and the benchmark's self-test is run as it
is.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from statuteqa import cli, reranker
from statuteqa.corpus import write_corpus_file
from statuteqa.evaluation import write_gold_file
from statuteqa.pipeline import Pipeline, PipelineConfig
from statuteqa.synth import synthetic_corpus, title_gold_queries

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_tracing_boundary_resolves(tracing):
    for module_name, attr, _ in tracing.BOUNDARIES:
        owner = importlib.import_module(f"statuteqa.{module_name}")
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        target = vars(owner).get(name)
        assert callable(target) or isinstance(target, classmethod), (module_name, attr)


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_score_batch_extracts_features_once_per_batch(synth, monkeypatch):
    calls = _counting(monkeypatch, reranker, "extract_features")
    candidates = synth.articles[:7]
    synth.scorer.score_batch(synth.queries[0].question, candidates)
    [(_, columns, *_)] = calls
    assert columns.tolist() == [synth.lex.column[a.article_id] for a in candidates]


def test_traced_answer_has_the_spans_the_benchmark_reads(synth, tracing):
    pipeline = Pipeline(PipelineConfig(top_k=10), synth.lex, synth.dense, synth.scorer)
    query = synth.queries[0]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.qid = query.question_id
    try:
        pipeline.answer(query.question_id, query.question)
    finally:
        tracer.uninstall()
    by_id = {span.span_id: span for span in tracer.spans}

    def ancestors(span):
        while span.parent is not None:
            span = by_id[span.parent]
            yield span.name

    [root] = [s for s in tracer.spans if s.name == "pipeline.answer"]
    assert root.parent is None
    for name in ("lexical.retrieve_topk", "reranker.score_batch"):
        [span] = [s for s in tracer.spans if s.name == name]
        assert "pipeline.answer" in ancestors(span), name
    assert tracer.counts[(query.question_id, "reranker.extract_features")] == 1


def test_bench_selftest_passes():
    """The benchmark's own toy-size self-test, traced and untraced (~20 s)."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-4000:]


def test_traced_two_stage_train_times_each_stage_loop_alone(tmp_path, tracing):
    """``perfbench/build.py`` reads ``reranker.epoch_ms`` from the self time
    of the ``reranker.train_stage`` spans and ``reranker.features_s`` from
    the ``reranker.matrix`` spans: one span per stage, holding only its
    loop, and one feature matrix per dataset (weak, gold and validation)."""
    docs = synthetic_corpus(30, seed=3)
    write_corpus_file(docs, tmp_path / "corpus.jsonl")
    write_gold_file(title_gold_queries(docs), tmp_path / "gold.jsonl")
    config = {
        f"{name}_path": str(tmp_path / name)
        for name in ("lex_index", "dense_index", "model", "weak_dataset")
    }
    config.update(
        corpus_path=str(tmp_path / "corpus.jsonl"),
        gold_path=str(tmp_path / "gold.jsonl"),
        embedder_dimension=32,
        epochs=2,
    )
    (tmp_path / "config.json").write_text(json.dumps(config))
    base = ["--config", str(tmp_path / "config.json")]
    assert cli.main([*base, "index"]) == 0
    assert cli.main([*base, "weaklabel"]) == 0

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main([*base, "train", "--mode", "two-stage"]) == 0
    finally:
        tracer.uninstall()
    by_id = {span.span_id: span for span in tracer.spans}

    def ancestors(span):
        while span.parent is not None:
            span = by_id[span.parent]
            yield span.name

    stages = [s for s in tracer.spans if s.name == "reranker.train_stage"]
    matrices = [s for s in tracer.spans if s.name == "reranker.matrix"]
    assert len(stages) == 2
    assert len(matrices) == 3
    assert not any("reranker.train_stage" in ancestors(s) for s in matrices)
