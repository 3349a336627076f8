"""The benchmark's tracer still finds what it wraps.

``perfbench/tracing.py`` replaces package functions named by module and
attribute, and ``perfbench/run.py`` divides reranker time by the number of
``extract_features`` calls, one per scored batch. A refactor that renames
one of those functions, or stops calling ``extract_features`` once per
batch through its module-level name or ``retrieve_topk`` from
``rank_and_select``, would break the traced run without failing any other
test. The tracer file is only read here, and the benchmark's self-test is
run as it is.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

from statuteqa import ensemble, reranker
from statuteqa.ensemble import EnsembleConfig, rank_and_select
from statuteqa.lexical import QuickviewConfig

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def test_every_tracing_boundary_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
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


def test_rank_and_select_calls_retrieve_topk(synth, monkeypatch):
    calls = _counting(monkeypatch, ensemble, "retrieve_topk")
    query = synth.queries[0]
    rank_and_select(
        query.question_id, query.question, synth.lex, synth.scorer, synth.by_id,
        EnsembleConfig(top_k=10), quickview_cfg=QuickviewConfig(), tok=synth.tok,
    )
    assert len(calls) == 1


def test_bench_selftest_passes():
    """The benchmark's own toy-size self-test, traced and untraced (~20 s)."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-4000:]
