"""In-memory span tracer wrapped around the package's public functions.

Nothing in the package is edited: ``Tracer.install`` replaces each
boundary function below in every loaded ``statuteqa`` module that binds
it, so calls made through imported names (``rank_and_select`` looking up
``retrieve_topk``, ``extract_features`` looking up ``bm25``) are caught
too. ``uninstall`` puts the originals back.

A "span" boundary records name, start, end, parent span and the current
question id, and counts the call. A "count" boundary only counts: those
functions run thousands of times per question, and spans for them would
cost more memory and time than the work they measure. Their time lands in
the self time of the enclosing span.

The tracer keeps one span stack, so it must be driven from one thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

# (module, attribute, kind); span names are "<module>.<function>"
BOUNDARIES = (
    ("corpus", "load_corpus_file", "span"),
    ("corpus", "clean_text", "count"),
    ("corpus", "tokenize", "count"),
    ("lexical", "build_lex_index", "span"),
    ("lexical", "save_lex_index", "span"),
    ("lexical", "load_lex_index", "span"),
    ("lexical", "retrieve_topk", "span"),
    ("lexical", "bm25", "count"),
    ("dense", "build_dense_index", "span"),
    ("dense", "save_dense_index", "span"),
    ("dense", "load_dense_index", "span"),
    ("dense", "dense_retrieve_topk", "span"),
    ("dense", "embed", "span"),
    ("dense", "quickview_dense_score", "count"),
    ("weak_label", "generate_weak_dataset", "span"),
    ("reranker", "FeatureExtractor.matrix", "span"),
    ("reranker", "train_stage", "span"),
    ("reranker", "load_model", "span"),
    ("reranker", "ModelScorer.score_batch", "span"),
    ("reranker", "extract_features", "count"),
    ("ensemble", "rank_and_select", "span"),
    ("ensemble", "minmax_normalize", "span"),
    ("ensemble", "select_answer_set", "span"),
    ("pipeline", "Pipeline.load", "span"),
    ("pipeline", "Pipeline.answer", "span"),
)


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    qid: str
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # (qid, name) -> calls
        self.qid = ""
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            qid = self.qid
            self.counts[(qid, name)] += 1
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(span_id, parent, qid, name, start, end))

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(self.qid, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        importlib.import_module("statuteqa.cli")  # loads every module
        modules = [
            m for n, m in sys.modules.items() if n.split(".")[0] == "statuteqa"
        ]
        for module_name, attr, kind in BOUNDARIES:
            module = importlib.import_module(f"statuteqa.{module_name}")
            name = f"{module_name}.{attr.split('.')[-1]}"
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    self._set(cls, method, classmethod(make(name, raw.__func__)))
                else:
                    self._set(cls, method, make(name, raw))
                continue
            original = getattr(module, attr)
            wrapper = make(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    return {s.span_id: s.duration - child_time[s.span_id] for s in spans}
