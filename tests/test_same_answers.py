"""The benchmark's corpora still get the same answers, weights and indexes.

Builds the family corpus and the 10k statute corpus of the benchmark
(``perfbench/workloads.make_corpus``) through ``cli.main``, with the build
config of ``perfbench/build.py`` (``index``, ``weaklabel``,
``train --mode two-stage``), loads each build as the benchmark does and
compares with the values pinned in ``same_answers.json``:

- the benchmark's answer digests of the quality questions (sorted
  ``[question, returned ids]`` JSON, sha256, first 16 hex digits);
- the ``scripts/answer_bits.py`` line of every asked question of the
  family build and of the first 600 of the 10k build, with
  each quickview: each score as ``float.hex``, so equal lines are equal
  answers bit for bit. The file keeps the sha256 of all lines and the
  first 8 hex digits of each line's sha256, which name the first
  question that differs;
- a sha256 of the trained weights and of every loaded index array.

Floating-point results may differ under another numpy, so the file
records the numpy version the values were taken with, and the tests fail
under any other. A change that alters answers on purpose writes the file
again, and says so:

    PYTHONPATH=src python tests/test_same_answers.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from statuteqa import cli
from statuteqa.pipeline import Pipeline, PipelineConfig

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "same_answers.json"

# build name -> (benchmark workload, questions asked: None for all)
BUILDS = {"family": ("serve-family-1k", None), "statute-10k": ("answer-lex-10k", 600)}
QUICKVIEWS = ("lexical", "dense")
SEED = 1  # the order of the asked questions, as a benchmark run's seed sets it
# (build, quickview) -> the benchmark workload whose answer digest it gives
DIGESTS = {
    ("statute-10k", "lexical"): "answer-lex-10k",
    ("statute-10k", "dense"): "answer-dense-10k",
    ("family", "lexical"): "serve-family-1k",
}
LEXICAL_ARRAYS = ("indptr", "columns", "tf", "impact", "lengths", "distinct")
DENSE_ARRAYS = (
    "offsets", "sentence_vector", "colptr", "rows", "data", "sentence_article",
)


def _bench_modules():
    """``perfbench``'s ``workloads`` and ``build`` modules and
    ``scripts/answer_bits.py``, imported as they are."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        import build
        import workloads
    spec = importlib.util.spec_from_file_location(
        "answer_bits", ROOT / "scripts" / "answer_bits.py"
    )
    answer_bits = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(answer_bits)
    return workloads, build, answer_bits


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_sha(array) -> str:
    array = np.asarray(array)
    head = f"{array.dtype.str}{array.shape}".encode("utf-8")
    return _sha(head + np.ascontiguousarray(array).tobytes())[:16]


def _strings_sha(strings) -> str:
    return _sha(json.dumps(list(strings), ensure_ascii=False).encode("utf-8"))[:16]


def _loaded_arrays(pipeline: Pipeline) -> dict[str, str]:
    lex, dense = pipeline.lex, pipeline.dense
    found = {"article_ids": _strings_sha(lex.article_ids), "terms": _strings_sha(lex.terms)}
    for field in ("title", "content"):
        matrix = getattr(lex, field)
        for name in LEXICAL_ARRAYS:
            found[f"lex.{field}.{name}"] = _array_sha(getattr(matrix, name))
    for name in DENSE_ARRAYS:
        found[f"dense.{name}"] = _array_sha(getattr(dense, name))
    found["dense.vectors"] = str(dense.vectors)
    return found


def _build(art: Path, workload, workloads, build):
    """The workload's corpus, built under ``art`` as the benchmark builds it."""
    docs, train = workloads.make_corpus(workload)
    config = build.write_build_inputs(art, workload, docs, train)
    for step, argv in build.STEPS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--config", str(config), *argv])
        assert code == 0, f"statuteqa {step} failed"
    return docs


def observe(workdir: Path) -> dict:
    """Build both corpora under ``workdir`` and record what the file pins."""
    workloads, build, answer_bits = _bench_modules()
    found = {"builds": {}, "digests": {}}
    for name, (workload_name, count) in BUILDS.items():
        workload = workloads.WORKLOADS[workload_name]
        art = workdir / name
        art.mkdir()
        docs = _build(art, workload, workloads, build)
        questions = workloads.make_questions(workload, docs, SEED)[:count]
        weights = json.loads((art / "model.json").read_text())["weights"]
        record = {"weights": _sha(json.dumps([float.hex(w) for w in weights]).encode())}
        for quickview in QUICKVIEWS:
            cfg = PipelineConfig(
                corpus_path=str(art / "corpus.jsonl"),
                lex_index_path=str(art / "lex_index.jsonl"),
                dense_index_path=str(art / "dense_index.jsonl"),
                model_path=str(art / "model.json"),
                quickview_source=quickview,
            )
            pipeline = Pipeline.load(cfg)
            try:
                record.setdefault("arrays", _loaded_arrays(pipeline))
                answers = [pipeline.answer(q.question_id, q.question) for q in questions]
            finally:
                pipeline.close()
            lines = [answer_bits.answer_line(a).encode("utf-8") for a in answers]
            record[quickview] = {
                "questions": len(lines),
                "lines_sha256": _sha(b"\n".join(lines)),
                "line_digests": "".join(_sha(line)[:8] for line in lines),
            }
            bench = DIGESTS.get((name, quickview))
            if bench is not None:
                sets = sorted(
                    [q.question, [c.article_id for c in a.returned]]
                    for q, a in zip(questions[: workload.quality], answers)
                )
                found["digests"][bench] = _sha(json.dumps(sets).encode("utf-8"))[:16]
        asked = [[q.question_id, q.question] for q in questions]
        record["questions_sha256"] = _sha(json.dumps(asked).encode("utf-8"))
        found["builds"][name] = record
        found.setdefault("asked", {})[name] = [q.question_id for q in questions]
    return found


@pytest.fixture(scope="module")
def pinned():
    expected = json.loads(PINNED.read_text())
    if expected["numpy"] != np.__version__:
        pytest.fail(
            f"{PINNED.name} was taken under numpy {expected['numpy']} "
            f"({expected['machine']}); this is numpy {np.__version__}, whose "
            "floating-point results may differ. Take the values again under "
            "this numpy and compare both trees, or run under the pinned one."
        )
    return expected


@pytest.fixture(scope="module")
def observed(pinned, tmp_path_factory):
    return observe(tmp_path_factory.mktemp("same_answers"))


def test_bench_answer_digests(pinned, observed):
    assert observed["digests"] == pinned["digests"]


@pytest.mark.parametrize("build", BUILDS)
def test_trained_weights_and_loaded_index_arrays(pinned, observed, build):
    got, want = observed["builds"][build], pinned["builds"][build]
    differ = [n for n in want["arrays"] if got["arrays"].get(n) != want["arrays"][n]]
    assert not differ, f"{build}: loaded index arrays differ: {differ}"
    assert got["arrays"].keys() == want["arrays"].keys(), build
    assert got["weights"] == want["weights"], f"{build}: trained weights differ"


@pytest.mark.parametrize("quickview", QUICKVIEWS)
@pytest.mark.parametrize("build", BUILDS)
def test_answer_bits(pinned, observed, build, quickview):
    got, want = observed["builds"][build], pinned["builds"][build]
    assert got["questions_sha256"] == want["questions_sha256"], f"{build}: other questions"
    got_q, want_q = got[quickview], want[quickview]
    if got_q["lines_sha256"] == want_q["lines_sha256"]:
        return
    digests = got_q["line_digests"], want_q["line_digests"]
    first = next(
        (i for i in range(0, len(digests[1]), 8) if digests[0][i : i + 8] != digests[1][i : i + 8]),
        None,
    )
    where = "a line whose 8-digit digest is unchanged"
    if first is not None:
        where = f"question {observed['asked'][build][first // 8]!r} (number {first // 8})"
    pytest.fail(f"{build} build, {quickview} quickview: answers differ first at {where}")


def main() -> int:
    if sys.argv[1:] != ["--write"]:
        print(__doc__)
        return 2
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        found = observe(Path(workdir))
    del found["asked"]  # the pinned sha256 covers them
    found = {
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, Python {platform.python_version()}",
        "seed": SEED,
        **found,
    }
    PINNED.write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINNED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
