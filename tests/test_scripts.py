"""Smoke tests: the bundled scripts run to completion on small inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

from statuteqa.cli import main
from statuteqa.corpus import write_corpus_file
from statuteqa.evaluation import write_gold_file
from statuteqa.pipeline import Pipeline, PipelineConfig
from statuteqa.reranker import save_model, zero_model
from statuteqa.synth import synthetic_corpus, title_gold_queries

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_script(script, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_run_demo_drives_every_phase(scripts_dir, tmp_path):
    result = run_script(
        scripts_dir / "run_demo.py", "--articles", "30", "--workdir", "demo", cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    for phase in ("index", "weaklabel", "train", "eval", "query"):
        assert f"== {phase} ==" in result.stdout
    work = tmp_path / "demo"
    for artifact in ("lex_index.bin", "dense_index.bin", "model.json", "eval_report.json"):
        assert (work / artifact).is_file()
    assert (work / ".statuteqa.lock").read_text() == ""  # left in place, never written


def test_sweep_quickview_reports_every_setting(scripts_dir, tmp_path):
    result = run_script(
        scripts_dir / "sweep_quickview.py", "--families", "5", "--members", "3", cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    rows = result.stdout.splitlines()
    assert rows[0].startswith("BM25(alpha,beta)")
    assert [row.split()[0] for row in rows[1:]] == [
        "BM25(0,1)", "BM25(1,0)", "BM25(1,1)", "BM25(1.5,1)",
    ]


def test_answer_bits_prints_each_answer_exactly(scripts_dir, tmp_path):
    docs = synthetic_corpus(20, seed=0)
    queries = title_gold_queries(docs)[:6]
    write_corpus_file(docs, tmp_path / "corpus.jsonl")
    write_gold_file(queries, tmp_path / "questions.jsonl")
    config = {
        "corpus_path": str(tmp_path / "corpus.jsonl"),
        "lex_index_path": str(tmp_path / "lex_index.bin"),
        "dense_index_path": str(tmp_path / "dense_index.bin"),
        "model_path": str(tmp_path / "model.json"),
        "embedder_dimension": 64,
        "top_k": 10,
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(["--config", str(tmp_path / "config.json"), "index"]) == 0
    save_model(zero_model(), tmp_path / "model.json")
    echo = {"external_scorer_cmd": [sys.executable, str(scripts_dir / "echo_scorer.py")]}
    (tmp_path / "external.json").write_text(json.dumps({**config, **echo}))

    for name, scorer in (("config", {}), ("external", echo)):
        result = run_script(
            scripts_dir / "answer_bits.py", "--config", f"{name}.json",
            "--questions", "questions.jsonl", cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
        lines = [json.loads(line) for line in result.stdout.splitlines()]
        pipeline = Pipeline.load(PipelineConfig(**config, **scorer))
        try:
            answers = [pipeline.answer(q.question_id, q.question) for q in queries]
        finally:
            pipeline.close()
        assert [line["question_id"] for line in lines] == [a.question_id for a in answers]
        for line, answer in zip(lines, answers):
            assert line["no_candidates"] == answer.no_candidates
            assert len(line["returned"]) == len(answer.returned) >= 1
            for printed, candidate in zip(line["returned"], answer.returned):
                assert printed["article_id"] == candidate.article_id
                scores = {n: float.fromhex(b) for n, b in printed.items() if n != "article_id"}
                assert scores == {
                    "qs_raw": candidate.qs_raw,
                    "qs_norm": candidate.qs_norm,
                    "ss_raw": candidate.ss_raw,
                    "ss_norm": candidate.ss_norm,
                    "combined": candidate.combined,
                }
        # the zero model scores every candidate 0.5; the echo scorer hashes each text
        supervised = {c.ss_raw for a in answers for c in a.returned}
        assert (supervised == {0.5}) == (name == "config"), name
