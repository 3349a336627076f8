import dataclasses
import json
import os
import subprocess
import sys

import pytest

from statuteqa.cli import main
from statuteqa.corpus import LegalDocument, load_corpus_file, write_corpus_file
from statuteqa.evaluation import write_gold_file
from statuteqa.pipeline import Pipeline, PipelineConfig, question_id_for
from statuteqa.synth import synthetic_corpus, title_gold_queries


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus, gold file, config, and all CLI-built artifacts in one dir."""
    root = tmp_path_factory.mktemp("cli_ws")
    docs = synthetic_corpus(60, seed=1)
    queries = title_gold_queries(docs)
    write_corpus_file(docs, root / "corpus.jsonl")
    write_gold_file(queries, root / "gold_queries.jsonl")
    config = {
        "corpus_path": str(root / "corpus.jsonl"),
        "lex_index_path": str(root / "lex_index.bin"),
        "dense_index_path": str(root / "dense_index.bin"),
        "model_path": str(root / "model.json"),
        "weak_dataset_path": str(root / "weak_dataset.jsonl"),
        "gold_path": str(root / "gold_queries.jsonl"),
        "report_path": str(root / "eval_report.json"),
        "embedder_dimension": 64,
        "top_k": 10,
        "epochs": 20,
    }
    (root / "config.json").write_text(json.dumps(config))
    base = ["--config", str(root / "config.json")]
    assert main(base + ["index"]) == 0
    assert main(base + ["weaklabel"]) == 0
    assert main(base + ["train"]) == 0
    return root, base, queries


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["query", "--no-such-flag"])
    assert exc.value.code == 2


def test_missing_corpus_is_runtime_error(tmp_path, capsys):
    code = main(["index", "--corpus-path", str(tmp_path / "nope.jsonl")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_index_rerun_is_byte_identical(workspace):
    root, base, _ = workspace
    lex_before = (root / "lex_index.bin").read_bytes()
    dense_before = (root / "dense_index.bin").read_bytes()
    assert main(base + ["index"]) == 0
    assert (root / "lex_index.bin").read_bytes() == lex_before
    assert (root / "dense_index.bin").read_bytes() == dense_before


def test_weaklabel_rerun_is_byte_identical(workspace):
    root, base, _ = workspace
    before = (root / "weak_dataset.jsonl").read_bytes()
    assert main(base + ["weaklabel"]) == 0
    assert (root / "weak_dataset.jsonl").read_bytes() == before


def test_lock_file_blocks_concurrent_index(workspace, capsys):
    root, base, _ = workspace
    lock = root / ".statuteqa.lock"
    lock.write_text("held")
    try:
        assert main(base + ["index"]) == 1
        assert "lock" in capsys.readouterr().err
    finally:
        lock.unlink()


def test_lock_left_by_exited_process_is_taken_over(workspace, capsys):
    root, base, _ = workspace
    lock = root / ".statuteqa.lock"
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    try:
        lock.write_text(str(child.pid))
        assert main(base + ["index"]) == 0
        assert not lock.exists()
        lock.write_text(str(os.getpid()))  # a live holder still blocks
        assert main(base + ["index"]) == 1
        assert "lock" in capsys.readouterr().err
    finally:
        lock.unlink(missing_ok=True)


def test_query_prints_gold_first(workspace, capsys):
    root, base, queries = workspace
    query = queries[0]
    assert main(base + ["query", "--question", query.question, "--k", "10"]) == 0
    first_line = capsys.readouterr().out.strip().splitlines()[0]
    gold_id = next(iter(query.gold_article_ids))
    assert first_line.split("\t")[0] == gold_id


def test_query_json_output(workspace, capsys):
    root, base, queries = workspace
    query = queries[1]
    assert main(base + ["query", "--question", query.question, "--json"]) == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["question_id"] == question_id_for(query.question)
    assert record["returned"][0]["article_id"] in query.gold_article_ids


def test_query_interactive_loop(workspace, capsys, monkeypatch):
    root, base, queries = workspace
    lines = f"{queries[2].question}\n\n{queries[3].question}\n"
    monkeypatch.setattr(sys, "stdin", __import__("io").StringIO(lines))
    assert main(base + ["query"]) == 0
    out = capsys.readouterr().out
    gold2 = next(iter(queries[2].gold_article_ids))
    gold3 = next(iter(queries[3].gold_article_ids))
    assert gold2 in out and gold3 in out


def test_eval_quickview_rows(workspace, capsys):
    root, base, _ = workspace
    assert main(base + ["eval", "--quickview", "--k", "1,5,10"]) == 0
    out = capsys.readouterr().out
    for k in (1, 5, 10):
        assert f"Recall@{k}:" in out
    assert "Precision" not in out
    report = json.loads((root / "eval_report.json").read_text())
    assert sorted(report["recall_at_k"]) == ["1", "10", "5"]
    assert report["recall_at_k"]["10"] == 1.0


def test_eval_end_to_end(workspace, capsys):
    root, base, _ = workspace
    assert main(base + ["eval", "--k", "1,10"]) == 0
    out = capsys.readouterr().out
    assert "F2:" in out and "Recall@10:" in out
    report = json.loads((root / "eval_report.json").read_text())
    assert report["failures"] == 0
    assert report["f2"] == 1.0  # title-verbatim queries on the synthetic corpus


def test_flag_overrides_config(workspace, capsys):
    root, base, queries = workspace
    # alpha/beta of zero kill the title contribution; gold should still win
    # through content, proving the flags reached the scoring config
    assert main(base + ["eval", "--quickview", "--k", "10", "--alpha", "0.0"]) == 0
    report = json.loads((root / "eval_report.json").read_text())
    assert report["recall_at_k"]["10"] > 0.9


def test_config_env_var(workspace, capsys, monkeypatch):
    root, base, queries = workspace
    monkeypatch.setenv("STATUTEQA_CONFIG", str(root / "config.json"))
    assert main(["query", "--question", queries[4].question]) == 0
    gold = next(iter(queries[4].gold_article_ids))
    assert gold in capsys.readouterr().out


def test_config_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"corpus_path": "x", "typo_key": 1}))
    with pytest.raises(ValueError, match="typo_key"):
        PipelineConfig.from_file(bad)


def test_pipeline_answer_matches_cli_query(workspace, capsys):
    root, base, queries = workspace
    cfg = PipelineConfig.from_file(root / "config.json")
    pipeline = Pipeline.load(cfg)
    query = queries[5]
    answer = pipeline.answer(question_id_for(query.question), query.question)
    assert main(base + ["query", "--question", query.question, "--json"]) == 0
    cli_record = json.loads(capsys.readouterr().out.strip())
    assert [c["article_id"] for c in cli_record["returned"]] == [
        c.article_id for c in answer.returned
    ]


def test_pipeline_load_rejects_stale_index(workspace):
    root, _, _ = workspace
    cfg = PipelineConfig.from_file(root / "config.json")
    stale = PipelineConfig(**{**cfg.__dict__, "embedder_seed": 99})
    with pytest.raises(ValueError, match="fingerprint mismatch"):
        Pipeline.load(stale)


def test_index_of_an_edited_corpus_is_rejected(workspace, tmp_path, capsys):
    root, base, _ = workspace
    docs, _ = load_corpus_file(root / "corpus.jsonl")
    first, *rest = docs[0].articles
    edited = dataclasses.replace(first, content=first.content + " Amended.")
    docs[0] = LegalDocument(docs[0].doc_id, (edited, *rest))
    corpus = tmp_path / "corpus.jsonl"
    write_corpus_file(docs, corpus)
    cfg = PipelineConfig.from_file(root / "config.json")
    with pytest.raises(ValueError, match="different corpus"):
        Pipeline.load(dataclasses.replace(cfg, corpus_path=str(corpus)))
    model = tmp_path / "model.json"
    flags = ["--corpus-path", str(corpus), "--model-path", str(model)]
    assert main(base + ["train", *flags]) == 1
    assert "different corpus" in capsys.readouterr().err
    assert not model.exists()


def test_train_gold_only_mode(workspace):
    root, base, _ = workspace
    out = root / "model_gold_only.json"
    assert main(base + ["train", "--mode", "gold-only", "--model-path", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["metadata"]["stage"] == "gold_only"


def test_dense_question_without_tokens_has_no_candidates(synth):
    cfg = PipelineConfig(quickview_source="dense", top_k=10)
    pipeline = Pipeline(cfg, synth.articles, synth.lex, synth.dense, synth.scorer)
    answer = pipeline.answer("q-empty", "???")
    assert answer.no_candidates
    assert answer.returned == ()
