import argparse
import contextlib
import dataclasses
import fcntl
import functools
import json
import os
import re
import socketserver
import subprocess
import sys
import unicodedata
from pathlib import Path

import numpy as np
import pytest

import feature_oracle
import fusion_oracle
from statuteqa import cli, dense, lexical, lineproto, reranker
from statuteqa import corpus as corpus_mod
from statuteqa import pipeline as pipeline_mod
from statuteqa.cli import main
from statuteqa.corpus import (
    Article,
    LegalDocument,
    TokenizerConfig,
    iter_articles,
    load_corpus_file,
    write_corpus_file,
)
from statuteqa.evaluation import (
    load_gold_file,
    recall_at_k,
    split_train_valid,
    write_gold_file,
)
from statuteqa.pipeline import Pipeline, PipelineConfig, question_id_for
from statuteqa.synth import synthetic_corpus, title_gold_queries
from statuteqa.weak_label import TrainingExample, read_dataset, write_dataset


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


@pytest.mark.parametrize("k", ["0", "-2", "ten"])
def test_query_k_below_one_is_a_usage_error(tmp_path, capsys, k):
    missing = ["--corpus-path", str(tmp_path / "none.jsonl")]
    with pytest.raises(SystemExit) as exc:
        main(["query", *missing, "--question", "x", "--k", k])
    assert exc.value.code == 2
    assert "--k" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, value",
    [("query", "--alpha", "nan"), ("query", "--threshold", "inf"),
     ("index", "--k1", "inf"), ("train", "--learning-rate", "nan")],
)
def test_float_flags_must_be_finite(tmp_path, capsys, command, flag, value):
    missing = ["--corpus-path", str(tmp_path / "none.jsonl")]
    with pytest.raises(SystemExit) as exc:
        main([command, *missing, flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


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


HOLD_LOCK = (
    "import fcntl, sys\n"
    "handle = open(sys.argv[1], 'a')\n"
    "fcntl.flock(handle, fcntl.LOCK_EX)\n"
    "print('held', flush=True)\n"
    "sys.stdin.read()\n"
)


@contextlib.contextmanager
def lock_held_by_child(lock_path):
    """A child process that holds the lock until the block ends."""
    with subprocess.Popen(
        [sys.executable, "-c", HOLD_LOCK, str(lock_path)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    ) as child:
        try:
            assert child.stdout.readline() == "held\n"
            yield child
        finally:
            child.kill()
            child.wait(timeout=10)


@contextlib.contextmanager
def lock_held_in_this_process(lock_path):
    """The lock held through a second open file description of this process."""
    with open(lock_path, "a") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        yield


@pytest.mark.parametrize("holder", [lock_held_in_this_process, lock_held_by_child])
def test_held_lock_blocks_index_and_train(workspace, capsys, holder):
    root, base, _ = workspace
    with holder(root / ".statuteqa.lock"):
        for command in ("index", "train"):
            assert main(base + [command]) == 1
            assert "lock" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["", str(os.getppid())], ids=["empty", "live-pid"])
def test_lock_file_left_in_place_does_not_block(workspace, content):
    """An empty file (a holder killed before writing) or one naming a live
    unrelated process is not a held lock."""
    root, base, _ = workspace
    (root / ".statuteqa.lock").write_text(content)
    assert main(base + ["index"]) == 0


def test_lock_of_a_killed_holder_is_released(workspace, capsys):
    root, base, _ = workspace
    with lock_held_by_child(root / ".statuteqa.lock") as child:
        assert main(base + ["index"]) == 1
        assert "lock" in capsys.readouterr().err
        child.kill()
        child.wait(timeout=10)
        assert main(base + ["index"]) == 0


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"embedder_dimension": 0}, "embedder_dimension must be >= 1, not 0"),
        ({"external_embedder_cmd": ["/nonexistent/embedder"]}, "cannot start"),
        ({"external_embedder_cmd": [sys.executable, "-c", "pass"]}, "closed its output"),
    ],
)
def test_index_with_bad_settings_writes_nothing(workspace, tmp_path, capsys, settings, message):
    """A bad embedder setting used to fail after the lexical index (here
    built with another k1) had already replaced the old one."""
    root, _, _ = workspace
    config = json.loads((root / "config.json").read_text())
    paths = [tmp_path / "lex_index.bin", tmp_path / "dense_index.bin"]
    for path in paths:
        path.write_bytes((root / path.name).read_bytes())
    config.update(lex_index_path=str(paths[0]), dense_index_path=str(paths[1]), **settings)
    (tmp_path / "config.json").write_text(json.dumps(config))
    before = [path.read_bytes() for path in paths]
    assert main(["--config", str(tmp_path / "config.json"), "index", "--k1", "2.0"]) == 1
    assert message in capsys.readouterr().err
    assert [path.read_bytes() for path in paths] == before


def test_index_locks_the_dense_index_directory_too(workspace, tmp_path, capsys):
    root, base, _ = workspace
    dense_path = tmp_path / "dense.bin"
    with lock_held_by_child(tmp_path / ".statuteqa.lock"):
        assert main(base + ["index", "--dense-index-path", str(dense_path)]) == 1
    assert "lock" in capsys.readouterr().err
    assert not dense_path.exists()


def test_index_names_the_file_and_line_of_a_lone_surrogate(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    record = {"doc_id": "d", "articles": [{"article_id": "a", "content": "x\ud800"}]}
    lines = [json.dumps({"doc_id": "c", "articles": []}), json.dumps(record)]
    corpus.write_text("\n".join(lines))
    outputs = ["--lex-index-path", str(tmp_path / "lex.bin"),
               "--dense-index-path", str(tmp_path / "dense.bin")]
    assert main(["index", "--corpus-path", str(corpus), *outputs]) == 1
    assert f"{corpus}: line 2: content holds a lone surrogate" in capsys.readouterr().err


def test_run_that_raises_inside_the_lock_releases_it(workspace, capsys, monkeypatch):
    root, base, _ = workspace

    def fail(*args, **kwargs):
        raise RuntimeError("build failed")

    monkeypatch.setattr(cli, "build_lex_index", fail)
    assert main(base + ["index"]) == 1
    assert "build failed" in capsys.readouterr().err
    monkeypatch.undo()
    assert main(base + ["index"]) == 0


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
    # the phrase lexicon alone configures the tokenizer
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"tokenizer_mode": "whitespace", "phrase_lexicon": []}))
    with pytest.raises(ValueError, match=r"unknown config keys: \['tokenizer_mode'\]"):
        PipelineConfig.from_file(old)


@pytest.mark.parametrize(
    "key, value",
    [("top_k", "200"), ("gamma", None), ("phrase_lexicon", "ab"), ("top_k", True),
     ("alpha", False), ("external_scorer_cmd", ["python", 3]), ("k1", float("nan")),
     ("alpha", float("nan")), ("threshold", float("nan")), ("learning_rate", float("inf"))],
)
def test_config_rejects_values_of_the_wrong_type(tmp_path, capsys, key, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({key: value}))
    with pytest.raises(ValueError, match=key):
        PipelineConfig.from_file(bad)
    assert main(["--config", str(bad), "query", "--question", "law"]) == 1
    assert f"{key} must be" in capsys.readouterr().err


# (an out-of-range setting, one just inside the same bound, the message):
# one row for each side of each bound of every ranged config key
RANGE_EDGES = [
    ({"k1": -0.1}, {"k1": 0.0}, "k1 must be >= 0, not -0.1"),
    ({"b": -0.1}, {"b": 0.0}, "b must be in [0, 1], not -0.1"),
    ({"b": 1.5}, {"b": 1.0}, "b must be in [0, 1], not 1.5"),
    ({"alpha": -1.0}, {"alpha": 0.0}, "alpha must be >= 0, not -1.0"),
    ({"beta": -1.0}, {"beta": 0.0}, "beta must be >= 0, not -1.0"),
    ({"alpha": 0.0, "beta": 0.0}, {"alpha": 0.0, "beta": 0.5},
     "alpha + beta must be > 0, not 0.0"),
    ({"gamma": -0.1}, {"gamma": 0.0}, "gamma must be in [0, 1], not -0.1"),
    ({"gamma": 1.5}, {"gamma": 1.0}, "gamma must be in [0, 1], not 1.5"),
    ({"gamma": 2.0}, {"gamma": 1.0}, "gamma must be in [0, 1], not 2.0"),
    ({"top_k": 0}, {"top_k": 1}, "top_k must be >= 1, not 0"),
    ({"threshold": -0.1}, {"threshold": 0.0}, "threshold must be null or >= 0, not -0.1"),
    ({"quickview_source": "graph"}, {"quickview_source": "dense"},
     "quickview_source must be 'lexical' or 'dense', not 'graph'"),
    ({"quickview_source": "bm25"}, {"quickview_source": "lexical"},
     "quickview_source must be 'lexical' or 'dense', not 'bm25'"),
    ({"embedder_dimension": 0}, {"embedder_dimension": 1},
     "embedder_dimension must be >= 1, not 0"),
    ({"external_embedder_timeout": 0.0}, {"external_embedder_timeout": 0.001},
     "external_embedder_timeout must be > 0, not 0.0"),
    ({"external_embedder_timeout": -1.5}, {"external_embedder_timeout": 1.5},
     "external_embedder_timeout must be > 0, not -1.5"),
    ({"external_scorer_timeout": 0}, {"external_scorer_timeout": 1},
     "external_scorer_timeout must be > 0, not 0"),
    ({"external_scorer_timeout": -30.0}, {"external_scorer_timeout": 30.0},
     "external_scorer_timeout must be > 0, not -30.0"),
    ({"learning_rate": 0.0}, {"learning_rate": 1e-06}, "learning_rate must be > 0, not 0.0"),
    ({"epochs": 0}, {"epochs": 1}, "epochs must be >= 1, not 0"),
    ({"batch_size": 0}, {"batch_size": 1}, "batch_size must be >= 1, not 0"),
    ({"train_seed": -1}, {"train_seed": 0}, "train_seed must be >= 0, not -1"),
    ({"patience": 0}, {"patience": 1}, "patience must be >= 1, not 0"),
    ({"weak_negative_ratio": 0}, {"weak_negative_ratio": 1},
     "weak_negative_ratio must be >= 1, not 0"),
    ({"split_ratio": 0.0}, {"split_ratio": 0.01}, "split_ratio must be in (0, 1), not 0.0"),
    ({"split_ratio": 1.0}, {"split_ratio": 0.99}, "split_ratio must be in (0, 1), not 1.0"),
    ({"split_ratio": 1.5}, {"split_ratio": 0.5}, "split_ratio must be in (0, 1), not 1.5"),
    ({"max_question_chars": 0}, {"max_question_chars": 1},
     "max_question_chars must be >= 1, not 0"),
    ({"max_question_chars": -5}, {"max_question_chars": 1},
     "max_question_chars must be >= 1, not -5"),
]

COMMANDS = [
    ["serve"], ["query", "--question", "law"], ["index"], ["weaklabel"], ["train"], ["eval"]
]


def _flag(command: str, key: str) -> str | None:
    """The flag of ``command`` that sets config key ``key``, if it has one."""
    commands = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    flags = {a.dest: a.option_strings[0] for a in commands.choices[command]._actions}
    return flags.get(key)


@pytest.mark.parametrize(
    "outside, inside, message", RANGE_EDGES,
    ids=["-".join(f"{k}-{v}" for k, v in row[0].items()) for row in RANGE_EDGES],
)
@pytest.mark.parametrize("command", COMMANDS)
def test_out_of_range_service_settings_fail_before_loading(
    tmp_path, capsys, monkeypatch, outside, inside, message, command
):
    """Every ranged key, on both sides of each bound: the config, a config
    file and a flag reject the value, naming the key, and every command
    exits 1 before it reads an artifact."""
    def load(*args, **kwargs):
        raise AssertionError("loaded with an out-of-range setting")

    monkeypatch.setattr(Pipeline, "load", load)
    for name in ("load_artifacts", "load_corpus_file", "load_gold_file"):
        monkeypatch.setattr(cli, name, load)
    cfg = PipelineConfig(**inside)
    assert {key: getattr(cfg, key) for key in inside} == inside
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PipelineConfig(**outside)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, *next(iter(outside.items())))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(outside))
    assert main(["--config", str(bad), *command]) == 1
    assert f"error: {bad}: {message}\n" in capsys.readouterr().err
    [(key, value)] = outside.items() if len(outside) == 1 else [(None, None)]
    flag = _flag(command[0], key)
    if flag is not None:
        assert main([*command, flag, str(value)]) == 1
        assert f"error: {message}\n" in capsys.readouterr().err


def test_serve_rejects_a_zero_question_length_flag(tmp_path, capsys, monkeypatch):
    def load(cfg):
        raise AssertionError("loaded with max_question_chars 0")

    monkeypatch.setattr(Pipeline, "load", load)
    missing = ["--corpus-path", str(tmp_path / "none.jsonl")]
    assert main(["serve", *missing, "--max-question-chars", "0"]) == 1
    assert "max_question_chars must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, allowed",
    [("phrase_lexicon", "civil code", "a list of strings"),
     ("phrase_lexicon", ["civil code", 3], "a list of strings"),
     ("external_embedder_cmd", "embedder", "null or a list of strings"),
     ("external_scorer_cmd", "cmd", "null or a list of strings"),
     ("external_scorer_cmd", ("python", "scorer.py"), "null or a list of strings")],
)
def test_list_valued_keys_set_from_code_are_checked(key, value, allowed):
    """A string is not split into one-letter phrases or arguments."""
    message = f"{key} must be {allowed}, not {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PipelineConfig(**{key: value})


def test_config_accepts_every_annotated_type(tmp_path):
    good = tmp_path / "good.json"
    values = {
        "top_k": 20, "gamma": 1, "threshold": None, "learning_rate": 0.5,
        "phrase_lexicon": ["civil code"],
        "external_embedder_cmd": None, "external_scorer_cmd": ["scorer", "--fast"],
    }
    good.write_text(json.dumps(values))
    cfg = PipelineConfig.from_file(good)
    assert {key: getattr(cfg, key) for key in values} == values


README = Path(__file__).resolve().parent.parent / "README.md"


def _settings_table() -> dict[str, tuple[str, str, list[str]]]:
    """The README settings table: key -> (default, range, commands), each
    cell as written, backticks stripped from the key and the default."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | default | range | commands |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key, default, allowed, commands = (cell.strip() for cell in line[1:-1].split("|"))
        rows[key.strip("`")] = (default.strip("`"), allowed, commands.split(", "))
    return rows


def test_readme_settings_table_lists_every_config_field():
    rows = _settings_table()
    fields = dataclasses.fields(PipelineConfig)
    assert list(rows) == [f.name for f in fields]
    for f in fields:
        default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        assert rows[f.name][0] == json.dumps(default), f.name
    for key, (_, allowed, commands) in rows.items():
        if key in pipeline_mod.RANGES:
            assert allowed.startswith(f"`{pipeline_mod.RANGES[key][0]}`"), key
        else:
            assert allowed == "any", key
        flagged = [command for command, *_ in COMMANDS if _flag(command, key)]
        assert set(flagged) <= set(commands), key


def test_load_model_error_is_reported_not_raised(workspace, tmp_path, capsys):
    root, base, queries = workspace
    model = tmp_path / "model.json"
    model.write_text("[]")
    flags = ["--model-path", str(model), "--question", queries[0].question]
    assert main(base + ["query", *flags]) == 1
    assert f"{model}: not a model file" in capsys.readouterr().err


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
    report = tmp_path / "report.json"
    flags = ["--corpus-path", str(corpus), "--report-path", str(report)]
    assert main(base + ["eval", "--quickview", *flags]) == 1
    assert "different corpus" in capsys.readouterr().err
    assert not report.exists()


def _copied_corpus(workspace, tmp_path):
    """The workspace config with its corpus file copied byte for byte."""
    root, _, _ = workspace
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes((root / "corpus.jsonl").read_bytes())
    cfg = PipelineConfig.from_file(root / "config.json")
    return dataclasses.replace(cfg, corpus_path=str(corpus)), corpus


def test_corpus_that_differs_only_in_bytes_is_rejected(workspace, tmp_path):
    """The digest is of the file's bytes: a trailing newline, which parses
    to the same articles, is a different corpus."""
    cfg, corpus = _copied_corpus(workspace, tmp_path)
    Pipeline.load(cfg).close()
    corpus.write_bytes(corpus.read_bytes() + b"\n")
    with pytest.raises(ValueError, match="different corpus"):
        Pipeline.load(cfg)


def test_corpus_replaced_after_load_is_rejected_on_first_read(workspace, tmp_path):
    cfg, corpus = _copied_corpus(workspace, tmp_path)
    pipeline = Pipeline.load(cfg)
    docs, _ = load_corpus_file(corpus)
    first, *rest = docs[0].articles
    edited = dataclasses.replace(first, content=first.content + " Amended.")
    docs[0] = LegalDocument(docs[0].doc_id, (edited, *rest))
    write_corpus_file(docs, corpus)
    with pytest.raises(ValueError, match="different corpus"):
        pipeline.articles
    pipeline.close()


def test_model_scorer_pipeline_never_parses_the_corpus(workspace, monkeypatch):
    root, _, queries = workspace
    cfg = PipelineConfig.from_file(root / "config.json")

    def fail(lines):
        raise AssertionError("the corpus was parsed")

    monkeypatch.setattr(corpus_mod, "parse_corpus", fail)
    pipeline = Pipeline.load(cfg)
    asked = [(question_id_for(q.question), q.question) for q in queries[:5]]
    answers = [pipeline.answer(*question) for question in asked]
    monkeypatch.undo()
    # the model handed ids ranks as it does when handed the articles
    for (question_id, question), answer in zip(asked, answers):
        ranked = pipeline.quickview_rank(question, cfg.top_k)
        assert answer.returned
        assert answer == fusion_oracle.rank_and_select(
            question_id, question, ranked, pipeline.scorer, pipeline.by_id,
            pipeline.cfg,
        )
    pipeline.close()


def test_external_scorer_is_sent_each_candidates_text(
    workspace, scripts_dir, monkeypatch
):
    """With either quickview, ``answer`` and ``eval``'s ``answer_ranked``
    (from a deeper ranking) send the child each candidate's title and
    content in ranking order; the corpus is parsed once, at load."""
    root, _, queries = workspace
    parse, parses = corpus_mod.parse_corpus, []

    def counted(lines):
        parses.append(1)
        return parse(lines)

    monkeypatch.setattr(corpus_mod, "parse_corpus", counted)
    docs, _ = load_corpus_file(root / "corpus.jsonl")
    by_id = {a.article_id: a for a in iter_articles(docs)}
    question = queries[0].question
    for source in ("lexical", "dense"):
        cfg = dataclasses.replace(
            PipelineConfig.from_file(root / "config.json"),
            external_scorer_cmd=[sys.executable, str(scripts_dir / "echo_scorer.py")],
            quickview_source=source,
        )
        parses.clear()
        pipeline = Pipeline.load(cfg)
        try:
            assert len(parses) == 1  # at load, never in an answer
            client, sent = pipeline.scorer._client, []
            call = client.call
            monkeypatch.setattr(client, "call", lambda batch: sent.append(batch) or call(batch))
            ranked = pipeline.quickview_rank(question, cfg.top_k)
            assert pipeline.answer("q", question).returned
            deep = pipeline.quickview_rank(question, 2 * cfg.top_k)
            assert pipeline.answer_ranked("q", question, deep).returned
            assert len(parses) == 1
        finally:
            pipeline.close()
        texts = [
            {"question": question, "title": by_id[i].title, "content": by_id[i].content}
            for i in ranked.ids()
        ]
        assert len(texts) == cfg.top_k
        assert sent == [texts, texts], source


def test_train_gold_only_mode(workspace):
    root, base, _ = workspace
    out = root / "model_gold_only.json"
    assert main(base + ["train", "--mode", "gold-only", "--model-path", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["metadata"]["stage"] == "gold_only"


@pytest.mark.parametrize(
    "mode, stages", [("two-stage", 2), ("weak-only", 1), ("gold-only", 1)]
)
def test_train_extracts_each_dataset_once(workspace, tmp_path, monkeypatch, mode, stages):
    """``train`` builds one feature matrix per dataset it trains on and one
    for the validation set, which every stage shares."""
    root, base, _ = workspace
    built, fitted = [], []
    matrix = reranker.FeatureExtractor.matrix
    train_stage = reranker.train_stage

    def counting_matrix(self, examples):
        built.append(matrix(self, examples))
        return built[-1]

    def counting_stage(model, train, valid, cfg, stage="single"):
        fitted.append((train, valid))
        return train_stage(model, train, valid, cfg, stage)

    monkeypatch.setattr(reranker.FeatureExtractor, "matrix", counting_matrix)
    monkeypatch.setattr(reranker, "train_stage", counting_stage)
    monkeypatch.setattr(cli, "train_stage", counting_stage)
    out = tmp_path / "model.json"
    assert main(base + ["train", "--mode", mode, "--model-path", str(out)]) == 0
    assert len(fitted) == stages
    assert len(built) == stages + 1
    [valid] = {id(v) for _, v in fitted}
    trained = [id(t) for t, _ in fitted]
    assert sorted([valid, *trained]) == sorted(map(id, built))


def test_train_reports_the_examples_each_mode_trained_on(workspace, tmp_path, capsys):
    root, base, _ = workspace
    cfg = PipelineConfig.from_file(root / "config.json")
    weak = len(read_dataset(cfg.weak_dataset_path))
    train, _ = split_train_valid(load_gold_file(cfg.gold_path), cfg.split_ratio, cfg.split_seed)
    gold = sum(len(q.gold_article_ids) for q in train) * (1 + cfg.weak_negative_ratio)
    expected = {
        "gold-only": f"{gold} gold",
        "weak-only": f"{weak} weak",
        "two-stage": f"{weak} weak and {gold} gold",
    }
    for mode, examples in expected.items():
        out = tmp_path / f"{mode}.json"
        assert main(base + ["train", "--mode", mode, "--model-path", str(out)]) == 0
        assert f"trained {mode} model on {examples} examples " in capsys.readouterr().out


@pytest.mark.parametrize(
    "ghost_in, mode",
    [("gold", "two-stage"), ("gold", "weak-only"), ("gold", "gold-only"),
     ("weak", "two-stage"), ("weak", "weak-only")],
)
def test_train_names_the_file_of_an_id_outside_the_indexes(
    workspace, tmp_path, capsys, monkeypatch, mode, ghost_in
):
    """Every gold and weak id is checked before any feature matrix is built."""
    root, base, queries = workspace
    gold_path, weak_path = tmp_path / "gold.jsonl", tmp_path / "weak.jsonl"
    haunted = queries[len(queries) // 2]
    ghosted = dataclasses.replace(haunted, gold_article_ids={"ghost#1", *haunted.gold_article_ids})
    gold = [ghosted if q is haunted else q for q in queries] if ghost_in == "gold" else queries
    write_gold_file(gold, gold_path)
    weak = read_dataset(root / "weak_dataset.jsonl")
    if ghost_in == "weak":
        weak.insert(7, TrainingExample("a question", "ghost#2", 0, "weak"))
    write_dataset(weak, weak_path)

    def no_matrix(self, examples):
        raise AssertionError("a feature matrix was built")

    monkeypatch.setattr(reranker.FeatureExtractor, "matrix", no_matrix)
    out = tmp_path / "model.json"
    flags = ["--gold-path", str(gold_path), "--weak-dataset-path", str(weak_path)]
    assert main(base + ["train", "--mode", mode, "--model-path", str(out), *flags]) == 1
    err = capsys.readouterr().err
    if ghost_in == "gold":
        question = f"question {haunted.question_id!r}"
        assert f"{gold_path}: {question}: article 'ghost#1' not in the indexes" in err
    else:
        assert f"{weak_path}: article 'ghost#2' not in the indexes" in err
    assert not out.exists()


def test_dense_question_without_tokens_has_no_candidates(synth):
    cfg = PipelineConfig(quickview_source="dense", top_k=10)
    pipeline = Pipeline(cfg, synth.articles, synth.lex, synth.dense, synth.scorer)
    answer = pipeline.answer("q-empty", "???")
    assert answer.no_candidates
    assert answer.returned == ()


def _counting(monkeypatch, module, name):
    """Calls of ``module.name``, made through any package module that
    imported it."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for owner in (corpus_mod, lexical, dense, reranker, pipeline_mod):
        if getattr(owner, name, None) is original:
            monkeypatch.setattr(owner, name, counting)
    return calls


def test_dense_answer_embeds_its_question_once(synth, monkeypatch):
    """The reranker's features read the tokens and sentence cosines of the
    dense quickview's scan instead of tokenizing and embedding the question
    again."""
    calls = _counting(monkeypatch, dense, "embed")
    tokenized = _counting(monkeypatch, corpus_mod, "tokenize")
    cfg = PipelineConfig(quickview_source="dense", top_k=10)
    pipeline = Pipeline(cfg, synth.articles, synth.lex, synth.dense, synth.scorer)
    query = synth.queries[0]
    answer = pipeline.answer(query.question_id, query.question)
    assert answer.returned and len(calls) == 1 and len(tokenized) == 1
    # scoring the candidates' articles embeds afresh and ranks alike
    ranked = pipeline.quickview_rank(query.question, cfg.top_k)
    assert answer == fusion_oracle.rank_and_select(
        query.question_id, query.question, ranked, synth.scorer, synth.by_id,
        pipeline.cfg,
    )


def test_lexical_answer_tokenizes_and_scores_bm25_once(synth, monkeypatch):
    """The reranker's features read the tokens and the BM25 pass of the
    lexical quickview, in ``answer`` and in ``eval``'s ``answer_ranked``."""
    tokenized = _counting(monkeypatch, corpus_mod, "tokenize")
    scored = _counting(monkeypatch, lexical, "score_query")
    cfg = PipelineConfig(top_k=10)
    pipeline = Pipeline(cfg, synth.articles, synth.lex, synth.dense, synth.scorer)
    query = synth.queries[0]
    answer = pipeline.answer(query.question_id, query.question)
    assert answer.returned
    assert (len(tokenized), len(scored)) == (1, 1)
    tokenized.clear()
    scored.clear()
    ranked = pipeline.quickview_rank(query.question, 50)  # as eval ranks for recall
    assert pipeline.answer_ranked(query.question_id, query.question, ranked) == answer
    assert (len(tokenized), len(scored)) == (1, 1)


def test_query_rejects_an_index_built_with_other_bm25_parameters(
    workspace, tmp_path, capsys
):
    """``k1`` and ``b`` come from the config and must match the lexical
    index header, not be silently taken from it."""
    root, _, queries = workspace
    config = json.loads((root / "config.json").read_text())
    config.update(
        lex_index_path=str(tmp_path / "lex_index.bin"),
        dense_index_path=str(tmp_path / "dense_index.bin"),
    )
    (tmp_path / "config.json").write_text(json.dumps(config))
    base = ["--config", str(tmp_path / "config.json")]
    assert main(base + ["index", "--k1", "2.0"]) == 0
    capsys.readouterr()
    assert main(base + ["query", "--question", queries[0].question]) == 1
    err = capsys.readouterr().err
    assert str(tmp_path / "lex_index.bin") in err and "k1=2.0" in err
    (tmp_path / "config.json").write_text(json.dumps({**config, "k1": 2.0}))
    assert main(base + ["query", "--question", queries[0].question]) == 0


def _dense_recall(root, ks):
    """Mean Recall@k of dense quickview, from an index built here."""
    docs, _ = load_corpus_file(root / "corpus.jsonl")
    index, _ = dense.build_dense_index(
        list(iter_articles(docs)), dense.HashedProjectionEmbedder(64, 0), TokenizerConfig()
    )
    queries = load_gold_file(root / "gold_queries.jsonl")
    recall = {}
    for k in ks:
        ranked = [
            dense.dense_retrieve_topk(index, q.question, k, TokenizerConfig()).ids()
            for q in queries
        ]
        hits = [recall_at_k(r, q.gold_article_ids, k) for r, q in zip(ranked, queries)]
        recall[str(k)] = sum(hits) / len(hits)
    return recall


@pytest.mark.parametrize("mode", [["--quickview"], []])
def test_eval_reports_the_configured_quickview_recall(workspace, tmp_path, mode):
    root, _, _ = workspace
    cfg = json.loads((root / "config.json").read_text())
    cfg.update(quickview_source="dense", report_path=str(tmp_path / "report.json"))
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    base = ["--config", str(tmp_path / "config.json")]
    assert main(base + ["eval", *mode, "--k", "1,5"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    expected = _dense_recall(root, (1, 5))
    assert expected["1"] < 1.0  # lexical quickview gets 1.0 on these questions
    assert report["recall_at_k"] == pytest.approx(expected, abs=1e-12)


def test_eval_runs_one_quickview_per_question(workspace, tmp_path, monkeypatch):
    root, base, queries = workspace
    calls = []
    original = pipeline_mod.retrieve_topk

    def counting(*args, **kwargs):
        calls.append(args[2])  # k
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "retrieve_topk", counting)
    report = tmp_path / "report.json"
    assert main(base + ["eval", "--k", "1,5", "--report-path", str(report)]) == 0
    assert len(calls) == len(queries)
    assert set(calls) == {10}  # max of the cutoffs and top_k
    calls.clear()
    assert main(base + ["eval", "--k", "1,50", "--report-path", str(report)]) == 0
    assert calls == [50] * len(queries)


def test_eval_answer_sets_equal_query_answers(workspace, tmp_path, capsys, monkeypatch):
    root, base, queries = workspace
    report_path = tmp_path / "report.json"
    assert main(base + ["eval", "--k", "1,50", "--report-path", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    capsys.readouterr()
    stdin = "".join(f"{q.question}\n" for q in queries)
    monkeypatch.setattr(sys, "stdin", __import__("io").StringIO(stdin))
    assert main(base + ["query", "--json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    answered = [[c["article_id"] for c in json.loads(line)["returned"]] for line in lines]
    assert answered == [row["returned"] for row in report["per_query"]]
    assert len(answered) == len(queries)


@pytest.mark.parametrize("k", ["0,5", "", " , ", "-3", "ten"])
def test_eval_rejects_bad_cutoffs_before_loading(tmp_path, capsys, k):
    missing = ["--corpus-path", str(tmp_path / "none.jsonl")]
    assert main(["eval", *missing, "--k", k]) == 2
    assert "invalid --k list" in capsys.readouterr().err


@pytest.mark.parametrize("bind", ["127.0.0.1:99999", "127.0.0.1:-1", "127.0.0.1:", ":80", "8080"])
def test_serve_rejects_a_bad_bind_before_loading(tmp_path, capsys, monkeypatch, bind):
    def load(cfg):
        raise AssertionError("loaded before the bind address was checked")

    monkeypatch.setattr(Pipeline, "load", load)
    missing = ["--corpus-path", str(tmp_path / "none.jsonl")]
    assert main(["serve", *missing, "--bind", bind]) == 1
    assert "bind address must be host:port" in capsys.readouterr().err


def test_serve_announces_the_port_it_bound(workspace, capsys, monkeypatch):
    root, base, _ = workspace
    served = []

    def interrupted(server, poll_interval=0.5):
        served.append(server.server_address[1])
        raise KeyboardInterrupt

    monkeypatch.setattr(socketserver.BaseServer, "serve_forever", interrupted)
    assert main(base + ["serve", "--bind", "127.0.0.1:0"]) == 0
    assert served[0] != 0
    assert capsys.readouterr().out.startswith(f"serving on http://127.0.0.1:{served[0]} ")


@pytest.mark.parametrize("mode", [["--end-to-end"], []])
def test_eval_with_every_question_failed_writes_its_report(
    workspace, tmp_path, capsys, mode
):
    root, base, queries = workspace
    cfg = json.loads((root / "config.json").read_text())
    report_path = tmp_path / "report.json"
    cfg.update(
        report_path=str(report_path),
        external_scorer_cmd=[sys.executable, "-c", "pass"],  # exits unanswered
    )
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert main(["--config", str(tmp_path / "config.json"), "eval", *mode]) == 1
    out, err = capsys.readouterr()
    assert "F2: n/a" in out and "Mean latency: n/a" in out
    assert f"{len(queries)} queries failed" in err
    report = json.loads(report_path.read_text())
    assert report["failures"] == len(queries) and report["f2"] is None


@pytest.fixture
def children(monkeypatch):
    """Every line-protocol client started, by the embedder or the scorer."""
    started = []

    class Recording(lineproto.LineProtocolClient):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(dense, "LineProtocolClient", Recording)
    monkeypatch.setattr(reranker, "LineProtocolClient", Recording)
    return started


def _running(children):
    return [c.command for c in children if c._proc.poll() is None]


@pytest.fixture(scope="module")
def external_ws(tmp_path_factory, scripts_dir):
    """Config and inputs for a pipeline with an external embedder and scorer."""
    root = tmp_path_factory.mktemp("external_ws")
    docs = synthetic_corpus(30, seed=1)
    write_corpus_file(docs, root / "corpus.jsonl")
    write_gold_file(title_gold_queries(docs), root / "gold_queries.jsonl")
    config = {
        "corpus_path": str(root / "corpus.jsonl"),
        "lex_index_path": str(root / "lex_index.bin"),
        "dense_index_path": str(root / "dense_index.bin"),
        "model_path": str(root / "model.json"),
        "weak_dataset_path": str(root / "weak_dataset.jsonl"),
        "gold_path": str(root / "gold_queries.jsonl"),
        "report_path": str(root / "eval_report.json"),
        "embedder_dimension": 8,
        "external_embedder_cmd": [
            sys.executable, str(scripts_dir / "echo_embedder.py"), "--dim", "8"
        ],
        "external_scorer_cmd": [sys.executable, str(scripts_dir / "echo_scorer.py")],
        "top_k": 10,
        "epochs": 3,
    }
    (root / "config.json").write_text(json.dumps(config))
    return root, ["--config", str(root / "config.json")]


def test_external_embedder_and_scorer_chain(external_ws, children, capsys):
    root, base = external_ws
    question = load_gold_file(root / "gold_queries.jsonl")[0].question
    commands = (
        ["index"],
        ["weaklabel"],
        ["train"],
        ["query", "--question", question, "--json"],
        ["eval", "--k", "1,5"],
    )
    codes, left_running = {}, {}
    for command in commands:
        codes[command[0]] = main(base + command)
        left_running[command[0]] = _running(children)
    assert codes == dict.fromkeys(codes, 0), capsys.readouterr().err
    assert left_running == dict.fromkeys(codes, [])
    assert children  # the embedder and scorer really ran as children


def test_rejected_load_closes_the_embedder_child(external_ws, children, tmp_path):
    root, base = external_ws
    assert main(base + ["index"]) == 0
    cfg = PipelineConfig.from_file(root / "config.json")
    docs, _ = load_corpus_file(root / "corpus.jsonl")
    first, *rest = docs[0].articles
    docs[0] = LegalDocument(
        docs[0].doc_id, (dataclasses.replace(first, title="Amended"), *rest)
    )
    write_corpus_file(docs, tmp_path / "corpus.jsonl")
    rejected = {
        "different corpus": {"corpus_path": str(tmp_path / "corpus.jsonl")},
        "cannot start": {"external_scorer_cmd": [str(tmp_path / "no-such-scorer")]},
        "model.json": {
            "external_scorer_cmd": None, "model_path": str(tmp_path / "model.json")
        },
    }
    for message, change in rejected.items():
        with pytest.raises((ValueError, OSError, RuntimeError), match=message):
            Pipeline.load(dataclasses.replace(cfg, **change))
        assert _running(children) == [], message
    assert len(children) >= 1 + len(rejected)
    # an out-of-range setting never reaches a load, so it starts no child
    started = len(children)
    with pytest.raises(ValueError, match="gamma must be in"):
        Pipeline.load(dataclasses.replace(cfg, gamma=2.0))
    assert len(children) == started


def test_index_prints_the_size_of_each_file(workspace, tmp_path, capsys):
    root, _, _ = workspace
    config = json.loads((root / "config.json").read_text())
    paths = [tmp_path / "lex_index.bin", tmp_path / "dense_index.bin"]
    config.update(lex_index_path=str(paths[0]), dense_index_path=str(paths[1]))
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(["--config", str(tmp_path / "config.json"), "index"]) == 0
    out = capsys.readouterr().out
    for path in paths:
        assert f"{path} ({path.stat().st_size} bytes, " in out


def test_indexes_of_different_tokenizers_are_rejected(tmp_path):
    """The dense index records its tokenizer: a whitespace lexical index and
    a phrase-merge dense index of one corpus used to load together."""
    docs = synthetic_corpus(50)
    articles = list(iter_articles(docs))
    write_corpus_file(docs, tmp_path / "corpus.jsonl")
    cfg = PipelineConfig(
        corpus_path=str(tmp_path / "corpus.jsonl"),
        lex_index_path=str(tmp_path / "lex_index.bin"),
        dense_index_path=str(tmp_path / "dense_index.bin"),
        embedder_dimension=64,
    )
    digest = corpus_mod.file_digest(cfg.corpus_path)
    lex = lexical.build_lex_index(articles, cfg, corpus_digest=digest)
    lexical.save_lex_index(lex, cfg.lex_index_path)
    phrases = TokenizerConfig(frozenset({"of the"}))
    built, _ = dense.build_dense_index(articles, cfg.make_embedder(), phrases, digest)
    dense.save_dense_index(built, cfg.dense_index_path)
    message = f"{re.escape(cfg.dense_index_path)}: tokenizer fingerprint mismatch"
    with pytest.raises(ValueError, match=message):
        pipeline_mod.load_artifacts(cfg)


# (article id, title, content), Vietnamese text in NFC
VIETNAMESE = [
    ("ds-1", "Quyền thừa kế", "Người thừa kế có quyền nhận di sản. Di chúc lập thành văn bản."),
    ("ds-2", "Tài sản chung", "Tài sản chung của vợ chồng được chia đôi khi ly hôn."),
    ("dd-1", "Quyền sử dụng đất", "Người sử dụng đất được chuyển nhượng quyền sử dụng đất."),
    ("dd-2", "Thu hồi đất", "Nhà nước thu hồi đất vì mục đích quốc phòng, an ninh."),
    ("hs-1", None, "Người phạm tội phải chịu trách nhiệm hình sự. Hình phạt tù có thời hạn."),
]


def _vietnamese(form):
    normal = functools.partial(unicodedata.normalize, form)
    return [
        Article(article_id, "luat", title and normal(title), normal(content))
        for article_id, title, content in VIETNAMESE
    ]


def test_a_decomposed_corpus_indexes_to_the_arrays_of_its_composed_form(tmp_path):
    tok, embedder = TokenizerConfig(), dense.HashedProjectionEmbedder(64, 0)
    saved = {}
    for form in ("NFC", "NFD"):
        lex = lexical.build_lex_index(_vietnamese(form), PipelineConfig())
        assert "người" in lex.content.terms  # not "ngu", "o", "i"
        built, _ = dense.build_dense_index(_vietnamese(form), embedder, tok)
        paths = tmp_path / f"lex.{form}", tmp_path / f"dense.{form}"
        lexical.save_lex_index(lex, paths[0])
        dense.save_dense_index(built, paths[1])
        saved[form] = [path.read_bytes() for path in paths]
    assert saved["NFD"] == saved["NFC"]


@pytest.mark.parametrize("source", ["lexical", "dense"])
def test_a_decomposed_question_answers_like_its_composed_form(source):
    articles, tok = _vietnamese("NFC"), TokenizerConfig()
    lex = lexical.build_lex_index(articles, PipelineConfig())
    built, _ = dense.build_dense_index(articles, dense.HashedProjectionEmbedder(64, 0), tok)
    model = reranker.LinearModel(np.ones(reranker.NUM_FEATURES))
    scorer = reranker.ModelScorer(model, reranker.FeatureExtractor(lex, built))
    cfg = PipelineConfig(quickview_source=source, top_k=5)
    pipeline = Pipeline(cfg, articles, lex, built, scorer)
    question = "Người thừa kế có quyền nhận di sản không?"
    decomposed = unicodedata.normalize("NFD", question)
    ranked, again = (pipeline.quickview_rank(q, 5) for q in (question, decomposed))
    assert ranked.ids()[0] == "ds-1"
    assert again.ids() == ranked.ids()
    assert np.array_equal(again.scores, ranked.scores)
    assert pipeline.answer("q", decomposed) == pipeline.answer("q", question)


def test_features_cut_the_question_with_the_indexes_tokenizer():
    """The extractor used to cut questions with the empty lexicon unless it
    was handed the one the indexes were built with."""
    articles = _vietnamese("NFC")
    cfg = PipelineConfig(phrase_lexicon=["thừa kế", "di sản", "sử dụng đất", "tài sản"])
    tok = cfg.tokenizer_config()
    lex = lexical.build_lex_index(articles, cfg)
    built, _ = dense.build_dense_index(articles, dense.HashedProjectionEmbedder(64, 0), tok)
    extractor = reranker.FeatureExtractor(lex, built)
    question = "Người thừa kế có quyền nhận di sản không?"
    ids = list(lex.article_ids)
    want = feature_oracle.rows(extractor, question, ids, tok)
    assert extractor.rows(question, ids).tobytes() == want.tobytes()


def test_dense_quickview_cuts_the_question_with_the_index_tokenizer():
    """``dense_retrieve_topk`` used to cut a question with the empty lexicon
    unless it was handed the index's tokenizer."""
    docs = synthetic_corpus(200, seed=0)
    articles = list(iter_articles(docs))
    cfg = PipelineConfig(
        phrase_lexicon=["regulation of", "duties of", "contract of"],
        quickview_source="dense",
    )
    lex = lexical.build_lex_index(articles, cfg)
    built, _ = dense.build_dense_index(articles, cfg.make_embedder(), cfg.tokenizer_config())
    pipeline = Pipeline(cfg, articles, lex, built, None)
    for query in title_gold_queries(docs):
        want = pipeline.quickview_rank(query.question, 10)
        got = dense.dense_retrieve_topk(built, query.question, 10)
        assert got.ids() == want.ids()
        assert got.scores.tobytes() == want.scores.tobytes()
