"""Smoke tests: the bundled scripts run to completion on small inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import read_stored
from statuteqa.cli import main
from statuteqa.corpus import write_corpus_file
from statuteqa.evaluation import write_gold_file
from statuteqa.pipeline import Pipeline, PipelineConfig, load_artifacts
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


def test_index_sizes_names_every_part_of_each_index_file(scripts_dir, tmp_path, capsys):
    docs = synthetic_corpus(20, seed=0)
    write_corpus_file(docs, tmp_path / "corpus.jsonl")
    paths = [tmp_path / "lex_index.bin", tmp_path / "dense_index.bin"]
    assert main([
        "index", "--corpus-path", str(tmp_path / "corpus.jsonl"),
        "--lex-index-path", str(paths[0]), "--dense-index-path", str(paths[1]),
    ]) == 0
    cfg = PipelineConfig(
        corpus_path=str(tmp_path / "corpus.jsonl"),
        lex_index_path=str(paths[0]),
        dense_index_path=str(paths[1]),
    )
    _, dense = load_artifacts(cfg)
    said = f"{dense.offsets[-1]} sentences as {dense.vectors} distinct vectors"
    assert said in capsys.readouterr().out
    assert dense.vectors < dense.offsets[-1]  # the corpus repeats sentences

    result = run_script(scripts_dir / "index_sizes.py", *map(str, paths), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].split() == ["part", "dtype", "shape", "bytes", "xz"]
    printed = 0
    for path in paths:
        header, stored = read_stored(path)
        start = lines.index(
            f"{path}: {path.stat().st_size} bytes ({header['format']}, version {header['version']})"
        )
        keys = sorted(header)
        assert "arrays" in keys
        lexical = path == paths[0]
        # a lexical file's string tables: suffix lists in the header, prefix arrays
        for table in ("article_ids", "terms"):
            assert (table in keys) == (f"{table}.prefix" in stored) == lexical
            assert not lexical or isinstance(header[table], list)
        assert ("article_ids_sha256" in keys) == (not lexical)
        counts = ["title.df", "content.df"] if lexical else ["sentence_counts", "entry_counts"]
        assert set(counts) <= set(stored)
        names = ["header", *(f"header.{key}" for key in keys), *stored]
        parts = [line.split() for line in lines[start + 1 : start + 1 + len(names)]]
        assert [part[0] for part in parts] == names
        for part, key in zip(parts[1 : 1 + len(keys)], keys):
            entry = json.dumps(header[key], sort_keys=True, ensure_ascii=False).encode("utf-8")
            assert int(part[1]) == len(entry) and int(part[2]) > 0
        for part, array in zip(parts[1 + len(keys) :], stored.values()):
            assert part[1:3] == [str(array.dtype), "x".join(map(str, array.shape))]
            assert 0 < int(part[4]) <= int(part[3])
        printed += 1 + len(names)
    assert len(lines) == 1 + printed  # nothing but the column heads and each file's parts


def test_src_delta_counts_lines_and_code_lines_per_file(scripts_dir, tmp_path):
    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, check=True, capture_output=True,
        )

    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "a.py").write_text('"""A module."""\n\nX = 1\nY = 2\n\n\ndef f():\n    return X\n')
    (package / "gone.py").write_text("Z = 3\n")
    (tmp_path / "notes.py").write_text("outside src\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    # a docstring line and a comment added, one statement removed
    (package / "a.py").write_text(
        '"""A module.\nMore words."""\n\nX = 1\n\n\ndef f():\n    # X only\n    return X\n'
    )
    (package / "gone.py").unlink()
    (package / "new.py").write_text('def g():\n    """Doc."""\n    return 1  # one\n')
    result = run_script(scripts_dir / "src_delta.py", "HEAD", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    rows = {line.split()[0]: line.split()[1:] for line in result.stdout.splitlines()}
    assert rows["file"] == ["before", "after", "delta", "code", "after", "delta"]
    assert rows["src/pkg/a.py"] == ["8", "9", "+1", "4", "3", "-1"]
    assert rows["src/pkg/gone.py"] == ["1", "0", "-1", "1", "0", "-1"]
    assert rows["src/pkg/new.py"] == ["0", "3", "+3", "0", "2", "+2"]
    assert rows["total"] == ["9", "12", "+3", "5", "5", "0"]
    assert list(rows) == ["file", "src/pkg/a.py", "src/pkg/gone.py", "src/pkg/new.py", "total"]
