"""Write one run's inputs and, if asked, build its artifacts.

    python3 perfbench/build.py <spec.json>

The spec names the workload, the seed, where to write the asked
questions and, optionally, an artifact directory and a span file. With an
artifact directory it writes the fixed corpus, the training gold
questions and a build config there, then runs the write side of the CLI
with the package under test: ``index``, ``weaklabel``,
``train --mode two-stage``. It prints one JSON line with the step times
and, when traced, the build-layer metrics.

It runs in its own process so that the memory the build touches does not
count towards the answering process's peak resident memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from statuteqa import cli  # noqa: E402
from statuteqa.corpus import write_corpus_file  # noqa: E402
from statuteqa.evaluation import write_gold_file  # noqa: E402

from tracing import Tracer, self_times  # noqa: E402
from workloads import Workload, make_corpus, make_questions  # noqa: E402

STEPS = (
    ("index", ["index"]),
    ("weaklabel", ["weaklabel"]),
    ("train", ["train", "--mode", "two-stage"]),
)


def write_build_inputs(art: Path, workload: Workload, docs, train) -> Path:
    write_corpus_file(docs, art / "corpus.jsonl")
    write_gold_file(train, art / "train_gold.jsonl")
    config = {
        "corpus_path": str(art / "corpus.jsonl"),
        "lex_index_path": str(art / "lex_index.jsonl"),
        "dense_index_path": str(art / "dense_index.jsonl"),
        "model_path": str(art / "model.json"),
        "weak_dataset_path": str(art / "weak_dataset.jsonl"),
        "gold_path": str(art / "train_gold.jsonl"),
        "epochs": workload.epochs,
    }
    config_path = art / "build_config.json"
    config_path.write_text(json.dumps(config, indent=2))
    return config_path


def build_layer_metrics(tracer: Tracer, art: Path) -> dict:
    def total(name: str) -> float:
        return sum(s.duration for s in tracer.spans if s.name == name)

    own = self_times(tracer.spans)
    train_loop_s = sum(own[s.span_id] for s in tracer.spans if s.name == "reranker.train_stage")
    stages = json.loads((art / "model.json").read_text())["metadata"]["stages"]
    epochs_run = sum(stage["epochs_run"] for stage in stages)
    with open(art / "weak_dataset.jsonl", encoding="utf-8") as handle:
        weak_examples = sum(1 for line in handle if line.strip())
    return {
        "lexical.build_s": total("lexical.build_lex_index"),
        "lexical.save_s": total("lexical.save_lex_index"),
        "dense.build_s": total("dense.build_dense_index"),
        "dense.save_s": total("dense.save_dense_index"),
        "weak_label.generate_s": total("weak_label.generate_weak_dataset"),
        "weak_label.examples": weak_examples,
        "reranker.features_s": total("reranker.matrix"),
        "reranker.epoch_ms": 1e3 * train_loop_s / epochs_run,
        "reranker.epochs_run": epochs_run,
    }


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    workload = Workload(**spec["workload"])
    docs, train = make_corpus(workload)
    write_gold_file(make_questions(workload, docs, spec["seed"]), spec["questions"])
    if not spec.get("artifacts"):
        print(json.dumps({}))
        return 0

    art = Path(spec["artifacts"])
    config_path = write_build_inputs(art, workload, docs, train)
    tracer = Tracer()
    if spec.get("trace"):
        tracer.install()
        tracer.qid = "build"
    steps = {}
    for step, argv in STEPS:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--config", str(config_path), *argv])
        steps[step] = time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"statuteqa {step} failed with exit code {code}")
    tracer.uninstall()

    result = {"build_s": sum(steps.values()), "steps": steps}
    if spec.get("trace"):
        result["per_layer"] = build_layer_metrics(tracer, art)
        result["per_layer"]["cli.build_s"] = result["build_s"]
        tracer.write(Path(spec["trace"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
