"""statuteqa benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload answer-lex-10k --seed 1 --seconds 25 --trace 0

A run writes its seeded questions and gets its artifacts built by the code
in ``src/`` (``build.py``, in a child process; untraced runs reuse a build
cached per source digest). It loads them, asks questions in a closed loop
for ``--seconds``, checks the outputs and prints two JSON lines: run
details (provenance, sample counts, answer digest, metric bases), then the
result ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics from an untraced run; ``--trace 1`` makes a
separate traced run and reports the per-layer metrics. A failed output
check exits with status 1 and reports nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import http.client
import json
import os
import platform
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from urllib.parse import quote

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

if not (SRC / "statuteqa").is_dir():
    sys.exit(f"error: package sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
from statuteqa.evaluation import load_gold_file  # noqa: E402
from statuteqa.pipeline import Pipeline, PipelineConfig  # noqa: E402

from checks import CheckFailed, check_and_score, check_answer_shape  # noqa: E402
from hostspeed import kernel_times, scale  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUPS = 3  # set-up repeats; setup_s is their median
SLICE_S = 1.0  # length of one closed loop; the calibration kernel runs between
WARMUP = 4  # questions asked after each set-up, never timed
ORACLE = 5  # first timed questions recomputed by the oracles
OVERHEAD = 15  # questions asked over HTTP and in process (traced runs)
READY_TIMEOUT_S = 120.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "statuteqa").glob("*.py")):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def build(spec: dict, workdir: Path) -> dict:
    """Run build.py in a child process; returns its JSON report."""
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    done = subprocess.run(
        [sys.executable, str(HERE / "build.py"), str(spec_path)],
        env=child_env(), capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"build failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def prepare(workload: Workload, seed: int, workdir: Path, spans: Path | None):
    """Write the run's questions and find or build its artifacts.

    Untraced runs share artifacts built once per source tree and workload
    corpus, under ``.bench_work/cache``; a traced run builds its own, so
    the build-layer metrics are measured in every traced run.
    Returns (artifact dir, build report).
    """
    spec = {
        "workload": dataclasses.asdict(workload),
        "seed": seed,
        "questions": str(workdir / "questions.jsonl"),
    }
    if spans is not None:
        art = workdir / "artifacts"
        art.mkdir()
        return art, build({**spec, "artifacts": str(art), "trace": str(spans)}, workdir)
    build_key = {k: v for k, v in spec["workload"].items()
                 if k in ("corpus", "size", "members", "train_questions", "epochs")}
    builder = [(HERE / name).read_text() for name in ("build.py", "workloads.py")]
    key = hashlib.sha256(
        json.dumps([build_key, source_digest(), builder]).encode()
    ).hexdigest()[:16]
    art = WORK / "cache" / f"{workload.corpus}-{workload.size}-{key}"
    if art.is_dir():
        return art, build(spec, workdir)
    tmp = art.with_name(f"{art.name}.tmp{os.getpid()}")
    tmp.mkdir(parents=True)
    try:
        report = build({**spec, "artifacts": str(tmp)}, workdir)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    try:
        tmp.rename(art)
    except OSError:  # a concurrent run cached the same build first
        shutil.rmtree(tmp)
    return art, report


def run_config(workload: Workload, art: Path, workdir: Path) -> Path:
    config = {
        "corpus_path": str(art / "corpus.jsonl"),
        "lex_index_path": str(art / "lex_index.jsonl"),
        "dense_index_path": str(art / "dense_index.jsonl"),
        "model_path": str(art / "model.json"),
        "quickview_source": workload.quickview_source,
    }
    path = workdir / "config.json"
    path.write_text(json.dumps(config, indent=2))
    return path


def cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a process, its ended threads included."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class ServerProcess:
    """A `statuteqa serve` child, ready once /healthz answers."""

    def __init__(self, config_path: Path, log_path: Path, cpu: int | None = None) -> None:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        self.statuses: Counter = Counter()
        self._lock = threading.Lock()
        self._log = open(log_path, "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "statuteqa.cli", "--config", str(config_path),
             "serve", "--bind", f"127.0.0.1:{self.port}"],
            env=child_env(), stdout=subprocess.DEVNULL, stderr=self._log,
        )
        try:
            if cpu is not None:
                os.sched_setaffinity(self.proc.pid, {cpu})
            self._wait_ready(start)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - start

    def _get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def _wait_ready(self, start: float) -> None:
        while time.perf_counter() - start < READY_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with code {self.proc.returncode}")
            try:
                if self._get("/healthz")[0] == 200:
                    return
            except OSError:
                time.sleep(0.005)
        raise RuntimeError("server not ready in time")

    def ask(self, query) -> list[tuple[str, float]]:
        status, body = self._get("/answer?q=" + quote(query.question))
        with self._lock:
            self.statuses[status // 100] += 1
        if status != 200:
            raise RuntimeError(f"HTTP {status}: {body[:200]!r}")
        return [(c["article_id"], c["combined"]) for c in json.loads(body)["returned"]]

    def cpu_s(self) -> float:
        return cpu_s(self.proc.pid)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def in_process(pipeline: Pipeline):
    def ask(query) -> list[tuple[str, float]]:
        answer = pipeline.answer(query.question_id, query.question)
        return [(c.article_id, c.combined) for c in answer.returned]

    return ask


def closed_loop(ask, questions, seconds: float, clients: int, at_least: int):
    """Each client asks the next question as soon as its last one returns.

    Dispatch stops once ``seconds`` have passed and at least ``at_least``
    questions were sent, or when the questions run out. Returns
    ``([(query, latency_s, answer or None), ...], elapsed_s)``.
    """
    if len(questions) < at_least:
        raise RuntimeError(f"need {at_least} questions, have {len(questions)}")
    lock = threading.Lock()
    pending = iter(questions)
    sent = 0
    results = []
    start = time.perf_counter()

    def client() -> None:
        nonlocal sent
        while True:
            with lock:
                if sent >= at_least and time.perf_counter() - start >= seconds:
                    return
                query = next(pending, None)
                if query is None:
                    return
                sent += 1
            t0 = time.perf_counter()
            try:
                answer = ask(query)
            except Exception as exc:  # a failed operation is counted, not fatal
                print(f"failed: {query.question!r}: {exc!r}", file=sys.stderr)
                answer = None
            latency = time.perf_counter() - t0
            with lock:
                results.append((query, latency, answer))

    threads = [threading.Thread(target=client) for _ in range(clients - 1)]
    for thread in threads:
        thread.start()
    client()
    for thread in threads:
        thread.join()
    return results, time.perf_counter() - start


def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def collect_answers(results, quality, threshold: float) -> dict:
    """Question -> answer set of the successful results, shape-checked."""
    answers = {}
    for query, _, answer in results:
        if answer is not None:
            check_answer_shape(query.question, answer, threshold)
            answers[query.question] = answer
    missing = [q.question for q in quality if q.question not in answers]
    if missing:
        raise CheckFailed(f"quality questions without an answer: {missing[:3]}")
    return answers


def file_mb(cfg: PipelineConfig) -> float:
    paths = (cfg.lex_index_path, cfg.dense_index_path, cfg.model_path)
    return sum(os.path.getsize(p) for p in paths) / 1e6


@contextlib.contextmanager
def answerer(workload: Workload, cfg_path: Path, cfg: PipelineConfig, workdir: Path, cpu: int):
    """One set-up: yields (ask, set-up seconds, peak RSS, CPU, pipeline).

    Peak RSS and CPU are callables that read the answering process's peak
    resident memory in MB and the CPU seconds it has used so far.
    In process the pipeline is loaded here; for the service it is a fresh
    `statuteqa serve` child, held on processor ``cpu``, and the pipeline
    is None.
    """
    if workload.serve:
        server = ServerProcess(cfg_path, workdir / "server.log", cpu)
        try:
            yield server.ask, server.ready_s, server.peak_rss_mb, server.cpu_s, None
        finally:
            server.stop()
        return
    gc.collect()  # the previous round's pipeline is already unreferenced
    start = time.perf_counter()
    pipeline = Pipeline.load(cfg)
    setup_s = time.perf_counter() - start

    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    yield in_process(pipeline), setup_s, peak_rss_mb, time.process_time, pipeline


def timed_run(workload, workdir, cfg_path, cfg, questions, seconds):
    """Untraced run, then the output checks.

    SETUPS rounds of set-up, warm-up and a share of ``seconds`` cut into
    closed loops ("slices") of about SLICE_S each, with the calibration
    kernel timed before each set-up, after it and after each slice, while
    nothing else in the run is busy. Each set-up, and the answer times of
    each slice (CPU time per answer, latencies, elapsed time), are
    rescaled to the reference speed (hostspeed.py) by the median kernel
    time on either side of them, so a change in the host's speed during
    the run cancels out step by step. ``setup_s`` is the median set-up and
    ``answer_cpu_ms`` the median over slices. The unscaled figures go to
    the details. The quality questions open the timed stream; warm-ups
    come from the rest.
    """
    # the answering runs on one processor, and the kernel with it: the
    # server child, or this thread (which the service's clients leave)
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    os.sched_setaffinity(0, (cpus - {cpu} or cpus) if workload.serve else {cpu})
    try:
        return _timed_run(workload, workdir, cfg_path, cfg, questions, seconds, cpu)
    finally:
        os.sched_setaffinity(0, cpus)


def _timed_run(workload, workdir, cfg_path, cfg, questions, seconds, cpu):
    quality, rest = questions[: workload.quality], questions[workload.quality :]
    warmups, rest = rest[: SETUPS * WARMUP], rest[SETUPS * WARMUP :]
    stream = quality + rest
    slices = max(1, round(seconds / SETUPS / SLICE_S))
    setups, setups_scaled, peaks, results, kernel_s = [], [], [], [], []
    slice_cpu_s, latencies, latencies_scaled = [], [], []
    elapsed = elapsed_scaled = answer_cpu_s = 0.0
    for round_ in range(SETUPS):
        before = kernel_times(cpu)
        with answerer(workload, cfg_path, cfg, workdir, cpu) as (
            ask, setup_s, peak_rss_mb, cpu_now, pipeline
        ):
            after = kernel_times(cpu)
            setups.append(setup_s)
            setups_scaled.append(setup_s * scale(before + after))
            kernel_s += before + after
            before = after
            warm = warmups[round_ * WARMUP : (round_ + 1) * WARMUP]
            closed_loop(ask, warm, 0.0, workload.clients, len(warm))
            for slice_ in range(slices):
                last = round_ == SETUPS - 1 and slice_ == slices - 1
                cpu_start = cpu_now()
                chunk, took = closed_loop(
                    ask, stream[len(results) :], seconds / (SETUPS * slices),
                    workload.clients, len(quality) - len(results) if last else 0,
                )
                used = cpu_now() - cpu_start
                after = kernel_times(cpu)
                factor = scale(before + after)
                answered = [latency for _, latency, answer in chunk if answer is not None]
                if answered:
                    slice_cpu_s.append(used / len(answered) * factor)
                latencies += answered
                latencies_scaled += [latency * factor for latency in answered]
                answer_cpu_s += used
                elapsed += took
                elapsed_scaled += took * factor
                kernel_s += after
                before = after
                results += chunk
            peaks.append(peak_rss_mb())
        if round_ < SETUPS - 1:
            ask = pipeline = None  # released before the next round loads
    if pipeline is None:
        pipeline = Pipeline.load(cfg)  # the service's answers are checked in process

    threshold = cfg.ensemble_config().effective_threshold()
    answers = collect_answers(results, quality, threshold)
    scores = check_and_score(pipeline, quality, answers, ORACLE)
    metrics = {
        "setup_s": statistics.median(setups_scaled),
        "answer_cpu_ms": 1e3 * statistics.median(slice_cpu_s),
        "answer_p50_ms": 1e3 * statistics.median(latencies_scaled),
        "answers_per_s": len(latencies) / elapsed_scaled,
        "index_mb": file_mb(cfg),
        "rss_mb": max(peaks),
        "recall_at_200": scores["recall_at_200"],
        "f2": scores["f2"],
    }
    detail = {
        "answer_p95_ms": 1e3 * p95(latencies_scaled),  # not gated, see README
        "wall_setup_s": statistics.median(setups),
        "wall_answer_cpu_ms": 1e3 * answer_cpu_s / len(latencies),
        "wall_answer_p50_ms": 1e3 * statistics.median(latencies),
        "wall_answer_p95_ms": 1e3 * p95(latencies),
        "wall_answers_per_s": len(latencies) / elapsed,
        "kernel_median_ms": 1e3 * statistics.median(kernel_s),
        "kernel_runs": len(kernel_s),
        "slices": len(slice_cpu_s),
        "setup_runs_s": setups,
        "timed_answers": len(latencies),
        "timed_seconds": elapsed,
        "clients": workload.clients,
        "quality_questions": len(quality),
        "oracle_questions": ORACLE,
        "answer_digest": scores["digest"],
    }
    return metrics, detail, len(results), len(results) - len(latencies)


def check_span_tree(root, spans) -> None:
    """One question's spans nest under its root, so self times add up to it.

    Every span reaches the root through its parents, lies within its
    parent's interval and does not overlap its siblings, so no self time
    is negative and the children's time is counted once.
    """
    by_id = {s.span_id: s for s in spans}
    children = defaultdict(list)
    for span in spans:
        node = span
        while node.span_id != root.span_id:
            parent = by_id.get(node.parent)
            if parent is None:
                raise CheckFailed(f"span {span.name} of {root.qid} does not reach its root")
            node = parent
        if span is not root:
            parent = by_id[span.parent]
            if not parent.start <= span.start <= span.end <= parent.end:
                raise CheckFailed(f"span {span.name} of {root.qid} leaves {parent.name}")
            children[parent.span_id].append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: s.start)
        for before, after in zip(siblings, siblings[1:]):
            if after.start < before.end:
                raise CheckFailed(f"spans {before.name} and {after.name} of {root.qid} overlap")


def query_layer_metrics(tracer: Tracer, results) -> tuple[dict, dict]:
    """Per-layer query metrics from the traced answers and checks."""
    spans = tracer.spans
    own = self_times(spans)
    by_qid = defaultdict(list)
    for span in spans:
        by_qid[span.qid].append(span)
    roots = [s for s in spans if s.name == "pipeline.answer"]
    for root in roots:
        check_span_tree(root, by_qid[root.qid])

    def durations(name: str, qid: str | None = None) -> list[float]:
        return [s.duration for s in spans if s.name == name and qid in (None, s.qid)]

    def per_answer_calls(name: str) -> float:
        return sum(tracer.counts[(r.qid, name)] for r in roots) / len(roots)

    def per_answer_ms(keep, self_only: bool) -> float:
        totals = [
            sum(own[s.span_id] if self_only else s.duration for s in by_qid[r.qid] if keep(s))
            for r in roots
        ]
        return 1e3 * statistics.median(totals)

    retrieve = durations("lexical.retrieve_topk")
    dense_retrieve = durations("dense.dense_retrieve_topk")
    scoring = [
        s.duration for r in roots for s in by_qid[r.qid] if s.name == "reranker.score_batch"
    ]
    candidates = sum(tracer.counts[(r.qid, "reranker.extract_features")] for r in roots)
    answered = [answer for _, _, answer in results if answer is not None]
    metrics = {
        "lexical.retrieve_ms": 1e3 * statistics.median(retrieve),
        "lexical.bm25_calls": per_answer_calls("lexical.bm25"),
        "dense.retrieve_ms": 1e3 * statistics.median(dense_retrieve),
        "dense.maxsim_calls": per_answer_calls("dense.quickview_dense_score"),
        "dense.embed_calls": per_answer_calls("dense.embed"),
        "dense.embed_ms": per_answer_ms(lambda s: s.name == "dense.embed", False),
        "reranker.score_ms": 1e3 * statistics.median(scoring),
        "reranker.us_per_candidate": 1e6 * sum(scoring) / candidates,
        "corpus.tokenize_calls": per_answer_calls("corpus.tokenize"),
        "ensemble.self_ms": per_answer_ms(lambda s: s.name.startswith("ensemble."), True),
        "ensemble.answer_size": statistics.mean(len(a) for a in answered),
        "corpus.load_s": sum(durations("corpus.load_corpus_file", "setup")),
        "lexical.load_s": sum(durations("lexical.load_lex_index", "setup")),
        "dense.load_s": sum(durations("dense.load_dense_index", "setup")),
        "reranker.load_s": sum(durations("reranker.load_model", "setup")),
    }
    bases = {
        "answers": len(roots),
        "lexical.retrieve_topk spans": len(retrieve),
        "dense.dense_retrieve_topk spans": len(dense_retrieve),
        "reranker.score_batch spans": len(scoring),
        "candidates scored": candidates,
        "spans": len(spans),
    }
    return metrics, bases


def traced_run(workload, workdir, cfg_path, cfg, questions, seconds, spans_path):
    """Traced run: per-layer metrics, HTTP overhead and tracing overhead."""
    tracer = Tracer()
    tracer.install()
    tracer.qid = "setup"
    try:
        pipeline = Pipeline.load(cfg)
    finally:
        tracer.uninstall()
    quality, rest = questions[: workload.quality], questions[workload.quality :]
    warm, same = rest[:WARMUP], rest[WARMUP : WARMUP + OVERHEAD]
    rest = rest[WARMUP + OVERHEAD :]
    ask = in_process(pipeline)
    closed_loop(ask, warm, 0.0, 1, len(warm))

    # the same questions over HTTP and in process, each once per process
    server = ServerProcess(cfg_path, workdir / "server.log")
    try:
        closed_loop(server.ask, warm, 0.0, 1, len(warm))
        http_results, _ = closed_loop(server.ask, same, 0.0, 1, len(same))
    finally:
        server.stop()
    local_results, _ = closed_loop(ask, same, 0.0, 1, len(same))

    # traced and untraced questions alternate, so drift in the host's speed
    # cancels out of the overhead; install and uninstall fall outside the
    # pipeline.answer span that times a traced answer
    traced_qs = quality + rest[1::2]
    traced_ids = {q.question_id for q in traced_qs}
    schedule = [q for pair in zip(traced_qs, rest[0::2]) for q in pair]

    def ask_alternating(query):
        if query.question_id not in traced_ids:
            return ask(query)
        tracer.install()
        tracer.qid = query.question_id
        try:
            return ask(query)
        finally:
            tracer.uninstall()

    both, _ = closed_loop(ask_alternating, schedule, seconds, 1, 2 * len(quality))
    results = [r for r in both if r[0].question_id in traced_ids]
    plain_results = [r for r in both if r[0].question_id not in traced_ids]
    tracer.install()
    tracer.qid = "check"
    try:
        threshold = cfg.ensemble_config().effective_threshold()
        answers = collect_answers(results, quality, threshold)
        scores = check_and_score(pipeline, quality, answers, ORACLE)
    finally:
        tracer.uninstall()
    metrics, bases = query_layer_metrics(tracer, results)

    http_p50 = statistics.median(lat for _, lat, a in http_results if a is not None)
    local_p50 = statistics.median(lat for _, lat, a in local_results if a is not None)
    plain_p50 = statistics.median(lat for _, lat, a in plain_results if a is not None)
    traced_p50 = statistics.median(
        s.duration for s in tracer.spans if s.name == "pipeline.answer"
    )
    metrics.update({
        "server.overhead_ms": 1e3 * (http_p50 - local_p50),
        "server.status_2xx": server.statuses[2],
        "server.status_4xx": server.statuses[4],
        "server.status_5xx": server.statuses[5],
        "lexical.index_bytes": os.path.getsize(cfg.lex_index_path),
        "dense.index_bytes": os.path.getsize(cfg.dense_index_path),
        "trace.overhead_pct": 100.0 * (traced_p50 - plain_p50) / plain_p50,
    })
    tracer.write(spans_path)
    bases.update({
        "server overhead questions": len(same),
        "http requests": sum(server.statuses.values()),
        "untraced answers": len(plain_results),
    })
    detail = {"bases": bases, "spans_file": str(spans_path.relative_to(ROOT)),
              "answer_digest": scores["digest"]}
    everything = both + http_results + local_results
    return metrics, detail, len(everything), sum(1 for _, _, a in everything if a is None)


def provenance() -> dict:
    commit = "unknown"  # the benchmark may run in an export without .git
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            commit = done.stdout.strip() or commit
        except OSError:
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (details, result)."""
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-s{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    spans_path = WORK / f"trace-{workload.name}-s{seed}.jsonl"
    try:
        art, built = prepare(
            workload, seed, workdir, spans_path.with_suffix(".build.jsonl") if trace else None
        )
        cfg_path = run_config(workload, art, workdir)
        cfg = PipelineConfig.from_file(cfg_path)
        questions = load_gold_file(workdir / "questions.jsonl")
        if trace:
            metrics, detail, attempted, failed = traced_run(
                workload, workdir, cfg_path, cfg, questions, seconds, spans_path
            )
            metrics.update(built["per_layer"])
        else:
            metrics, detail, attempted, failed = timed_run(
                workload, workdir, cfg_path, cfg, questions, seconds
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    details = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": provenance(),
        "build_steps_s": built.get("steps", "cached"),
        **detail,
    }
    return details, result


def main() -> int:
    parser = argparse.ArgumentParser(description="statuteqa benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        details, result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
