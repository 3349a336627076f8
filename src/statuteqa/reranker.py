"""Supervised relevance scoring of question/article pairs.

The baseline scorer is a logistic model over eight pipeline features
(saturated field BM25 scores, dense max-cosine, token overlaps, length
terms, bias), trained with mini-batch Adam on binary cross-entropy. The
training protocol is two-stage: pretrain on the weak-label dataset, then
fine-tune from the best pretrained weights on gold data, keeping the
weights with the lowest validation loss at each stage.

Scoring can also be delegated to an external model through a child
process line protocol: requests ``{"question", "title", "content"}``,
responses ``{"score": float in [0, 1]}`` in order.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import groupby, repeat
from operator import attrgetter
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import Article, TokenizerConfig, clean_text, tokenize
from .dense import DenseIndex, embed, quickview_dense_score
from .lexical import LexIndex, score_columns
from .lineproto import LineProtocolClient, ProtocolError, finite_real
from .weak_label import TrainingExample

__all__ = [
    "NUM_FEATURES",
    "FEATURE_NAMES",
    "LinearModel",
    "TrainConfig",
    "FeatureExtractor",
    "QuestionView",
    "question_view",
    "extract_features",
    "mean_cross_entropy",
    "cross_entropy_gradient",
    "train_stage",
    "train_two_stage",
    "ModelScorer",
    "ExternalScorer",
    "zero_model",
    "save_model",
    "load_model",
]

NUM_FEATURES = 8
FEATURE_NAMES = (
    "title_bm25_saturated",
    "content_bm25_saturated",
    "dense_max_cosine",
    "title_jaccard",
    "content_jaccard",
    "log_question_len",
    "log_content_len",
    "bias",
)

MODEL_FORMAT = "statuteqa.model"
MODEL_VERSION = 1

_PROB_EPS = 1e-12


def _saturate(score: np.ndarray) -> np.ndarray:
    return score / (1.0 + score)


def _jaccard(
    matched: np.ndarray, question_terms: int, article_terms: np.ndarray
) -> np.ndarray:
    """|q ∩ A| / |q ∪ A| from set sizes; 0 where the article field is empty."""
    union = question_terms + article_terms - matched
    return np.divide(matched, union, out=np.zeros(len(matched)), where=article_terms > 0)


@dataclass(frozen=True)
class QuestionView:
    """What the features need from one question, computed once per question."""

    tokens: tuple[str, ...]  # cleaned question tokens, in order
    vector: np.ndarray  # question embedding


def question_view(
    question: str, dense: DenseIndex, tok: TokenizerConfig | None = None
) -> QuestionView:
    """Tokenize and embed the question once."""
    tokens = tokenize(clean_text(question), tok or TokenizerConfig())
    return QuestionView(tokens=tuple(tokens), vector=embed(dense.embedder, tokens))


def extract_features(
    view: QuestionView,
    columns: np.ndarray,
    dense_scores: np.ndarray,
    lex: LexIndex,
    log_content_len: np.ndarray,
) -> np.ndarray:
    """The (k, NUM_FEATURES) feature matrix of the articles at lexical ``columns``.

    ``dense_scores`` are the articles' max sentence cosines with the
    question and ``log_content_len`` is ``math.log1p`` of every lexical
    column's content length. BM25 and matched terms are taken at these
    columns only (no article text is tokenized). Each feature is one
    column, computed elementwise with the scalar formula's operations in
    its order, so a row does not depend on the other articles in the
    batch. A missing title zeroes the title features.
    """
    distinct = len(set(view.tokens))
    title_bm25, title_matched = score_columns(lex.title, view.tokens, columns)
    content_bm25, content_matched = score_columns(lex.content, view.tokens, columns)
    x = np.empty((len(columns), NUM_FEATURES), dtype=np.float64)
    x[:, 0] = _saturate(title_bm25)
    x[:, 1] = _saturate(content_bm25)
    x[:, 2] = dense_scores
    x[:, 3] = _jaccard(title_matched, distinct, lex.title.distinct[columns])
    x[:, 4] = _jaccard(content_matched, distinct, lex.content.distinct[columns])
    x[:, 5] = math.log1p(len(view.tokens))
    x[:, 6] = log_content_len[columns]
    x[:, 7] = 1.0
    return x


class FeatureExtractor:
    """Feature source bound to a corpus and its indexes.

    Holds no per-question state: each call computes the question's view
    and drops it when done, so memory does not grow with the questions
    asked.
    """

    def __init__(
        self,
        articles: Sequence[Article],
        lex: LexIndex,
        dense: DenseIndex,
        tok: TokenizerConfig | None = None,
    ) -> None:
        self.by_id: Mapping[str, Article] = {a.article_id: a for a in articles}
        self.lex = lex
        self.dense = dense
        self.tok = tok or TokenizerConfig()
        # math.log1p, not np.log1p, whose last bits may differ
        self.log_content_len = np.array(
            [math.log1p(n) for n in lex.content.lengths.tolist()], dtype=np.float64
        )

    def rows(self, question: str, articles: Sequence[Article]) -> np.ndarray:
        """Feature rows in article order; raises for an article outside an index."""
        view = question_view(question, self.dense, self.tok)
        ids = list(map(attrgetter("article_id"), articles))
        try:
            dense_scores = quickview_dense_score(self.dense, view.vector, ids)
        except KeyError as exc:
            raise ValueError(f"article {exc.args[0]!r} not in dense index") from None
        columns = np.fromiter(
            map(self.lex.column.get, ids, repeat(-1)), dtype=np.int64, count=len(ids)
        )
        indexed = columns >= 0
        indexed[indexed] = self.lex.content.lengths[columns[indexed]] > 0
        if not indexed.all():
            missing = ids[int(np.argmin(indexed))]
            raise ValueError(f"article {missing!r} not in lexical index")
        return extract_features(
            view, columns, dense_scores, self.lex, self.log_content_len
        )

    def matrix(
        self, examples: Sequence[TrainingExample]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Feature rows in example order; one ``rows`` call per distinct question."""
        x = np.empty((len(examples), NUM_FEATURES), dtype=np.float64)
        by_question = sorted(range(len(examples)), key=lambda i: examples[i].question)
        for question, group in groupby(by_question, key=lambda i: examples[i].question):
            group = list(group)
            try:
                articles = [self.by_id[examples[i].article_id] for i in group]
            except KeyError as exc:
                raise ValueError(f"unknown article id {exc.args[0]!r}") from None
            x[group] = self.rows(question, articles)
        y = np.asarray([ex.label for ex in examples], dtype=np.float64)
        return x, y


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.shape != (NUM_FEATURES,):
            raise ValueError(f"weights must have shape ({NUM_FEATURES},)")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "weights", weights)


def zero_model() -> LinearModel:
    return LinearModel(np.zeros(NUM_FEATURES))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 50
    batch_size: int = 32
    rng_seed: int = 0
    patience: int = 10  # early-stop patience on validation loss
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _logits(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """w . f of each row, summed in feature order one column at a time.

    A row's logit then depends only on that row, not on its position in
    the batch. ``x @ w`` does not promise that: the BLAS kernel may round
    identical rows differently by position, which breaks exact ties.
    """
    z = x[:, 0] * weights[0]
    for j in range(1, NUM_FEATURES):
        z += x[:, j] * weights[j]
    return z


def mean_cross_entropy(weights: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Mean binary cross-entropy computed from logits: softplus(z) - y*z."""
    z = x @ weights
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def cross_entropy_gradient(
    weights: np.ndarray, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    z = x @ weights
    return x.T @ (_sigmoid(z) - y) / len(y)


def train_stage(
    model: LinearModel,
    data: Sequence[TrainingExample],
    valid: Sequence[TrainingExample],
    cfg: TrainConfig,
    extractor: FeatureExtractor,
    stage: str = "single",
) -> LinearModel:
    """Mini-batch Adam on mean cross-entropy, starting from ``model``.

    Keeps the weights with the best validation loss; an empty validation
    set disables early stopping and returns the final weights. Training is
    deterministic given the seed.
    """
    if not data:
        raise ValueError("training data is empty")
    x, y = extractor.matrix(data)
    xv, yv = (extractor.matrix(valid)) if valid else (None, None)

    weights = model.weights.copy()
    m = np.zeros_like(weights)
    v = np.zeros_like(weights)
    step = 0
    rng = np.random.default_rng(cfg.rng_seed)

    loss_curve = [mean_cross_entropy(weights, x, y)]
    val_curve: list[float] = []
    best_weights = weights.copy()
    best_val = math.inf
    bad_epochs = 0
    epochs_run = 0

    if xv is not None:
        best_val = mean_cross_entropy(weights, xv, yv)
        val_curve.append(best_val)

    for _ in range(cfg.epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            grad = cross_entropy_gradient(weights, x[batch], y[batch])
            step += 1
            m = cfg.adam_beta1 * m + (1.0 - cfg.adam_beta1) * grad
            v = cfg.adam_beta2 * v + (1.0 - cfg.adam_beta2) * grad * grad
            m_hat = m / (1.0 - cfg.adam_beta1**step)
            v_hat = v / (1.0 - cfg.adam_beta2**step)
            weights -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
        epochs_run += 1

        train_loss = mean_cross_entropy(weights, x, y)
        if not math.isfinite(train_loss):
            raise ValueError("diverged: non-finite training loss")
        loss_curve.append(train_loss)

        if xv is not None:
            val_loss = mean_cross_entropy(weights, xv, yv)
            val_curve.append(val_loss)
            if val_loss < best_val:
                best_val = val_loss
                best_weights = weights.copy()
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= cfg.patience:
                    break
        else:
            best_weights = weights

    metadata = {
        "stage": stage,
        "epochs_run": epochs_run,
        "seed": cfg.rng_seed,
        "learning_rate": cfg.learning_rate,
        "batch_size": cfg.batch_size,
        "initial_weights": model.weights.tolist(),
        "loss_curve": loss_curve,
        "val_loss_curve": val_curve,
        "best_val_loss": None if xv is None else best_val,
    }
    return LinearModel(best_weights.copy(), metadata)


def train_two_stage(
    weak: Sequence[TrainingExample],
    gold: Sequence[TrainingExample],
    valid: Sequence[TrainingExample],
    cfg: TrainConfig,
    extractor: FeatureExtractor,
) -> LinearModel:
    """Weak pretraining from zero weights, then gold fine-tuning from the
    best pretrained weights."""
    if not weak:
        raise ValueError("weak dataset is empty")
    if not gold:
        raise ValueError("gold dataset is empty")
    pretrained = train_stage(
        zero_model(), weak, valid, cfg, extractor, stage="weak_pretrain"
    )
    tuned = train_stage(pretrained, gold, valid, cfg, extractor, stage="gold_finetune")
    metadata = dict(tuned.metadata)
    metadata["stage"] = "two_stage"
    metadata["stages"] = [pretrained.metadata, tuned.metadata]
    return LinearModel(tuned.weights, metadata)


class ModelScorer:
    """Scores candidates with a trained linear model over extracted features."""

    def __init__(self, model: LinearModel, extractor: FeatureExtractor) -> None:
        self.model = model
        self.extractor = extractor

    def fingerprint(self) -> str:
        digest = hashlib.sha256(self.model.weights.tobytes()).hexdigest()[:16]
        return f"linear:{digest}"

    def score_batch(self, question: str, candidates: Sequence[Article]) -> list[float]:
        """Relevance probability sigmoid(w . f) of each candidate, in order,
        clamped to the open unit interval."""
        z = _logits(self.model.weights, self.extractor.rows(question, candidates))
        return np.clip(_sigmoid(z), _PROB_EPS, 1.0 - _PROB_EPS).tolist()


class ExternalScorer:
    """Scorer backed by a child process speaking the line protocol."""

    def __init__(
        self, command: Sequence[str], timeout: float = 30.0, name: str | None = None
    ) -> None:
        self._name = name or " ".join(command)
        self._client = LineProtocolClient(command, timeout=timeout)

    def fingerprint(self) -> str:
        return "external:" + hashlib.sha256(self._name.encode()).hexdigest()[:16]

    def score_batch(self, question: str, candidates: Sequence[Article]) -> list[float]:
        requests = [
            {"question": question, "title": a.title, "content": a.content}
            for a in candidates
        ]
        batch_ids = [a.article_id for a in candidates]
        try:
            responses = self._client.call(requests)
        except ProtocolError as exc:
            raise ProtocolError(
                f"external scorer failed on candidate batch {batch_ids}: {exc}"
            ) from exc
        scores = []
        for response in responses:
            score = finite_real(response.get("score"))
            if score is None or not 0.0 <= score <= 1.0:
                raise ProtocolError(
                    f"external scorer {self._name!r} sent a malformed score for "
                    f"batch {batch_ids}: {response!r}"
                )
            scores.append(score)
        return scores

    def close(self) -> None:
        self._client.close()

    def __enter__(self) -> "ExternalScorer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def save_model(model: LinearModel, path: str | Path) -> None:
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "weights": model.weights.tolist(),
        "feature_names": list(FEATURE_NAMES),
        "metadata": model.metadata,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def load_model(path: str | Path) -> LinearModel:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a model file")
    return LinearModel(np.asarray(payload["weights"]), payload.get("metadata", {}))
