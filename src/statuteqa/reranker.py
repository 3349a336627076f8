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
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from . import indexfile
from .corpus import Article, clean_text, tokenize
from .dense import DenseIndex, embed, quickview_dense_score, sentence_cosines
from .ensemble import Ranking
from .lexical import LexIndex, score_query
from .lineproto import LineProtocolClient, ProtocolError, finite_real
from .weak_label import TrainingExample

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

__all__ = [
    "NUM_FEATURES",
    "FEATURE_NAMES",
    "LinearModel",
    "FeatureExtractor",
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

# Adam's moment decay rates and denominator guard (Kingma & Ba defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _saturate(score: np.ndarray) -> np.ndarray:
    return score / (1.0 + score)


def _jaccard(
    matched: np.ndarray, question_terms: int, article_terms: np.ndarray
) -> np.ndarray:
    """|q ∩ A| / |q ∪ A| from set sizes; 0 where the article field is empty."""
    union = question_terms + article_terms - matched
    return np.divide(matched, union, out=np.zeros(len(matched)), where=article_terms > 0)


def extract_features(
    tokens: Sequence[str],
    columns: np.ndarray,
    dense_scores: np.ndarray,
    field_scores: Mapping[str, tuple[np.ndarray, np.ndarray]],
    lex: LexIndex,
    log_content_len: np.ndarray,
) -> np.ndarray:
    """The (k, NUM_FEATURES) feature matrix of the articles at lexical ``columns``.

    ``tokens`` are the cleaned question tokens in order, ``dense_scores``
    the articles' max sentence cosines with the question, ``field_scores``
    the tokens' ``score_query`` pass, read at ``columns``, and
    ``log_content_len`` is ``math.log1p`` of every lexical column's
    content length. No article text is tokenized. Each feature is one
    column, computed elementwise with the scalar formula's operations in
    its order, so a row does not depend on the other articles in the
    batch. A missing title zeroes the title features. The matrix is in
    column order, so these column writes and ``_logits``' column reads are
    contiguous.
    """
    distinct = len(set(tokens))
    title_bm25, title_matched = (scores[columns] for scores in field_scores["title"])
    content_bm25, content_matched = (scores[columns] for scores in field_scores["content"])
    x = np.empty((len(columns), NUM_FEATURES), dtype=np.float64, order="F")
    x[:, 0] = _saturate(title_bm25)
    x[:, 1] = _saturate(content_bm25)
    x[:, 2] = dense_scores
    x[:, 3] = _jaccard(title_matched, distinct, lex.title.distinct[columns])
    x[:, 4] = _jaccard(content_matched, distinct, lex.content.distinct[columns])
    x[:, 5] = math.log1p(len(tokens))
    x[:, 6] = log_content_len[columns]
    x[:, 7] = 1.0
    return x


class FeatureExtractor:
    """Feature source bound to a lexical and a dense index of the same
    articles and tokenizer, which cuts the questions.

    The two indexes number their articles alike (lexical column = dense
    position), so a quickview ``Ranking`` over either index is read at its
    positions, and candidate ids are mapped to columns once per batch.
    Holds no per-question state: each call reads or computes the question's
    tokens, BM25 pass and sentence cosines and drops them when done, so
    memory does not grow with the questions asked.
    """

    def __init__(self, lex: LexIndex, dense: DenseIndex) -> None:
        if lex.article_ids != dense.article_ids:
            raise ValueError(
                "the lexical and dense indexes cover different articles "
                f"({len(lex.article_ids)} and {len(dense.article_ids)})"
            )
        if lex.tokenizer != dense.tokenizer:
            raise ValueError(
                "the lexical and dense indexes were built with different tokenizers "
                f"({lex.tokenizer.fingerprint()} and {dense.tokenizer.fingerprint()})"
            )
        self.lex = lex
        self.dense = dense
        # math.log1p, not np.log1p, whose last bits may differ; once per
        # distinct length
        lengths, column_length = np.unique(lex.content.lengths, return_inverse=True)
        log1p = [math.log1p(n) for n in lengths.tolist()]
        self.log_content_len = np.array(log1p, dtype=np.float64)[column_length]

    def rows(self, question: str, candidates: Ranking | Sequence[str]) -> np.ndarray:
        """Feature rows of the candidates, in order: a ``Ranking`` over these
        indexes, or article ids; raises for a ranking over other indexes
        and for an id outside these.

        What a ranking carries (tokens, BM25 pass or sentence cosines) is
        read, not computed again; only what it lacks comes from ``question``.
        """
        columns, tokens, cosines, field_scores = self._view(question, candidates)
        if cosines is None:
            cosines = sentence_cosines(self.dense, embed(self.dense.embedder, tokens))
        if field_scores is None:
            field_scores = score_query(self.lex, tokens)
        dense_scores = quickview_dense_score(self.dense, cosines, columns)
        return extract_features(
            tokens, columns, dense_scores, field_scores, self.lex, self.log_content_len
        )

    def _view(self, question: str, candidates: Ranking | Sequence[str]):
        """The candidates' columns, and the question's tokens, sentence
        cosines and BM25 pass as a ranking over these indexes carries them;
        for ids, the tokens of ``question`` and None for the rest."""
        if isinstance(candidates, Ranking):
            ids = candidates.article_ids
            if ids is not self.lex.article_ids and ids is not self.dense.article_ids:
                raise ValueError("the ranking is over other indexes than the extractor's")
            c = candidates
            return c.positions, c.tokens, c.cosines, c.field_scores
        columns = np.fromiter(
            map(self.lex.column.get, candidates, repeat(-1)),
            dtype=np.int64, count=len(candidates),
        )
        if columns.size and columns.min() < 0:
            missing = candidates[int(np.argmin(columns))]
            raise ValueError(f"article {missing!r} not in the indexes")
        return columns, tokenize(clean_text(question), self.lex.tokenizer), None, None

    def matrix(
        self, examples: Sequence[TrainingExample]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Feature rows in example order; one ``rows`` call per distinct question."""
        x = np.empty((len(examples), NUM_FEATURES), dtype=np.float64)
        by_question = sorted(range(len(examples)), key=lambda i: examples[i].question)
        for question, group in groupby(by_question, key=lambda i: examples[i].question):
            group = list(group)
            x[group] = self.rows(question, [examples[i].article_id for i in group])
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
    train: tuple[np.ndarray, np.ndarray],
    valid: tuple[np.ndarray, np.ndarray] | None,
    cfg: PipelineConfig,
    stage: str = "single",
) -> LinearModel:
    """Mini-batch Adam on mean cross-entropy over the ``(x, y)`` feature
    matrix ``train``, starting from ``model``, with ``cfg``'s
    ``learning_rate``, ``epochs``, ``batch_size``, ``train_seed`` and
    ``patience``.

    Keeps the weights with the best loss on the ``valid`` matrix; None
    disables early stopping and returns the final weights. Training is
    deterministic given the seed. Empty training data raises an error that
    names ``stage``.
    """
    x, y = train
    if not len(y):
        raise ValueError(f"{stage}: training data is empty")
    weights = model.weights.copy()
    m = np.zeros_like(weights)
    v = np.zeros_like(weights)
    step = 0
    rng = np.random.default_rng(cfg.train_seed)

    loss_curve = [mean_cross_entropy(weights, x, y)]
    val_curve: list[float] = []
    best_weights = weights.copy()
    best_val = math.inf
    bad_epochs = 0
    epochs_run = 0

    if valid is not None:
        best_val = mean_cross_entropy(weights, *valid)
        val_curve.append(best_val)

    for _ in range(cfg.epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            grad = cross_entropy_gradient(weights, x[batch], y[batch])
            step += 1
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
            m_hat = m / (1.0 - ADAM_BETA1**step)
            v_hat = v / (1.0 - ADAM_BETA2**step)
            weights -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        epochs_run += 1

        train_loss = mean_cross_entropy(weights, x, y)
        if not math.isfinite(train_loss):
            raise ValueError("diverged: non-finite training loss")
        loss_curve.append(train_loss)

        if valid is not None:
            val_loss = mean_cross_entropy(weights, *valid)
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
        "seed": cfg.train_seed,
        "learning_rate": cfg.learning_rate,
        "batch_size": cfg.batch_size,
        "initial_weights": model.weights.tolist(),
        "loss_curve": loss_curve,
        "val_loss_curve": val_curve,
        "best_val_loss": None if valid is None else best_val,
    }
    return LinearModel(best_weights.copy(), metadata)


def train_two_stage(
    weak: tuple[np.ndarray, np.ndarray],
    gold: tuple[np.ndarray, np.ndarray],
    valid: tuple[np.ndarray, np.ndarray] | None,
    cfg: PipelineConfig,
) -> LinearModel:
    """Weak pretraining from zero weights, then gold fine-tuning from the
    best pretrained weights; both stages early-stop on ``valid``."""
    pretrained = train_stage(zero_model(), weak, valid, cfg, "weak_pretrain")
    tuned = train_stage(pretrained, gold, valid, cfg, "gold_finetune")
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

    def score_batch(
        self, question: str, candidates: Ranking | Sequence[Article | str]
    ) -> list[float]:
        """Relevance probability sigmoid(w . f) of each candidate of a
        quickview ``Ranking``, read at its positions, clamped to the open unit
        interval. The features come from the indexes, so no article text is
        read. Articles or ids are taken only for ``perfbench/checks.py``."""
        if not isinstance(candidates, Ranking):
            candidates = [getattr(c, "article_id", c) for c in candidates]
        z = _logits(self.model.weights, self.extractor.rows(question, candidates))
        return np.clip(_sigmoid(z), _PROB_EPS, 1.0 - _PROB_EPS).tolist()


class ExternalScorer:
    """Scorer backed by a child process speaking the line protocol. It owns
    the text it sends: ``articles``, kept by id."""

    def __init__(
        self, command: Sequence[str], articles: Iterable[Article], timeout: float = 30.0
    ) -> None:
        self._name = " ".join(command)
        self._by_id = {a.article_id: a for a in articles}
        self._client = LineProtocolClient(command, timeout=timeout)

    def fingerprint(self) -> str:
        return "external:" + hashlib.sha256(self._name.encode()).hexdigest()[:16]

    def score_batch(self, question: str, ranked: Ranking) -> list[float]:
        """The child's score of each candidate of ``ranked``, in ranking order;
        errors name the batch's article ids."""
        batch_ids = ranked.ids()
        requests = [
            {"question": question, "title": a.title, "content": a.content}
            for a in map(self._by_id.__getitem__, batch_ids)
        ]
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
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    with indexfile.replacing(path) as handle:
        handle.write(text.encode("utf-8"))


def load_model(path: str | Path) -> LinearModel:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a model file")
    version = payload.get("version")
    if type(version) is not int or version != MODEL_VERSION:  # JSON true equals 1 in Python
        raise ValueError(f"{path}: model version {version!r}, expected {MODEL_VERSION}")
    if payload.get("feature_names") != list(FEATURE_NAMES):
        raise ValueError(f"{path}: model features differ from {list(FEATURE_NAMES)}")
    weights = payload.get("weights")
    values = list(map(finite_real, weights)) if isinstance(weights, list) else []
    if len(values) != NUM_FEATURES or None in values:
        raise ValueError(f"{path}: weights must be a list of {NUM_FEATURES} finite numbers")
    return LinearModel(np.array(values), payload.get("metadata", {}))
