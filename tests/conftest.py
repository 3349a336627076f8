import io
import json
import lzma
import sys
from pathlib import Path

import numpy as np
import pytest

from statuteqa.corpus import Article, TokenizerConfig, clean_text, iter_articles, tokenize
from statuteqa.dense import HashedProjectionEmbedder, build_dense_index
from statuteqa.ensemble import Ranking
from statuteqa.lexical import build_lex_index, retrieve_topk
from statuteqa.pipeline import PipelineConfig
from statuteqa.reranker import FeatureExtractor, ModelScorer, train_stage, zero_model
from statuteqa.synth import synthetic_corpus, title_gold_queries
from statuteqa.weak_label import generate_gold_examples, generate_weak_dataset

sys.path.insert(0, str(Path(__file__).parent))

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"

# Hand-counted fixture: content token counts 8, 8, 5 (avgdl 7.0); titles on
# a1 (3 tokens) and a3 (2 tokens) only.
TINY_ARTICLES = (
    Article("d1#1", "d1", "Law of Contracts",
            "A contract binds two parties. Breach causes damages."),
    Article("d1#2", "d1", None,
            "Property law governs land. Land registry records titles."),
    Article("d2#1", "d2", "Civil Code",
            "The civil code defines obligations."),
)


@pytest.fixture(scope="session")
def tiny_articles():
    return list(TINY_ARTICLES)


@pytest.fixture(scope="session")
def tiny_lex(tiny_articles):
    return build_lex_index(tiny_articles, PipelineConfig())


def field_token_lists(articles, field):
    """Raw token lists per article for the oracle, bypassing the index."""
    tok = TokenizerConfig()
    out = {}
    for a in articles:
        text = a.title if field == "title" else a.content
        out[a.article_id] = tokenize(clean_text(text), tok) if text else []
    return out


def train_two_stage(weak, gold, valid, cfg):
    """Weak pretraining from zero weights, then gold fine-tuning from the
    best pretrained weights, as ``train --mode two-stage`` runs them; both
    stages early-stop on ``valid``, and the model's ``stages`` are theirs,
    in that order."""
    pretrained = train_stage(zero_model(), weak, valid, cfg, "weak_pretrain")
    return train_stage(pretrained, gold, valid, cfg, "gold_finetune")


def pairs(ranked):
    """A ranking's ``(article id, score)`` pairs, best first, read from its
    ``ids()`` and ``scores``: the form the oracles return."""
    return list(zip(ranked.ids(), ranked.scores.tolist()))


def ranking_of(articles):
    """A ``Ranking`` of ``articles`` in the order given, over an index of
    their sorted ids, as a scorer is handed it; the scores and the question
    view are placeholders."""
    ids = tuple(sorted(a.article_id for a in articles))
    positions = np.array([ids.index(a.article_id) for a in articles], dtype=np.int64)
    return Ranking(ids, positions, np.ones(len(articles)), (), None)


def read_stored(path):
    """An index file's header and its arrays as stored (integer arrays as
    byte planes), in file order."""
    stream = io.BytesIO(lzma.decompress(Path(path).read_bytes(), format=lzma.FORMAT_XZ))
    header = json.loads(stream.readline())
    return header, {name: np.lib.format.read_array(stream) for name in header["arrays"]}


def write_stored(path, header, stored):
    """An index file of ``header`` and the ``stored`` arrays, written as
    they are (an object array pickled), as ``indexfile.save`` writes one."""
    payload = io.BytesIO()
    payload.write(json.dumps(header).encode("utf-8") + b"\n")
    for array in stored.values():
        np.lib.format.write_array(payload, array)
    Path(path).write_bytes(lzma.compress(payload.getbuffer()))


@pytest.fixture(scope="session")
def scripts_dir():
    return SCRIPTS_DIR


class SynthBundle:
    """Synthetic 100-article corpus with built indexes and a trained model."""

    def __init__(self):
        self.docs = synthetic_corpus(100, seed=0)
        self.articles = list(iter_articles(self.docs))
        self.by_id = {a.article_id: a for a in self.articles}
        self.tok = TokenizerConfig()
        self.lex = build_lex_index(self.articles, PipelineConfig())
        self.embedder = HashedProjectionEmbedder(dimension=128, seed=0)
        self.dense, _ = build_dense_index(self.articles, self.embedder, self.tok)
        self.extractor = FeatureExtractor(self.lex, self.dense)
        self.queries = title_gold_queries(self.docs)
        self.weak = generate_weak_dataset(self.articles, PipelineConfig(weak_seed=0))

        train_q = self.queries[:80]
        valid_q = self.queries[80:]
        gold_train = generate_gold_examples(
            [(q.question, sorted(q.gold_article_ids)) for q in train_q],
            self.articles, PipelineConfig(weak_seed=1),
        )
        gold_valid = generate_gold_examples(
            [(q.question, sorted(q.gold_article_ids)) for q in valid_q],
            self.articles, PipelineConfig(weak_seed=2),
        )
        matrix = self.extractor.matrix
        self.model = train_two_stage(
            matrix(self.weak), matrix(gold_train), matrix(gold_valid),
            PipelineConfig(epochs=30, train_seed=0),
        )
        self.scorer = ModelScorer(self.model, self.extractor)

    def ranked(self, question, k, cfg=None):
        """The lexical quickview's ``Ranking`` of the ``k`` best for ``question``,
        with ``cfg``'s boosts (default: the config defaults)."""
        tokens = tokenize(clean_text(question), self.tok)
        return retrieve_topk(self.lex, tokens, k, cfg or PipelineConfig())


@pytest.fixture(scope="session")
def synth():
    return SynthBundle()
