"""List-at-a-time reference for top-k, score fusion and answer-set selection.

Ranks by a full sort, and normalizes, fuses and selects with Python
floats, one candidate at a time, building a ``RankedCandidate`` for every
candidate. The package does the same on arrays; its answers must equal
these exactly.
"""

from statuteqa.ensemble import AnswerSet, RankedCandidate


def top_k_positions(scores, k, floor):
    """The positions of the ``k`` best scores at or above ``floor``, by a
    full sort on (-score, position)."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return [i for i in order if scores[i] >= floor][:k]


def minmax_normalize(scores):
    """(s - min) / (max - min); a constant list maps to all ones."""
    if not scores:
        raise ValueError("cannot normalize an empty score list")
    low = min(scores)
    high = max(scores)
    if high == low:
        return [1.0] * len(scores)
    span = high - low
    return [(s - low) / span for s in scores]


def select_answer_set(candidates, threshold):
    """Candidates within ``threshold`` (strict) of the best combined score."""
    if not candidates:
        return []
    ordered = sorted(candidates, key=lambda c: (-c.combined, c.article_id))
    best = ordered[0].combined
    return [c for c in ordered if best - c.combined < threshold or c.combined == best]


def rank_and_select(question_id, question, ranked, scorer, articles_by_id, cfg):
    """``ensemble.rank_and_select`` over a quickview ranking, one candidate at a time."""
    if not ranked:
        return AnswerSet(question_id=question_id, returned=(), no_candidates=True)
    ids = ranked.ids()
    candidate_articles = [articles_by_id[article_id] for article_id in ids]
    qs_raw = ranked.scores.tolist()
    ss_raw = [float(s) for s in scorer.score_batch(question, candidate_articles)]
    qs_norm = minmax_normalize(qs_raw)
    ss_norm = minmax_normalize(ss_raw)
    candidates = [
        RankedCandidate(
            article_id=article_id,
            qs_raw=qs,
            qs_norm=qn,
            ss_raw=ss,
            ss_norm=sn,
            combined=cfg.gamma * qn + (1.0 - cfg.gamma) * sn,
        )
        for article_id, qs, qn, ss, sn in zip(ids, qs_raw, qs_norm, ss_raw, ss_norm)
    ]
    returned = select_answer_set(candidates, cfg.effective_threshold())
    return AnswerSet(question_id=question_id, returned=tuple(returned))
