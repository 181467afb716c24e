"""Model-agnostic evaluation of predictive power.

Every model family exposes two batch methods over a list of sequences:
``log_evidences(seqs)``, each sequence's log evidence in corpus order (-inf
where it is zero; a grammar's is normalized within its length, so it compares
with the fixed-length families), and ``score(seqs)``, those log evidences and
each sequence's prediction rows, whose row i is the distribution of the symbol
at position i + 1 given all the others. Either may yield lazily, so a value
that cannot be computed raises when its sequence's turn comes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EvalReport:
    perplexity: float
    error_rate: float
    rmrr: float
    n_symbols: int


def _sequences(test: list[np.ndarray]) -> list[np.ndarray]:
    if len(test) == 0:
        raise ValueError("test data is empty")
    return test


def _perplexity(seqs: list[np.ndarray], log_evidences) -> float:
    """Summed in corpus order, and infinite from the first zero-evidence
    sequence on, whose successors are not read."""
    total = 0.0
    count = 0
    for seq, value in zip(seqs, log_evidences):
        count += len(seq)
        if value == -math.inf:
            return math.inf
        total += float(value)
    return math.exp(-total / count)


def perplexity(model, test) -> float:
    """exp of the mean negative log evidence per symbol; infinite whenever any
    sequence has zero evidence."""
    seqs = _sequences(test)
    return _perplexity(seqs, model.log_evidences(seqs))


def _rank_metrics(seqs: list[np.ndarray], prediction_rows) -> tuple[float, float]:
    """(error rate, rmrr) from each sequence's prediction rows.

    A position is wrong when its maximum-probability symbol differs from the
    observed one; the observed symbol's rank counts the symbols more probable
    than it plus the equally probable ones with lower ids, so ties break
    toward the lowest id in both metrics.
    """
    wrong = 0
    recip_total = 0.0
    count = 0
    for seq, probs in zip(seqs, prediction_rows):
        truth = np.asarray(seq, dtype=np.int64)
        p_true = probs[np.arange(len(truth)), truth][:, None]
        wrong += int((probs.argmax(axis=1) != truth).sum())
        lower_id = np.arange(probs.shape[1]) < truth[:, None]
        ranks = 1 + (probs > p_true).sum(axis=1) + ((probs == p_true) & lower_id).sum(axis=1)
        for rank in ranks.tolist():  # summed in position order, left to right
            recip_total += 1.0 / rank
        count += len(truth)
    return wrong / count, count / recip_total


def error_rate(model, test) -> float:
    """Fraction of positions whose maximum-probability prediction differs from
    the observed symbol; argmax ties break toward the lowest symbol id."""
    seqs = _sequences(test)
    return _rank_metrics(seqs, model.score(seqs)[1])[0]


def rmrr(model, test) -> float:
    """Harmonic mean of the rank of the observed symbol under each prediction;
    rank ties resolve in favor of the lowest symbol id."""
    seqs = _sequences(test)
    return _rank_metrics(seqs, model.score(seqs)[1])[1]


def evaluate_model(model, test) -> EvalReport:
    """Every metric on one test set from one ``score`` pass: the perplexity
    first, then the ranks."""
    seqs = _sequences(test)
    log_evidences, prediction_rows = model.score(seqs)
    ppl = _perplexity(seqs, log_evidences)
    err, mrr = _rank_metrics(seqs, prediction_rows)
    return EvalReport(perplexity=ppl, error_rate=err, rmrr=mrr, n_symbols=sum(len(s) for s in seqs))


def param_count(model_kind: str, size: int, vocab_size: int) -> int:
    """Free parameters after normalization for each model family."""
    if size < 1:
        raise ValueError("size must be >= 1")
    n = vocab_size
    if model_kind == "markov":
        return sum(n**j for j in range(size + 1)) * (n - 1)
    if model_kind == "hmm":
        return (1 + size) * (size - 1) + size * (n - 1)
    if model_kind == "pcfg":
        return (1 + size) * (size**2 - 1) + size * n
    raise ValueError(f"unknown model kind {model_kind!r}")
