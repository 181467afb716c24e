"""Model-agnostic evaluation of predictive power.

Works with any model exposing ``log_evidence(seq)`` and
``predict_distributions(seq)``, whose row i is the distribution of the symbol
at position i + 1 given all the others; grammar models additionally expose
``normalized_log_evidences(seqs)``, which the perplexity uses so that their
evidence is normalized within fixed-length sequence sets like the other model
families. A model that scores a whole test set at once, as an HMM does in one
pass per length group, exposes ``log_evidences(seqs)`` and
``batch_predict_distributions(seqs)``, which are used in their place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import EncodedDataset


@dataclass(frozen=True)
class EvalReport:
    perplexity: float
    error_rate: float
    rmrr: float
    n_symbols: int


def _sequences(test) -> list[np.ndarray]:
    seqs = test.sequences if isinstance(test, EncodedDataset) else list(test)
    if len(seqs) == 0:
        raise ValueError("test data is empty")
    return seqs


def _log_evidences(model, seqs: list[np.ndarray]):
    """Each sequence's log evidence in turn, normalized within its length for
    grammars."""
    if hasattr(model, "normalized_log_evidences"):
        return model.normalized_log_evidences(seqs)
    if hasattr(model, "log_evidences"):
        return model.log_evidences(seqs).tolist()
    return map(model.log_evidence, seqs)


def perplexity(model, test) -> float:
    """exp of the mean negative log evidence per symbol; infinite whenever any
    sequence has zero evidence."""
    seqs = _sequences(test)
    total = 0.0
    count = 0
    for seq, value in zip(seqs, _log_evidences(model, seqs)):
        count += len(seq)
        if value == -math.inf:
            return math.inf
        total += value
    return math.exp(-total / count)


def _prediction_rows(model, seqs: list[np.ndarray]):
    """Each sequence's ``predict_distributions`` rows in turn, for the whole
    set at once where the model can."""
    if hasattr(model, "batch_predict_distributions"):
        return model.batch_predict_distributions(seqs)
    return map(model.predict_distributions, seqs)


def _rank_metrics(model, seqs: list[np.ndarray]) -> tuple[float, float]:
    """(error rate, rmrr) from each sequence's prediction rows.

    A position is wrong when its maximum-probability symbol differs from the
    observed one; the observed symbol's rank counts the symbols more probable
    than it plus the equally probable ones with lower ids, so ties break
    toward the lowest id in both metrics.
    """
    wrong = 0
    recip_total = 0.0
    count = 0
    for seq, probs in zip(seqs, _prediction_rows(model, seqs)):
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
    return _rank_metrics(model, _sequences(test))[0]


def rmrr(model, test) -> float:
    """Harmonic mean of the rank of the observed symbol under each prediction;
    rank ties resolve in favor of the lowest symbol id."""
    return _rank_metrics(model, _sequences(test))[1]


def evaluate_model(model, test) -> EvalReport:
    """Every metric on one test set, predicting each sequence's positions in
    one pass."""
    seqs = _sequences(test)
    ppl = perplexity(model, seqs)
    err, mrr = _rank_metrics(model, seqs)
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
