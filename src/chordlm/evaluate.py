"""Model-agnostic evaluation of predictive power.

Every model family exposes two batch methods over a list of sequences:
``log_evidences(seqs)``, the (N,) array of each sequence's log evidence in
corpus order (-inf where it is zero; a grammar's is normalized within its
length, so it compares with the fixed-length families), and ``score(seqs)``,
that array and the (sum of lengths, V) array of prediction rows, line after
line in corpus order, whose row i of a line is the distribution of the symbol
at its position i + 1 given all the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import training


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


def _perplexity(seqs: list[np.ndarray], log_evidences: np.ndarray) -> float:
    """Summed in corpus order, and infinite if any sequence has zero evidence."""
    if np.isneginf(log_evidences).any():
        return math.inf
    return math.exp(-training.sum_in_order(log_evidences) / sum(len(seq) for seq in seqs))


def perplexity(model, test) -> float:
    """exp of the mean negative log evidence per symbol; infinite whenever any
    sequence has zero evidence."""
    seqs = _sequences(test)
    return _perplexity(seqs, model.log_evidences(seqs))


def _rank_metrics(seqs: list[np.ndarray], probs: np.ndarray) -> tuple[float, float]:
    """(error rate, rmrr) from the prediction rows of every position, line
    after line in corpus order.

    A position is wrong when its maximum-probability symbol differs from the
    observed one; the observed symbol's rank counts the symbols more probable
    than it plus the equally probable ones with lower ids, so ties break
    toward the lowest id in both metrics. Reciprocal ranks are summed in
    position order, left to right.
    """
    truth = np.concatenate(seqs).astype(np.int64)
    p_true = probs[np.arange(len(truth)), truth][:, None]
    wrong = int((probs.argmax(axis=1) != truth).sum())
    lower_id = np.arange(probs.shape[1]) < truth[:, None]
    ranks = 1 + (probs > p_true).sum(axis=1) + ((probs == p_true) & lower_id).sum(axis=1)
    return wrong / len(truth), len(truth) / training.sum_in_order(1.0 / ranks)


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

