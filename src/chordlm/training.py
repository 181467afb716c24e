"""Training loops shared by the latent-category families, HMMs and PCFGs.

``em`` is maximum-likelihood EM (Dempster, Laird & Rubin 1977); ``best_of_gibbs``
runs a Gibbs chain, keeps its maximum-evidence sample and polishes it with EM
(Johnson, Griffiths & Goldwater 2007). A family supplies the pieces as
callables over its own parameters: an E-step returning counts and then per-line
log evidences, an M-step taking the counts as arguments, the evidences alone,
and one Gibbs sweep that also returns the evidences of the parameters it
started from. Evidences come in corpus order, and only this module checks and
sums them. ``hmm.em_fit``, ``hmm.gibbs_fit``, ``pcfg.em_fit`` and
``pcfg.gibbs_fit`` bind them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import EncodedDataset


@dataclass
class EmConfig:
    max_iter: int = 500
    rel_tol: float = 1e-5


@dataclass
class GibbsConfig:
    n_samples: int = 500
    polish_iters: int = 50
    seed: int = 0
    rel_tol: float = 1e-5


@dataclass
class GibbsTrace:
    sample_log_evidence: list[float] = field(default_factory=list)
    polish_trace: list[float] = field(default_factory=list)


def sequences_of(train: EncodedDataset | list[np.ndarray]) -> list[np.ndarray]:
    return train.sequences if isinstance(train, EncodedDataset) else train


def sum_in_order(log_evidences) -> float:
    """Left-to-right sum of per-line log evidences in corpus order; -inf if any is."""
    total = 0.0
    for value in np.asarray(log_evidences, dtype=float).tolist():
        total += value
    return total


def _training_total(log_evidences) -> float:
    """``sum_in_order``, where the first zero evidence is an error."""
    dead = np.flatnonzero(np.asarray(log_evidences) == -np.inf)
    if dead.size:
        raise ValueError(f"training sequence {dead[0]} has zero evidence")
    return sum_in_order(log_evidences)


def em(params, e_step, m_step, log_evidences, config: EmConfig) -> tuple[object, list[float], np.ndarray]:
    """Iterate E-step and M-step; returns the final parameters, the
    per-iteration log-likelihood trace, which ends at them, and their evidences.

    Stops once the log likelihood moves by at most ``rel_tol`` relative to the
    previous iteration, returning the parameters that E-step scored; at the
    iteration cap it scores the last M-step's parameters once more.
    """
    trace: list[float] = []
    prev_ll = None
    for _ in range(config.max_iter):
        *counts, log_ev = e_step(params)
        ll = _training_total(log_ev)
        trace.append(ll)
        if prev_ll is not None and abs(ll - prev_ll) <= config.rel_tol * abs(prev_ll):
            return params, trace, log_ev
        prev_ll = ll
        params = m_step(*counts)
    log_ev = log_evidences(params)
    trace.append(_training_total(log_ev))
    return params, trace, log_ev


def best_of_gibbs(params, gibbs_step, log_evidences, polish, config: GibbsConfig) -> tuple[object, GibbsTrace, object]:
    """Draw ``n_samples`` parameter samples with ``gibbs_step(params, rng)``,
    keep the first one of maximum evidence and return ``polish`` of it, the
    family's EM capped at ``polish_iters`` iterations, with the chain's trace.

    ``gibbs_step`` returns the next sample and the evidences of the
    parameters it was given, which it takes from the pass its draw needs
    anyway; so each sample is scored by the step that follows it, and only
    the last one by ``log_evidences``.
    """
    if config.n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(config.seed)
    trace = GibbsTrace()
    best, best_ll = None, -np.inf
    current, log_ev = gibbs_step(params, rng)
    _training_total(log_ev)  # the starting parameters must explain every line too
    for i in range(config.n_samples):
        if i + 1 < config.n_samples:
            following, log_ev = gibbs_step(current, rng)
        else:
            following, log_ev = None, log_evidences(current)
        ll = _training_total(log_ev)
        trace.sample_log_evidence.append(ll)
        if ll > best_ll:
            best, best_ll = current, ll
        current = following
    polished, trace.polish_trace, log_ev = polish(best)
    return polished, trace, log_ev
