"""Training loops shared by the latent-category families, HMMs and PCFGs.

``em`` is maximum-likelihood EM (Dempster, Laird & Rubin 1977); ``best_of_gibbs``
runs a Gibbs chain, keeps its maximum-evidence sample and polishes it with EM
(Johnson, Griffiths & Goldwater 2007). A family supplies the pieces as
callables over its own parameters: an E-step returning ``(counts, total log
likelihood)``, an M-step taking the counts as arguments, its total log
evidence, and one Gibbs sweep that also returns the total log evidence of the
parameters it started from. ``hmm.em_fit``, ``hmm.gibbs_fit``,
``pcfg.em_fit`` and ``pcfg.gibbs_fit`` bind them.
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


def em(params, e_step, m_step, log_evidence_total, config: EmConfig) -> tuple[object, list[float]]:
    """Iterate E-step and M-step; returns the final parameters and the
    per-iteration log-likelihood trace, which ends at the returned parameters.

    Stops once the log likelihood moves by at most ``rel_tol`` relative to the
    previous iteration, returning the parameters that E-step scored; at the
    iteration cap it scores the last M-step's parameters once more.
    """
    trace: list[float] = []
    prev_ll = None
    for _ in range(config.max_iter):
        counts, ll = e_step(params)
        trace.append(ll)
        if prev_ll is not None and abs(ll - prev_ll) <= config.rel_tol * abs(prev_ll):
            return params, trace
        prev_ll = ll
        params = m_step(*counts)
    trace.append(log_evidence_total(params))
    return params, trace


def best_of_gibbs(params, gibbs_step, log_evidence_total, polish, config: GibbsConfig) -> tuple[object, GibbsTrace]:
    """Draw ``n_samples`` parameter samples with ``gibbs_step(params, rng)``,
    keep the first one of maximum evidence and return ``polish`` of it, the
    family's EM capped at ``polish_iters`` iterations.

    ``gibbs_step`` returns the next sample and the total log evidence of the
    parameters it was given, which it takes from the pass its draw needs
    anyway; so each sample is scored by the step that follows it, and only
    the last one by ``log_evidence_total``.
    """
    if config.n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(config.seed)
    trace = GibbsTrace()
    best, best_ll = None, -np.inf
    current, _ = gibbs_step(params, rng)
    for i in range(config.n_samples):
        if i + 1 < config.n_samples:
            following, ll = gibbs_step(current, rng)
        else:
            following, ll = None, log_evidence_total(current)
        trace.sample_log_evidence.append(ll)
        if ll > best_ll:
            best, best_ll = current, ll
        current = following
    polished, trace.polish_trace = polish(best)
    return polished, trace
