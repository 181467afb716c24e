"""Training loops shared by the latent-category families, HMMs and PCFGs.

``em`` is maximum-likelihood EM (Dempster, Laird & Rubin 1977); ``best_of_gibbs``
runs a Gibbs chain, keeps its maximum-evidence sample and polishes it with EM
(Johnson, Griffiths & Goldwater 2007). A family supplies the pieces as
callables over its own parameters: an E-step returning counts and then per-line
log evidences, ``from_counts(rows, *counts)``, which builds its parameters by
applying ``rows`` to each block of counts, the evidences alone, and one Gibbs
sweep that also returns the evidences of the parameters it started from. The
two row operations live here: EM's M-step is ``from_counts(normalize_rows,
*counts)``, and a Gibbs sweep draws ``dirichlet_rows`` from its counts plus the
symmetric concentration ``GibbsConfig.dirichlet_alpha``. Evidences come in
corpus order, and only this module checks and sums them. ``hmm.em_fit``,
``hmm.gibbs_fit``, ``pcfg.em_fit`` and ``pcfg.gibbs_fit`` bind them, and
``fit`` trains a grid cell of either family through them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# the longest line a grammar trains on unless its config raises the cap
DEFAULT_MAX_TRAIN_LENGTH = 64


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
    dirichlet_alpha: float = 0.1  # the symmetric prior of every Dirichlet row


@dataclass
class GibbsTrace:
    sample_log_evidence: list[float] = field(default_factory=list)
    polish_trace: list[float] = field(default_factory=list)


def sum_in_order(values) -> float:
    """Left-to-right sum of ``values``, such as per-line log evidences in corpus order; -inf if any is."""
    total = 0.0
    for value in np.asarray(values, dtype=float).tolist():
        total += value
    return total


def normalize_rows(acc: np.ndarray) -> np.ndarray:
    """Row normalization with uniform reset of zero-count rows."""
    totals = acc.sum(axis=-1, keepdims=True)
    return np.where(totals > 0.0, acc / np.where(totals > 0.0, totals, 1.0), 1.0 / acc.shape[-1])


def dirichlet_rows(rng: np.random.Generator, concentration: np.ndarray) -> np.ndarray:
    """One Dirichlet draw per row of ``concentration``, by normalized gammas."""
    draws = rng.standard_gamma(concentration)
    totals = draws.sum(axis=-1, keepdims=True)
    # a zero total cannot occur for concentrations >= ~1e-2 in practice, but
    # guard against it to keep rows proper
    bad = (totals == 0.0).reshape(-1)
    if bad.any():
        flat = draws.reshape(-1, draws.shape[-1])
        flat[bad] = 1.0
        totals = draws.sum(axis=-1, keepdims=True)
    return draws / totals


def _training_total(log_evidences) -> float:
    """``sum_in_order``, where the first zero evidence is an error."""
    dead = np.flatnonzero(np.asarray(log_evidences) == -np.inf)
    if dead.size:
        raise ValueError(f"training sequence {dead[0]} has zero evidence")
    return sum_in_order(log_evidences)


def em(params, e_step, from_counts, log_evidences, config: EmConfig) -> tuple[object, list[float], np.ndarray]:
    """Iterate the E-step and the M-step ``from_counts(normalize_rows,
    *counts)``; returns the final parameters, the per-iteration
    log-likelihood trace, which ends at them, and their evidences.

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
        params = from_counts(normalize_rows, *counts)
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
    if not config.dirichlet_alpha > 0:
        raise ValueError("Dirichlet concentration must be positive")
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


def configure(family, algo: str, cfg, seed_of, **options) -> EmConfig | GibbsConfig:
    """The config of ``algo``, "em" or else "gs", for ``family``, the module of
    its ``EmConfig`` and ``GibbsConfig``, from the experiment config ``cfg``.
    An unset ``em_max_iter`` or ``gs_samples`` is the family config's class
    default as it reads now; the Gibbs seed is ``seed_of("gibbs")``."""
    if algo == "em":
        max_iter = family.EmConfig.max_iter if cfg.em_max_iter is None else cfg.em_max_iter
        return family.EmConfig(max_iter=max_iter, rel_tol=cfg.rel_tol, **options)
    n_samples = family.GibbsConfig.n_samples if cfg.gs_samples is None else cfg.gs_samples
    return family.GibbsConfig(n_samples=n_samples, polish_iters=cfg.polish_iters, seed=seed_of("gibbs"),
                              rel_tol=cfg.rel_tol, dirichlet_alpha=cfg.dirichlet_alpha, **options)


def fit(family, init, train: list[np.ndarray], algo: str, cfg, seed_of, log: dict, **options) -> tuple:
    """Train ``init`` by ``family.em_fit`` or ``gibbs_fit`` under ``configure``'s
    config; returns the model, ``log`` with its training record, and its
    training ``log_evidences``."""
    config = configure(family, algo, cfg, seed_of, **options)
    if algo == "em":
        fitted, trace, log_evidences = family.em_fit(init, train, config)
        log.update(algorithm="em", log_likelihood=trace)
    else:
        fitted, trace, log_evidences = family.gibbs_fit(init, train, config)
        log.update(algorithm="gs", sample_log_evidence=trace.sample_log_evidence,
                   polish_log_likelihood=trace.polish_trace)
    return fitted, log, log_evidences
