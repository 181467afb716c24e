"""Chord sequence language models: Markov chains, HMMs, and PCFGs with
maximum-likelihood (EM) and Bayesian (Gibbs sampling) learning."""

__version__ = "0.1.0"

from . import config, corpus, evaluate, hmm, markov, model_io, pcfg, training  # noqa: F401
