"""Chord sequence language models: Markov chains, HMMs, and PCFGs with
maximum-likelihood (EM) and Bayesian (Gibbs sampling) learning."""

import os

# One BLAS thread, set before numpy loads: another thread count sums a matrix
# product in another order, and so trains other model bits.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_name] = "1"

__version__ = "0.1.0"
