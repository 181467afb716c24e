"""First-order hidden Markov models over encoded symbol sequences.

Provides scaled forward-backward inference, EM training, Bayesian training by
Gibbs sampling (blocked forward-filter backward-sample state draws alternated
with Dirichlet posterior parameter draws), symbol-wise prediction, generation,
and information-theoretic summaries of the latent structure. Every pass runs
over the padded chunks of length-sorted lines that ``markov`` defines.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import training
from .markov import Chunk, _check_rows, _chunks, _corpus_scores, _entries_above, _live_rows, _pick, _valid
from .markov import _normalize_predictions, _position_distribution, _sampled_lines, _top_symbols
from .training import EmConfig, GibbsConfig, GibbsTrace, dirichlet_rows  # the configs are re-exported


@dataclass
class HmmParams:
    # the family's facts, as on ``markov.MarkovModel``
    KIND = "hmm"
    SIZE_KEY = "n_states"
    SIZE_GRID = list(range(1, 11)) + [15, 20, 25, 30, 40, 50, 60, 70, 80, 90, 100]
    ALGOS = ("em", "gs")
    HEADER = ()

    initial: np.ndarray     # (n_states,)
    transition: np.ndarray  # (n_states, n_states), row stochastic
    emission: np.ndarray    # (n_states, vocab_size), row stochastic

    @property
    def n_states(self) -> int:
        return len(self.initial)

    @property
    def vocab_size(self) -> int:
        return self.emission.shape[1]

    def validate(self, tol: float = 1e-9) -> None:
        _check_rows(self.initial, tol, "initial distribution")
        _check_rows(self.transition, tol, "transition matrix")
        _check_rows(self.emission, tol, "emission matrix")

    @staticmethod
    def param_count(size: int, vocab_size: int) -> int:
        return (1 + size) * (size - 1) + size * (vocab_size - 1)

    @staticmethod
    def layout(vocab_size: int, size: int) -> list[tuple[str, tuple[int, int]]]:
        return [("initial", (1, size)), ("transition", (size, size)), ("emission", (size, vocab_size))]

    def tables(self) -> list[np.ndarray]:
        return [self.initial, self.transition, self.emission]

    @classmethod
    def from_tables(cls, vocab_size: int, size: int, tables: list[np.ndarray]) -> HmmParams:
        return cls(tables[0].reshape(size), *tables[1:])

    def log_evidences(self, seqs: list[np.ndarray]) -> np.ndarray:
        """Each sequence's log evidence in corpus order, -inf where it is zero;
        one forward pass per chunk."""
        return _chunk_evidences(self, _chunks(seqs, self.n_states, self.vocab_size))

    def score(self, seqs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Each sequence's log evidence and its rows of ``predict_distribution``,
        line after line in corpus order, from one forward and one backward pass
        per chunk."""
        chunks = _chunks(seqs, self.n_states, self.vocab_size)
        log_ev, weights = _corpus_scores(seqs, chunks, lambda *chunk: _score_batch(self, *chunk), self.vocab_size)
        return log_ev, _normalize_predictions(weights)

    def predict_distribution(self, seq: np.ndarray, position: int) -> np.ndarray:
        return predict_distribution(self, seq, position)

    def sample_sequence(self, length: int, seeds: list[int]) -> np.ndarray:
        return sample_sequence(self, length, seeds)

    @staticmethod
    def fit(train: list[np.ndarray], vocab_size: int, size: int, algo: str, cfg, seed_of) -> tuple:
        """The model of one grid cell, its log record and its training ``log_evidences``:
        ``init_random`` at ``seed_of("init")``, trained by ``algo`` through ``training.fit``."""
        init = init_random(size, vocab_size, seed_of("init"))
        return training.fit(sys.modules[__name__], init, train, algo, cfg, seed_of, {})

    def describe(self, vocab, threshold: float) -> dict:
        """``analyze``'s report: the information measures, each state's stationary
        probability and top symbols, and the transitions above ``threshold``."""
        stationary = stationary_distribution(self)
        states = [{"state": z, "stationary_probability": float(stationary[z]),
                   "top_symbols": _top_symbols(self.emission[z], vocab)} for z in range(self.n_states)]
        return {"kind": self.KIND, "n_states": self.n_states, "info_measures": info_measures(self, stationary),
                "states": states,
                "transitions_above_threshold": _entries_above(self.transition, threshold, ("from", "to")),
                "threshold": threshold}

    generate = _sampled_lines


def init_random(n_states: int, vocab_size: int, seed: int) -> HmmParams:
    """Rows drawn from a flat Dirichlet, deterministically per seed."""
    if n_states < 1 or vocab_size < 1:
        raise ValueError("n_states and vocab_size must be >= 1")
    rng = np.random.default_rng(seed)
    k, v = n_states, vocab_size
    return _from_counts(lambda c: dirichlet_rows(rng, 1.0 + c), np.zeros(k), np.zeros((k, k)), np.zeros((k, v)))


def _from_counts(rows, init: np.ndarray, trans: np.ndarray, emit: np.ndarray) -> HmmParams:
    """Parameters whose initial, transition and emission rows are ``rows`` of
    the (K,), (K, K) and (K, V) counts, drawn in that order."""
    return HmmParams(rows(init[None])[0], rows(trans), rows(emit))


def forward_backward(params: HmmParams, seq: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(alpha, beta, scaling, log evidence) of one sequence: a chunk of one.

    ``alpha[n]`` is the filtered state distribution P(z_n | x_{1:n}),
    ``beta[n]`` the scaled backward variable and ``scaling[n]`` the per-step
    normalizer P(x_n | x_{1:n-1}). Zero evidence gives a log evidence of
    -inf; alpha and the scaling are then zero from the first impossible step
    on, and beta is all zero.
    """
    (_, batch, lengths), = _chunks([np.asarray(seq)], params.n_states, params.vocab_size)
    alpha, scaling = _forward_batch(params, batch, lengths)
    if (scaling <= 0.0).any():
        return alpha[0], np.zeros_like(alpha[0]), scaling[0], -np.inf
    beta = _backward_batch(params, batch, lengths, scaling)
    return alpha[0], beta[0], scaling[0], float(np.log(scaling[0]).sum())


def _forward_batch(params: HmmParams, batch: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Filtered state distributions and scaling factors of a chunk.

    A sequence's filter stops at its first zero scaling: alpha stays zero
    from there on, and so do the later scalings. Past a line's end alpha is
    zero and the scaling 1, so a row's log scalings sum to its log evidence.
    """
    b, n = batch.shape
    emission_t = params.emission.T
    alpha = np.zeros((b, n, params.n_states))
    scaling = np.ones((b, n))
    probe = params.initial[None, :] * emission_t[batch[:, 0]]
    for t, m in enumerate(_live_rows(lengths, n)):
        if t > 0:
            probe = (alpha[:m, t - 1] @ params.transition) * emission_t[batch[:m, t]]
        c = probe.sum(axis=1)
        scaling[:m, t] = c
        ok = c > 0.0
        if ok.all():
            alpha[:m, t] = probe / c[:, None]
        else:
            alpha[:m, t][ok] = probe[ok] / c[ok, None]
    return alpha, scaling


def _backward_batch(params: HmmParams, batch: np.ndarray, lengths: np.ndarray, scaling: np.ndarray) -> np.ndarray:
    b, n = batch.shape
    emission_t = params.emission.T
    live = _live_rows(lengths, n)
    beta = np.zeros((b, n, params.n_states))
    beta[np.arange(b), lengths - 1] = 1.0
    for t in range(n - 2, -1, -1):
        m = live[t + 1]
        msg = emission_t[batch[:m, t + 1]] * beta[:m, t + 1]
        beta[:m, t] = (msg @ params.transition.T) / scaling[:m, t + 1][:, None]
    return beta


def _summed_log_scalings(scaling: np.ndarray) -> np.ndarray:
    """Each line's log evidence from its (B, n) scalings, -inf where one is 0."""
    live = (scaling > 0.0).all(axis=1)
    log_scaling = np.log(np.where(live[:, None], scaling, 1.0))
    return np.where(live, log_scaling.sum(axis=1), -np.inf)


def _chunk_evidences(params: HmmParams, chunks: list[Chunk]) -> np.ndarray:
    out = np.empty(sum(len(idx) for idx, _, _ in chunks))
    for idx, batch, lengths in chunks:
        out[idx] = _summed_log_scalings(_forward_batch(params, batch, lengths)[1])
    return out


def log_evidence_total(params: HmmParams, sequences: list[np.ndarray]) -> float:
    """Sum of sequence log evidences over a dataset, in corpus order."""
    return training.sum_in_order(params.log_evidences(sequences))


def _transition_counts(
    params: HmmParams, batch: np.ndarray, valid: np.ndarray, alpha: np.ndarray, beta: np.ndarray, scaling: np.ndarray
) -> np.ndarray:
    """Posterior transition counts of a chunk: xi summed over every step
    (t, t + 1) that a line holds, as one product over those steps."""
    nxt = valid[:, 1:]
    weighted = beta[:, 1:][nxt]
    weighted *= params.emission.T[batch[:, 1:][nxt]]
    weighted /= scaling[:, 1:][nxt][:, None]
    return params.transition * (alpha[:, :-1][nxt].T @ weighted)


def _e_step(params: HmmParams, chunks: list[Chunk]):
    """Expected initial, transition and emission counts, and each sequence's
    log evidence; after a zero one, which training rejects, only evidences."""
    k, v = params.n_states, params.vocab_size
    init_acc = np.zeros(k)
    trans_acc = np.zeros((k, k))
    emit_acc = np.zeros(k * v)
    log_ev = np.full(sum(len(idx) for idx, _, _ in chunks), np.nan)
    for idx, batch, lengths in chunks:
        alpha, scaling = _forward_batch(params, batch, lengths)
        log_ev[idx] = _summed_log_scalings(scaling)
        if (log_ev == -np.inf).any():
            continue
        beta = _backward_batch(params, batch, lengths, scaling)
        valid = _valid(lengths, batch.shape[1])
        trans_acc += _transition_counts(params, batch, valid, alpha, beta, scaling)
        gamma = np.multiply(alpha, beta, out=alpha)
        init_acc += gamma[:, 0].sum(axis=0)
        cells = np.arange(k) * v + batch[valid][:, None]
        emit_acc += np.bincount(cells.reshape(-1), weights=gamma[valid].reshape(-1), minlength=k * v)
    return init_acc, trans_acc, emit_acc.reshape(k, v), log_ev


def em_fit(
    params: HmmParams,
    sequences: list[np.ndarray],
    config: EmConfig = EmConfig(),
) -> tuple[HmmParams, list[float], np.ndarray]:
    """Maximum-likelihood training; returns the final parameters, the
    per-iteration log-likelihood trace and the training ``log_evidences``, both
    of the returned model."""
    if len(sequences) == 0:
        raise ValueError("training data is empty")
    chunks = _chunks(sequences, params.n_states, params.vocab_size)
    return training.em(
        params, lambda p: _e_step(p, chunks), _from_counts, lambda p: _chunk_evidences(p, chunks), config
    )


def _sample_states(
    transition: np.ndarray, alpha: np.ndarray, lengths: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Blocked draw of latent state paths, backward from a chunk's forward
    filter. Step t draws one uniform per row whose line is longer than t, in
    chunk order; a row whose line ends at t draws from its filter alone."""
    b, n, _ = alpha.shape
    states = np.zeros((b, n), dtype=np.int64)
    live = _live_rows(lengths, n) + [0]
    for t in range(n - 1, -1, -1):
        m, going_on = live[t], live[t + 1]
        w = alpha[:m, t].copy()
        if going_on:
            w[:going_on] *= transition[:, states[:going_on, t + 1]].T
        cdf = np.cumsum(w, axis=1)
        states[:m, t] = _pick(cdf, rng.random(m) * cdf[:, -1])
    return states


def _gibbs_step(
    params: HmmParams,
    chunks: list[Chunk],
    dirichlet_alpha: float,
    rng: np.random.Generator,
) -> tuple[HmmParams, np.ndarray]:
    """One sweep: draw state paths given parameters, then parameters given
    paths. Also returns each sequence's log evidence under the given ones,
    from the filter the draw runs on; after a zero one, only evidences."""
    k, v = params.n_states, params.vocab_size
    init_counts = np.zeros(k)
    trans_counts = np.zeros(k * k)
    emit_counts = np.zeros(k * v)
    log_ev = np.full(sum(len(idx) for idx, _, _ in chunks), np.nan)
    for idx, batch, lengths in chunks:
        alpha, scaling = _forward_batch(params, batch, lengths)
        log_ev[idx] = _summed_log_scalings(scaling)
        if (log_ev == -np.inf).any():
            continue
        states = _sample_states(params.transition, alpha, lengths, rng)
        init_counts += np.bincount(states[:, 0], minlength=k)
        valid = _valid(lengths, batch.shape[1])
        nxt = valid[:, 1:]
        trans_counts += np.bincount(states[:, :-1][nxt] * k + states[:, 1:][nxt], minlength=k * k)
        emit_counts += np.bincount(states[valid] * v + batch[valid], minlength=k * v)
    counts = init_counts, trans_counts.reshape(k, k), emit_counts.reshape(k, v)
    return _from_counts(lambda c: dirichlet_rows(rng, dirichlet_alpha + c), *counts), log_ev


def gibbs_fit(
    params: HmmParams,
    sequences: list[np.ndarray],
    config: GibbsConfig = GibbsConfig(),
) -> tuple[HmmParams, GibbsTrace, np.ndarray]:
    """Bayesian training: keep the maximum-evidence parameter sample from the
    Gibbs chain, then locally optimize it with a bounded EM polish."""
    if len(sequences) == 0:
        raise ValueError("training data is empty")
    chunks = _chunks(sequences, params.n_states, params.vocab_size)
    return training.best_of_gibbs(
        params,
        lambda p, rng: _gibbs_step(p, chunks, config.dirichlet_alpha, rng),
        lambda p: _chunk_evidences(p, chunks),
        lambda best: em_fit(best, sequences, EmConfig(max_iter=config.polish_iters, rel_tol=config.rel_tol)),
        config,
    )


def _score_batch(params: HmmParams, batch: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log evidences (B,) of a chunk and the unnormalized weights of every
    candidate symbol at every position its lines hold, one (V,) row per
    position, line by line in chunk order.

    The evidences come from the forward pass's scalings. Row i combines the
    filtered prefix message P(z_i | x_{1:i-1}) with a backward message
    normalized per step, neither of which depends on the observed symbol at
    i; one forward and one backward pass give every row. A prefix of zero
    evidence leaves its rows zero.
    """
    n = batch.shape[1]
    alpha, scaling = _forward_batch(params, batch, lengths)
    state_in = np.empty_like(alpha)
    state_in[:, 0] = params.initial
    state_in[:, 1:] = alpha[:, :-1] @ params.transition
    emission_t = params.emission.T
    live = _live_rows(lengths, n)
    # suffix messages, self-normalized so they never divide by prefix scalings
    beta = np.ones_like(alpha)
    for i in range(n - 2, -1, -1):
        m = live[i + 1]
        msg = (emission_t[batch[:m, i + 1]] * beta[:m, i + 1]) @ params.transition.T
        total = msg.sum(axis=1)
        beta[:m, i] = msg / np.where(total > 0.0, total, 1.0)[:, None]
    return _summed_log_scalings(scaling), (state_in * beta)[_valid(lengths, n)] @ params.emission


def predict_distribution(params: HmmParams, seq: np.ndarray, position: int) -> np.ndarray:
    """Distribution of the symbol at 1-based ``position`` given the others."""
    return _position_distribution(seq, position, lambda s, i: _score_batch(params, s[None], np.array([len(s)]))[1][i])


def stationary_distribution(
    params: HmmParams, tol: float = 1e-12, max_iter: int = 10**6
) -> np.ndarray:
    """Fixed point of the transition matrix by power iteration from the
    uniform distribution."""
    k = params.n_states
    p = np.full(k, 1.0 / k)
    for _ in range(max_iter):
        nxt = p @ params.transition
        residual = float(np.abs(nxt - p).max())
        if residual < tol:
            return nxt
        p = nxt
    raise RuntimeError(
        f"stationary distribution did not converge within {max_iter} iterations "
        f"(residual {residual:.3g}); the transition matrix may be periodic"
    )


def _entropies(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats along the last axis of ``p``, with 0 log 0 = 0."""
    return -(p * np.log(p, out=np.zeros_like(p), where=p > 0.0)).sum(axis=-1)


def info_measures(params: HmmParams, stationary: np.ndarray) -> dict[str, float]:
    """``analyze``'s exponentiated entropies, read off the joint table p(z, x) =
    pi_z e_{z,x} of the ``stationary`` state distribution pi: exp H(pi),
    exp sum_z pi_z H(e_z), exp(H(Z, X) - H(X)) and exp sum_z pi_z H(T_z)."""
    joint = stationary[:, None] * params.emission
    exponents = {
        "stationary_perplexity": _entropies(stationary),  # the effective number of used states
        "emission_perplexity": stationary @ _entropies(params.emission),  # mean symbols per state
        "state_variety": _entropies(joint).sum() - _entropies(stationary @ params.emission),  # mean states per symbol
        "transition_perplexity": stationary @ _entropies(params.transition),  # mean reachable states per state
    }
    return {name: float(np.exp(h)) for name, h in exponents.items()}


def sample_sequence(params: HmmParams, length: int, seeds: list[int]) -> np.ndarray:
    """Ancestral sampling of one symbol sequence of the given length per seed,
    as a (len(seeds), length) array. Row i takes its uniforms from
    ``default_rng(seeds[i])``, a state's then a symbol's at each step, and is
    what seed i draws alone."""
    if length < 1:
        raise ValueError("length must be >= 1")
    u = np.array([np.random.default_rng(seed).random(2 * length) for seed in seeds]).reshape(-1, length, 2)
    transition, emission = np.cumsum(params.transition, axis=1), np.cumsum(params.emission, axis=1)
    out = np.empty(u.shape[:2], dtype=np.int64)
    state = _pick(np.cumsum(params.initial), u[:, 0, 0])
    for t in range(length):
        if t:
            state = _pick(transition[state], u[:, t, 0])
        out[:, t] = _pick(emission[state], u[:, t, 1])
    return out
