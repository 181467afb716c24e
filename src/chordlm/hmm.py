"""First-order hidden Markov models over encoded symbol sequences.

Provides scaled forward-backward inference, EM training, Bayesian training by
Gibbs sampling (blocked forward-filter backward-sample state draws alternated
with Dirichlet posterior parameter draws), symbol-wise prediction, generation,
embedding of first-order Markov models, and information-theoretic summaries of
the latent structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import training
from .markov import MarkovModel, _check_rows, _draw, _normalize_predictions, _position_distribution
from .training import EmConfig, GibbsConfig, GibbsTrace, dirichlet_rows  # the configs are re-exported


@dataclass
class HmmParams:
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

    def log_evidences(self, seqs: list[np.ndarray]) -> np.ndarray:
        return log_evidences(self, seqs)

    def score(self, seqs: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
        return score(self, seqs)

    def predict_distribution(self, seq: np.ndarray, position: int) -> np.ndarray:
        return predict_distribution(self, seq, position)


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
    (_, batch, lengths), = _chunks([np.asarray(seq)], params.n_states)
    alpha, scaling = _forward_batch(params, batch, lengths)
    if (scaling <= 0.0).any():
        return alpha[0], np.zeros_like(alpha[0]), scaling[0], -np.inf
    beta = _backward_batch(params, batch, lengths, scaling)
    return alpha[0], beta[0], scaling[0], float(np.log(scaling[0]).sum())


# (corpus indices, (B, n) padded batch, lengths) of lines run together
Chunk = tuple[np.ndarray, np.ndarray, np.ndarray]

# Upper bound on the floats of a chunk's filter: rows times its longest line
# times the number of states. A longer line runs alone. An E-step keeps about
# four tables of that size at once, so a sweep's peak memory stays near what
# one batch per length needed.
MAX_CHUNK_FLOATS = 1 << 16


def _chunks(sequences: list[np.ndarray], n_states: int) -> list[Chunk]:
    """Pad the sequences into (corpus indices, (B, n) batch, lengths) chunks.

    The lines are sorted longest first by a stable sort, so equal lengths keep
    corpus order, and each chunk's first line sets its width n. At step t a
    pass works on the prefix of rows whose line is longer than t; the padded
    cells hold id 0 and no pass reads them as a symbol.
    """
    lengths = np.array([len(seq) for seq in sequences], dtype=np.int64)
    if (lengths == 0).any():
        raise ValueError("sequence must be non-empty")
    order = np.argsort(-lengths, kind="stable")
    chunks = []
    lo = 0
    while lo < len(order):
        n = int(lengths[order[lo]])
        idx = order[lo:lo + max(1, MAX_CHUNK_FLOATS // (n * n_states))]
        batch = np.zeros((len(idx), n), dtype=np.int64)
        for row, i in enumerate(idx.tolist()):
            batch[row, :lengths[i]] = sequences[i]
        chunks.append((idx, batch, lengths[idx]))
        lo += len(idx)
    return chunks


def _live_rows(lengths: np.ndarray, n: int) -> list[int]:
    """Entry t is the number of leading rows of a chunk whose line is longer
    than t."""
    return _valid(lengths, n).sum(axis=0).tolist()


def _valid(lengths: np.ndarray, n: int) -> np.ndarray:
    """(B, n) mask of the positions a chunk's lines hold."""
    return np.arange(n) < lengths[:, None]


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


def log_evidences(params: HmmParams, seqs: list[np.ndarray]) -> np.ndarray:
    """Each sequence's log evidence in corpus order, -inf where it is zero;
    one forward pass per chunk."""
    return _chunk_evidences(params, _chunks(seqs, params.n_states))


def log_evidence_total(params: HmmParams, sequences: list[np.ndarray]) -> float:
    """Sum of sequence log evidences over a dataset, in corpus order."""
    return training.sum_in_order(log_evidences(params, sequences))


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
    chunks = _chunks(sequences, params.n_states)
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
        states[:m, t] = _categorical_rows(rng, w)
    return states


def _categorical_rows(rng: np.random.Generator, weights: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(weights, axis=1)
    u = rng.random(weights.shape[0]) * cdf[:, -1]
    return (u[:, None] >= cdf).sum(axis=1)


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
    chunks = _chunks(sequences, params.n_states)
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


def score(params: HmmParams, seqs: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each sequence's log evidence and its rows of ``predict_distribution``, in
    corpus order, from one forward and one backward pass per chunk."""
    log_ev = np.empty(len(seqs))
    rows: list = [None] * len(seqs)
    for idx, batch, lengths in _chunks(seqs, params.n_states):
        log_ev[idx], weights = _score_batch(params, batch, lengths)
        line_rows = np.split(_normalize_predictions(weights), np.cumsum(lengths)[:-1])
        for i, chunk_rows in zip(idx.tolist(), line_rows):
            rows[i] = chunk_rows
    return log_ev, rows


def predict_distribution(params: HmmParams, seq: np.ndarray, position: int) -> np.ndarray:
    """Distribution of the symbol at 1-based ``position`` given the others."""
    return _position_distribution(seq, position, lambda s, i: _score_batch(params, s[None], np.array([len(s)]))[1][i])


def from_markov(model: MarkovModel) -> HmmParams:
    """Embed a first-order Markov model: states are the symbols themselves and
    each state deterministically emits its own symbol."""
    if model.order != 1:
        raise ValueError("only first-order Markov models embed into an HMM")
    n = model.vocab_size
    return HmmParams(
        initial=model.initial_tables[0].copy(),
        transition=model.transitions.copy(),
        emission=np.eye(n),
    )


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


@dataclass(frozen=True)
class InfoMeasures:
    """Exponentiated-entropy summaries of an HMM's latent structure."""

    stationary_perplexity: float   # effective number of used states
    emission_perplexity: float     # average symbols per state
    state_variety: float           # average states per symbol
    transition_perplexity: float   # average reachable states per state

    def as_dict(self) -> dict[str, float]:
        return {
            "stationary_perplexity": self.stationary_perplexity,
            "emission_perplexity": self.emission_perplexity,
            "state_variety": self.state_variety,
            "transition_perplexity": self.transition_perplexity,
        }


def _entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats with the 0 * log 0 = 0 convention."""
    p = np.asarray(p)
    mask = p > 0.0
    return float(-(p[mask] * np.log(p[mask])).sum())


def info_measures(params: HmmParams) -> InfoMeasures:
    stat = stationary_distribution(params)

    p_state = float(np.exp(_entropy(stat)))

    emit_entropies = np.array([_entropy(row) for row in params.emission])
    p_emit = float(np.exp(stat @ emit_entropies))

    symbol_marginal = stat @ params.emission
    joint = stat[:, None] * params.emission
    variety_exponent = 0.0
    for x in range(params.vocab_size):
        px = symbol_marginal[x]
        if px > 0.0:
            variety_exponent += px * _entropy(joint[:, x] / px)
    variety = float(np.exp(variety_exponent))

    trans_entropies = np.array([_entropy(row) for row in params.transition])
    p_trans = float(np.exp(stat @ trans_entropies))

    return InfoMeasures(p_state, p_emit, variety, p_trans)


def sample_sequence(params: HmmParams, length: int, seed: int) -> np.ndarray:
    """Ancestral sampling of a symbol sequence of the given length."""
    if length < 1:
        raise ValueError("length must be >= 1")
    rng = np.random.default_rng(seed)
    out = np.empty(length, dtype=np.int64)
    state = _draw(rng, params.initial)
    out[0] = _draw(rng, params.emission[state])
    for t in range(1, length):
        state = _draw(rng, params.transition[state])
        out[t] = _draw(rng, params.emission[state])
    return out
