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
from .corpus import EncodedDataset
from .markov import MarkovModel, _check_rows, _draw, _normalize_predictions, _position_distribution
from .training import EmConfig, GibbsConfig, GibbsTrace, sequences_of  # the configs are re-exported


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

    def predict_distributions(self, seq: np.ndarray) -> np.ndarray:
        """Row i is ``predict_distribution(seq, i + 1)``; shape (len(seq), V)."""
        return score(self, [np.asarray(seq)])[1][0]


@dataclass
class HmmPrior:
    """Dirichlet concentrations for the initial, transition, and emission rows."""

    initial: np.ndarray     # (n_states,)
    transition: np.ndarray  # (n_states, n_states)
    emission: np.ndarray    # (n_states, vocab_size)

    @classmethod
    def symmetric(cls, n_states: int, vocab_size: int, alpha: float = 0.1) -> "HmmPrior":
        if alpha <= 0:
            raise ValueError("Dirichlet concentration must be positive")
        return cls(
            initial=np.full(n_states, alpha),
            transition=np.full((n_states, n_states), alpha),
            emission=np.full((n_states, vocab_size), alpha),
        )


def init_random(n_states: int, vocab_size: int, seed: int) -> HmmParams:
    """Rows drawn from a flat Dirichlet, deterministically per seed."""
    if n_states < 1 or vocab_size < 1:
        raise ValueError("n_states and vocab_size must be >= 1")
    rng = np.random.default_rng(seed)
    return HmmParams(
        initial=_dirichlet_rows(rng, np.ones((1, n_states)))[0],
        transition=_dirichlet_rows(rng, np.ones((n_states, n_states))),
        emission=_dirichlet_rows(rng, np.ones((n_states, vocab_size))),
    )


def _dirichlet_rows(rng: np.random.Generator, concentration: np.ndarray) -> np.ndarray:
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


def forward_backward(params: HmmParams, seq: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(alpha, beta, scaling, log evidence) of one sequence: a batch of one.

    ``alpha[n]`` is the filtered state distribution P(z_n | x_{1:n}),
    ``beta[n]`` the scaled backward variable and ``scaling[n]`` the per-step
    normalizer P(x_n | x_{1:n-1}). Zero evidence gives a log evidence of
    -inf; alpha and the scaling are then zero from the first impossible step
    on, and beta is all zero.
    """
    seq = np.asarray(seq)[None]
    alpha, scaling = _forward_batch(params, seq)
    if (scaling <= 0.0).any():
        return alpha[0], np.zeros_like(alpha[0]), scaling[0], -np.inf
    return alpha[0], _backward_batch(params, seq, scaling)[0], scaling[0], float(np.log(scaling[0]).sum())


def _group_by_length(sequences: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pack equal-length sequences into 2-d arrays for batched passes.

    Returns (indices, batch) pairs in ascending length order so every
    consumer walks the data in the same deterministic order.
    """
    by_len: dict[int, list[int]] = {}
    for i, seq in enumerate(sequences):
        by_len.setdefault(len(seq), []).append(i)
    groups = []
    for length in sorted(by_len):
        idx = np.asarray(by_len[length], dtype=np.int64)
        batch = np.stack([sequences[i] for i in idx])
        groups.append((idx, batch))
    return groups


def _forward_batch(params: HmmParams, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Filtered state distributions and scaling factors for an equal-length batch.

    A sequence's filter stops at its first zero scaling: alpha stays zero
    from there on, and so do the later scalings.
    """
    b, n = batch.shape
    if n == 0:
        raise ValueError("sequence must be non-empty")
    emission_t = params.emission.T
    alpha = np.zeros((b, n, params.n_states))
    scaling = np.zeros((b, n))
    probe = params.initial[None, :] * emission_t[batch[:, 0]]
    for t in range(n):
        if t > 0:
            probe = (alpha[:, t - 1] @ params.transition) * emission_t[batch[:, t]]
        c = probe.sum(axis=1)
        scaling[:, t] = c
        ok = c > 0.0
        if ok.all():
            alpha[:, t] = probe / c[:, None]
        else:
            alpha[ok, t] = probe[ok] / c[ok, None]
    return alpha, scaling


def _backward_batch(params: HmmParams, batch: np.ndarray, scaling: np.ndarray) -> np.ndarray:
    b, n = batch.shape
    emission_t = params.emission.T
    beta = np.zeros((b, n, params.n_states))
    beta[:, n - 1] = 1.0
    for t in range(n - 2, -1, -1):
        msg = emission_t[batch[:, t + 1]] * beta[:, t + 1]
        beta[:, t] = (msg @ params.transition.T) / scaling[:, t + 1][:, None]
    return beta


def _summed_log_scalings(scaling: np.ndarray) -> np.ndarray:
    """Each line's log evidence from its (B, n) scalings, -inf where one is 0."""
    live = (scaling > 0.0).all(axis=1)
    log_scaling = np.log(np.where(live[:, None], scaling, 1.0))
    return np.where(live, log_scaling.sum(axis=1), -np.inf)


def log_evidences(params: HmmParams, seqs: list[np.ndarray]) -> np.ndarray:
    """Each sequence's log evidence in corpus order, -inf where it is zero;
    one forward pass per length group."""
    out = np.empty(len(seqs))
    for idx, batch in _group_by_length(seqs):
        out[idx] = _summed_log_scalings(_forward_batch(params, batch)[1])
    return out


def log_evidence_total(params: HmmParams, train: EncodedDataset | list[np.ndarray]) -> float:
    """Sum of sequence log evidences over a dataset, in corpus order."""
    return training.sum_in_order(log_evidences(params, sequences_of(train)))


def _e_step(params: HmmParams, groups: list[tuple[np.ndarray, np.ndarray]]):
    """Expected initial, transition and emission counts, and each sequence's
    log evidence; after a zero one, which training rejects, only evidences."""
    k, v = params.n_states, params.vocab_size
    init_acc = np.zeros(k)
    trans_acc = np.zeros((k, k))
    emit_acc = np.zeros((k, v))
    emission_t = params.emission.T
    log_ev = np.full(sum(len(idx) for idx, _ in groups), np.nan)
    for idx, batch in groups:
        alpha, scaling = _forward_batch(params, batch)
        log_ev[idx] = _summed_log_scalings(scaling)
        if (log_ev == -np.inf).any():
            continue
        beta = _backward_batch(params, batch, scaling)
        gamma = alpha * beta
        init_acc += gamma[:, 0].sum(axis=0)
        n = batch.shape[1]
        for t in range(n - 1):
            weighted = emission_t[batch[:, t + 1]] * beta[:, t + 1]
            weighted = weighted / scaling[:, t + 1][:, None]
            trans_acc += params.transition * (alpha[:, t].T @ weighted)
        flat_gamma = gamma.reshape(-1, k)
        flat_obs = batch.reshape(-1)
        emit_acc_t = np.zeros((v, k))
        np.add.at(emit_acc_t, flat_obs, flat_gamma)
        emit_acc += emit_acc_t.T
    return init_acc, trans_acc, emit_acc, log_ev


def _m_step(init_acc: np.ndarray, trans_acc: np.ndarray, emit_acc: np.ndarray) -> HmmParams:
    return HmmParams(
        initial=_normalize_rows(init_acc[None, :])[0],
        transition=_normalize_rows(trans_acc),
        emission=_normalize_rows(emit_acc),
    )


def em_fit(
    params: HmmParams,
    train: EncodedDataset | list[np.ndarray],
    config: EmConfig = EmConfig(),
) -> tuple[HmmParams, list[float], np.ndarray]:
    """Maximum-likelihood training; returns the final parameters, the
    per-iteration log-likelihood trace and the training ``log_evidences``, both
    of the returned model."""
    sequences = sequences_of(train)
    if len(sequences) == 0:
        raise ValueError("training data is empty")
    groups = _group_by_length(sequences)
    return training.em(params, lambda p: _e_step(p, groups), _m_step, lambda p: log_evidences(p, sequences), config)


def _normalize_rows(acc: np.ndarray) -> np.ndarray:
    """Row normalization with uniform reset of zero-count rows."""
    totals = acc.sum(axis=-1, keepdims=True)
    out = np.where(totals > 0.0, acc / np.where(totals > 0.0, totals, 1.0), 1.0 / acc.shape[-1])
    return out


def _sample_states(transition: np.ndarray, alpha: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Blocked draw of latent state paths, backward from a batch's forward filter."""
    b, n, _ = alpha.shape
    states = np.empty((b, n), dtype=np.int64)
    states[:, n - 1] = _categorical_rows(rng, alpha[:, n - 1])
    for t in range(n - 2, -1, -1):
        w = alpha[:, t] * transition[:, states[:, t + 1]].T
        states[:, t] = _categorical_rows(rng, w)
    return states


def _categorical_rows(rng: np.random.Generator, weights: np.ndarray) -> np.ndarray:
    cdf = np.cumsum(weights, axis=1)
    u = rng.random(weights.shape[0]) * cdf[:, -1]
    return (u[:, None] >= cdf).sum(axis=1)


def _gibbs_step(
    params: HmmParams,
    groups: list[tuple[np.ndarray, np.ndarray]],
    prior: HmmPrior,
    rng: np.random.Generator,
) -> tuple[HmmParams, np.ndarray]:
    """One sweep: draw state paths given parameters, then parameters given
    paths. Also returns each sequence's log evidence under the given ones,
    from the filter the draw runs on; after a zero one, only evidences."""
    k, v = params.n_states, params.vocab_size
    init_counts = np.zeros(k)
    trans_counts = np.zeros((k, k))
    emit_counts = np.zeros((k, v))
    log_ev = np.full(sum(len(idx) for idx, _ in groups), np.nan)
    for idx, batch in groups:
        alpha, scaling = _forward_batch(params, batch)
        log_ev[idx] = _summed_log_scalings(scaling)
        if (log_ev == -np.inf).any():
            continue
        states = _sample_states(params.transition, alpha, rng)
        init_counts += np.bincount(states[:, 0], minlength=k)
        if batch.shape[1] > 1:
            pairs = states[:, :-1].reshape(-1) * k + states[:, 1:].reshape(-1)
            trans_counts += np.bincount(pairs, minlength=k * k).reshape(k, k)
        cells = states.reshape(-1) * v + batch.reshape(-1)
        emit_counts += np.bincount(cells, minlength=k * v).reshape(k, v)
    sample = HmmParams(
        initial=_dirichlet_rows(rng, (prior.initial + init_counts)[None, :])[0],
        transition=_dirichlet_rows(rng, prior.transition + trans_counts),
        emission=_dirichlet_rows(rng, prior.emission + emit_counts),
    )
    return sample, log_ev


def gibbs_fit(
    params: HmmParams,
    train: EncodedDataset | list[np.ndarray],
    prior: HmmPrior,
    config: GibbsConfig = GibbsConfig(),
) -> tuple[HmmParams, GibbsTrace, np.ndarray]:
    """Bayesian training: keep the maximum-evidence parameter sample from the
    Gibbs chain, then locally optimize it with a bounded EM polish."""
    sequences = sequences_of(train)
    if len(sequences) == 0:
        raise ValueError("training data is empty")
    groups = _group_by_length(sequences)
    return training.best_of_gibbs(
        params,
        lambda p, rng: _gibbs_step(p, groups, prior, rng),
        lambda p: log_evidences(p, sequences),
        lambda best: em_fit(best, sequences, EmConfig(max_iter=config.polish_iters, rel_tol=config.rel_tol)),
        config,
    )


def _score_batch(params: HmmParams, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log evidences (B,) of an equal-length batch and the unnormalized
    weights (B, n, V) of every candidate symbol at every position.

    The evidences come from the forward pass's scalings. Row i combines the
    filtered prefix message P(z_i | x_{1:i-1}) with a backward message
    normalized per step, neither of which depends on the observed symbol at
    i; one forward and one backward pass give every row. A prefix of zero
    evidence leaves its rows zero.
    """
    b, n = batch.shape
    alpha, scaling = _forward_batch(params, batch)
    state_in = np.empty_like(alpha)
    state_in[:, 0] = params.initial
    state_in[:, 1:] = alpha[:, :-1] @ params.transition
    emission_t = params.emission.T
    # suffix messages, self-normalized so they never divide by prefix scalings
    beta = np.ones_like(alpha)
    for i in range(n - 2, -1, -1):
        msg = (emission_t[batch[:, i + 1]] * beta[:, i + 1]) @ params.transition.T
        total = msg.sum(axis=1)
        beta[:, i] = msg / np.where(total > 0.0, total, 1.0)[:, None]
    return _summed_log_scalings(scaling), (state_in * beta) @ params.emission


def score(params: HmmParams, seqs: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each sequence's log evidence and its ``predict_distributions`` rows, in
    corpus order, from one forward and one backward pass per length group."""
    log_ev = np.empty(len(seqs))
    rows: list = [None] * len(seqs)
    for idx, batch in _group_by_length(seqs):
        log_ev[idx], weights = _score_batch(params, batch)
        for i, group_rows in zip(idx.tolist(), _normalize_predictions(weights)):
            rows[i] = group_rows
    return log_ev, rows


def predict_distribution(params: HmmParams, seq: np.ndarray, position: int) -> np.ndarray:
    """Distribution of the symbol at 1-based ``position`` given the others."""
    return _position_distribution(seq, position, lambda s, i: _score_batch(params, s[None])[1][0, i])


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
