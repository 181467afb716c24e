"""Independent brute-force reference computations used as test oracles.

Everything here is deliberately naive (enumeration, direct arithmetic,
linear solves) and shares no code with the library implementations.
"""

from __future__ import annotations

import itertools

import numpy as np

from chordlm import pcfg
from chordlm.corpus import Vocabulary
from chordlm.hmm import HmmParams, stationary_distribution
from chordlm.pcfg import START, PcfgParams, length_log_probabilities
from chordlm.training import dirichlet_rows


def make_dataset(rows: list[str], symbols: list[str]) -> list[np.ndarray]:
    """Encode whitespace-separated symbol rows against an explicit vocabulary."""
    vocab = Vocabulary(symbols=list(symbols))
    seqs = []
    for row in rows:
        toks = row.split()
        seqs.append(np.asarray([vocab.index[t] for t in toks], dtype=np.int64))
    return seqs


def raw_log_evidence(model, seq: np.ndarray) -> float:
    """One sequence's log evidence under any family; a grammar's is its inside
    value, not normalized within its length."""
    if isinstance(model, PcfgParams):
        return pcfg.inside(model, seq).log_evidence[0]
    if isinstance(model, HmmParams):
        return model.log_evidences([seq])[0]
    return markov_log_evidence_reference(model, seq)


def evidence_ratio_prediction(model, seq: np.ndarray, position: int) -> np.ndarray:
    """P(x_n = y | rest) by substituting every candidate symbol and
    normalizing full-sequence evidences."""
    seq = np.asarray(seq)
    logs = np.empty(model.vocab_size)
    for y in range(model.vocab_size):
        variant = seq.copy()
        variant[position - 1] = y
        logs[y] = raw_log_evidence(model, variant)
    finite = np.isfinite(logs)
    if not finite.any():
        raise ValueError("all substitutions have zero evidence")
    shift = logs[finite].max()
    probs = np.where(finite, np.exp(logs - shift), 0.0)
    return probs / probs.sum()


def markov_factor(model, seq, pos: int, free: int | None = None) -> np.ndarray:
    """The table entry of the factor that predicts 0-based ``pos`` of ``seq``
    from its context, or its (V,) row with the candidate at window position
    ``free`` left open."""
    lo = max(0, pos - model.order)
    table = model.initial_tables[pos] if pos < model.order else model.transitions
    return table[tuple(slice(None) if j == free else int(seq[j]) for j in range(lo, pos + 1))]


def markov_log_evidence_reference(model, seq) -> float:
    """A Markov model's log evidence of one sequence: the logs of its factors
    added left to right from 0.0, -inf at the first zero factor."""
    total = 0.0
    for pos in range(len(seq)):
        p = markov_factor(model, seq, pos)
        if p <= 0.0:
            return -np.inf
        total += float(np.log(p))
    return total


def markov_position_weights_reference(model, seq, i: int) -> np.ndarray:
    """Unnormalized candidate weights at 0-based ``i``: the product, in
    increasing position, of the factors whose window holds i, from ones."""
    probs = np.ones(model.vocab_size)
    for pos in range(i, min(i + model.order, len(seq) - 1) + 1):
        probs = probs * markov_factor(model, seq, pos, free=i)
    return probs


def ngram_counts_reference(sequences, width: int, n: int) -> np.ndarray:
    """Counts of every ``width``-gram of each sequence, one window at a time."""
    counts = np.zeros((n,) * width)
    for seq in sequences:
        for start in range(len(seq) - width + 1):
            counts[tuple(int(s) for s in seq[start:start + width])] += 1.0
    return counts


def from_markov(model) -> HmmParams:
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


def strict_embed_hmm(params: HmmParams, end_prob: np.ndarray) -> PcfgParams:
    """Exact grammar with 2k nonterminals reproducing a length-terminated HMM.

    ``end_prob[z]`` is the per-state stop probability; the HMM transition rows
    are rescaled by (1 - end_prob[z]) so continue and stop moves are mutually
    exclusive. Nonterminal z keeps the chain running while its twin k+z only
    emits. This is the one construction with a nonzero start emission row.
    """
    end_prob = np.asarray(end_prob, dtype=float)
    k = params.n_states
    v = params.vocab_size
    if end_prob.shape != (k,):
        raise ValueError("end_prob must have one entry per state")
    if (end_prob < 0).any() or (end_prob > 1).any():
        raise ValueError("end probabilities must lie in [0, 1]")
    sub_transition = params.transition * (1.0 - end_prob)[:, None]
    row_sums = sub_transition.sum(axis=1) + end_prob
    if np.abs(row_sums - 1.0).max() > 1e-9:
        raise ValueError("continue and stop probabilities do not sum to 1 per state")

    d = 2 * k
    start = np.zeros((d, d))
    start[k:, :k] = params.initial[:, None] * sub_transition
    start_emissions = (params.initial * end_prob) @ params.emission
    rules = np.zeros((d, d, d))
    for z in range(k):
        rules[z, k + z, :k] = sub_transition[z]
    emissions = np.zeros((d, v))
    emissions[:k] = end_prob[:, None] * params.emission
    emissions[k:] = params.emission
    return PcfgParams(start, start_emissions, rules, emissions)


def hmm_evidence_by_enumeration(initial, transition, emission, seq) -> float:
    """Total probability of ``seq`` by summing over every state path."""
    n_states = len(initial)
    total = 0.0
    for path in itertools.product(range(n_states), repeat=len(seq)):
        p = initial[path[0]] * emission[path[0], seq[0]]
        for t in range(1, len(seq)):
            p *= transition[path[t - 1], path[t]] * emission[path[t], seq[t]]
        total += p
    return total


def hmm_forward_backward_reference(params, seq):
    """(alpha, beta, scaling, log evidence) of the scaled forward-backward
    pass, one step at a time. A zero-evidence sequence stops at its first
    impossible step, leaving alpha, beta and the scaling zero from there on
    and beta zero throughout."""
    seq = np.asarray(seq)
    n = len(seq)
    k = params.n_states
    alpha = np.zeros((n, k))
    beta = np.zeros((n, k))
    scaling = np.zeros(n)

    probe = params.initial * params.emission[:, seq[0]]
    for t in range(n):
        if t > 0:
            probe = (alpha[t - 1] @ params.transition) * params.emission[:, seq[t]]
        c = probe.sum()
        scaling[t] = c
        if c == 0.0:
            return alpha, beta, scaling, -np.inf
        alpha[t] = probe / c

    beta[n - 1] = 1.0
    for t in range(n - 2, -1, -1):
        beta[t] = (params.transition @ (params.emission[:, seq[t + 1]] * beta[t + 1])) / scaling[t + 1]
    return alpha, beta, scaling, float(np.log(scaling).sum())


def hmm_gamma(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Posterior state marginals of one sequence, one row per position, from
    its scaled forward and backward variables."""
    return alpha * beta


def hmm_xi(params, seq, alpha: np.ndarray, beta: np.ndarray, scaling: np.ndarray) -> np.ndarray:
    """Posterior transition marginals of one sequence for positions 1..N-1."""
    seq = np.asarray(seq)
    n = len(seq)
    out = np.empty((n - 1, params.n_states, params.n_states))
    for t in range(n - 1):
        weighted = params.emission[:, seq[t + 1]] * beta[t + 1] / scaling[t + 1]
        out[t] = alpha[t][:, None] * params.transition * weighted[None, :]
    return out


def hmm_expected_counts_reference(params, seqs):
    """(initial, transition, emission) posterior expected counts summed over
    the sequences, and each sequence's log evidence, one sequence at a time
    from ``hmm_forward_backward_reference``; a zero-evidence sequence adds no
    counts."""
    k, v = params.n_states, params.vocab_size
    initial, transition, emission = np.zeros(k), np.zeros((k, k)), np.zeros((k, v))
    log_ev = np.empty(len(seqs))
    for i, seq in enumerate(seqs):
        alpha, beta, scaling, log_ev[i] = hmm_forward_backward_reference(params, seq)
        if log_ev[i] == -np.inf:
            continue
        gamma = hmm_gamma(alpha, beta)
        initial += gamma[0]
        transition += hmm_xi(params, seq, alpha, beta, scaling).sum(axis=0)
        for t, x in enumerate(np.asarray(seq).tolist()):
            emission[:, x] += gamma[t]
    return initial, transition, emission, log_ev


def hmm_state_draw_reference(transition: np.ndarray, filters: list[np.ndarray], rng) -> list[np.ndarray]:
    """Backward state draws of lines given in a chunk's order, longest first,
    from their (n_i, K) forward filters, one uniform at a time: at step t each
    line longer than t draws in turn, from its filter alone at its last
    position and from the filter times the transitions into the state drawn
    at t + 1 before it."""
    states = [np.empty(len(f), dtype=np.int64) for f in filters]
    for t in range(max(len(f) for f in filters) - 1, -1, -1):
        for f, path in zip(filters, states):
            if len(f) <= t:
                continue
            w = f[t] if t == len(f) - 1 else f[t] * transition[:, path[t + 1]]
            cdf = np.cumsum(w)
            path[t] = int((rng.random() * cdf[-1] >= cdf).sum())
    return states


def hmm_prediction_weights_reference(params, seq) -> np.ndarray:
    """Unnormalized candidate weights at every position of one sequence, one
    position at a time: the filtered prefix message times a suffix message
    normalized per step."""
    seq = np.asarray(seq)
    n = len(seq)
    alpha, _, _, _ = hmm_forward_backward_reference(params, seq)
    weights = np.empty((n, params.vocab_size))
    beta = np.ones(params.n_states)
    for i in range(n - 1, -1, -1):
        if i < n - 1:
            beta = params.transition @ (params.emission[:, seq[i + 1]] * beta)
            total = beta.sum()
            if total > 0.0:
                beta = beta / total
        state_in = alpha[i - 1] @ params.transition if i > 0 else params.initial
        weights[i] = (state_in * beta) @ params.emission
    return weights


def hmm_terminated_evidence(initial, transition, emission, end_prob, seq) -> float:
    """Probability that an HMM with per-state stop probabilities emits ``seq``
    and then stops. Transition rows are rescaled by (1 - stop probability)."""
    n_states = len(initial)
    sub_transition = transition * (1.0 - np.asarray(end_prob))[:, None]
    total = 0.0
    for path in itertools.product(range(n_states), repeat=len(seq)):
        p = initial[path[0]] * emission[path[0], seq[0]]
        for t in range(1, len(seq)):
            p *= sub_transition[path[t - 1], path[t]] * emission[path[t], seq[t]]
        p *= end_prob[path[-1]]
        total += p
    return total


def _bracketings(lo: int, hi: int):
    """All binary bracketings of the span [lo, hi] (inclusive)."""
    if lo == hi:
        yield lo
        return
    for k in range(lo, hi):
        for left in _bracketings(lo, k):
            for right in _bracketings(k + 1, hi):
                yield (left, right)


def _labelled_sum(shape, label, rules, emissions, seq) -> float:
    if isinstance(shape, int):
        return emissions[label, seq[shape]]
    left, right = shape
    total = 0.0
    n_nt = rules.shape[0]
    for zl in range(n_nt):
        sl = _labelled_sum(left, zl, rules, emissions, seq)
        if sl == 0.0:
            continue
        for zr in range(n_nt):
            sr = _labelled_sum(right, zr, rules, emissions, seq)
            total += rules[label, zl, zr] * sl * sr
    return total


def pcfg_evidence_by_enumeration(start_rules, start_emissions, rules, emissions, seq) -> float:
    """Total probability of ``seq`` by enumerating every derivation tree shape
    and summing over every nonterminal labelling."""
    seq = list(seq)
    if len(seq) == 1:
        return float(start_emissions[seq[0]])
    n_nt = rules.shape[0]
    total = 0.0
    for shape in _bracketings(0, len(seq) - 1):
        left, right = shape
        for zl in range(n_nt):
            sl = _labelled_sum(left, zl, rules, emissions, seq)
            if sl == 0.0:
                continue
            for zr in range(n_nt):
                sr = _labelled_sum(right, zr, rules, emissions, seq)
                total += start_rules[zl, zr] * sl * sr
    return total


def pcfg_outside_by_enumeration(start_rules, rules, emissions, seq, span_lo, span_hi, label) -> float:
    """P(start => x_{1:lo-1}, label, x_{hi+1:N}) by enumerating derivations of
    the sequence with the span collapsed to a single gap leaf."""
    seq = list(seq)
    reduced = seq[:span_lo] + [None] + seq[span_hi + 1:]
    gap_pos = span_lo
    if len(reduced) == 1:
        return 0.0  # no unary start rule exists

    def leaf_value(pos: int, z: int) -> float:
        if pos == gap_pos:
            return 1.0 if z == label else 0.0
        return emissions[z, reduced[pos]]

    def labelled(shape, z) -> float:
        if isinstance(shape, int):
            return leaf_value(shape, z)
        left, right = shape
        n_nt = rules.shape[0]
        total = 0.0
        for zl in range(n_nt):
            sl = labelled(left, zl)
            if sl == 0.0:
                continue
            for zr in range(n_nt):
                sr = labelled(right, zr)
                total += rules[z, zl, zr] * sl * sr
        return total

    n_nt = rules.shape[0]
    total = 0.0
    for shape in _bracketings(0, len(reduced) - 1):
        left, right = shape
        for zl in range(n_nt):
            sl = labelled(left, zl)
            if sl == 0.0:
                continue
            for zr in range(n_nt):
                sr = labelled(right, zr)
                total += start_rules[zl, zr] * sl * sr
    return total


def length_probability(params, length: int) -> float:
    """Probability that a grammar generates a sequence of exactly the given
    length, from a length table that ends at that length."""
    return float(np.exp(length_log_probabilities(params, length)[length]))


def stationary_by_linear_solve(transition: np.ndarray) -> np.ndarray:
    """Stationary distribution via a direct linear-system solve."""
    n = transition.shape[0]
    a = np.vstack([transition.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    return sol


def _entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats with the 0 * log 0 = 0 convention."""
    p = np.asarray(p, dtype=float)
    mask = p > 0.0
    return float(-(p[mask] * np.log(p[mask])).sum())


def entropy_perplexity(p: np.ndarray) -> float:
    return float(np.exp(_entropy(p)))


def hmm_info_measures_reference(params) -> dict[str, float]:
    """``hmm.info_measures`` of the stationary distribution, one row entropy at
    a time, and the state variety as the symbol-weighted entropy of
    p(z | x) over the symbols of positive probability, one symbol at a time."""
    stat = stationary_distribution(params)
    emit_entropies = np.array([_entropy(row) for row in params.emission])
    symbol_marginal = stat @ params.emission
    joint = stat[:, None] * params.emission
    variety_exponent = 0.0
    for x in range(params.vocab_size):
        px = symbol_marginal[x]
        if px > 0.0:
            variety_exponent += px * _entropy(joint[:, x] / px)
    trans_entropies = np.array([_entropy(row) for row in params.transition])
    return {
        "stationary_perplexity": float(np.exp(_entropy(stat))),
        "emission_perplexity": float(np.exp(stat @ emit_entropies)),
        "state_variety": float(np.exp(variety_exponent)),
        "transition_perplexity": float(np.exp(stat @ trans_entropies)),
    }


def count_calls(monkeypatch, module, name: str) -> list[int]:
    """Counts every call of ``module.name`` from now on, in a one-item list."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def all_sequences(n_symbols: int, length: int):
    """Every id sequence of the given length, as numpy arrays."""
    for combo in itertools.product(range(n_symbols), repeat=length):
        yield np.asarray(combo, dtype=np.int64)


def random_stochastic(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Rows drawn from a flat Dirichlet (normalized exponentials)."""
    raw = rng.gamma(1.0, size=shape)
    return raw / raw.sum(axis=-1, keepdims=True)


def _flat_dirichlet_rows(rng: np.random.Generator, n_rows: int, n_cols: int) -> np.ndarray:
    """Rows of standard gammas of shape 1, each divided by its sum."""
    draws = rng.standard_gamma(np.ones((n_rows, n_cols)))
    return draws / draws.sum(axis=1, keepdims=True)


def hmm_init_random_reference(n_states: int, vocab_size: int, seed: int) -> HmmParams:
    """Flat Dirichlet rows drawn in turn: the initial row, then the transition
    rows, then the emission rows."""
    rng = np.random.default_rng(seed)
    initial = _flat_dirichlet_rows(rng, 1, n_states)[0]
    transition = _flat_dirichlet_rows(rng, n_states, n_states)
    return HmmParams(initial, transition, _flat_dirichlet_rows(rng, n_states, vocab_size))


def pcfg_init_random_reference(d: int, vocab_size: int, seed: int) -> PcfgParams:
    """Flat Dirichlet rows drawn in turn: the start row over the D^2 binary
    rules, then one joint row per nonterminal over its binary rules and
    terminals; the start symbol never emits."""
    rng = np.random.default_rng(seed)
    start = _flat_dirichlet_rows(rng, 1, d * d)[0].reshape(d, d)
    joint = _flat_dirichlet_rows(rng, d, d * d + vocab_size)
    return PcfgParams(start, np.zeros(vocab_size), joint[:, : d * d].reshape(d, d, d), joint[:, d * d:])


def kn_reference_table(top_counts: np.ndarray, n_symbols: int, modified: bool) -> np.ndarray:
    """Dict-based reference for interpolated (modified) Kneser-Ney tables.

    Mirrors the published formulas directly with scalar loops; independent of
    the vectorized library implementation.
    """
    width = top_counts.ndim

    # adjusted counts per context length (list index = number of context symbols)
    counts_by_level: dict[int, dict[tuple, float]] = {}
    top: dict[tuple, float] = {}
    it = np.ndindex(top_counts.shape)
    for idx in it:
        c = top_counts[idx]
        if c > 0:
            top[idx] = float(c)
    counts_by_level[width - 1] = top
    for lvl in range(width - 2, -1, -1):
        higher = counts_by_level[lvl + 1]
        lower: dict[tuple, float] = {}
        seen = set()
        for gram in higher:
            suffix = gram[1:]
            key = (gram[0], suffix)
            if key not in seen:
                seen.add(key)
                lower[suffix] = lower.get(suffix, 0.0) + 1.0
        counts_by_level[lvl] = lower

    def discounts_for(level: int):
        vals = [int(v) for v in counts_by_level[level].values()]
        n1 = sum(1 for v in vals if v == 1)
        n2 = sum(1 for v in vals if v == 2)
        if n1 + 2 * n2 == 0:
            return None
        y = n1 / (n1 + 2 * n2)
        if not modified:
            return {1: y, 2: y, 3: y} if y > 0.0 else None
        n3 = sum(1 for v in vals if v == 3)
        n4 = sum(1 for v in vals if v == 4)
        d1 = 1 - 2 * y * n2 / n1 if n1 > 0 else 1.0
        d2 = 2 - 3 * y * n3 / n2 if n2 > 0 else 2.0
        d3 = 3 - 4 * y * n4 / n3 if n3 > 0 else 3.0
        clamp = lambda v, hi: min(max(v, 0.0), hi)
        d = {1: clamp(d1, 1), 2: clamp(d2, 2), 3: clamp(d3, 3)}
        # a zero discount on an observed count would reserve no mass
        return None if any(d[min(v, 3)] == 0.0 for v in vals) else d

    # top level must be estimable; degenerate lower levels inherit from above
    disc = {}
    top_level = width - 1
    disc[top_level] = discounts_for(top_level)
    if disc[top_level] is None:
        raise ValueError("degenerate top-level counts in reference")
    for lvl in range(top_level - 1, -1, -1):
        d = discounts_for(lvl)
        disc[lvl] = d if d is not None else disc[lvl + 1]

    def prob(level: int, ctx: tuple, w: int) -> float:
        if level == -1:
            return 1.0 / n_symbols
        grams = counts_by_level[level]
        total = sum(v for g, v in grams.items() if g[:-1] == ctx)
        lower_p = prob(level - 1, ctx[1:], w)
        if total == 0:
            return lower_p
        d = disc[level]
        c = grams.get(ctx + (w,), 0.0)
        dc = d[min(int(c), 3)] if c > 0 else 0.0
        reserved = sum(d[min(int(v), 3)] for g, v in grams.items() if g[:-1] == ctx)
        return (max(c - dc, 0.0) + reserved * lower_p) / total

    out = np.zeros((n_symbols,) * width)
    for idx in np.ndindex(out.shape):
        out[idx] = prob(width - 1, idx[:-1], idx[-1])
    return out


# ------------------------------------------------- per-sequence PCFG charts
#
# The sequence-at-a-time inside, outside, expected-count and tree-sampling
# code the library replaced with batched passes and cached cumulative rows.
# It is kept here, unchanged in its arithmetic, as the reference the batched
# path is compared against.


def square_chart(by_start: np.ndarray) -> np.ndarray:
    """One sequence's (n, n + 1, D) by-start chart as an (n, n, D) array
    indexed by (first, last) position."""
    n = len(by_start)
    i, j = np.triu_indices(n)
    out = np.zeros((n, n, by_start.shape[-1]))
    out[i, j] = by_start[i, j - i + 1]
    return out


def pcfg_inside_reference(params, seq):
    """(chart, per-width log scales, log evidence) of one sequence; the chart
    is indexed (first, last) and scaled by exp(scale[width])."""
    seq = np.asarray(seq)
    n = len(seq)
    d = params.rules.shape[0]
    chart = np.zeros((n, n, d))
    scale = np.full(n + 1, -np.inf)
    rules_flat = params.rules.reshape(d, d * d)

    band = params.emissions[:, seq].T
    m = band.max()
    if m > 0.0:
        idx = np.arange(n)
        chart[idx, idx] = band / m
        scale[1] = np.log(m)

    for w in range(2, n + 1):
        starts = np.arange(n - w + 1)
        ends = starts + w - 1
        pair_scales = [scale[w1] + scale[w - w1] for w1 in range(1, w)]
        m_comb = max(pair_scales)
        if m_comb == -np.inf:
            continue
        pair_acc = np.zeros((len(starts), d * d))
        for w1 in range(1, w):
            s = pair_scales[w1 - 1]
            if s == -np.inf:
                continue
            left = chart[starts, starts + w1 - 1]
            right = chart[starts + w1, ends]
            pair_acc += np.exp(s - m_comb) * (left[:, :, None] * right[:, None, :]).reshape(
                len(starts), d * d
            )
        acc = pair_acc @ rules_flat.T
        band_max = acc.max()
        if band_max > 0.0:
            chart[starts, ends] = acc / band_max
            scale[w] = m_comb + np.log(band_max)

    if n == 1:
        p = params.start_emissions[seq[0]]
        return chart, scale, float(np.log(p)) if p > 0.0 else -np.inf
    top, m_top = _top_pair_sum_reference(chart, scale, n)
    if top is None:
        return chart, scale, -np.inf
    total = float((params.start_rules * top).sum())
    return chart, scale, float(np.log(total) + m_top) if total > 0.0 else -np.inf


def _top_pair_sum_reference(chart, scale, n):
    d = chart.shape[2]
    pair_scales = [scale[w1] + scale[n - w1] for w1 in range(1, n)]
    m_top = max(pair_scales)
    if m_top == -np.inf:
        return None, -np.inf
    acc = np.zeros((d, d))
    for w1 in range(1, n):
        s = pair_scales[w1 - 1]
        if s == -np.inf:
            continue
        acc += np.exp(s - m_top) * np.outer(chart[0, w1 - 1], chart[w1, n - 1])
    return acc, m_top


def pcfg_outside_reference(params, seq, b, g):
    """(outside chart, per-width log scales) on an inside chart and its scales."""
    n = len(seq)
    d = params.rules.shape[0]
    a = np.zeros((n, n, d))
    h = np.full(n + 1, -np.inf)
    if n == 1:
        return a, h
    for w in range(n - 1, 0, -1):
        starts = np.arange(n - w + 1)
        ends = starts + w - 1
        combo_scales = []
        for ws in range(1, n - w + 1):
            wp = w + ws
            if wp < n and h[wp] > -np.inf and g[ws] > -np.inf:
                combo_scales.append(h[wp] + g[ws])
            if wp == n and g[ws] > -np.inf:
                combo_scales.append(g[ws])
        if not combo_scales:
            continue
        m = max(combo_scales)
        acc = np.zeros((len(starts), d))
        for ws in range(1, n - w + 1):
            wp = w + ws
            if g[ws] == -np.inf:
                continue
            if wp == n:
                f = np.exp(g[ws] - m)
                acc[0] += f * (params.start_rules @ b[w, n - 1])
                acc[-1] += f * (b[0, n - w - 1] @ params.start_rules)
            if wp < n and h[wp] > -np.inf:
                f = np.exp(h[wp] + g[ws] - m)
                sub = np.arange(n - wp + 1)
                parent = a[sub, sub + wp - 1]
                sib_r = b[sub + w, sub + wp - 1]
                acc[sub] += f * np.einsum("sz,sr,zlr->sl", parent, sib_r, params.rules)
                sib_l = b[sub, sub + ws - 1]
                acc[sub + ws] += f * np.einsum("sz,sl,zlr->sr", parent, sib_l, params.rules)
        band_max = acc.max()
        if band_max > 0.0:
            a[starts, ends] = acc / band_max
            h[w] = m + np.log(band_max)
    return a, h


def pcfg_expected_counts_reference(params, seq):
    """(start, rule, emission) posterior expected production counts and the
    log evidence of one sequence, or None when its evidence is zero."""
    seq = np.asarray(seq)
    b, g, log_ev = pcfg_inside_reference(params, seq)
    if log_ev == -np.inf:
        return None
    a, h = pcfg_outside_reference(params, seq, b, g)
    n = len(seq)
    d = params.rules.shape[0]
    v = params.emissions.shape[1]

    pair, m_top = _top_pair_sum_reference(b, g, n)
    start_counts = params.start_rules * pair * np.exp(m_top - log_ev)

    emit_counts = np.zeros((d, v))
    if h[1] > -np.inf:
        idx = np.arange(n)
        contrib = a[idx, idx] * params.emissions[:, seq].T * np.exp(h[1] - log_ev)
        acc = np.zeros((v, d))
        np.add.at(acc, seq, contrib)
        emit_counts = acc.T

    rule_counts = np.zeros((d, d, d))
    for w in range(2, n):
        if h[w] == -np.inf:
            continue
        starts = np.arange(n - w + 1)
        ends = starts + w - 1
        parent = a[starts, ends]
        for w1 in range(1, w):
            s = h[w] + g[w1] + g[w - w1] - log_ev
            if not np.isfinite(s):
                continue
            left = b[starts, starts + w1 - 1]
            right = b[starts + w1, ends]
            rule_counts += np.exp(s) * np.einsum("sz,sl,sr->zlr", parent, left, right)
    rule_counts *= params.rules
    return start_counts, rule_counts, emit_counts, log_ev


def counts_table(start, rules, emissions) -> np.ndarray:
    """(start, rule, emission) count blocks as one table laid out as
    ``PcfgParams.productions``."""
    d, v = emissions.shape
    table = np.zeros((d + 1, d * d + v))
    table[0, : d * d] = start.reshape(-1)
    table[1:, : d * d] = rules.reshape(d, d * d)
    table[1:, d * d:] = emissions
    return table


def count_blocks(table: np.ndarray):
    """The (D, D) start, (D, D, D) rule and (D, V) emission blocks of a
    production count table, without the start row's emission cells."""
    d = len(table) - 1
    return table[0, : d * d].reshape(d, d), table[1:, : d * d].reshape(d, d, d), table[1:, d * d:]


def derivation_counts(derivation, d: int, v: int) -> np.ndarray:
    """A derivation's production counts, node by node, as a table laid out
    as ``PcfgParams.productions``."""
    table = np.zeros((d + 1, d * d + v))
    for head, production in derivation:
        table[head + 1, production] += 1.0
    return table


def lockstep_derivations(params, batch, chart, rows, uniforms) -> dict[int, list[tuple[int, int]]]:
    """The preorder derivation of each of ``rows`` that ``pcfg._sample_trees``
    draws, rebuilt from its nodes: a node's place is its span start plus its
    uniform index, and each tree's places are 0..2n - 2 once each."""
    row, start, index, head, production = pcfg._sample_trees(params, batch, chart, rows, uniforms)
    place = start + index
    order = np.lexsort((place, row))
    derivations: dict[int, list[tuple[int, int]]] = {k: [] for k in rows.tolist()}
    for k, at, z, p in zip(*(a[order].tolist() for a in (row, place, head, production))):
        assert at == len(derivations[k])
        derivations[k].append((z, p))
    assert all(len(nodes) == 2 * batch.shape[1] - 1 for nodes in derivations.values())
    return derivations


def gibbs_tree_counts_reference(params, seq, chart, k: int, draws):
    """The (start, rule, emission) production counts of one posterior tree
    of sequence k of a chart batch, drawn top down on its inside chart with
    one uniform from ``draws`` per binary node, each count added as its node
    is drawn."""
    n = len(seq)
    d = params.n_nonterminals
    by_start, by_end, g = chart.by_start[k], chart.by_end[k], chart.scale[k]
    start_counts = np.zeros((d, d))
    rule_counts = np.zeros((d, d, d))
    emit_counts = np.zeros((d, params.vocab_size))

    stack = [(START, 0, n - 1)]
    while stack:
        head, i, j = stack.pop()
        if i == j and head != START:
            emit_counts[head, seq[i]] += 1.0
            continue
        table = params.start_rules if head == START else params.rules[head]
        w = j - i + 1
        split_scales = g[1:w] + g[w - 1:0:-1]  # left child width w1 = 1..w-1
        left = by_start[i, 1:w]
        right = by_end[j, w - 1:0:-1]
        weights = pcfg._exp_diff(split_scales, split_scales.max())[:, None, None] * table * (
            left[:, :, None] * right[:, None, :]
        )
        flat = weights.reshape(-1)
        total = flat.sum()
        if total <= 0.0:
            raise ValueError("cannot sample a tree for a zero-evidence span")
        choice = int(np.searchsorted(np.cumsum(flat), next(draws) * total, side="right"))
        w1, rest = divmod(choice, d * d)
        zl, zr = divmod(rest, d)
        w1 += 1
        if head == START:
            start_counts[zl, zr] += 1.0
        else:
            rule_counts[head, zl, zr] += 1.0
        stack.append((zr, i + w1, j))
        stack.append((zl, i, i + w1 - 1))
    return start_counts, rule_counts, emit_counts


def gibbs_step_reference(params, sequences, dirichlet_alpha: float, rng):
    """One Gibbs sweep that adds up ``gibbs_tree_counts_reference`` tree by
    tree, then draws the start row and the joint production rows from their
    Dirichlet posteriors in that order."""
    d, v = params.n_nonterminals, params.vocab_size
    start_acc, rule_acc, emit_acc = np.zeros((d, d)), np.zeros((d, d, d)), np.zeros((d, v))
    ends = np.cumsum([len(seq) - 1 for seq in sequences]).tolist()
    draws = rng.random(ends[-1]).tolist()
    for idx, batch in pcfg._batches(sequences, d, v):
        chart = pcfg._inside_batch(params, batch)
        for k, i in enumerate(idx.tolist()):
            if chart.log_evidence[k] == -np.inf:
                continue
            mine = iter(draws[ends[i] - batch.shape[1] + 1:ends[i]])
            s, r, e = gibbs_tree_counts_reference(params, batch[k], chart, k, mine)
            start_acc += s
            rule_acc += r
            emit_acc += e
    start = dirichlet_rows(rng, dirichlet_alpha + start_acc.reshape(1, -1))[0].reshape(d, d)
    joint = dirichlet_rows(rng, dirichlet_alpha + np.concatenate([rule_acc.reshape(d, d * d), emit_acc], axis=1))
    return PcfgParams(start, np.zeros(v), joint[:, : d * d].reshape(d, d, d), joint[:, d * d:])


def _draw_reference(rng, row: np.ndarray) -> int:
    """One categorical draw: a uniform searched in a fresh cumsum of the row."""
    return int(np.searchsorted(np.cumsum(row), rng.random(), side="right"))


def hmm_sample_reference(params, length: int, seed: int) -> np.ndarray:
    """One ancestrally sampled HMM line, one uniform at a time: a state, then
    its symbol, at each step."""
    rng = np.random.default_rng(seed)
    out = np.empty(length, dtype=np.int64)
    state = _draw_reference(rng, params.initial)
    out[0] = _draw_reference(rng, params.emission[state])
    for t in range(1, length):
        state = _draw_reference(rng, params.transition[state])
        out[t] = _draw_reference(rng, params.emission[state])
    return out


def markov_sample_reference(model, length: int, seed: int) -> np.ndarray:
    """One sampled Markov line, one uniform per symbol, each from the table
    row its context indexes directly."""
    rng = np.random.default_rng(seed)
    out = np.empty(length, dtype=np.int64)
    for pos in range(length):
        table = model.initial_tables[pos] if pos < model.order else model.transitions
        out[pos] = _draw_reference(rng, table[tuple(out[max(0, pos - model.order):pos].tolist())])
    return out


def sample_tree_reference(params, seed: int, max_expansions: int = 10_000):
    """(bracketed tree, yield) of one ancestral tree draw, taking each
    production from a fresh cumsum of its row; brackets name the start
    symbol S, nonterminals z<id> and terminals t<id>."""
    rng = np.random.default_rng(seed)
    d = params.rules.shape[0]
    start_row = np.concatenate([params.start_rules.reshape(-1), params.start_emissions])
    rows = np.concatenate([params.rules.reshape(d, d * d), params.emissions], axis=1)

    root = {"head": -1}
    stack = [root]
    expansions = 0
    while stack:
        node = stack.pop()
        expansions += 1
        if expansions > max_expansions:
            raise RuntimeError("expansion cap exceeded")
        row = start_row if node["head"] == -1 else rows[node["head"]]
        choice = _draw_reference(rng, row)
        if choice < d * d:
            node["left"] = {"head": choice // d}
            node["right"] = {"head": choice % d}
            stack.append(node["right"])
            stack.append(node["left"])
        else:
            node["terminal"] = choice - d * d

    leaves = []

    def bracket(node) -> str:
        name = "S" if node["head"] == -1 else f"z{node['head']}"
        if "terminal" in node:
            leaves.append(node["terminal"])
            return f"({name} t{node['terminal']})"
        return f"({name} {bracket(node['left'])} {bracket(node['right'])})"

    text = bracket(root)
    return text, np.asarray(leaves, dtype=np.int64)


def tree_log_probability(params, derivation) -> float:
    """Log probability of one complete derivation, a preorder list of
    (head, production) as ``pcfg.sample_tree`` returns it."""
    d = params.rules.shape[0]
    total = 0.0
    for head, production in derivation:
        if head == START:
            row = np.concatenate([params.start_rules.reshape(-1), params.start_emissions])
        else:
            row = np.concatenate([params.rules[head].reshape(-1), params.emissions[head]])
        if row[production] <= 0.0:
            return -np.inf
        total += float(np.log(row[production]))
    return total


def count_nodes(derivation, d: int) -> tuple[int, int]:
    """(number of leaves, number of binary nonterminal productions) of a
    derivation over d nonterminals, the start production excluded."""
    leaves = sum(production >= d * d for _, production in derivation)
    binaries = sum(production < d * d and head != START for head, production in derivation)
    return leaves, binaries


def rows_of_one(model, seq) -> np.ndarray:
    """A model's (len(seq), V) prediction rows of one sequence: ``score`` of a
    batch of one."""
    seq = np.asarray(seq)
    rows = model.score([seq])[1]
    assert rows.shape == (len(seq), model.vocab_size)
    return rows


def per_line(rows: np.ndarray, seqs: list[np.ndarray]) -> list[np.ndarray]:
    """``score``'s rows of a batch cut into each sequence's block, in corpus order."""
    return np.split(rows, np.cumsum([len(seq) for seq in seqs])[:-1])


CSV_HEADER = "model,dataset,perplexity,error_rate,rmrr,n_symbols"


def csv_row(model_label: str, dataset_label: str, report) -> str:
    """One CSV row of all metrics of an ``evaluate.EvalReport`` for a
    (model, dataset) pair."""
    return ",".join(
        [
            model_label,
            dataset_label,
            repr(report.perplexity),
            repr(report.error_rate),
            repr(report.rmrr),
            str(report.n_symbols),
        ]
    )


def best_of_gibbs_reference(params, gibbs_step, log_evidence_total, polish, n_samples: int, seed: int):
    """(polished parameters, sample log evidences, polish trace) of a Gibbs
    chain that scores every sample with ``log_evidence_total`` right after
    drawing it; ``gibbs_step(params, rng)`` returns the sample first."""
    rng = np.random.default_rng(seed)
    sample_log_evidence = []
    best, best_ll = None, -np.inf
    current = params
    for _ in range(n_samples):
        current = gibbs_step(current, rng)[0]
        ll = log_evidence_total(current)
        sample_log_evidence.append(ll)
        if ll > best_ll:
            best, best_ll = current, ll
    polished, polish_trace, _ = polish(best)
    return polished, sample_log_evidence, polish_trace
