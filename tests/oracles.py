"""Independent brute-force reference computations used as test oracles.

Everything here is deliberately naive (enumeration, direct arithmetic,
linear solves) and shares no code with the library implementations.
"""

from __future__ import annotations

import itertools

import numpy as np

from chordlm.corpus import EncodedDataset, Vocabulary


def make_dataset(rows: list[str], symbols: list[str]) -> EncodedDataset:
    """Encode whitespace-separated symbol rows against an explicit vocabulary."""
    vocab = Vocabulary(symbols=list(symbols))
    seqs = []
    for row in rows:
        toks = row.split()
        seqs.append(np.asarray([vocab.index[t] for t in toks], dtype=np.int64))
    return EncodedDataset(sequences=seqs, vocab=vocab)


def evidence_ratio_prediction(model, seq: np.ndarray, position: int) -> np.ndarray:
    """P(x_n = y | rest) by substituting every candidate symbol and
    normalizing full-sequence evidences."""
    seq = np.asarray(seq)
    n_symbols = model.vocab_size if hasattr(model, "vocab_size") else model.n_symbols
    logs = np.empty(n_symbols)
    for y in range(n_symbols):
        variant = seq.copy()
        variant[position - 1] = y
        logs[y] = model.log_evidence(variant)
    finite = np.isfinite(logs)
    if not finite.any():
        raise ValueError("all substitutions have zero evidence")
    shift = logs[finite].max()
    probs = np.where(finite, np.exp(logs - shift), 0.0)
    return probs / probs.sum()


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


def stationary_by_linear_solve(transition: np.ndarray) -> np.ndarray:
    """Stationary distribution via a direct linear-system solve."""
    n = transition.shape[0]
    a = np.vstack([transition.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    return sol


def entropy_perplexity(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float)
    mask = p > 0
    return float(np.exp(-(p[mask] * np.log(p[mask])).sum()))


def all_sequences(n_symbols: int, length: int):
    """Every id sequence of the given length, as numpy arrays."""
    for combo in itertools.product(range(n_symbols), repeat=length):
        yield np.asarray(combo, dtype=np.int64)


def random_stochastic(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Rows drawn from a flat Dirichlet (normalized exponentials)."""
    raw = rng.gamma(1.0, size=shape)
    return raw / raw.sum(axis=-1, keepdims=True)


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
