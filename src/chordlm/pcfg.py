"""Probabilistic context-free grammars in binary form.

A grammar has a dedicated start symbol plus a set of nonterminals; every
production either rewrites a nonterminal into an ordered pair of nonterminals
or emits a single terminal. Inference uses inside-outside charts kept in
linear space with one log-scale per sequence and span width, which keeps long
sequences inside floating-point range while leaving all identities exact.
Training and evidence run the charts of equal-length sequences together, in
batches of bounded memory; one sequence is a batch of one.

Training enforces the convention that the start symbol never emits directly
(its terminal row is identically zero); the strict HMM embedding is the one
constructor that produces grammars with a nonzero start emission row.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import training
from .hmm import HmmParams
from .markov import _normalize_predictions, _position_distribution
from .training import GibbsTrace, dirichlet_rows

START = -1

DEFAULT_MAX_TRAIN_LENGTH = 64
DEFAULT_EXPANSION_CAP = 10_000


@dataclass
class PcfgParams:
    start_rules: np.ndarray      # (D, D): P(S -> l r)
    start_emissions: np.ndarray  # (V,):   P(S -> x), zero in training mode
    rules: np.ndarray            # (D, D, D): P(z -> l r)
    emissions: np.ndarray        # (D, V):   P(z -> x)
    _cdf_cache: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_nonterminals(self) -> int:
        return self.rules.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.emissions.shape[1]

    @property
    def start_emits(self) -> bool:
        return bool((self.start_emissions > 0.0).any())

    def validate(self, tol: float = 1e-9) -> None:
        if (self.start_rules < 0).any() or (self.start_emissions < 0).any():
            raise ValueError("start production probabilities must be non-negative")
        if (self.rules < 0).any() or (self.emissions < 0).any():
            raise ValueError("production probabilities must be non-negative")
        s = self.start_rules.sum() + self.start_emissions.sum()
        if abs(s - 1.0) > tol:
            raise ValueError(f"start productions sum to {s}, expected 1")
        totals = self.rules.sum(axis=(1, 2)) + self.emissions.sum(axis=1)
        if np.abs(totals - 1.0).max() > tol:
            raise ValueError("per-nonterminal productions do not sum to 1")

    def production_cdfs(self) -> tuple[array, list[array]]:
        """Cumulative production rows, the start row and one row per
        nonterminal, each over its binary rules then its terminals, as flat
        double arrays that ``bisect`` searches without numpy call overhead.

        Built once and kept while the four arrays are the same objects: edit
        a grammar by assigning new arrays, since an in-place edit is not seen.
        """
        arrays = (self.start_rules, self.start_emissions, self.rules, self.emissions)
        cache = self._cdf_cache
        if cache is None or any(a is not b for a, b in zip(cache[0], arrays)):
            d = self.n_nonterminals
            start = np.concatenate([self.start_rules.reshape(-1), self.start_emissions])
            rows = np.cumsum(np.concatenate([self.rules.reshape(d, d * d), self.emissions], axis=1), axis=1)
            cache = self._cdf_cache = (arrays, array("d", np.cumsum(start)), [array("d", row) for row in rows])
        return cache[1], cache[2]

    def log_evidences(self, seqs: list[np.ndarray]):
        """Yields each sequence's log evidence normalized within its length."""
        return _normalized_in_turn(self, seqs, _log_evidences(self, seqs))

    def score(self, seqs: list[np.ndarray]):
        """Yields ``log_evidences`` and each sequence's prediction rows, in
        corpus order; a sequence that has none raises when its turn comes."""
        log_ev, weights = _score_weights(self, seqs)
        rows = (_normalize_predictions(_predictable(seq, w)) for seq, w in zip(seqs, weights))
        return _normalized_in_turn(self, seqs, log_ev), rows

    def predict_distribution(self, seq: np.ndarray, position: int) -> np.ndarray:
        return predict_distribution(self, seq, position)


# the shared training configs, with grammar defaults and a training length cap
@dataclass
class EmConfig(training.EmConfig):
    max_iter: int = 200
    max_length: int = DEFAULT_MAX_TRAIN_LENGTH


@dataclass
class GibbsConfig(training.GibbsConfig):
    n_samples: int = 200
    max_length: int = DEFAULT_MAX_TRAIN_LENGTH


# ------------------------------------------------------------- constructors


def init_random(n_nonterminals: int, vocab_size: int, seed: int) -> PcfgParams:
    """Each nonterminal's joint production row is a flat Dirichlet draw over
    its binary-rule and emission cells; the start row spans only binary rules."""
    if n_nonterminals < 1 or vocab_size < 1:
        raise ValueError("n_nonterminals and vocab_size must be >= 1")
    d, v = n_nonterminals, vocab_size
    rng = np.random.default_rng(seed)
    return _from_counts(lambda c: dirichlet_rows(rng, 1.0 + c), np.zeros((d, d)), np.zeros((d, d, d)), np.zeros((d, v)))


def _from_counts(rows, start: np.ndarray, rules: np.ndarray, emissions: np.ndarray) -> PcfgParams:
    """A grammar whose start row is ``rows`` of the (D, D) start counts and
    whose joint production rows are ``rows`` of the (D, D, D) rule and (D, V)
    emission counts side by side, drawn in that order."""
    d = len(start)
    start_rules = rows(start.reshape(1, -1))[0].reshape(d, d)
    return _from_joint(start_rules, rows(np.concatenate([rules.reshape(d, d * d), emissions], axis=1)))


def _from_joint(start_rules: np.ndarray, joint: np.ndarray) -> PcfgParams:
    """A grammar whose start symbol never emits, from its (D, D) start rules
    and the (D, D^2 + V) joint production rows, binary rules then terminals."""
    d = len(start_rules)
    return PcfgParams(
        start_rules=start_rules,
        start_emissions=np.zeros(joint.shape[1] - d * d),
        rules=joint[:, : d * d].reshape(d, d, d),
        emissions=joint[:, d * d:],
    )


def init_from_hmm(params: HmmParams, kappa: float, eta: float) -> PcfgParams:
    """Approximate linear-chain grammar built from HMM parameters.

    ``kappa`` is the probability that a nonterminal emits instead of
    splitting, which fixes the mean generated length at 2k/(2k-1); ``eta``
    softens the diagonal left-child constraint so training can leave the
    linear-chain subspace.
    """
    if not 0.5 < kappa <= 1.0:
        raise ValueError("kappa must lie in (1/2, 1] for a terminating grammar")
    if eta < 0.0:
        raise ValueError("eta must be non-negative")
    d = params.n_states
    start = params.initial[:, None] * params.transition
    rules = np.zeros((d, d, d))
    for z in range(d):
        rules[z, z, :] = (1.0 - kappa) * params.transition[z]
    rules += eta
    emissions = kappa * params.emission
    denom = 1.0 + eta * d * d
    return PcfgParams(
        start_rules=start,
        start_emissions=np.zeros(params.vocab_size),
        rules=rules / denom,
        emissions=emissions / denom,
    )


def strict_embed_hmm(params: HmmParams, end_prob: np.ndarray) -> PcfgParams:
    """Exact grammar with 2k nonterminals reproducing a length-terminated HMM.

    ``end_prob[z]`` is the per-state stop probability; the HMM transition rows
    are rescaled by (1 - end_prob[z]) so continue and stop moves are mutually
    exclusive. Nonterminal z keeps the chain running while its twin k+z only
    emits.
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


# ------------------------------------------------------------------ charts

# Upper bound on the floats one chart batch holds at its peak: per sequence of
# length n, 4 D n (n + 1) in the inside and outside charts plus D^2 (n - 1) in
# the pair matrices of one span width. An equal-length group that would exceed
# it runs as several batches, and a longer sequence runs alone.
MAX_BATCH_FLOATS = 1 << 17


@dataclass
class _ChartBatch:
    """Inside pass over B sequences of one length n.

    Cell (i, j) of sequence k, of width w = j - i + 1, is stored twice, as
    ``by_start[k, i, w]`` and ``by_end[k, j, w]``, so the left children of
    every split of a width are one slice of the first and the right children
    one slice of the second. Its true value is the stored one times
    ``exp(scale[k, w])``; a scale of -inf marks an all-zero width. The pass
    keeps no pair matrices: ``_chart_pairs`` rebuilds any width's from the
    finished chart.
    """

    by_start: np.ndarray      # (B, n, n + 1, D)
    by_end: np.ndarray        # (B, n, n + 1, D)
    scale: np.ndarray         # (B, n + 1)
    log_evidence: np.ndarray  # (B,)


def _exp_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """exp(a - b), and 0 wherever a is -inf (also where b is)."""
    out = np.zeros(np.broadcast(a, b).shape)
    live = np.broadcast_to(a > -np.inf, out.shape)
    np.subtract(a, b, out=out, where=live)
    return np.exp(out, out=out, where=live)


def _normalize(acc: np.ndarray, base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divide each sequence's block of ``acc`` by its maximum, in place.
    Returns the block and its log scale, ``base`` plus the log of that
    maximum, or -inf where the block is all zero."""
    top = acc.reshape(len(acc), -1).max(axis=1)
    live = top > 0.0
    top = np.where(live, top, 1.0)
    acc /= top[:, None, None]
    return acc, np.where(live, base + np.log(top), -np.inf)


def _log_scaled(value: np.ndarray, log_scale: np.ndarray) -> np.ndarray:
    """log(value) + log_scale, and -inf wherever value is 0."""
    live = value > 0.0
    return np.where(live, np.log(np.where(live, value, 1.0)) + log_scale, -np.inf)


def _width_pairs(left: np.ndarray, right: np.ndarray, scale: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """The inside pass's step for spans of width w: the split-summed outer
    products of their children's inside vectors.

    ``left`` (B, count, w - 1, D) holds each span's left children of width
    1..w-1, ``right`` the matching right children of width w-1..1, and
    ``scale`` (B, > w) every width's log scale. Each split is weighted by its
    scale relative to the largest; returns the (B, count, D^2) pair matrices
    and that largest scale, -inf where every split is zero.
    """
    split = scale[:, 1:w] + scale[:, w - 1:0:-1]
    m_comb = split.max(axis=1)
    left = left * _exp_diff(split, m_comb[:, None])[:, None, :, None]
    n_seq, count, _, d = left.shape
    return (left.transpose(0, 1, 3, 2) @ right).reshape(n_seq, count, d * d), m_comb


def _chart_pairs(by_start: np.ndarray, by_end: np.ndarray, scale: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """``_width_pairs`` of the spans of width w of an inside chart batch, whose
    widths below w are done."""
    count = by_start.shape[1] - w + 1
    return _width_pairs(by_start[:, :count, 1:w], by_end[:, w - 1:, w - 1:0:-1], scale, w)


def _inside_batch(params: PcfgParams, batch: np.ndarray) -> _ChartBatch:
    """Inside charts of equal-length sequences, stacked as (B, n); O(n^3 D^3)
    time per sequence."""
    n_seq, n = batch.shape
    if n == 0:
        raise ValueError("sequence must be non-empty")
    d = params.n_nonterminals
    rules_t = params.rules.reshape(d, d * d).T
    by_start = np.zeros((n_seq, n, n + 1, d))
    by_end = np.zeros((n_seq, n, n + 1, d))
    scale = np.full((n_seq, n + 1), -np.inf)

    band, scale[:, 1] = _normalize(params.emissions.T[batch], np.zeros(n_seq))
    by_start[:, :, 1] = by_end[:, :, 1] = band
    for w in range(2, n + 1):
        pairs, pair_scale = _chart_pairs(by_start, by_end, scale, w)
        cells, scale[:, w] = _normalize(pairs @ rules_t, pair_scale)
        by_start[:, :n - w + 1, w] = by_end[:, w - 1:, w] = cells

    if n == 1:
        top, top_scale = params.start_emissions[batch[:, 0]], np.zeros(n_seq)
    else:  # the pairs of the last width, n
        top, top_scale = pairs[:, 0] @ params.start_rules.reshape(-1), pair_scale
    return _ChartBatch(by_start, by_end, scale, _log_scaled(top, top_scale))


def _outside_batch(
    params: PcfgParams, by_start: np.ndarray, by_end: np.ndarray, scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Outside chart of a batch from its inside chart, kept by start like
    ``_ChartBatch.by_start``, and its per-sequence width scales.

    Parents are taken from the widest down; the start symbol is the parent of
    width n, with outside value 1 and the start rules. Each parent width's
    outside vectors are contracted with the rule matrix once, and a batched
    mat-vec of that product with each sibling then pushes the contributions
    to every child width at once: left children are kept by start, right
    children by end, under one running log scale per child width that rises
    whenever a contribution is larger. A finished width's outside cells
    replace its left-child sums.
    """
    n_seq, n = scale.shape[0], scale.shape[1] - 1
    d = params.n_nonterminals
    rules_flat = params.rules.reshape(d, d * d)
    as_left = np.zeros((n_seq, n, n + 1, d))
    as_right = np.zeros((n_seq, n, n + 1, d))
    out_scale = np.full((n_seq, n + 1), -np.inf)
    product = np.broadcast_to(params.start_rules, (n_seq, 1, d, d))
    parent_scale = np.zeros(n_seq)
    for wp in range(n, 1, -1):
        count = n - wp + 1
        if wp < n:
            cells, out_scale[:, wp] = _normalize(
                as_left[:, :count, wp] + as_right[:, wp - 1:, wp], out_scale[:, wp]
            )
            as_left[:, :count, wp] = cells
            parent_scale = out_scale[:, wp]
            if (parent_scale == -np.inf).all():
                continue
            product = (cells @ rules_flat).reshape(n_seq, count, d, d)
        # child width w = 1..wp-1, with a sibling of width wp - w
        c = parent_scale[:, None] + scale[:, wp - 1:0:-1]
        running = out_scale[:, 1:wp]
        if (c > running).any():
            new = np.maximum(running, c)
            keep = _exp_diff(running, new)[:, None, :, None]
            as_left[:, :, 1:wp] *= keep
            as_right[:, :, 1:wp] *= keep
            out_scale[:, 1:wp] = new
        f = _exp_diff(c, out_scale[:, 1:wp])[:, None, :, None]
        sibling_right = by_end[:, wp - 1:, wp - 1:0:-1]
        sibling_left = by_start[:, :count, wp - 1:0:-1]
        as_left[:, :count, 1:wp] += f * (sibling_right @ product.transpose(0, 1, 3, 2))
        as_right[:, wp - 1:, 1:wp] += f * (sibling_left @ product)
    as_left[:, :, 1], out_scale[:, 1] = _normalize(as_left[:, :, 1] + as_right[:, :, 1], out_scale[:, 1])
    return as_left, out_scale


def _batches(sequences: list[np.ndarray], d: int):
    """(corpus indices, stacked sequences) of equal length, in ascending length
    order, each holding at most MAX_BATCH_FLOATS floats at its peak (at least
    one sequence)."""
    by_len: dict[int, list[int]] = {}
    for i, seq in enumerate(sequences):
        by_len.setdefault(len(seq), []).append(i)
    for n in sorted(by_len):
        idx = np.asarray(by_len[n], dtype=np.int64)
        size = max(1, MAX_BATCH_FLOATS // (4 * d * n * (n + 1) + d * d * (n - 1)))
        for lo in range(0, len(idx), size):
            yield idx[lo:lo + size], np.stack([sequences[i] for i in idx[lo:lo + size]])


def inside(params: PcfgParams, seq: np.ndarray) -> _ChartBatch:
    """Inside chart of one sequence: a batch of one."""
    return _inside_batch(params, np.asarray(seq)[None])


def outside(params: PcfgParams, chart: _ChartBatch) -> tuple[np.ndarray, np.ndarray]:
    """Outside chart and width scales of an inside chart batch."""
    return _outside_batch(params, chart.by_start, chart.by_end, chart.scale)


def _log_evidences(params: PcfgParams, sequences: list[np.ndarray]) -> np.ndarray:
    """Each sequence's log evidence, in corpus order."""
    out = np.empty(len(sequences))
    for idx, batch in _batches(sequences, params.n_nonterminals):
        out[idx] = _inside_batch(params, batch).log_evidence
    return out


def _e_step(params: PcfgParams, sequences: list[np.ndarray]):
    """Posterior expected production counts summed over the sequences, and
    each sequence's log evidence in corpus order. A zero-evidence sequence
    adds no counts.

    The rule counts of width w come from one matrix product per batch: each
    parent's outside vector, weighted by its share of the evidence, against
    that width's pair matrix, rebuilt from the inside chart; the start counts
    take the pair matrix of the whole sequence.
    """
    d, v = params.n_nonterminals, params.vocab_size
    start = np.zeros(d * d)
    rules = np.zeros((d, d * d))
    emit_t = np.zeros((v, d))
    log_ev = np.empty(len(sequences))
    for idx, batch in _batches(sequences, d):
        n = batch.shape[1]
        chart = _inside_batch(params, batch)
        out, out_scale = _outside_batch(params, chart.by_start, chart.by_end, chart.scale)
        log_ev[idx] = chart.log_evidence
        denom = np.where(chart.log_evidence > -np.inf, chart.log_evidence, np.inf)

        if n > 1:
            pairs, pair_scale = _chart_pairs(chart.by_start, chart.by_end, chart.scale, n)
            start += np.exp(pair_scale - denom) @ pairs[:, 0]
        contrib = out[:, :, 1] * params.emissions.T[batch] * np.exp(out_scale[:, 1] - denom)[:, None, None]
        np.add.at(emit_t, batch.reshape(-1), contrib.reshape(-1, d))
        for w in range(2, n):
            # a parent weighs nothing where its outside scale or the evidence is zero
            if (out_scale[:, w] - denom == -np.inf).all():
                continue
            pairs, pair_scale = _chart_pairs(chart.by_start, chart.by_end, chart.scale, w)
            f = np.exp(out_scale[:, w] + pair_scale - denom)
            parent = (out[:, :n - w + 1, w] * f[:, None, None]).reshape(-1, d)
            rules += parent.T @ pairs.reshape(-1, d * d)
    return (
        params.start_rules * start.reshape(d, d),
        params.rules * rules.reshape(d, d, d),
        emit_t.T,
        log_ev,
    )


# ------------------------------------------------------------------- training


def _check_trainable(params: PcfgParams, sequences: list[np.ndarray], max_length: int) -> None:
    if params.start_emits:
        raise ValueError("training requires a grammar whose start symbol never emits")
    if len(sequences) == 0:
        raise ValueError("training data is empty")
    for i, seq in enumerate(sequences):
        if len(seq) < 2:
            raise ValueError(f"training sequence {i} has length < 2")
        if len(seq) > max_length:
            raise ValueError(
                f"training sequence {i} has length {len(seq)} > cap {max_length}; "
                "raise the cap explicitly to train on longer sequences"
            )


def em_fit(
    params: PcfgParams,
    sequences: list[np.ndarray],
    config: EmConfig = EmConfig(),
) -> tuple[PcfgParams, list[float], list[float]]:
    """Inside-outside maximum-likelihood training; the trace ends at the
    returned parameters, and so do the training ``log_evidences``."""
    _check_trainable(params, sequences, config.max_length)
    fitted, trace, log_ev = training.em(
        params, lambda p: _e_step(p, sequences), _from_counts, lambda p: _log_evidences(p, sequences), config
    )
    return fitted, trace, list(_normalized_in_turn(fitted, sequences, log_ev))


def log_evidence_total(params: PcfgParams, sequences: list[np.ndarray]) -> float:
    """Sum of sequence log evidences over a dataset, in corpus order."""
    return training.sum_in_order(_log_evidences(params, sequences))


def _sample_tree(params: PcfgParams, seq: np.ndarray, chart: _ChartBatch, k: int, draws: Iterator[float]):
    """Draw one derivation tree of sequence k of a chart batch from the tree
    posterior via top-down sampling on its inside chart, taking one uniform
    from ``draws`` per binary node (n - 1 of them). Returns production counts."""
    n = len(seq)
    d = params.n_nonterminals
    by_start, by_end, g = chart.by_start[k], chart.by_end[k], chart.scale[k]
    start_counts = np.zeros((d, d))
    rule_counts = np.zeros((d, d, d))
    emit_counts = np.zeros((d, params.vocab_size))

    stack: list[tuple[int, int, int]] = [(START, 0, n - 1)]
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
        weights = _exp_diff(split_scales, split_scales.max())[:, None, None] * table * (
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


def _gibbs_step(
    params: PcfgParams,
    sequences: list[np.ndarray],
    dirichlet_alpha: float,
    rng: np.random.Generator,
) -> tuple[PcfgParams, np.ndarray]:
    """One sweep: sample a tree per sequence, then production rows from their
    Dirichlet posteriors (the start emission row stays pinned at zero).
    Also returns each sequence's log evidence under the given grammar from
    the same charts; a zero-evidence one, which training rejects, gets no tree.

    Sequence i's tree takes the i-th run of n_i - 1 uniforms, drawn up front
    in corpus order, so the trees do not depend on how the charts are batched.
    """
    d, v = params.n_nonterminals, params.vocab_size
    start_acc = np.zeros((d, d))
    rule_acc = np.zeros((d, d, d))
    emit_acc = np.zeros((d, v))
    ends = np.cumsum([len(seq) - 1 for seq in sequences]).tolist()
    draws = rng.random(ends[-1]).tolist()
    log_ev = np.empty(len(sequences))
    for idx, batch in _batches(sequences, d):
        chart = _inside_batch(params, batch)
        log_ev[idx] = chart.log_evidence
        for k, i in enumerate(idx.tolist()):
            if chart.log_evidence[k] == -np.inf:
                continue
            mine = iter(draws[ends[i] - batch.shape[1] + 1:ends[i]])
            s, r, e = _sample_tree(params, batch[k], chart, k, mine)
            start_acc += s
            rule_acc += r
            emit_acc += e
    return _from_counts(lambda c: dirichlet_rows(rng, dirichlet_alpha + c), start_acc, rule_acc, emit_acc), log_ev


def gibbs_fit(
    params: PcfgParams,
    sequences: list[np.ndarray],
    config: GibbsConfig = GibbsConfig(),
) -> tuple[PcfgParams, GibbsTrace, list[float]]:
    """Bayesian training: keep the maximum-evidence sampled grammar, then
    locally optimize it with a bounded EM polish."""
    _check_trainable(params, sequences, config.max_length)
    polish = EmConfig(max_iter=config.polish_iters, rel_tol=config.rel_tol, max_length=config.max_length)
    return training.best_of_gibbs(
        params,
        lambda p, rng: _gibbs_step(p, sequences, config.dirichlet_alpha, rng),
        lambda p: _log_evidences(p, sequences),
        lambda best: em_fit(best, sequences, polish),
        config,
    )


# --------------------------------------------------------- length distribution


def length_log_probabilities(params: PcfgParams, max_length: int) -> np.ndarray:
    """log P(the grammar generates some sequence of exactly length n) for
    every n in 0..max_length; entry 0 is -inf.

    Runs the inside pass's width step with every terminal cell summed over the
    alphabet. Cells then depend only on span width, so the chart is one span
    indexed by width, and each width's pair matrix against the start rules
    gives the probability of that length the way it gives a line's evidence.
    """
    if max_length < 1:
        raise ValueError("length must be >= 1")
    d = params.n_nonterminals
    rules_t = params.rules.reshape(d, d * d).T
    chart = np.zeros((1, 1, max_length + 1, d))
    scale = np.full((1, max_length + 1), -np.inf)
    top, top_scale = np.zeros((1, max_length + 1)), np.zeros((1, max_length + 1))
    top[:, 1] = params.start_emissions.sum()
    chart[:, :, 1], scale[:, 1] = _normalize(params.emissions.sum(axis=1)[None, None], np.zeros(1))
    for w in range(2, max_length + 1):
        pairs, top_scale[:, w] = _width_pairs(chart[:, :, 1:w], chart[:, :, w - 1:0:-1], scale, w)
        top[:, w] = pairs[:, 0] @ params.start_rules.reshape(-1)
        chart[:, :, w], scale[:, w] = _normalize(pairs @ rules_t, top_scale[:, w])
    return _log_scaled(top, top_scale)[0]


def _normalized_in_turn(params: PcfgParams, seqs: list[np.ndarray], log_ev: np.ndarray):
    """Yields each sequence's ``log_ev`` minus the log probability of its length,
    from one length table; a length the grammar never generates raises in turn."""
    log_length = length_log_probabilities(params, max((len(seq) for seq in seqs), default=1))
    for seq, value in zip(seqs, log_ev.tolist()):
        if log_length[len(seq)] == -np.inf:
            raise ValueError(f"grammar generates no sequence of length {len(seq)}")
        yield value - float(log_length[len(seq)])


def normalized_log_evidence(params: PcfgParams, seq: np.ndarray) -> float:
    """Log evidence renormalized within the set of sequences of equal length."""
    return next(params.log_evidences([np.asarray(seq)]))


# ------------------------------------------------------------- prediction


def _score_weights(params: PcfgParams, seqs: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each sequence's log evidence and candidate weights at every position,
    from one inside and one outside pass per batch. Row i is the
    emission-weighted outside vector of cell (i, i), which does not depend on
    the symbol there."""
    log_ev = np.empty(len(seqs))
    weights: list = [None] * len(seqs)
    for idx, batch in _batches(seqs, params.n_nonterminals):
        chart = _inside_batch(params, batch)
        out, _ = _outside_batch(params, chart.by_start, chart.by_end, chart.scale)
        log_ev[idx] = chart.log_evidence
        for i, rows in zip(idx.tolist(), out[:, :, 1] @ params.emissions):
            weights[i] = rows
    return log_ev, weights


def _predictable(seq: np.ndarray, weights: np.ndarray) -> np.ndarray:
    if len(seq) < 2:
        raise ValueError("prediction requires sequences of length >= 2")
    return weights


def predict_distribution(params: PcfgParams, seq: np.ndarray, position: int) -> np.ndarray:
    """Distribution of the symbol at 1-based ``position`` given the others."""
    return _position_distribution(seq, position, lambda s, i: _predictable(s, _score_weights(params, [s])[1][0])[i])


# --------------------------------------------------------------- generation


def sample_tree(
    params: PcfgParams, seed: int, max_expansions: int = DEFAULT_EXPANSION_CAP
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Ancestral top-down sampling of one derivation and its yield.

    The derivation lists each node's (head, production) in preorder, left
    child first; the start symbol's head is START. A production p < D^2
    rewrites the head to (p // D, p % D), and p >= D^2 emits terminal p - D^2.
    """
    rng = np.random.default_rng(seed)
    d = params.n_nonterminals
    start_cdf, cdfs = params.production_cdfs()

    derivation: list[tuple[int, int]] = []
    leaves: list[int] = []
    stack = [START]
    while stack:
        if len(derivation) == max_expansions:
            raise RuntimeError(
                f"exceeded {max_expansions} expansions; the grammar is unlikely to terminate"
            )
        head = stack.pop()
        choice = bisect_right(start_cdf if head == START else cdfs[head], rng.random())
        derivation.append((head, choice))
        if choice < d * d:
            stack.append(choice % d)
            stack.append(choice // d)
        else:
            leaves.append(choice - d * d)
    return derivation, np.asarray(leaves, dtype=np.int64)


def bracketed(derivation: list[tuple[int, int]], d: int, symbols: list[str] | None = None) -> str:
    """A ``sample_tree`` derivation over D nonterminals as a bracketed tree:
    S names the start symbol, z<id> a nonterminal, and a terminal is its
    symbol, or t<id> without ``symbols``. Built from the last node back, so a
    binary node finds its left subtree on top of the stack and its right one
    below it."""
    stack: list[str] = []
    for head, production in reversed(derivation):
        name = "S" if head == START else f"z{head}"
        if production < d * d:
            stack.append(f"({name} {stack.pop()} {stack.pop()})")
        else:
            terminal = production - d * d
            stack.append(f"({name} {symbols[terminal]})" if symbols else f"({name} t{terminal})")
    return stack[0]
