"""Probabilistic context-free grammars in binary form.

A grammar has a dedicated start symbol plus a set of nonterminals; every
production either rewrites a nonterminal into an ordered pair of nonterminals
or emits a single terminal. Inference uses inside-outside charts kept in
linear space with one shared log-scale per span width, which keeps long
sequences inside floating-point range while leaving all identities exact.

Training enforces the convention that the start symbol never emits directly
(its terminal row is identically zero); the strict HMM embedding is the one
constructor that produces grammars with a nonzero start emission row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import EncodedDataset
from .hmm import HmmParams, _dirichlet_rows
from .markov import _draw, _normalize_predictions

START = -1

DEFAULT_MAX_TRAIN_LENGTH = 64
DEFAULT_EXPANSION_CAP = 10_000


@dataclass
class PcfgParams:
    start_rules: np.ndarray      # (D, D): P(S -> l r)
    start_emissions: np.ndarray  # (V,):   P(S -> x), zero in training mode
    rules: np.ndarray            # (D, D, D): P(z -> l r)
    emissions: np.ndarray        # (D, V):   P(z -> x)

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

    def log_evidence(self, seq: np.ndarray) -> float:
        return inside(self, seq).log_evidence

    def normalized_log_evidences(self, seqs: list[np.ndarray]):
        """Lazily yields each sequence's normalized log evidence, all from one
        length table."""
        log_length = length_log_probabilities(self, max(len(seq) for seq in seqs))
        return (normalized_log_evidence(self, seq, log_length) for seq in seqs)

    def predict_distribution(self, seq: np.ndarray, position: int) -> np.ndarray:
        return predict_distribution(self, seq, position)

    def predict_distributions(self, seq: np.ndarray) -> np.ndarray:
        return predict_distributions(self, seq)


@dataclass
class PcfgPrior:
    """Dirichlet concentrations for the production rows."""

    start_rules: np.ndarray      # (D, D)
    start_emissions: np.ndarray  # (V,)
    rules: np.ndarray            # (D, D, D)
    emissions: np.ndarray        # (D, V)

    @classmethod
    def symmetric(cls, n_nonterminals: int, vocab_size: int, alpha: float = 0.1) -> "PcfgPrior":
        if alpha <= 0:
            raise ValueError("Dirichlet concentration must be positive")
        d = n_nonterminals
        return cls(
            start_rules=np.full((d, d), alpha),
            start_emissions=np.full(vocab_size, alpha),
            rules=np.full((d, d, d), alpha),
            emissions=np.full((d, vocab_size), alpha),
        )


@dataclass
class DerivationTree:
    """Binary derivation tree; internal nodes either emit one terminal or
    expand into exactly two children."""

    head: int  # nonterminal id, or START for the start symbol
    terminal: int | None = None
    left: "DerivationTree | None" = None
    right: "DerivationTree | None" = None

    def yield_ids(self) -> np.ndarray:
        out: list[int] = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.terminal is not None:
                out.append(node.terminal)
            else:
                stack.append(node.right)
                stack.append(node.left)
        return np.asarray(out, dtype=np.int64)

    def to_bracketed(self, symbols: list[str] | None = None) -> str:
        name = "S" if self.head == START else f"z{self.head}"
        if self.terminal is not None:
            term = symbols[self.terminal] if symbols else f"t{self.terminal}"
            return f"({name} {term})"
        return f"({name} {self.left.to_bracketed(symbols)} {self.right.to_bracketed(symbols)})"

    def count_nodes(self) -> tuple[int, int]:
        """(number of leaves, number of binary nonterminal productions),
        the start production excluded."""
        leaves = 0
        binaries = 0
        stack = [self]
        while stack:
            node = stack.pop()
            if node.terminal is not None:
                leaves += 1
            else:
                if node.head != START:
                    binaries += 1
                stack.append(node.left)
                stack.append(node.right)
        return leaves, binaries


@dataclass
class Charts:
    """Inside (and optionally outside) chart for one sequence.

    ``inside[i, j]`` covers positions i..j inclusive and is scaled so the true
    value is ``inside[i, j] * exp(inside_scale[j - i + 1])``; the outside chart
    uses the same convention with its own per-width scales. A scale of -inf
    marks a width whose cells are all zero.
    """

    inside: np.ndarray
    inside_scale: np.ndarray
    log_evidence: float
    outside: np.ndarray | None = None
    outside_scale: np.ndarray | None = None


@dataclass
class EmConfig:
    max_iter: int = 200
    rel_tol: float = 1e-5
    max_length: int = DEFAULT_MAX_TRAIN_LENGTH


@dataclass
class GibbsConfig:
    n_samples: int = 200
    polish_iters: int = 50
    seed: int = 0
    rel_tol: float = 1e-5
    max_length: int = DEFAULT_MAX_TRAIN_LENGTH


@dataclass
class GibbsTrace:
    sample_log_evidence: list[float] = field(default_factory=list)
    polish_trace: list[float] = field(default_factory=list)

    @property
    def best_sample_log_evidence(self) -> float:
        return max(self.sample_log_evidence)


# ------------------------------------------------------------- constructors


def init_random(n_nonterminals: int, vocab_size: int, seed: int) -> PcfgParams:
    """Each nonterminal's joint production row is a flat Dirichlet draw over
    its binary-rule and emission cells; the start row spans only binary rules."""
    if n_nonterminals < 1 or vocab_size < 1:
        raise ValueError("n_nonterminals and vocab_size must be >= 1")
    d, v = n_nonterminals, vocab_size
    rng = np.random.default_rng(seed)
    start = _dirichlet_rows(rng, np.ones((1, d * d)))[0].reshape(d, d)
    joint = _dirichlet_rows(rng, np.ones((d, d * d + v)))
    return PcfgParams(
        start_rules=start,
        start_emissions=np.zeros(v),
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


def inside(params: PcfgParams, seq: np.ndarray) -> Charts:
    """Inside chart and total log evidence; O(N^3 D^3) time."""
    seq = np.asarray(seq)
    n = len(seq)
    if n == 0:
        raise ValueError("sequence must be non-empty")
    d = params.n_nonterminals
    chart = np.zeros((n, n, d))
    scale = np.full(n + 1, -np.inf)
    rules_flat = params.rules.reshape(d, d * d)

    band = params.emissions[:, seq].T  # (n, d)
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

    log_ev = _top_log_evidence(params, seq, chart, scale)
    return Charts(inside=chart, inside_scale=scale, log_evidence=log_ev)


def _top_pair_sum(params: PcfgParams, chart: np.ndarray, scale: np.ndarray, n: int):
    """Split-point sum of scaled left/right inside products under the start
    symbol; returns (pair matrix, its log scale)."""
    d = params.n_nonterminals
    pair_scales = [scale[w1] + scale[n - w1] for w1 in range(1, n)]
    m_top = max(pair_scales)
    if m_top == -np.inf:
        return None, -np.inf
    acc = np.zeros((d, d))
    for w1 in range(1, n):
        s = pair_scales[w1 - 1]
        if s == -np.inf:
            continue
        left = chart[0, w1 - 1]
        right = chart[w1, n - 1]
        acc += np.exp(s - m_top) * np.outer(left, right)
    return acc, m_top


def _top_log_evidence(params: PcfgParams, seq: np.ndarray, chart: np.ndarray, scale: np.ndarray) -> float:
    n = len(seq)
    if n == 1:
        p = params.start_emissions[seq[0]]
        return float(np.log(p)) if p > 0.0 else -np.inf
    acc, m_top = _top_pair_sum(params, chart, scale, n)
    if acc is None:
        return -np.inf
    total = float((params.start_rules * acc).sum())
    return float(np.log(total) + m_top) if total > 0.0 else -np.inf


def outside(params: PcfgParams, seq: np.ndarray, charts: Charts) -> Charts:
    """Fill the outside chart on a previously computed inside chart."""
    seq = np.asarray(seq)
    n = len(seq)
    d = params.n_nonterminals
    if charts.inside.shape != (n, n, d):
        raise ValueError("inside chart does not match the sequence")
    b = charts.inside
    g = charts.inside_scale
    a = np.zeros((n, n, d))
    h = np.full(n + 1, -np.inf)
    if n == 1:
        charts.outside = a
        charts.outside_scale = h
        return charts

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
                # child on the left edge, sibling fills the right remainder
                acc[0] += f * (params.start_rules @ b[w, n - 1])
                # child on the right edge, sibling fills the left remainder
                acc[-1] += f * (b[0, n - w - 1] @ params.start_rules)
            if wp < n and h[wp] > -np.inf:
                f = np.exp(h[wp] + g[ws] - m)
                # child as left child: parent [i, j+ws], sibling [j+1, j+ws]
                sub = np.arange(n - wp + 1)
                parent = a[sub, sub + wp - 1]
                sib_r = b[sub + w, sub + wp - 1]
                acc[sub] += f * np.einsum("sz,sr,zlr->sl", parent, sib_r, params.rules)
                # child as right child: parent [i-ws, j], sibling [i-ws, i-1]
                sib_l = b[sub, sub + ws - 1]
                acc[sub + ws] += f * np.einsum("sz,sl,zlr->sr", parent, sib_l, params.rules)
        band_max = acc.max()
        if band_max > 0.0:
            a[starts, ends] = acc / band_max
            h[w] = m + np.log(band_max)
    charts.outside = a
    charts.outside_scale = h
    return charts


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


def _expected_counts(params: PcfgParams, seq: np.ndarray):
    """Posterior expected production counts for one sequence."""
    charts = outside(params, seq, inside(params, seq))
    log_ev = charts.log_evidence
    if log_ev == -np.inf:
        return None
    n = len(seq)
    d = params.n_nonterminals
    b, g = charts.inside, charts.inside_scale
    a, h = charts.outside, charts.outside_scale

    pair, m_top = _top_pair_sum(params, b, g, n)
    start_counts = params.start_rules * pair * np.exp(m_top - log_ev)

    emit_counts = np.zeros((d, params.vocab_size))
    if h[1] > -np.inf:
        idx = np.arange(n)
        contrib = a[idx, idx] * params.emissions[:, seq].T * np.exp(h[1] - log_ev)
        acc = np.zeros((params.vocab_size, d))
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


def _m_step(start_counts: np.ndarray, rule_counts: np.ndarray, emit_counts: np.ndarray) -> PcfgParams:
    d, v = emit_counts.shape
    total_start = start_counts.sum()
    start = start_counts / total_start if total_start > 0.0 else np.full((d, d), 1.0 / (d * d))
    joint = np.concatenate([rule_counts.reshape(d, d * d), emit_counts], axis=1)
    totals = joint.sum(axis=1, keepdims=True)
    joint = np.where(totals > 0.0, joint / np.where(totals > 0.0, totals, 1.0), 1.0 / (d * d + v))
    return PcfgParams(
        start_rules=start,
        start_emissions=np.zeros(v),
        rules=joint[:, : d * d].reshape(d, d, d),
        emissions=joint[:, d * d:],
    )


def em_fit(
    params: PcfgParams,
    train: EncodedDataset | list[np.ndarray],
    config: EmConfig = EmConfig(),
) -> tuple[PcfgParams, list[float]]:
    """Inside-outside maximum-likelihood training; the trace ends at the
    returned parameters."""
    sequences = train.sequences if isinstance(train, EncodedDataset) else train
    _check_trainable(params, sequences, config.max_length)

    trace: list[float] = []
    prev_ll = None
    for _ in range(config.max_iter):
        d, v = params.n_nonterminals, params.vocab_size
        start_acc = np.zeros((d, d))
        rule_acc = np.zeros((d, d, d))
        emit_acc = np.zeros((d, v))
        ll = 0.0
        for i, seq in enumerate(sequences):
            stats = _expected_counts(params, seq)
            if stats is None:
                raise ValueError(f"training sequence {i} has zero evidence")
            s, r, e, log_ev = stats
            start_acc += s
            rule_acc += r
            emit_acc += e
            ll += log_ev
        trace.append(ll)
        if prev_ll is not None and abs(ll - prev_ll) <= config.rel_tol * abs(prev_ll):
            return params, trace
        prev_ll = ll
        params = _m_step(start_acc, rule_acc, emit_acc)
    trace.append(log_evidence_total(params, sequences))
    return params, trace


def log_evidence_total(params: PcfgParams, train: EncodedDataset | list[np.ndarray]) -> float:
    sequences = train.sequences if isinstance(train, EncodedDataset) else train
    total = 0.0
    for seq in sequences:
        log_ev = inside(params, seq).log_evidence
        if log_ev == -np.inf:
            return -np.inf
        total += log_ev
    return total


def _sample_tree_from_charts(
    params: PcfgParams, seq: np.ndarray, charts: Charts, rng: np.random.Generator
):
    """Draw one derivation tree from the tree posterior via top-down sampling
    on the inside chart. Returns production counts."""
    n = len(seq)
    d = params.n_nonterminals
    b, g = charts.inside, charts.inside_scale
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
        split_scales = np.array([g[w1] + g[w - w1] for w1 in range(1, w)])
        m = split_scales.max()
        weights = np.zeros((w - 1, d, d))
        for w1 in range(1, w):
            s = split_scales[w1 - 1]
            if s == -np.inf:
                continue
            weights[w1 - 1] = np.exp(s - m) * table * np.outer(b[i, i + w1 - 1], b[i + w1, j])
        flat = weights.reshape(-1)
        total = flat.sum()
        if total <= 0.0:
            raise ValueError("cannot sample a tree for a zero-evidence span")
        choice = int(np.searchsorted(np.cumsum(flat), rng.random() * total, side="right"))
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
    prior: PcfgPrior,
    rng: np.random.Generator,
) -> PcfgParams:
    """One sweep: sample a tree per sequence, then production rows from their
    Dirichlet posteriors (the start emission row stays pinned at zero)."""
    d, v = params.n_nonterminals, params.vocab_size
    start_acc = np.zeros((d, d))
    rule_acc = np.zeros((d, d, d))
    emit_acc = np.zeros((d, v))
    for i, seq in enumerate(sequences):
        charts = inside(params, seq)
        if charts.log_evidence == -np.inf:
            raise ValueError(f"training sequence {i} has zero evidence")
        s, r, e = _sample_tree_from_charts(params, seq, charts, rng)
        start_acc += s
        rule_acc += r
        emit_acc += e
    start = _dirichlet_rows(rng, (prior.start_rules + start_acc).reshape(1, -1))[0].reshape(d, d)
    joint_conc = np.concatenate(
        [(prior.rules + rule_acc).reshape(d, d * d), prior.emissions + emit_acc], axis=1
    )
    joint = _dirichlet_rows(rng, joint_conc)
    return PcfgParams(
        start_rules=start,
        start_emissions=np.zeros(v),
        rules=joint[:, : d * d].reshape(d, d, d),
        emissions=joint[:, d * d:],
    )


def gibbs_fit(
    params: PcfgParams,
    train: EncodedDataset | list[np.ndarray],
    prior: PcfgPrior,
    config: GibbsConfig = GibbsConfig(),
) -> tuple[PcfgParams, GibbsTrace]:
    """Bayesian training: keep the maximum-evidence sampled grammar, then
    locally optimize it with a bounded EM polish."""
    sequences = train.sequences if isinstance(train, EncodedDataset) else train
    _check_trainable(params, sequences, config.max_length)
    rng = np.random.default_rng(config.seed)

    trace = GibbsTrace()
    best, best_ll = None, -np.inf
    current = params
    for _ in range(config.n_samples):
        current = _gibbs_step(current, sequences, prior, rng)
        ll = log_evidence_total(current, sequences)
        trace.sample_log_evidence.append(ll)
        if ll > best_ll:
            best, best_ll = current, ll
    polished, polish_trace = em_fit(
        best,
        sequences,
        EmConfig(max_iter=config.polish_iters, rel_tol=config.rel_tol, max_length=config.max_length),
    )
    trace.polish_trace = polish_trace
    return polished, trace


# --------------------------------------------------------- length distribution


def length_log_probabilities(params: PcfgParams, max_length: int) -> np.ndarray:
    """log P(the grammar generates some sequence of exactly length n) for
    every n in 0..max_length; entry 0 is -inf.

    Runs the inside recursion with every terminal cell summed over the
    alphabet; cells depend only on span width, so a single vector per width
    suffices, and the vectors of the widths below n serve every length n.
    """
    if max_length < 1:
        raise ValueError("length must be >= 1")
    d = params.n_nonterminals
    out = np.full(max_length + 1, -np.inf)
    total = params.start_emissions.sum()
    if total > 0.0:
        out[1] = np.log(total)
    vec = np.zeros((max_length, d))  # vec[w-1] scaled inside-sum for width w
    scale = np.full(max_length + 1, -np.inf)
    base = params.emissions.sum(axis=1)
    m = base.max()
    if m > 0.0:
        vec[0] = base / m
        scale[1] = np.log(m)
    for w in range(2, max_length + 1):
        pair_scales = [scale[w1] + scale[w - w1] for w1 in range(1, w)]
        m_comb = max(pair_scales)
        if m_comb == -np.inf:
            continue
        # length w: the start symbol splits it into two shorter widths
        total = 0.0
        for w1 in range(1, w):
            s = pair_scales[w1 - 1]
            if s == -np.inf:
                continue
            total += np.exp(s - m_comb) * float(vec[w1 - 1] @ params.start_rules @ vec[w - w1 - 1])
        if total > 0.0:
            out[w] = np.log(total) + m_comb
        if w == max_length:
            break
        # width w below a nonterminal, for the longer lengths
        acc = np.zeros(d)
        for w1 in range(1, w):
            s = pair_scales[w1 - 1]
            if s == -np.inf:
                continue
            acc += np.exp(s - m_comb) * np.einsum("l,r,zlr->z", vec[w1 - 1], vec[w - w1 - 1], params.rules)
        band_max = acc.max()
        if band_max > 0.0:
            vec[w - 1] = acc / band_max
            scale[w] = m_comb + np.log(band_max)
    return out


def length_probability(params: PcfgParams, length: int) -> float:
    """Probability that a generated sequence has exactly the given length."""
    return float(np.exp(length_log_probabilities(params, length)[length]))


def normalized_log_evidence(
    params: PcfgParams, seq: np.ndarray, log_length: np.ndarray | None = None
) -> float:
    """Log evidence renormalized within the set of sequences of equal length,
    making the grammar comparable with fixed-length sequence models.

    ``log_length`` is a table from ``length_log_probabilities`` that reaches
    len(seq); it is built here when omitted.
    """
    seq = np.asarray(seq)
    n = len(seq)
    if log_length is None:
        log_length = length_log_probabilities(params, n)
    if log_length[n] == -np.inf:
        raise ValueError(f"grammar generates no sequence of length {n}")
    return inside(params, seq).log_evidence - float(log_length[n])


# ------------------------------------------------------------- prediction


def _prediction_weights(params: PcfgParams, seq: np.ndarray) -> np.ndarray:
    """Unnormalized weights of every candidate symbol at every position.

    The single-position outside value is independent of the observed symbol
    there, so row i is the emission-weighted outside vector of cell (i, i),
    and one inside and one outside pass give every row.
    """
    n = len(seq)
    if n < 2:
        raise ValueError("prediction requires sequences of length >= 2")
    a = outside(params, seq, inside(params, seq)).outside
    return np.stack([a[i, i] @ params.emissions for i in range(n)])


def predict_distribution(params: PcfgParams, seq: np.ndarray, position: int) -> np.ndarray:
    """Distribution of the symbol at 1-based ``position`` given the others."""
    seq = np.asarray(seq)
    n = len(seq)
    if not 1 <= position <= n:
        raise ValueError(f"position {position} out of range [1, {n}]")
    return _normalize_predictions(_prediction_weights(params, seq)[position - 1])


def predict_distributions(params: PcfgParams, seq: np.ndarray) -> np.ndarray:
    """Row i is ``predict_distribution(params, seq, i + 1)``; shape (len(seq), V)."""
    return _normalize_predictions(_prediction_weights(params, np.asarray(seq)))


# --------------------------------------------------------------- generation


def tree_log_probability(params: PcfgParams, tree: DerivationTree) -> float:
    """Log probability of one complete derivation tree."""
    total = 0.0
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.terminal is not None:
            row = params.start_emissions if node.head == START else params.emissions[node.head]
            p = row[node.terminal]
        else:
            table = params.start_rules if node.head == START else params.rules[node.head]
            p = table[node.left.head, node.right.head]
            stack.append(node.left)
            stack.append(node.right)
        if p <= 0.0:
            return -np.inf
        total += float(np.log(p))
    return total


def sample_tree(
    params: PcfgParams, seed: int, max_expansions: int = DEFAULT_EXPANSION_CAP
) -> tuple[DerivationTree, np.ndarray]:
    """Ancestral top-down sampling of one derivation tree and its yield."""
    rng = np.random.default_rng(seed)
    d, v = params.n_nonterminals, params.vocab_size

    start_row = np.concatenate([params.start_rules.reshape(-1), params.start_emissions])
    rows = np.concatenate([params.rules.reshape(d, d * d), params.emissions], axis=1)

    expansions = 0
    root = DerivationTree(head=START)
    stack = [root]
    while stack:
        node = stack.pop()
        expansions += 1
        if expansions > max_expansions:
            raise RuntimeError(
                f"exceeded {max_expansions} expansions; the grammar is unlikely to terminate"
            )
        row = start_row if node.head == START else rows[node.head]
        choice = _draw(rng, row)
        if choice < d * d:
            zl, zr = divmod(choice, d)
            node.left = DerivationTree(head=zl)
            node.right = DerivationTree(head=zr)
            stack.append(node.right)
            stack.append(node.left)
        else:
            node.terminal = choice - d * d
    return root, root.yield_ids()
