"""Probabilistic context-free grammars in binary form.

A grammar has a dedicated start symbol plus a set of nonterminals; every
production either rewrites a nonterminal into an ordered pair of nonterminals
or emits a single terminal. Inference uses inside-outside charts kept in
linear space with one log-scale per sequence and span width, which keeps long
sequences inside floating-point range while leaving all identities exact.
Training and evidence run the charts of equal-length sequences together, in
batches of bounded memory; one sequence is a batch of one.

Training enforces the convention that the start symbol never emits directly
(its terminal row is identically zero). No constructor here builds a grammar
with a nonzero start emission row, but inference and scoring accept one, such
as the exact embedding of a length-terminated HMM.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import training
from .config import kappa_from_mean_length
from .markov import _check_ids, _check_rows, _corpus_scores, _entries_above, _normalize_predictions
from .markov import _position_distribution, _top_symbols
from .training import DEFAULT_MAX_TRAIN_LENGTH, GibbsTrace, dirichlet_rows  # the length cap is re-exported

START = -1

DEFAULT_EXPANSION_CAP = 10_000
TREE_UNIFORMS = 32  # the uniforms that ``sample_tree`` draws for a tree at first
# trees that ``generate`` samples and formats at a time, so that it holds one slice's derivations
GENERATE_SLICE = 256


@dataclass
class PcfgParams:
    # the family's facts, as on ``markov.MarkovModel``
    KIND = "pcfg"
    SIZE_KEY = "n_nonterminals"
    SIZE_GRID = list(range(1, 11)) + [15, 20]
    ALGOS = ("em", "gs")
    HEADER = ()

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

    @property
    def productions(self) -> np.ndarray:
        """The (D + 1, D^2 + V) production table: row 0 is the start symbol's,
        row z + 1 nonterminal z's, each over its binary rules then its terminals,
        so a derivation node (head, p) is cell (head + 1, p)."""
        d = self.n_nonterminals
        return np.block([
            [self.start_rules.reshape(1, -1), self.start_emissions[None]],
            [self.rules.reshape(d, d * d), self.emissions],
        ])

    def validate(self, tol: float = 1e-9) -> None:
        _check_rows(self.productions, tol, "production table")

    @staticmethod
    def param_count(size: int, vocab_size: int) -> int:
        return (1 + size) * (size**2 - 1) + size * vocab_size

    @staticmethod
    def layout(v: int, size: int) -> list[tuple[str, tuple[int, int]]]:
        return [("start_rules", (size, size)), ("start_emissions", (1, v)), ("rules", (size, size**2)),
                ("emissions", (size, v))]

    def tables(self) -> list[np.ndarray]:
        return [self.start_rules, self.start_emissions, self.rules, self.emissions]

    @classmethod
    def from_tables(cls, vocab_size: int, size: int, tables: list[np.ndarray]) -> PcfgParams:
        return cls(tables[0], tables[1].reshape(vocab_size), tables[2].reshape(size, size, size), tables[3])

    def log_evidences(self, seqs: list[np.ndarray]) -> np.ndarray:
        """Each sequence's log evidence normalized within its length, -inf where it is zero."""
        return _normalized(self, seqs, _log_evidences(self, seqs))

    def score(self, seqs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """``log_evidences`` and the prediction rows of every position in corpus
        order; a sequence shorter than 2 has none and is refused up front."""
        log_ev, weights = _scores(self, seqs)
        return _normalized(self, seqs, log_ev), _normalize_predictions(weights)

    def predict_distribution(self, seq: np.ndarray, position: int) -> np.ndarray:
        return predict_distribution(self, seq, position)

    @staticmethod
    def fit(train: list[np.ndarray], vocab_size: int, size: int, algo: str, cfg, seed_of) -> tuple:
        """The grammar of one grid cell, as ``HmmParams.fit``, from ``init_random`` or, for
        ``pcfg_init`` "hmm", the linear chain of an HMM that ``HmmParams.fit`` trains by
        Gibbs sampling at the seeds ``seed_of("pcfg-init", ...)``; an unset ``kappa``
        comes from the mean length of ``train``, and an unset ``eta`` is 0.01 / size."""
        if cfg.pcfg_init == "random":
            init = init_random(size, vocab_size, seed_of("init"))
        else:
            from .hmm import HmmParams  # the one use of the HMM family in a grammar process
            base, _, _ = HmmParams.fit(train, vocab_size, size, "gs", cfg, lambda *tags: seed_of("pcfg-init", *tags))
            kappa = cfg.kappa if cfg.kappa is not None else kappa_from_mean_length(sum(map(len, train)) / len(train))
            init = init_from_hmm(base, kappa=kappa, eta=cfg.eta if cfg.eta is not None else 0.01 / size)
        family, log = sys.modules[__name__], {"initialization": cfg.pcfg_init}
        return training.fit(family, init, train, algo, cfg, seed_of, log, max_length=cfg.pcfg_max_length)

    def describe(self, vocab, threshold: float) -> dict:
        """``analyze``'s report: each nonterminal's top symbols, and the start
        rules and rules above ``threshold``."""
        d = self.n_nonterminals
        nonterminals = [{"nonterminal": z, "top_symbols": _top_symbols(self.emissions[z], vocab)} for z in range(d)]
        return {"kind": self.KIND, "n_nonterminals": d, "nonterminals": nonterminals,
                "start_rules_above_threshold": _entries_above(self.start_rules, threshold, ("left", "right")),
                "rules_above_threshold": _entries_above(self.rules, threshold, ("head", "left", "right")),
                "threshold": threshold}

    def generate(self, vocab, seeds: list[int], length: int | None, trees: bool) -> list[str]:
        """One line per seed, a sampled tree's yield or with ``trees`` the tree bracketed."""
        if length is not None:
            raise ValueError("grammar sampling determines its own length; drop --length")
        lines = []
        for lo in range(0, len(seeds), GENERATE_SLICE):
            for derivation, ids in sample_tree(self, seeds[lo:lo + GENERATE_SLICE]):
                lines.append(bracketed(derivation, self.n_nonterminals, vocab.symbols) if trees
                             else " ".join(vocab.symbols[x] for x in ids.tolist()))
        return lines


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
    return _from_counts(lambda c: dirichlet_rows(rng, 1.0 + c), np.zeros((d + 1, d * d + v)))


def _from_counts(rows, counts: np.ndarray) -> PcfgParams:
    """A grammar whose start symbol never emits, from a table of production
    counts laid out as ``PcfgParams.productions``: its start rules are
    ``rows`` of the start row's binary-rule counts, and its joint production
    rows are ``rows`` of the other rows, drawn in that order."""
    d = len(counts) - 1
    start_rules = rows(counts[:1, : d * d]).reshape(d, d)
    joint = rows(counts[1:])
    return PcfgParams(
        start_rules=start_rules,
        start_emissions=np.zeros(joint.shape[1] - d * d),
        rules=joint[:, : d * d].reshape(d, d, d),
        emissions=joint[:, d * d:],
    )


def init_from_hmm(params, kappa: float, eta: float) -> PcfgParams:
    """Approximate linear-chain grammar built from HMM parameters, an ``hmm.HmmParams``.

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


def _batches(sequences: list[np.ndarray], d: int, vocab_size: int):
    """(corpus indices, stacked sequences) of equal length, in ascending length
    order, each holding at most MAX_BATCH_FLOATS floats at its peak (at least
    one sequence). An id outside 0..vocab_size-1 raises."""
    by_len: dict[int, list[int]] = {}
    for i, seq in enumerate(sequences):
        by_len.setdefault(len(seq), []).append(i)
    for n in sorted(by_len):
        idx = np.asarray(by_len[n], dtype=np.int64)
        size = max(1, MAX_BATCH_FLOATS // (4 * d * n * (n + 1) + d * d * (n - 1)))
        for lo in range(0, len(idx), size):
            batch = np.stack([sequences[i] for i in idx[lo:lo + size]])
            _check_ids(idx[lo:lo + size], batch, vocab_size)
            yield idx[lo:lo + size], batch


def inside(params: PcfgParams, seq: np.ndarray) -> _ChartBatch:
    """Inside chart of one sequence: a batch of one."""
    return _inside_batch(params, np.asarray(seq)[None])


def outside(params: PcfgParams, chart: _ChartBatch) -> tuple[np.ndarray, np.ndarray]:
    """Outside chart and width scales of an inside chart batch."""
    return _outside_batch(params, chart.by_start, chart.by_end, chart.scale)


def _log_evidences(params: PcfgParams, sequences: list[np.ndarray]) -> np.ndarray:
    """Each sequence's log evidence, in corpus order."""
    out = np.empty(len(sequences))
    for idx, batch in _batches(sequences, params.n_nonterminals, params.vocab_size):
        out[idx] = _inside_batch(params, batch).log_evidence
    return out


def _e_step(params: PcfgParams, sequences: list[np.ndarray]):
    """Posterior expected production counts summed over the sequences, as a
    table laid out as ``PcfgParams.productions``, and each sequence's log
    evidence in corpus order. A zero-evidence sequence adds no counts.

    The rule counts of width w come from one matrix product per batch: each
    parent's outside vector, weighted by its share of the evidence, against
    that width's pair matrix, rebuilt from the inside chart; the start counts
    take the pair matrix of the whole sequence.
    """
    d, v = params.n_nonterminals, params.vocab_size
    counts = np.zeros((d + 1, d * d + v))
    # views of the table's blocks, which the sums below write through
    start, rules, emit_t = counts[0, : d * d], counts[1:, : d * d], counts[1:, d * d:].T
    log_ev = np.empty(len(sequences))
    for idx, batch in _batches(sequences, d, params.vocab_size):
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
    counts[:, : d * d] *= params.productions[:, : d * d]
    return counts, log_ev


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
) -> tuple[PcfgParams, list[float], np.ndarray]:
    """Inside-outside maximum-likelihood training; the trace ends at the
    returned parameters, and so do the training ``log_evidences``."""
    _check_trainable(params, sequences, config.max_length)
    fitted, trace, log_ev = training.em(
        params, lambda p: _e_step(p, sequences), _from_counts, lambda p: _log_evidences(p, sequences), config
    )
    return fitted, trace, _normalized(fitted, sequences, log_ev)


def log_evidence_total(params: PcfgParams, sequences: list[np.ndarray]) -> float:
    """Sum of sequence log evidences over a dataset, in corpus order."""
    return training.sum_in_order(_log_evidences(params, sequences))


def _sample_trees(params: PcfgParams, batch: np.ndarray, chart: _ChartBatch, rows: np.ndarray, uniforms: np.ndarray):
    """Draw a posterior tree for each of ``rows`` of a chart batch of length n,
    top down on its inside chart, all in lockstep: the frontier spans of width
    n, n - 1, ..., 2 in turn, those of one width as one weight tensor.

    A binary node at index p, its place in preorder (left child first) among
    the binary nodes, takes ``uniforms[row, p]``; if it splits at left width
    w1, its children have indices p + 1 and p + w1. A width-1 child is a leaf
    and takes none. Returns the (row, span start, index, head, production) of
    every node as the columns of one array, in no set order; a node's span
    start plus its index is its place in the preorder derivation that
    ``sample_tree`` returns.
    """
    n, d = batch.shape[1], params.n_nonterminals
    frontier = np.zeros((5, len(rows)), dtype=np.int64)  # each node's row, start, width, head, index
    frontier[0], frontier[2], frontier[3] = rows, n, START
    nodes = []
    for w in range(n, 1, -1):
        (k, i, _, head, p), frontier = frontier[:, frontier[2] == w], frontier[:, frontier[2] != w]
        if not len(k):
            continue
        split_scales = chart.scale[k, 1:w] + chart.scale[k, w - 1:0:-1]  # left child width w1 = 1..w-1
        table = params.start_rules[None] if w == n else params.rules[head]
        outer = chart.by_start[k, i, 1:w, :, None] * chart.by_end[k, i + w - 1, w - 1:0:-1, None, :]
        weights = _exp_diff(split_scales, split_scales.max(axis=1)[:, None])[:, :, None, None] * table[:, None]
        flat = np.multiply(weights, outer, out=weights).reshape(len(k), -1)  # (exp_diff table) (left right)
        total = flat.sum(axis=1)
        if (total <= 0.0).any():
            raise ValueError("cannot sample a tree for a zero-evidence span")
        # the count of CDF entries <= u * total, as searchsorted(side="right") finds it
        cdf = np.cumsum(flat, axis=1, out=flat)
        w1, production = np.divmod(np.count_nonzero(cdf <= (uniforms[k, p] * total)[:, None], axis=1), d * d)
        w1 += 1
        nodes.append(np.stack([k, i, p, head, production]))
        children = [[k, i, w1, production // d, p + 1], [k, i + w1, w - w1, production % d, p + w1]]
        frontier = np.concatenate([frontier, *children], axis=1)
    k, i, _, head, p = frontier  # the leaves
    nodes.append(np.stack([k, i, p, head, d * d + batch[k, i]]))
    return np.concatenate(nodes, axis=1)


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
    The nodes of all trees are counted at once, each in its cell of the
    production table.
    """
    d, v = params.n_nonterminals, params.vocab_size
    ends = np.cumsum([len(seq) - 1 for seq in sequences])
    draws = rng.random(ends[-1])
    log_ev = np.empty(len(sequences))
    nodes = []
    for idx, batch in _batches(sequences, d, v):
        chart = _inside_batch(params, batch)
        log_ev[idx] = chart.log_evidence
        uniforms = draws[ends[idx, None] + np.arange(1 - batch.shape[1], 0)]
        nodes.append(_sample_trees(params, batch, chart, np.flatnonzero(chart.log_evidence > -np.inf), uniforms))
    *_, heads, productions = np.concatenate(nodes, axis=1)
    counts = np.bincount((heads + 1) * (d * d + v) + productions, minlength=(d + 1) * (d * d + v))
    return _from_counts(lambda c: dirichlet_rows(rng, dirichlet_alpha + c), counts.reshape(d + 1, -1)), log_ev


def gibbs_fit(
    params: PcfgParams,
    sequences: list[np.ndarray],
    config: GibbsConfig = GibbsConfig(),
) -> tuple[PcfgParams, GibbsTrace, np.ndarray]:
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


def _normalized(params: PcfgParams, seqs: list[np.ndarray], log_ev: np.ndarray) -> np.ndarray:
    """Each sequence's ``log_ev`` minus the log probability of its length, from
    one length table; -inf for a length the grammar never generates."""
    lengths = np.array([len(seq) for seq in seqs], dtype=np.int64)
    log_length = length_log_probabilities(params, int(lengths.max(initial=1)))[lengths]
    return np.subtract(log_ev, log_length, out=np.full(len(seqs), -np.inf), where=log_length > -np.inf)


def normalized_log_evidence(params: PcfgParams, seq: np.ndarray) -> float:
    """Log evidence renormalized within the set of sequences of equal length."""
    return float(params.log_evidences([np.asarray(seq)])[0])


# ------------------------------------------------------------- prediction


def _scores(params: PcfgParams, seqs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Each sequence's log evidence and the (sum of lengths, V) candidate
    weights at its positions, in corpus order, from ``_score_weights`` per
    batch. The first sequence shorter than 2 raises before any chart runs."""
    short = [i for i, seq in enumerate(seqs) if len(seq) < 2]
    if short:
        raise ValueError(f"sequence {short[0]}: prediction requires sequences of length >= 2")
    d, v = params.n_nonterminals, params.vocab_size
    batches = [(idx, batch, np.full(len(idx), batch.shape[1])) for idx, batch in _batches(seqs, d, v)]
    return _corpus_scores(seqs, batches, lambda batch, _: _score_weights(params, batch), v)


def _score_weights(params: PcfgParams, batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log evidences (B,) of a batch and the (B n, V) candidate weights at its
    positions, line by line, from one inside and one outside pass. Row i of a
    line is the emission-weighted outside vector of its cell (i, i), which
    does not depend on the symbol there."""
    chart = _inside_batch(params, batch)
    out, _ = _outside_batch(params, chart.by_start, chart.by_end, chart.scale)
    return chart.log_evidence, (out[:, :, 1] @ params.emissions).reshape(-1, params.vocab_size)


def predict_distribution(params: PcfgParams, seq: np.ndarray, position: int) -> np.ndarray:
    """Distribution of the symbol at 1-based ``position`` given the others."""
    return _position_distribution(seq, position, lambda s, i: _scores(params, [s])[1][i])


# --------------------------------------------------------------- generation


def sample_tree(
    params: PcfgParams, seeds: list[int], max_expansions: int = DEFAULT_EXPANSION_CAP
) -> list[tuple[list[tuple[int, int]], np.ndarray]]:
    """Ancestral top-down sampling of one derivation and its yield per seed;
    tree i takes one uniform per node from ``default_rng(seeds[i])`` and is
    what seed i draws alone. Drawn in blocks (``TREE_UNIFORMS``, then as many
    again whenever the tree outgrows them), they are those of one call per node.

    The derivation lists each node's (head, production) in preorder, left
    child first; the start symbol's head is START. A production p < D^2
    rewrites the head to (p // D, p % D), and p >= D^2 emits terminal p - D^2.
    """
    d = params.n_nonterminals
    # cumulative production rows as lists that ``bisect`` searches without
    # numpy call overhead; the head's row is head + 1
    cdfs = np.cumsum(params.productions, axis=1).tolist()

    trees = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        uniforms = rng.random(TREE_UNIFORMS).tolist()
        derivation: list[tuple[int, int]] = []
        leaves: list[int] = []
        stack = [START]
        while stack:
            node = len(derivation)
            if node == max_expansions:
                raise RuntimeError(f"exceeded {max_expansions} expansions; the grammar is unlikely to terminate")
            if node == len(uniforms):
                uniforms += rng.random(node).tolist()
            head = stack.pop()
            choice = bisect_right(cdfs[head + 1], uniforms[node])
            derivation.append((head, choice))
            if choice < d * d:
                stack.append(choice % d)
                stack.append(choice // d)
            else:
                leaves.append(choice - d * d)
        trees.append((derivation, np.asarray(leaves, dtype=np.int64)))
    return trees


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
