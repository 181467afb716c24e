"""K-th order Markov models of encoded symbol sequences.

Supports additive smoothing and interpolated (modified) Kneser-Ney smoothing.
A fitted model holds one initial table per prefix length (the distribution of
the j-th symbol given the first j-1 symbols) plus the full-order transition
table, all stored densely so that every conditional row is a proper
distribution over the vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SMOOTHING_TAGS = ("additive", "kn", "mkn")

_FALLBACK_EPSILON = 0.1


@dataclass
class MarkovModel:
    order: int
    vocab_size: int
    # initial_tables[j-1] has shape (vocab_size,) * j and gives
    # P(x_j | x_1 .. x_{j-1}); the last axis is the predicted symbol.
    initial_tables: list[np.ndarray]
    # transitions has shape (vocab_size,) * (order + 1).
    transitions: np.ndarray
    smoothing: str
    epsilon: float | None = None

    def validate(self, tol: float = 1e-9) -> None:
        for j, table in enumerate(self.initial_tables, start=1):
            if table.shape != (self.vocab_size,) * j:
                raise ValueError(f"initial table {j} has wrong shape {table.shape}")
            _check_rows(table, tol, f"initial table {j}")
        if self.transitions.shape != (self.vocab_size,) * (self.order + 1):
            raise ValueError("transition table has wrong shape")
        _check_rows(self.transitions, tol, "transition table")

    def _step_distribution(self, seq: np.ndarray, pos: int) -> np.ndarray:
        """Conditional distribution of the symbol at 0-based ``pos`` given the
        preceding symbols of ``seq``."""
        if pos < self.order:
            table = self.initial_tables[pos]
            ctx = seq[:pos]
        else:
            table = self.transitions
            ctx = seq[pos - self.order:pos]
        return table[tuple(int(c) for c in ctx)]

    def log_evidence(self, seq: np.ndarray) -> float:
        """Natural-log probability of a full sequence."""
        seq = np.asarray(seq)
        if len(seq) == 0:
            raise ValueError("sequence must be non-empty")
        total = 0.0
        for pos in range(len(seq)):
            p = self._step_distribution(seq, pos)[int(seq[pos])]
            if p <= 0.0:
                return -np.inf
            total += float(np.log(p))
        return total

    def _position_weights(self, seq: np.ndarray, i: int) -> np.ndarray:
        """Unnormalized weights of each candidate symbol at 0-based ``i``.

        Only the conditional factors whose context window touches the queried
        position vary with the candidate symbol, so the weights are the
        product of those factors.
        """
        n = len(seq)
        probs = np.ones(self.vocab_size)
        for pos in range(i, min(i + self.order, n - 1) + 1):
            if pos < self.order:
                table = self.initial_tables[pos]
                lo = 0
            else:
                table = self.transitions
                lo = pos - self.order
            # Build an index with a free axis at the queried position.
            idx: list = []
            for j in range(lo, pos + 1):
                idx.append(slice(None) if j == i else int(seq[j]))
            factor = table[tuple(idx)]
            probs = probs * factor
        return probs

    def predict_distribution(self, seq: np.ndarray, position: int) -> np.ndarray:
        """Distribution of the symbol at 1-based ``position`` given all other
        symbols of ``seq``."""
        return _position_distribution(seq, position, self._position_weights)

    def predict_distributions(self, seq: np.ndarray) -> np.ndarray:
        """Row i is ``predict_distribution(seq, i + 1)``; shape (len(seq), V)."""
        seq = np.asarray(seq)
        return _normalize_predictions(np.stack([self._position_weights(seq, i) for i in range(len(seq))]))

    def log_evidences(self, seqs: list[np.ndarray]):
        """Each sequence's log evidence in turn, in corpus order."""
        return map(self.log_evidence, seqs)

    def score(self, seqs: list[np.ndarray]):
        """Each sequence's log evidence and prediction rows, in turn."""
        return self.log_evidences(seqs), map(self.predict_distributions, seqs)

    def sample_sequence(self, length: int, seed: int) -> np.ndarray:
        if length < 1:
            raise ValueError("length must be >= 1")
        rng = np.random.default_rng(seed)
        out = np.empty(length, dtype=np.int64)
        for pos in range(length):
            row = self._step_distribution(out[:pos], pos)
            out[pos] = _draw(rng, row)
        return out


def _draw(rng: np.random.Generator, row: np.ndarray) -> int:
    return int(np.searchsorted(np.cumsum(row), rng.random(), side="right"))


def _normalize_predictions(weights: np.ndarray) -> np.ndarray:
    """Scale per-position candidate weights (the last axis) to distributions."""
    totals = weights.sum(axis=-1, keepdims=True)
    if (totals <= 0.0).any():
        raise ValueError("no symbol has positive probability at this position")
    return weights / totals


def _position_distribution(seq: np.ndarray, position: int, weights) -> np.ndarray:
    """Distribution of the symbol at 1-based ``position`` of ``seq``, where
    ``weights(seq, i)`` gives the candidate weights at 0-based position i."""
    seq = np.asarray(seq)
    if not 1 <= position <= len(seq):
        raise ValueError(f"position {position} out of range [1, {len(seq)}]")
    return _normalize_predictions(weights(seq, position - 1))


def _check_rows(table: np.ndarray, tol: float, label: str) -> None:
    if (table < 0).any():
        raise ValueError(f"{label} has negative entries")
    sums = table.sum(axis=-1)
    if not np.allclose(sums, 1.0, rtol=0, atol=tol):
        worst = float(np.abs(sums - 1.0).max())
        raise ValueError(f"{label} rows do not sum to 1 (max deviation {worst:.3g})")


def fit(
    sequences: list[np.ndarray],
    vocab_size: int,
    order: int,
    smoothing: str = "additive",
    epsilon: float = 0.1,
) -> MarkovModel:
    """Fit a k-th order model with the requested smoothing.

    Additive smoothing adds ``epsilon`` to every count. KN and MKN use
    interpolated absolute discounting that recurses through shorter contexts
    down to a unigram level interpolated with the uniform distribution; each
    table whose top-level discount statistics degenerate (no singleton or
    doubleton counts, or a zero discount for an observed count) falls back to
    additive smoothing with epsilon 0.1.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if smoothing not in SMOOTHING_TAGS:
        raise ValueError(f"unknown smoothing {smoothing!r}")
    if smoothing == "additive" and epsilon <= 0:
        raise ValueError("additive smoothing requires epsilon > 0")
    if len(sequences) == 0:
        raise ValueError("training data is empty")

    n = vocab_size
    initial_tables = []
    for j in range(1, order + 1):
        counts = _prefix_counts(sequences, j, n)
        initial_tables.append(_build_table(counts, smoothing, epsilon, n))
    trans_counts = _ngram_counts(sequences, order + 1, n)
    transitions = _build_table(trans_counts, smoothing, epsilon, n)
    model = MarkovModel(
        order=order,
        vocab_size=n,
        initial_tables=initial_tables,
        transitions=transitions,
        smoothing=smoothing,
        epsilon=epsilon if smoothing == "additive" else None,
    )
    model.validate()
    return model


def _prefix_counts(sequences: list[np.ndarray], width: int, n: int) -> np.ndarray:
    """Counts of the first ``width`` symbols of each sequence of length >= width."""
    counts = np.zeros((n,) * width, dtype=np.float64)
    for seq in sequences:
        if len(seq) >= width:
            counts[tuple(int(s) for s in seq[:width])] += 1
    return counts


def _ngram_counts(sequences: list[np.ndarray], width: int, n: int) -> np.ndarray:
    """Counts of every ``width``-gram of each sequence."""
    counts = np.zeros((n,) * width, dtype=np.float64)
    flat = counts.reshape(-1)
    for seq in sequences:
        if len(seq) < width:
            continue
        windows = np.lib.stride_tricks.sliding_window_view(seq, width)
        ravel = np.zeros(len(windows), dtype=np.int64)
        for j in range(width):
            ravel = ravel * n + windows[:, j]
        np.add.at(flat, ravel, 1.0)
    return counts


def _build_table(counts: np.ndarray, smoothing: str, epsilon: float, n: int) -> np.ndarray:
    if smoothing == "additive":
        return _additive_table(counts, epsilon, n)
    try:
        return _kn_table(counts, n, modified=(smoothing == "mkn"))
    except _DegenerateCounts:
        return _additive_table(counts, _FALLBACK_EPSILON, n)


def _additive_table(counts: np.ndarray, epsilon: float, n: int) -> np.ndarray:
    totals = counts.sum(axis=-1, keepdims=True)
    return (counts + epsilon) / (totals + epsilon * n)


class _DegenerateCounts(Exception):
    pass


def _adjusted_counts(top: np.ndarray) -> list[np.ndarray]:
    """Counts used at each interpolation level, longest context first.

    The top level uses raw counts; each lower level counts the distinct
    single-symbol left extensions present at the level above.
    """
    levels = [top]
    current = top
    while current.ndim > 1:
        current = (current > 0).sum(axis=0).astype(np.float64)
        levels.append(current)
    return levels


def _discounts(counts: np.ndarray, modified: bool) -> np.ndarray:
    """Absolute discounts indexed by count bracket (0, 1, 2, 3+).

    Raises _DegenerateCounts when the count-of-counts give no estimate, or
    give a zero discount to a bracket some count falls in: such a table would
    reserve no mass for unseen symbols.
    """
    flat = counts.reshape(-1).astype(np.int64)
    occupied = flat[flat > 0]
    n1 = int((occupied == 1).sum())
    n2 = int((occupied == 2).sum())
    if n1 + 2 * n2 == 0:
        raise _DegenerateCounts
    y = n1 / (n1 + 2.0 * n2)
    if not modified:
        discounts = np.array([0.0, y, y, y])
    else:
        n3 = int((occupied == 3).sum())
        n4 = int((occupied == 4).sum())
        d1 = 1.0 - 2.0 * y * (n2 / n1) if n1 > 0 else 1.0
        d2 = 2.0 - 3.0 * y * (n3 / n2) if n2 > 0 else 2.0
        d3 = 3.0 - 4.0 * y * (n4 / n3) if n3 > 0 else 3.0
        discounts = np.array(
            [0.0, min(max(d1, 0.0), 1.0), min(max(d2, 0.0), 2.0), min(max(d3, 0.0), 3.0)]
        )
    if (discounts[np.minimum(occupied, 3)] == 0.0).any():
        raise _DegenerateCounts
    return discounts


def _kn_table(top_counts: np.ndarray, n: int, modified: bool) -> np.ndarray:
    """Interpolated (modified) Kneser-Ney probability table.

    Discounts are estimated per interpolation level from that level's
    count-of-counts. A lower level whose statistics degenerate inherits the
    discount of the level above it; if the top level itself degenerates this
    raises _DegenerateCounts and the caller falls back to additive smoothing.
    """
    levels = _adjusted_counts(top_counts)
    discounts = [_discounts(levels[0], modified)]
    for lv in levels[1:]:
        try:
            discounts.append(_discounts(lv, modified))
        except _DegenerateCounts:
            discounts.append(discounts[-1])

    # Unigram level, interpolated with the uniform distribution.
    uni_counts = levels[-1]
    d = discounts[-1]
    table = _interpolate(uni_counts[np.newaxis, :], d, np.full((1, n), 1.0 / n))[0]

    for counts, d in zip(levels[-2::-1], discounts[-2::-1]):
        rows = counts.reshape(-1, n)
        lower = np.broadcast_to(table, counts.shape).reshape(-1, n)
        table = _interpolate(rows, d, lower).reshape(counts.shape)
    return table


def _interpolate(rows: np.ndarray, discounts: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """One level of interpolated discounting.

    rows: (R, n) counts per context; lower: (R, n) backoff distribution.
    Contexts with no observations copy the backoff distribution.
    """
    totals = rows.sum(axis=1, keepdims=True)
    bracket = np.minimum(rows, 3).astype(np.int64)
    d = discounts[bracket]
    discounted = np.maximum(rows - d, 0.0)
    reserved = (np.minimum(rows, d)).sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (discounted + reserved * lower) / totals
    unseen = (totals == 0.0).reshape(-1)
    out[unseen] = lower[unseen]
    return out

