"""K-th order Markov models of encoded symbol sequences.

Supports additive smoothing and interpolated (modified) Kneser-Ney smoothing.
A fitted model holds one initial table per prefix length (the distribution of
the j-th symbol given the first j-1 symbols) plus the full-order transition
table, all stored densely so that every conditional row is a proper
distribution over the vocabulary.

Fits and scores run on the padded chunks of ``corpus._chunks``, as an HMM's
passes do: one bincount counts every n-gram, and one gather of table rows per
step and window position gives a chunk's evidences and prediction weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import _chunks, _corpus_scores, _live_rows, _sampled_lines, _valid
from .training import _check_rows, _normalize_predictions, _pick, _position_distribution

SMOOTHING_TAGS = ("additive", "kn", "mkn")

_FALLBACK_EPSILON = 0.1

@dataclass
class MarkovModel:
    # the family's file kind, size (header key and attribute), grid, algorithms and extra header lines
    KIND = "markov"
    SIZE_KEY = "order"
    SIZE_GRID = [1, 2, 3]
    ALGOS = SMOOTHING_TAGS
    HEADER = ("smoothing", "epsilon")

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
        _check_epsilon(self.smoothing, self.epsilon)
        for j, table in enumerate(self.initial_tables, start=1):
            if table.shape != (self.vocab_size,) * j:
                raise ValueError(f"initial table {j} has wrong shape {table.shape}")
            _check_rows(table, tol, f"initial table {j}")
        if self.transitions.shape != (self.vocab_size,) * (self.order + 1):
            raise ValueError("transition table has wrong shape")
        _check_rows(self.transitions, tol, "transition table")

    @staticmethod
    def param_count(size: int, vocab_size: int) -> int:  # free parameters after normalization
        return sum(vocab_size**j for j in range(size + 1)) * (vocab_size - 1)

    @staticmethod
    def layout(vocab_size: int, size: int):
        """Each table's name and (rows, columns), in file order. A generator, so a
        loader works out a table's shape only once the tables before it have
        been read: a huge order fails at its first missing table."""
        for j in range(1, size + 1):
            yield f"initial{j}", (vocab_size ** (j - 1), vocab_size)
        yield "transitions", (vocab_size**size, vocab_size)

    def tables(self) -> list[np.ndarray]:
        return [*self.initial_tables, self.transitions]

    @classmethod
    def from_tables(cls, vocab_size: int, size: int, tables: list[np.ndarray], smoothing: str, epsilon: float | None):
        initial_tables = [table.reshape((vocab_size,) * j) for j, table in enumerate(tables[:-1], start=1)]
        return cls(size, vocab_size, initial_tables, tables[-1].reshape((vocab_size,) * (size + 1)), smoothing, epsilon)

    def header_text(self, key: str) -> str:
        """The text of ``HEADER`` line ``key``; no epsilon is written ``-``."""
        value = getattr(self, key)
        return "-" if value is None else str(value)

    @staticmethod
    def parse_header(key: str, text: str):
        """The value of ``HEADER`` line ``key`` from its ``text``."""
        if key == "smoothing":
            if text not in SMOOTHING_TAGS:
                raise ValueError(f"unknown smoothing {text!r}")
            return text
        try:
            return None if text == "-" else float(text)
        except ValueError:
            raise ValueError(f"epsilon {text!r} is not a number") from None

    def _score_chunk(self, batch: np.ndarray, lengths: np.ndarray, rows: bool = True) -> tuple:
        """Log evidences (B,) of a chunk and, if ``rows``, the (sum of lengths,
        V) weights of every candidate symbol at the positions its lines hold,
        from ones; else None in their place.

        Step t takes the flat index of each live row's window into factor t's
        dense table, whose entry is the observed symbol's factor: its log adds
        to the evidence left to right from 0.0, and a zero factor makes it
        -inf. For the weights, step t gathers, for each position i of the
        window, the table rows with the candidate at i, and multiplies the
        weights at i by them: so i's weights multiply the factors t = i, ...,
        i + order in increasing t.
        """
        b, n = batch.shape
        v = self.vocab_size
        total = np.zeros(b)
        weights = np.ones((b, n, v)) if rows else None
        for t, m in enumerate(_live_rows(lengths, n)):
            lo = max(0, t - self.order)
            table = (self.initial_tables[t] if t < self.order else self.transitions).reshape(-1)
            window = batch[:m, lo:t + 1]
            flat = np.ravel_multi_index(tuple(window.T), (v,) * (t - lo + 1))
            if rows:
                strides = v ** np.arange(t - lo, -1, -1)
                for a, stride in enumerate(strides.tolist()):
                    weights[:m, lo + a] *= table[(flat - window[:, a] * stride)[:, None] + np.arange(v) * stride]
            with np.errstate(divide="ignore"):  # log 0 is -inf, and so is every sum with it
                total[:m] += np.log(table[flat])
        return total, weights[_valid(lengths, n)] if rows else None

    def _score(self, seqs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Each sequence's log evidence and the (sum of lengths, V) weights of its positions."""
        v = self.vocab_size
        return _corpus_scores(seqs, _chunks(seqs, v, v), self._score_chunk, v)

    def log_evidence(self, seq: np.ndarray) -> float:
        """Natural-log probability of a full sequence: a batch of one."""
        return float(self.log_evidences([np.asarray(seq)])[0])

    def predict_distribution(self, seq: np.ndarray, position: int) -> np.ndarray:
        """Distribution of the symbol at 1-based ``position`` given the others."""
        return _position_distribution(seq, position, lambda s, i: self._score([s])[1][i])

    def log_evidences(self, seqs: list[np.ndarray]) -> np.ndarray:
        """Each sequence's log evidence in corpus order, -inf where it is zero:
        the chunks' walk without their prediction weights."""
        log_ev = np.empty(len(seqs))
        for idx, batch, lengths in _chunks(seqs, 1, self.vocab_size):
            log_ev[idx] = self._score_chunk(batch, lengths, rows=False)[0]
        return log_ev

    def score(self, seqs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Each sequence's log evidence and the prediction rows of its positions, in corpus order."""
        log_ev, weights = self._score(seqs)
        return log_ev, _normalize_predictions(weights)

    @staticmethod
    def fit(train: list[np.ndarray], vocab_size: int, size: int, algo: str, cfg, seed_of) -> tuple:
        """The model of one grid cell, of order ``size`` and smoothing ``algo``, as ``HmmParams.fit``; no seed."""
        model = fit(train, vocab_size, order=size, smoothing=algo, epsilon=cfg.epsilon)
        return model, {"algorithm": algo}, model.log_evidences(train)

    def describe(self, vocab, threshold: float) -> dict:
        raise ValueError("Markov models have no latent structure to analyze")

    generate = _sampled_lines

    def sample_sequence(self, length: int, seeds: list[int]) -> np.ndarray:
        """One line of the given length per seed, as a (len(seeds), length)
        array: row i takes its ``length`` uniforms from ``default_rng(seeds[i])``
        and is what seed i draws alone."""
        if length < 1:
            raise ValueError("length must be >= 1")
        u = np.array([np.random.default_rng(seed).random(length) for seed in seeds]).reshape(-1, length)
        v = self.vocab_size
        out = np.empty(u.shape, dtype=np.int64)
        for pos in range(length):
            lo = max(0, pos - self.order)
            table = (self.initial_tables[pos] if pos < self.order else self.transitions).reshape(-1, v)
            context = out[:, lo:pos] @ v ** np.arange(pos - lo - 1, -1, -1)  # each line's row of the table
            out[:, pos] = _pick(np.cumsum(table[context], axis=1), u[:, pos])
        return out


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
    epsilon = epsilon if smoothing == "additive" else None
    _check_epsilon(smoothing, epsilon)
    if len(sequences) == 0:
        raise ValueError("training data is empty")

    n = vocab_size
    # a line's first j symbols are the one j-gram of its prefix of length j
    prefix_counts = [_ngram_counts([seq[:j] for seq in sequences], j, n) for j in range(1, order + 1)]
    initial_tables = [_build_table(counts, smoothing, epsilon, n) for counts in prefix_counts]
    transitions = _build_table(_ngram_counts(sequences, order + 1, n), smoothing, epsilon, n)
    model = MarkovModel(
        order=order,
        vocab_size=n,
        initial_tables=initial_tables,
        transitions=transitions,
        smoothing=smoothing,
        epsilon=epsilon,
    )
    model.validate()
    return model


def _check_epsilon(smoothing: str, epsilon: float | None) -> None:
    """Additive smoothing needs a finite epsilon > 0; KN and MKN take none."""
    if smoothing == "additive":
        if epsilon is None or not 0.0 < epsilon < np.inf:  # a NaN fails too
            raise ValueError(f"additive smoothing requires a finite epsilon > 0, got {epsilon!r}")
    elif epsilon is not None:
        raise ValueError(f"{smoothing} smoothing takes no epsilon, got {epsilon!r}")


def _ngram_counts(sequences: list[np.ndarray], width: int, n: int) -> np.ndarray:
    """Counts of every ``width``-gram of each sequence: the windows of the
    padded chunks, in one bincount; a line shorter than ``width`` has none."""
    cells = [np.zeros(0, dtype=np.int64)]
    for _, batch, lengths in _chunks(sequences, n, n):
        if batch.shape[1] >= width:
            flat = np.lib.stride_tricks.sliding_window_view(batch, width, axis=1) @ n ** np.arange(width - 1, -1, -1)
            cells.append(flat[_valid(lengths - width + 1, flat.shape[1])])
    return np.bincount(np.concatenate(cells), minlength=n**width).astype(np.float64).reshape((n,) * width)


def _build_table(counts: np.ndarray, smoothing: str, epsilon: float | None, n: int) -> np.ndarray:
    if smoothing == "additive":
        return _additive_table(counts, epsilon, n)
    table = _kn_table(counts, n, modified=(smoothing == "mkn"))
    return _additive_table(counts, _FALLBACK_EPSILON, n) if table is None else table


def _additive_table(counts: np.ndarray, epsilon: float, n: int) -> np.ndarray:
    totals = counts.sum(axis=-1, keepdims=True)
    return (counts + epsilon) / (totals + epsilon * n)


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


def _discounts(counts: np.ndarray, modified: bool) -> np.ndarray | None:
    """Absolute discounts indexed by count bracket (0, 1, 2, 3+).

    None when the count-of-counts give no estimate, or give a zero discount to
    a bracket some count falls in: such a table would reserve no mass for
    unseen symbols.
    """
    flat = counts.reshape(-1).astype(np.int64)
    occupied = flat[flat > 0]
    n1 = int((occupied == 1).sum())
    n2 = int((occupied == 2).sum())
    if n1 + 2 * n2 == 0:
        return None
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
        return None
    return discounts


def _kn_table(top_counts: np.ndarray, n: int, modified: bool) -> np.ndarray | None:
    """Interpolated (modified) Kneser-Ney probability table.

    Discounts are estimated per interpolation level from that level's
    count-of-counts. A lower level whose statistics degenerate inherits the
    discount of the level above it; if the top level itself degenerates this
    returns None and the caller falls back to additive smoothing.
    """
    levels = _adjusted_counts(top_counts)
    discounts = [_discounts(levels[0], modified)]
    if discounts[0] is None:
        return None
    for lv in levels[1:]:
        d = _discounts(lv, modified)
        discounts.append(discounts[-1] if d is None else d)

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

