"""Corpus ingestion: parsing, vocabulary truncation, encoding, splitting.

The corpus format is plain UTF-8 text with one chord sequence per line and
whitespace-separated chord symbols. Symbols are arbitrary strings; anything
outside the retained vocabulary is mapped to the reserved ``Other`` symbol.
Each stage passes plain values: ``parse_corpus`` gives one token list per
line, ``encode`` turns them into integer id arrays, and ``split`` and
``subsample`` take and give lists of those arrays, the one sequence type that
every model family trains and scores on.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

OTHER_SYMBOL = "Other"

VOCAB_MAGIC = "chordlm-vocab v1"


@dataclass
class Vocabulary:
    """Bijection between retained chord symbols and dense integer ids.

    ``symbols`` lists the retained symbols in id order; ``counts`` carries the
    training-corpus frequency of each entry (the ``Other`` count aggregates
    every replaced symbol).
    """

    symbols: list[str]
    counts: list[int] = field(default_factory=list)
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.counts:
            self.counts = [0] * len(self.symbols)
        if len(self.counts) != len(self.symbols):
            raise ValueError("counts length must match symbols length")
        self.index = {}
        for sym, cnt in zip(self.symbols, self.counts):
            _check_entry(sym, cnt, self.index)
            self.index[sym] = len(self.index)

    @property
    def size(self) -> int:
        return len(self.symbols)

    def content_hash(self) -> str:
        """Hash of the symbol list, used to pin models to their vocabulary."""
        payload = "\n".join(self.symbols).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def save(self, path) -> None:
        lines = [VOCAB_MAGIC]
        for i, (sym, cnt) in enumerate(zip(self.symbols, self.counts)):
            lines.append(f"{i}\t{sym}\t{cnt}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        lines = numbered_lines(path)
        if not lines or lines[0][1] != VOCAB_MAGIC:
            raise ValueError(f"{path} is not a vocabulary file (missing {VOCAB_MAGIC!r} header)")
        symbols, counts, ids = [], [], {}
        for number, ln in lines[1:]:
            try:  # id, symbol and count, tab-separated
                ident, sym, cnt = ln.split("\t")
                if int(ident) != len(symbols):
                    raise ValueError(f"id {ident} is not the next dense id {len(symbols)}")
                _check_entry(sym, int(cnt), ids)
            except ValueError as exc:
                raise ValueError(f"{path} line {number}: {exc}") from None
            ids[sym] = len(symbols)
            symbols.append(sym)
            counts.append(int(cnt))
        return cls(symbols=symbols, counts=counts)


def decode_text(raw: bytes, path) -> str:
    """The text of a UTF-8 file's ``raw`` bytes as they are, without one leading
    byte-order mark; a byte that is not UTF-8 is a ValueError naming the file."""
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from None


def read_text(path) -> str:
    """A UTF-8 file's text; a byte that is not UTF-8 is a ValueError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from None


def numbered_lines(path) -> list[tuple[int, str]]:
    """The nonblank lines of a UTF-8 file, each with its 1-based number."""
    return [(number, line) for number, line in enumerate(read_text(path).split("\n"), 1) if line.strip()]


def _check_entry(symbol: str, count: int, index: dict[str, int]) -> None:
    """The rules of one vocabulary entry, given the ids of the entries before it."""
    if symbol.split() != [symbol]:  # as parse_corpus splits a line
        raise ValueError(f"symbol {symbol!r} is empty or holds whitespace")
    if symbol in index:
        raise ValueError(f"symbol {symbol!r} already has id {index[symbol]}")
    if count < 0:
        raise ValueError(f"count {count} is negative")


def parse_corpus(text: str) -> list[list[str]]:
    """Parse a corpus document into one token list per nonblank line, its
    whitespace-separated symbols; so no list and no token is empty. A line ends at
    ``\n`` alone; other whitespace, ``\r`` and U+2028 too, separates symbols."""
    sequences = []
    for line in text.split("\n"):
        tokens = line.split()
        if tokens:
            sequences.append(tokens)
    return sequences


def build_vocabulary(sequences: list[list[str]], k: int) -> Vocabulary:
    """Retain the ``k`` most frequent symbols plus ``Other``.

    Frequency ties are broken lexicographically so the result is a pure
    function of the corpus. Symbols are ordered by descending count.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    counter: Counter[str] = Counter()
    for tokens in sequences:
        counter.update(tokens)
    # literal "Other" tokens always land in the reserved bucket
    literal_other = counter.pop(OTHER_SYMBOL, 0)
    ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = ranked[:k]
    other_count = sum(c for _, c in ranked[k:]) + literal_other
    symbols = [s for s, _ in kept] + [OTHER_SYMBOL]
    counts = [c for _, c in kept] + [other_count]
    return Vocabulary(symbols=symbols, counts=counts)


def encode(sequences: list[list[str]], vocab: Vocabulary) -> list[np.ndarray]:
    """Map token lists to id arrays; out-of-vocabulary tokens map to the
    ``Other`` id."""
    other = vocab.index.get(OTHER_SYMBOL)
    encoded = []
    for tokens in sequences:
        ids = [vocab.index.get(t, other) for t in tokens]
        if any(i is None for i in ids):
            raise ValueError("vocabulary has no Other symbol for OOV tokens")
        encoded.append(np.asarray(ids, dtype=np.int64))
    return encoded


def split(sequences: list[np.ndarray], test_count: int, seed: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Deterministically split off ``test_count`` random sequences: (train, test)."""
    n = len(sequences)
    if not 0 <= test_count <= n:
        raise ValueError(f"test_count {test_count} out of range [0, {n}]")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    test_idx = sorted(perm[:test_count].tolist())
    train_idx = sorted(perm[test_count:].tolist())
    return [sequences[i] for i in train_idx], [sequences[i] for i in test_idx]


def subsample(sequences: list[np.ndarray], n_x: int, seed: int) -> list[np.ndarray]:
    """Uniform subsample without replacement: the side that ``split`` takes
    off with the same seed.

    For a fixed seed the selected index sets are nested across sizes, so
    growing ``n_x`` only ever adds sequences.
    """
    n = len(sequences)
    if not 1 <= n_x <= n:
        raise ValueError(f"subsample size {n_x} out of range [1, {n}]")
    return split(sequences, n_x, seed)[1]
