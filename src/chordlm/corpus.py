"""Corpus ingestion: parsing, vocabulary truncation, encoding, splitting.

The corpus format is plain UTF-8 text with one chord sequence per line and
whitespace-separated chord symbols. Symbols are arbitrary strings; anything
outside the retained vocabulary is mapped to the reserved ``Other`` symbol.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

OTHER_SYMBOL = "Other"

VOCAB_MAGIC = "chordlm-vocab v1"


@dataclass(frozen=True)
class ChordSequence:
    """An ordered, non-empty sequence of chord symbol strings."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        if len(self.tokens) == 0:
            raise ValueError("chord sequence must contain at least one token")
        if any(t == "" for t in self.tokens):
            raise ValueError("chord sequence contains an empty token")

    def __len__(self) -> int:
        return len(self.tokens)


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
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("vocabulary symbols must be distinct")
        if not self.counts:
            self.counts = [0] * len(self.symbols)
        if len(self.counts) != len(self.symbols):
            raise ValueError("counts length must match symbols length")
        self.index = {s: i for i, s in enumerate(self.symbols)}

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
        with open(path, encoding="utf-8") as fh:
            lines = [(number, ln.rstrip("\n")) for number, ln in enumerate(fh, 1) if ln.strip()]
        if not lines or lines[0][1] != VOCAB_MAGIC:
            raise ValueError(f"{path} is not a vocabulary file (missing {VOCAB_MAGIC!r} header)")
        symbols, counts = [], []
        for number, ln in lines[1:]:
            try:  # id, symbol and count, tab-separated
                ident, sym, cnt = ln.split("\t")
                if int(ident) != len(symbols):
                    raise ValueError(f"id {ident} is not the next dense id {len(symbols)}")
                counts.append(int(cnt))
            except ValueError as exc:
                raise ValueError(f"{path} line {number}: {exc}") from None
            symbols.append(sym)
        return cls(symbols=symbols, counts=counts)


@dataclass
class EncodedDataset:
    """Integer-encoded sequences together with the vocabulary that encodes them."""

    sequences: list[np.ndarray]
    vocab: Vocabulary

    def __post_init__(self):
        for seq in self.sequences:
            if len(seq) == 0:
                raise ValueError("encoded dataset contains an empty sequence")
            if seq.min(initial=0) < 0 or seq.max(initial=0) >= self.vocab.size:
                raise ValueError("encoded id out of vocabulary range")

    def __len__(self) -> int:
        return len(self.sequences)

    @property
    def n_symbols(self) -> int:
        return self.vocab.size


def parse_corpus(text: str) -> list[ChordSequence]:
    """Parse a corpus document: one sequence per line, whitespace-separated
    tokens, blank lines skipped."""
    sequences = []
    for line in text.splitlines():
        tokens = line.split()
        if tokens:
            sequences.append(ChordSequence(tokens=tuple(tokens)))
    return sequences


def build_vocabulary(sequences: list[ChordSequence], k: int) -> Vocabulary:
    """Retain the ``k`` most frequent symbols plus ``Other``.

    Frequency ties are broken lexicographically so the result is a pure
    function of the corpus. Symbols are ordered by descending count.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    counter: Counter[str] = Counter()
    for seq in sequences:
        counter.update(seq.tokens)
    # literal "Other" tokens always land in the reserved bucket
    literal_other = counter.pop(OTHER_SYMBOL, 0)
    ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = ranked[:k]
    other_count = sum(c for _, c in ranked[k:]) + literal_other
    symbols = [s for s, _ in kept] + [OTHER_SYMBOL]
    counts = [c for _, c in kept] + [other_count]
    return Vocabulary(symbols=symbols, counts=counts)


def encode(sequences: list[ChordSequence], vocab: Vocabulary) -> EncodedDataset:
    """Map token sequences to id sequences; out-of-vocabulary tokens map to
    the ``Other`` id."""
    other = vocab.index.get(OTHER_SYMBOL)
    encoded = []
    for seq in sequences:
        ids = [vocab.index.get(t, other) for t in seq.tokens]
        if any(i is None for i in ids):
            raise ValueError("vocabulary has no Other symbol for OOV tokens")
        encoded.append(np.asarray(ids, dtype=np.int64))
    return EncodedDataset(sequences=encoded, vocab=vocab)


def split(dataset: EncodedDataset, test_count: int, seed: int) -> tuple[EncodedDataset, EncodedDataset]:
    """Deterministically split off ``test_count`` random sequences."""
    n = len(dataset)
    if not 0 <= test_count <= n:
        raise ValueError(f"test_count {test_count} out of range [0, {n}]")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    test_idx = sorted(perm[:test_count].tolist())
    train_idx = sorted(perm[test_count:].tolist())
    train = EncodedDataset([dataset.sequences[i] for i in train_idx], dataset.vocab)
    test = EncodedDataset([dataset.sequences[i] for i in test_idx], dataset.vocab)
    return train, test


def subsample(dataset: EncodedDataset, n_x: int, seed: int) -> EncodedDataset:
    """Uniform subsample without replacement.

    For a fixed seed the selected index sets are nested across sizes, so
    growing ``n_x`` only ever adds sequences.
    """
    n = len(dataset)
    if not 1 <= n_x <= n:
        raise ValueError(f"subsample size {n_x} out of range [1, {n}]")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    idx = sorted(perm[:n_x].tolist())
    return EncodedDataset([dataset.sequences[i] for i in idx], dataset.vocab)
