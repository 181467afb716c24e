"""Synthetic chord corpora sampled from a planted harmonic-function HMM.

The hidden states play the three harmonic functions of a major key (tonic,
subdominant, dominant); each emits a few frequent chords and a tail of rare
colourings, so a corpus has more distinct symbols than the vocabulary keeps
and the mapping to ``Other`` is exercised.

Line lengths follow a fixed schedule that does not depend on the seed: the
seed only picks the chords. Chart costs grow with sequence length, so this
keeps the work of a workload the same on every seed.
"""

from __future__ import annotations

import numpy as np

FUNCTIONS = ("tonic", "subdominant", "dominant")

EMISSIONS = {
    "tonic": {"C": 0.40, "Am": 0.18, "Em": 0.10, "Cmaj7": 0.09, "C/E": 0.07,
              "Am7": 0.06, "C6": 0.04, "Em7": 0.03, "Cadd9": 0.02, "A7": 0.01},
    "subdominant": {"F": 0.38, "Dm": 0.22, "Fmaj7": 0.10, "Dm7": 0.09, "Bb": 0.07,
                    "Fm": 0.06, "F6": 0.03, "Ab": 0.02, "D7": 0.02, "Bbmaj7": 0.01},
    "dominant": {"G": 0.36, "G7": 0.28, "Bdim": 0.08, "E7": 0.08, "G/B": 0.07,
                 "Gsus4": 0.06, "Bb7": 0.03, "Db7": 0.02, "G9": 0.02},
}
INITIAL = {"tonic": 0.8, "subdominant": 0.1, "dominant": 0.1}
TRANSITION = {
    "tonic": {"tonic": 0.15, "subdominant": 0.55, "dominant": 0.30},
    "subdominant": {"tonic": 0.15, "subdominant": 0.20, "dominant": 0.65},
    "dominant": {"tonic": 0.70, "subdominant": 0.10, "dominant": 0.20},
}


class PlantedHmm:
    """The planted model as arrays over its own symbol list."""

    def __init__(self):
        self.symbols = sorted({s for row in EMISSIONS.values() for s in row})
        col = {s: i for i, s in enumerate(self.symbols)}
        k, v = len(FUNCTIONS), len(self.symbols)
        self.initial = np.array([INITIAL[f] for f in FUNCTIONS])
        self.transition = np.array([[TRANSITION[f][g] for g in FUNCTIONS] for f in FUNCTIONS])
        self.emission = np.zeros((k, v))
        for z, f in enumerate(FUNCTIONS):
            for s, p in EMISSIONS[f].items():
                self.emission[z, col[s]] = p

    def sample(self, rng: np.random.Generator, length: int) -> list[str]:
        out = []
        z = rng.choice(len(FUNCTIONS), p=self.initial)
        for t in range(length):
            if t > 0:
                z = rng.choice(len(FUNCTIONS), p=self.transition[z])
            out.append(self.symbols[rng.choice(len(self.symbols), p=self.emission[z])])
        return out

    def emission_over(self, vocab: list[str], other: str) -> np.ndarray:
        """Emission matrix folded onto a kept vocabulary: every symbol outside
        it contributes its mass to the ``other`` column."""
        index = {s: i for i, s in enumerate(vocab)}
        out = np.zeros((len(FUNCTIONS), len(vocab)))
        for j, s in enumerate(self.symbols):
            out[:, index.get(s, index[other])] += self.emission[:, j]
        return out


def length_schedule(n_lines: int, min_len: int, max_len: int, n_single: int = 0) -> list[int]:
    """Line lengths cycling through ``min_len..max_len`` in a scrambled but
    fixed order; the first ``n_single`` lines get one chord each."""
    span = max_len - min_len + 1
    lengths = [min_len + (7 * i + 3) % span for i in range(n_lines)]
    for i in range(min(n_single, n_lines)):
        lengths[i * (n_lines // max(n_single, 1))] = 1
    return lengths


def corpus_text(seed: int, lengths: list[int]) -> str:
    planted = PlantedHmm()
    rng = np.random.default_rng(seed)
    return "".join(" ".join(planted.sample(rng, n)) + "\n" for n in lengths)
