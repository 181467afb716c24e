"""Versioned plain-text serialization for all three model families.

Probabilities are written as shortest round-tripping decimal strings, so a
reloaded model is bit-identical to the saved one and repeated saves of the
same model produce identical bytes.
"""

from __future__ import annotations

import numpy as np

from .hmm import HmmParams
from .markov import SMOOTHING_TAGS, MarkovModel
from .pcfg import PcfgParams

MODEL_MAGIC = "chordlm-model v1"

NO_HASH = "-"

# the header key that gives each kind's size
SIZE_KEYS = {"markov": "order", "hmm": "n_states", "pcfg": "n_nonterminals"}


def _layout(kind: str, v: int, size: int):
    """Each table's name and (rows, columns), in file order. A generator, so a
    loader works out a table's shape only once the tables before it have
    been read: a huge Markov order fails at its first missing table."""
    if kind == "markov":
        for j in range(1, size + 1):
            yield f"initial{j}", (v ** (j - 1), v)
        yield "transitions", (v**size, v)
    elif kind == "hmm":
        yield from [("initial", (1, size)), ("transition", (size, size)), ("emission", (size, v))]
    else:
        yield from [("start_rules", (size, size)), ("start_emissions", (1, v)), ("rules", (size, size * size)),
                    ("emissions", (size, v))]


def save_model(model, path, vocab_hash: str | None = None) -> None:
    extra = []
    if isinstance(model, MarkovModel):
        kind, size, arrays = "markov", model.order, [*model.initial_tables, model.transitions]
        extra = [f"smoothing {model.smoothing}", f"epsilon {'-' if model.epsilon is None else repr(model.epsilon)}"]
    elif isinstance(model, HmmParams):
        kind, size, arrays = "hmm", model.n_states, [model.initial, model.transition, model.emission]
    elif isinstance(model, PcfgParams):
        kind, size = "pcfg", model.n_nonterminals
        arrays = [model.start_rules, model.start_emissions, model.rules, model.emissions]
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    lines = [MODEL_MAGIC, f"kind {kind}", f"vocab_size {model.vocab_size}", f"vocab_hash {vocab_hash or NO_HASH}",
             f"{SIZE_KEYS[kind]} {size}", *extra]
    for (name, shape), array in zip(_layout(kind, model.vocab_size, size), arrays):
        lines.append(f"table {name} {shape[0]} {shape[1]}")
        lines.extend(" ".join(repr(float(x)) for x in row) for row in array.reshape(shape))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class _Reader:
    """Line reader whose errors name the line or the table at fault."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            self.lines = fh.read().splitlines()
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise ValueError(f"line {self.pos + 1}: unexpected end of file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def key_value(self, key: str) -> str:
        line = self.next()
        head, _, value = line.partition(" ")
        if head != key:
            raise ValueError(f"line {self.pos}: expected {key!r}, found {line!r}")
        return value

    def count(self, key: str) -> int:
        """A positive integer header field."""
        text = self.key_value(key)
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"line {self.pos}: {key} {text!r} is not an integer") from None
        if value < 1:
            raise ValueError(f"line {self.pos}: {key} must be >= 1, found {value}")
        return value

    def table(self, name: str, shape: tuple[int, int]) -> np.ndarray:
        """The next table, which must be called ``name`` and have ``shape``
        (rows, columns) and only finite values."""
        header = self.next().split()
        if len(header) != 4 or header[0] != "table" or header[1] != name:
            raise ValueError(f"line {self.pos}: expected table {name!r}, found {' '.join(header)!r}")
        if header[2:] != [str(shape[0]), str(shape[1])]:
            raise ValueError(f"table {name} has shape {header[2]} x {header[3]}, expected {shape[0]} x {shape[1]}")
        if self.pos + shape[0] > len(self.lines):
            raise ValueError(f"line {len(self.lines) + 1}: unexpected end of file in table {name}")
        rows = np.empty(shape)
        for r in range(shape[0]):
            line = self.next()
            try:
                rows[r] = [float(v) for v in line.split()]
            except ValueError:
                raise ValueError(f"line {self.pos}: table {name} row {r} is not {shape[1]} numbers") from None
        if not np.isfinite(rows).all():
            raise ValueError(f"table {name} has a value that is not finite")
        return rows

    def end(self) -> None:
        """Check that only blank lines are left."""
        for number, line in enumerate(self.lines[self.pos:], self.pos + 1):
            if line.strip():
                raise ValueError(f"line {number}: unexpected content after the last table, {line!r}")


def load_model(path):
    """Returns (model, vocab_hash); the hash is None when it was not recorded.

    Raises ValueError for a malformed or truncated file, a table whose shape
    does not match the header, a value that is not finite, content after the
    last table, or a model that fails its own ``validate()``.
    """
    reader = _Reader(path)
    if reader.next() != MODEL_MAGIC:
        raise ValueError(f"not a model file (missing {MODEL_MAGIC!r} header)")
    kind = reader.key_value("kind")
    v = reader.count("vocab_size")
    vocab_hash = reader.key_value("vocab_hash")
    if kind not in SIZE_KEYS:
        raise ValueError(f"unknown model kind {kind!r}")
    size = reader.count(SIZE_KEYS[kind])
    if kind == "markov":
        smoothing = reader.key_value("smoothing")
        if smoothing not in SMOOTHING_TAGS:
            raise ValueError(f"line {reader.pos}: unknown smoothing {smoothing!r}")
        eps_text = reader.key_value("epsilon")
        try:
            epsilon = None if eps_text == "-" else float(eps_text)
        except ValueError:
            raise ValueError(f"line {reader.pos}: epsilon {eps_text!r} is not a number") from None
    tables = [reader.table(name, shape) for name, shape in _layout(kind, v, size)]
    reader.end()
    if kind == "markov":
        initial_tables = [table.reshape((v,) * j) for j, table in enumerate(tables[:-1], start=1)]
        model = MarkovModel(size, v, initial_tables, tables[-1].reshape((v,) * (size + 1)), smoothing, epsilon)
    elif kind == "hmm":
        model = HmmParams(tables[0].reshape(size), *tables[1:])
    else:
        model = PcfgParams(tables[0], tables[1].reshape(v), tables[2].reshape(size, size, size), tables[3])
    model.validate()
    return model, None if vocab_hash == NO_HASH else vocab_hash
