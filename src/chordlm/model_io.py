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


def _write_table(lines: list[str], name: str, table: np.ndarray) -> None:
    rows = table.reshape(-1, table.shape[-1]) if table.ndim > 1 else table.reshape(1, -1)
    lines.append(f"table {name} {rows.shape[0]} {rows.shape[1]}")
    for row in rows:
        lines.append(" ".join(repr(float(v)) for v in row))


def save_model(model, path, vocab_hash: str | None = None) -> None:
    lines = [MODEL_MAGIC]
    tag = vocab_hash if vocab_hash else NO_HASH
    if isinstance(model, MarkovModel):
        lines.append("kind markov")
        lines.append(f"vocab_size {model.vocab_size}")
        lines.append(f"vocab_hash {tag}")
        lines.append(f"order {model.order}")
        lines.append(f"smoothing {model.smoothing}")
        lines.append(f"epsilon {repr(model.epsilon) if model.epsilon is not None else '-'}")
        for j, table in enumerate(model.initial_tables, start=1):
            _write_table(lines, f"initial{j}", table)
        _write_table(lines, "transitions", model.transitions)
    elif isinstance(model, HmmParams):
        lines.append("kind hmm")
        lines.append(f"vocab_size {model.vocab_size}")
        lines.append(f"vocab_hash {tag}")
        lines.append(f"n_states {model.n_states}")
        _write_table(lines, "initial", model.initial)
        _write_table(lines, "transition", model.transition)
        _write_table(lines, "emission", model.emission)
    elif isinstance(model, PcfgParams):
        lines.append("kind pcfg")
        lines.append(f"vocab_size {model.vocab_size}")
        lines.append(f"vocab_hash {tag}")
        lines.append(f"n_nonterminals {model.n_nonterminals}")
        _write_table(lines, "start_rules", model.start_rules)
        _write_table(lines, "start_emissions", model.start_emissions)
        _write_table(lines, "rules", model.rules.reshape(model.n_nonterminals, -1))
        _write_table(lines, "emissions", model.emissions)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
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


def load_model(path):
    """Returns (model, vocab_hash); the hash is None when it was not recorded.

    Raises ValueError for a malformed or truncated file, a table whose shape
    does not match the header, a value that is not finite, or a model that
    fails its own ``validate()``.
    """
    reader = _Reader(path)
    if reader.next() != MODEL_MAGIC:
        raise ValueError(f"not a model file (missing {MODEL_MAGIC!r} header)")
    kind = reader.key_value("kind")
    v = reader.count("vocab_size")
    vocab_hash = reader.key_value("vocab_hash")
    vocab_hash = None if vocab_hash == NO_HASH else vocab_hash

    if kind == "markov":
        order = reader.count("order")
        smoothing = reader.key_value("smoothing")
        if smoothing not in SMOOTHING_TAGS:
            raise ValueError(f"line {reader.pos}: unknown smoothing {smoothing!r}")
        eps_text = reader.key_value("epsilon")
        try:
            epsilon = None if eps_text == "-" else float(eps_text)
        except ValueError:
            raise ValueError(f"line {reader.pos}: epsilon {eps_text!r} is not a number") from None
        initial_tables = [
            reader.table(f"initial{j}", (v ** (j - 1), v)).reshape((v,) * j) for j in range(1, order + 1)
        ]
        transitions = reader.table("transitions", (v**order, v)).reshape((v,) * (order + 1))
        model = MarkovModel(order, v, initial_tables, transitions, smoothing, epsilon)
    elif kind == "hmm":
        k = reader.count("n_states")
        model = HmmParams(
            initial=reader.table("initial", (1, k)).reshape(k),
            transition=reader.table("transition", (k, k)),
            emission=reader.table("emission", (k, v)),
        )
    elif kind == "pcfg":
        d = reader.count("n_nonterminals")
        model = PcfgParams(
            start_rules=reader.table("start_rules", (d, d)),
            start_emissions=reader.table("start_emissions", (1, v)).reshape(v),
            rules=reader.table("rules", (d, d * d)).reshape(d, d, d),
            emissions=reader.table("emissions", (d, v)),
        )
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    model.validate()
    return model, vocab_hash
