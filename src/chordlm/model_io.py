"""Versioned plain-text serialization for all three model families.

Probabilities are written as shortest round-tripping decimal strings, so a
reloaded model is bit-identical to the saved one and repeated saves of the
same model produce identical bytes.
"""

from __future__ import annotations

import numpy as np

from .config import MODELS
from .corpus import read_text

MODEL_MAGIC = "chordlm-model v1"

NO_HASH = "-"


def save_model(model, path, vocab_hash: str | None = None) -> None:
    """The common header, then the model class's ``HEADER`` lines and ``tables``."""
    if MODELS.get(getattr(model, "KIND", None)) is not type(model):  # loads no family but the model's own
        raise TypeError(f"cannot serialize {type(model).__name__}")
    size = getattr(model, model.SIZE_KEY)
    lines = [MODEL_MAGIC, f"kind {model.KIND}", f"vocab_size {model.vocab_size}", f"vocab_hash {vocab_hash or NO_HASH}",
             f"{model.SIZE_KEY} {size}", *(f"{key} {model.header_text(key)}" for key in model.HEADER)]
    for (name, shape), array in zip(model.layout(model.vocab_size, size), model.tables()):
        lines.append(f"table {name} {shape[0]} {shape[1]}")
        lines.extend(" ".join(repr(float(x)) for x in row) for row in array.reshape(shape))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class _Reader:
    """Line reader whose errors name the line or the table at fault."""

    def __init__(self, path):
        self.lines = read_text(path).splitlines()
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
    if kind not in MODELS:
        raise ValueError(f"unknown model kind {kind!r}")
    cls = MODELS[kind]
    size = reader.count(cls.SIZE_KEY)
    header = {}
    for key in cls.HEADER:
        text = reader.key_value(key)
        try:
            header[key] = cls.parse_header(key, text)
        except ValueError as exc:
            raise ValueError(f"line {reader.pos}: {exc}") from None
    tables = [reader.table(name, shape) for name, shape in cls.layout(v, size)]
    reader.end()
    model = cls.from_tables(v, size, tables, **header)
    model.validate()
    return model, None if vocab_hash == NO_HASH else vocab_hash
