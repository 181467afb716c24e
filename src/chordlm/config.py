"""Experiment configuration: one structured file drives the whole pipeline.

Every training default is stated once, here or in the training config that
uses it, and is overridable from the command line, which has one flag per
field. A cell's seed comes from its coordinates, the training fields and the
prepared data as meta.json records it, so ``train`` reproduces a ``sweep``
cell whatever the grid, the repeated data flags or the corpus path. A config
checks its values when it is built: each field's type, that a float is
finite, and the bounds or choices its metadata sets.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import operator
import types
import typing
from dataclasses import dataclass, field

from . import hmm, markov, pcfg, training

# each family's model class, by its kind; the class states the family's size
# key, default grid, algorithms, parameter count and model-file tables
MODELS = {cls.KIND: cls for cls in (markov.MarkovModel, hmm.HmmParams, pcfg.PcfgParams)}

# The data fields, unset (None) until ``prepare`` resolves them into meta.json,
# and the other fields that seed no cell: paths, the grid and the worker count.
DATA_FIELDS = ("vocab_k", "test_count", "data_seed", "train_sizes")
UNSEEDED_FIELDS = ("corpus", "out_dir", "sizes", "algos", "seeds", "workers") + DATA_FIELDS


@dataclass
class ExperimentConfig:
    corpus: str | None = None
    out_dir: str = "runs/default"

    # data preparation
    vocab_k: int | None = field(default=None, metadata={">=": 1})  # default: 10
    test_count: int | None = field(default=None, metadata={">=": 0})  # default: one tenth of the corpus
    data_seed: int | None = field(default=None, metadata={">=": 0})  # default: 0
    train_sizes: list[int] | None = field(default=None, metadata={">=": 1})  # default: the full training split

    # model grid
    model: str = field(default="hmm", metadata={"choices": tuple(MODELS)})
    sizes: list[int] | None = field(default=None, metadata={">=": 1})
    algos: list[str] | None = None
    seeds: list[int] = field(default_factory=lambda: [0])

    # hyperparameters
    epsilon: float = field(default=0.1, metadata={">": 0})
    dirichlet_alpha: float = field(default=training.GibbsConfig.dirichlet_alpha, metadata={">": 0})
    em_max_iter: int | None = field(default=None, metadata={">=": 1})  # default: the family's EmConfig
    rel_tol: float = field(default=training.EmConfig.rel_tol, metadata={">=": 0})
    gs_samples: int | None = field(default=None, metadata={">=": 1})  # default: the family's GibbsConfig
    polish_iters: int = field(default=training.GibbsConfig.polish_iters, metadata={">=": 0})
    # default: from the mean length of the cell's training lines
    kappa: float | None = field(default=None, metadata={">": 0.5, "<=": 1})
    eta: float | None = field(default=None, metadata={">=": 0})  # default: 0.01 / n_nonterminals
    pcfg_init: str = field(default="random", metadata={"choices": ("random", "hmm")})
    pcfg_max_length: int = field(default=pcfg.DEFAULT_MAX_TRAIN_LENGTH, metadata={">=": 1})

    workers: int = field(default=1, metadata={">=": 1})

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            kind, is_list, optional = FIELD_KINDS[f.name]
            if value is None and optional:
                continue
            items = value if is_list and isinstance(value, list) else [value]
            if is_list != isinstance(value, list) or not all(is_kind(x, kind) for x in items):
                expected = f"a list of {kind.__name__}" if is_list else kind.__name__
                raise ValueError(f"{f.name} must be {expected}, got {value!r}")
            if is_list and not value:
                raise ValueError(f"{f.name} must not be empty")
            if is_list and len(set(value)) < len(value):
                raise ValueError(f"{f.name} must not repeat a value, got {value!r}")
            choices = f.metadata.get("choices")
            if choices is not None and value not in choices:
                raise ValueError(f"{f.name} must be one of {choices}, got {value!r}")
            for sign, holds in _BOUNDS.items():
                if sign in f.metadata and not all(holds(x, f.metadata[sign]) for x in items):
                    raise ValueError(f"{f.name} must be {sign} {f.metadata[sign]}, got {value!r}")
            if kind is float and not all(math.isfinite(x) for x in items):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        allowed = MODELS[self.model].ALGOS
        unknown = sorted(set(self.resolved_algos()) - set(allowed))
        if unknown:
            raise ValueError(f"algos for model {self.model!r} must be among {allowed}, got {unknown}")

    # ------------------------------------------------------------- defaults

    def resolved_sizes(self) -> list[int]:
        return list(MODELS[self.model].SIZE_GRID if self.sizes is None else self.sizes)

    def resolved_algos(self) -> list[str]:
        return list(MODELS[self.model].ALGOS if self.algos is None else self.algos)

    def resolved_em_max_iter(self) -> int:
        if self.em_max_iter is not None:
            return self.em_max_iter
        return (pcfg.EmConfig if self.model == "pcfg" else training.EmConfig).max_iter

    def resolved_gs_samples(self) -> int:
        if self.gs_samples is not None:
            return self.gs_samples
        return (pcfg.GibbsConfig if self.model == "pcfg" else training.GibbsConfig).n_samples

    # ---------------------------------------------------------------- misc

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def config_hash(self, data: dict) -> str:
        """Hash that seeds every cell: of the training fields, and of ``data``,
        the prepared data as meta.json records it."""
        training = {k: v for k, v in self.as_dict().items() if k not in UNSEEDED_FIELDS}
        payload = json.dumps({"data": data, "training": training}, sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)


# Bounds a field's metadata can set on its value, or on each element of a
# list; a NaN fails every one of them.
_BOUNDS = {">=": operator.ge, ">": operator.gt, "<=": operator.le}


def is_kind(value, kind: type) -> bool:
    """isinstance, except that a bool counts as no number and an int counts as
    a float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _field_kind(hint) -> tuple[type, bool, bool]:
    """(element type, is a list, may be None) of an annotation such as
    ``list[int] | None``."""
    args = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    (hint,) = [a for a in args if a is not type(None)]
    if typing.get_origin(hint) is list:
        return typing.get_args(hint)[0], True, len(args) > 1
    return hint, False, len(args) > 1


# (element type, is a list, may be None) of every field
FIELD_KINDS = {name: _field_kind(hint) for name, hint in typing.get_type_hints(ExperimentConfig).items()}


def cell_seed(config_hash: str, *coordinates) -> int:
    """Deterministic RNG seed owned by one sweep cell."""
    text = config_hash + "|" + "|".join(str(c) for c in coordinates)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def kappa_from_mean_length(mean_length: float) -> float:
    """Invert the expected generated length 2k/(2k-1) for the emission
    probability k; only defined for mean lengths of at least 2."""
    if mean_length < 2.0:
        raise ValueError(
            f"mean sequence length {mean_length:.3g} < 2 admits no emission "
            "probability in (1/2, 1]; set kappa explicitly"
        )
    return mean_length / (2.0 * mean_length - 2.0)
