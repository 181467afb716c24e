"""Command-line experiment driver.

Subcommands
    prepare   build vocabulary, encode, split, and subsample a corpus
    train     train a single (size, algorithm, seed, data-size) cell
    sweep     train and evaluate the full configured grid into results.csv
    analyze   report latent structure of a trained HMM or PCFG
    generate  sample sequences from a trained model

Every command takes ``--config`` (JSON) plus flag overrides; failures print a
machine-readable JSON object on stderr and exit nonzero. No command names a
family: each model class fits, describes and samples its models, and a
command loads only the families it looks up in ``config.MODELS``. `train` and
`sweep` run their cells through ``grid``, which no other command loads.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import model_io
from .config import DATA_FIELDS, FIELD_KINDS, MODELS, Cell, ExperimentConfig, cell_seed, is_kind
from .corpus import Vocabulary, build_vocabulary, decode_text, encode, numbered_lines, parse_corpus, read_text, split
from .corpus import subsample

ANALYZE_THRESHOLD = 0.05


# ------------------------------------------------------------ encoded files


def _write_encoded(path: Path, sequences: list[np.ndarray]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sequences:
            fh.write(" ".join(str(int(i)) for i in seq) + "\n")


def _read_encoded(path: Path, vocab: Vocabulary, count: int) -> list[np.ndarray]:
    """The id arrays of a prepared encoded file, which must be there and hold
    ``count`` nonblank lines, one per sequence, as meta.json counts, each id
    an int of the vocabulary; else a ValueError names the file and line."""
    if not path.exists():
        raise FileNotFoundError(f"{path} not found; run `chordlm prepare` again")
    lines = numbered_lines(path)
    _check_held(path, len(lines), count)
    sequences = []
    for number, line in lines:
        try:
            seq = np.array([int(t) for t in line.split()], dtype=np.int64)
            if seq.min() < 0 or seq.max() >= vocab.size:
                raise ValueError(f"encoded id out of vocabulary range 0..{vocab.size - 1}")
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path} line {number}: {exc}") from None
        sequences.append(seq)
    return sequences


def _check_held(path: Path, held: int, count: int) -> None:
    if held != count:
        raise ValueError(f"{path} holds {held} lines, not the {count} that {path.with_name('meta.json')} counts; "
                         "run `chordlm prepare` again")


# ----------------------------------------------------------------- prepare


def cmd_prepare(cfg: ExperimentConfig) -> dict:
    if not cfg.corpus:
        raise ValueError("prepare requires a corpus path")
    corpus_path = Path(cfg.corpus)
    raw = corpus_path.read_bytes()
    sequences = parse_corpus(decode_text(raw, corpus_path))
    if not sequences:
        raise ValueError(f"corpus {corpus_path} contains no sequences")

    vocab_k = 10 if cfg.vocab_k is None else cfg.vocab_k
    data_seed = 0 if cfg.data_seed is None else cfg.data_seed
    test_count = len(sequences) // 10 if cfg.test_count is None else cfg.test_count
    vocab = build_vocabulary(sequences, vocab_k)
    train, test = split(encode(sequences, vocab), test_count, data_seed)
    if len(train) == 0:
        raise ValueError("no training sequences left after the test split")
    train_sizes = [len(train)] if cfg.train_sizes is None else cfg.train_sizes
    for n_x in train_sizes:
        if not 1 <= n_x <= len(train):
            raise ValueError(f"train size {n_x} out of range [1, {len(train)}]")

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vocab.save(out / "vocab.txt")
    _write_encoded(out / "train.ids", train)
    _write_encoded(out / "test.ids", test)
    for n_x in train_sizes:
        _write_encoded(out / f"train_nx{n_x}.ids", subsample(train, n_x, data_seed))

    meta = {"corpus_sha256": hashlib.sha256(raw).hexdigest(), "vocab_k": vocab_k, "test_count": test_count,
            "data_seed": data_seed, "train_sizes": train_sizes, "n_sequences": len(sequences), "vocab_size": vocab.size}
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return meta


# the keys of the meta.json that `prepare` writes: the prepared data that seeds every cell, then its sizes
PREPARED_KEYS = ("corpus_sha256", *DATA_FIELDS, "n_sequences", "vocab_size")


@dataclasses.dataclass(frozen=True)
class Prepared:
    """A prepared directory as a command reads it, once: the record of its
    meta.json, the config hash that seeds every cell, the vocabulary, the
    test lines and each train size's lines."""

    meta: dict
    config_hash: str
    vocab: Vocabulary
    test: list[np.ndarray]
    train: dict[int, list[np.ndarray]]


def _load_prepared(cfg: ExperimentConfig) -> Prepared:
    """The prepared directory of ``cfg``. The record must count test lines,
    every file a cell reads must be there and hold the lines the record
    counts, and the data must not be other than this config names.

    A data field is checked when the config sets it (it is not None), against
    what `prepare` resolved it to; the corpus is checked by the sha256 of its
    bytes.
    """
    meta_path = Path(cfg.out_dir) / "meta.json"
    if not meta_path.exists():
        raise FileNotFoundError(f"{meta_path} not found; run `chordlm prepare` first")
    try:
        meta = json.loads(read_text(meta_path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{meta_path} is not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path} does not hold a JSON object; run `chordlm prepare` again")
    if set(meta) - set(PREPARED_KEYS):
        raise ValueError(f"{meta_path} has unknown keys {sorted(set(meta) - set(PREPARED_KEYS))}; "
                         "run `chordlm prepare` again")
    for key in PREPARED_KEYS:
        if key not in meta:
            raise ValueError(f"{meta_path} lacks the key {key!r}; run `chordlm prepare` again")
    try:  # the data fields by the config's own checks, and never null once resolved
        if not isinstance(meta["corpus_sha256"], str):
            raise ValueError(f"corpus_sha256 must be str, got {meta['corpus_sha256']!r}")
        for key in ("n_sequences", "vocab_size"):
            if not (is_kind(meta[key], int) and meta[key] >= 1):
                raise ValueError(f"{key} must be a finite int >= 1, got {meta[key]!r}")
        for name in DATA_FIELDS:
            if meta[name] is None:
                raise ValueError(f"{name} must not be null")
        ExperimentConfig(**{name: meta[name] for name in DATA_FIELDS})
    except ValueError as exc:
        raise ValueError(f"{meta_path} has a bad value: {exc}; run `chordlm prepare` again") from None
    for name in DATA_FIELDS:
        value = getattr(cfg, name)
        if value is not None and value != meta[name]:
            raise ValueError(
                f"{meta_path} was prepared with {name}={meta[name]!r}, not {value!r}; "
                "run `chordlm prepare` again or use another out_dir"
            )
    if meta["test_count"] == 0:
        raise ValueError(f"{meta_path} has no test lines; run `chordlm prepare` again with --test-count >= 1")
    for n_x in meta["train_sizes"]:
        if n_x > meta["n_sequences"] - meta["test_count"]:
            raise ValueError(f"{meta_path} has train size {n_x}, above its training lines; run `chordlm prepare` again")
    out = Path(cfg.out_dir)
    if not (out / "vocab.txt").exists():
        raise FileNotFoundError(f"{out / 'vocab.txt'} not found; run `chordlm prepare` again")
    vocab = Vocabulary.load(out / "vocab.txt")
    _check_held(out / "vocab.txt", vocab.size + 1, meta["vocab_size"] + 1)  # a header, then one line per symbol
    test = _read_encoded(out / "test.ids", vocab, meta["test_count"])
    train = {n_x: _read_encoded(out / f"train_nx{n_x}.ids", vocab, n_x) for n_x in meta["train_sizes"]}
    if cfg.corpus is not None and hashlib.sha256(Path(cfg.corpus).read_bytes()).hexdigest() != meta["corpus_sha256"]:
        raise ValueError(
            f"{meta_path} was prepared with corpus=sha256:{meta['corpus_sha256']}, not the bytes of {cfg.corpus!r}; "
            "run `chordlm prepare` again or use another out_dir"
        )
    config_hash = cfg.config_hash({key: meta[key] for key in ("corpus_sha256", *DATA_FIELDS)})
    return Prepared(meta, config_hash, vocab, test, train)


# ------------------------------------------------------------ train and sweep


def cmd_train(cfg: ExperimentConfig, size: int, algo: str, seed: int, n_x: int | None) -> dict:
    from . import grid  # only train and sweep run cells, so only they load the grid and the evaluation code

    if size < 1:
        raise ValueError("size must be >= 1")
    algos = MODELS[cfg.model].ALGOS
    if algo not in algos:
        raise ValueError(f"algo for model {cfg.model!r} must be one of {algos}, got {algo!r}")
    prepared = _load_prepared(cfg)
    train_sizes = prepared.meta["train_sizes"]
    n_x = n_x if n_x is not None else train_sizes[-1]
    if n_x not in train_sizes:
        raise ValueError(f"n_x must be one of the prepared train sizes {train_sizes}, got {n_x}")
    return grid.run_cell(cfg, prepared, Cell(cfg.model, size, n_x, algo, seed), record_error=False)


def cmd_sweep(cfg: ExperimentConfig) -> Path:
    from . import grid  # with what every cell runs, loaded here once rather than in each forked worker

    prepared = _load_prepared(cfg)
    cells = [
        Cell(cfg.model, size, n_x, algo, seed)
        for n_x in prepared.meta["train_sizes"]
        for size in cfg.resolved_sizes()  # which imports the family's module
        for algo in cfg.resolved_algos()
        for seed in cfg.seeds
    ]
    run = functools.partial(grid.run_cell, cfg, prepared)
    workers = min(cfg.workers, len(cells))  # one worker per cell at most; a grid of one cell runs in this process
    rows = grid.forked_rows(run, cells, workers) if workers > 1 else list(map(run, cells))
    return grid.write_results(rows, Path(cfg.out_dir) / "results.csv")


# ------------------------------------------------------- analyze and generate


def _load_model_and_vocabulary(model_path: str, vocab_path: str) -> tuple:
    """A model and its vocabulary, which must be of the model's size and, where
    the model records a vocabulary hash, have that hash."""
    model, recorded_hash = model_io.load_model(model_path)
    vocab = Vocabulary.load(vocab_path)
    if recorded_hash is not None and recorded_hash != vocab.content_hash():
        raise ValueError("vocabulary does not match the one the model was trained on")
    if model.vocab_size != vocab.size:
        raise ValueError(f"model {model_path} has {model.vocab_size} symbols, vocabulary {vocab_path} has {vocab.size}")
    return model, vocab


def cmd_analyze(model_path: str, vocab_path: str, threshold: float) -> dict:
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    model, vocab = _load_model_and_vocabulary(model_path, vocab_path)
    return model.describe(vocab, threshold)


def cmd_generate(model_path: str, vocab_path: str, count: int, seed: int, length: int | None,
                 trees: bool = False) -> list[str]:
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    model, vocab = _load_model_and_vocabulary(model_path, vocab_path)
    return model.generate(vocab, [cell_seed(str(seed), "generate", i) for i in range(count)], length, trees)


# --------------------------------------------------------------------- main


def _list_of(kind: type):
    """Parser of a comma-separated list of ``kind`` values."""

    def parse(text: str) -> list:
        return [kind(t) for t in text.split(",") if t]

    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def _add_config_args(p: argparse.ArgumentParser) -> None:
    """``--config`` plus one flag per ``ExperimentConfig`` field, named after
    it with ``-`` for ``_``; list fields take comma-separated values."""
    p.add_argument("--config", help="JSON configuration file")
    for f in dataclasses.fields(ExperimentConfig):
        kind, is_list, _ = FIELD_KINDS[f.name]
        parse = _list_of(kind) if is_list else kind
        p.add_argument("--" + f.name.replace("_", "-"), type=parse, choices=f.metadata.get("choices"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chordlm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="encode and split a corpus")
    _add_config_args(p)

    p = sub.add_parser("train", help="train one grid cell")
    _add_config_args(p)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--algo", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-x", type=int)

    p = sub.add_parser("sweep", help="train and evaluate the configured grid")
    _add_config_args(p)

    p = sub.add_parser("analyze", help="latent-structure report for a model")
    p.add_argument("--model-file", required=True)
    p.add_argument("--vocab-file", required=True)
    p.add_argument("--threshold", type=float, default=ANALYZE_THRESHOLD)
    p.add_argument("--out")

    p = sub.add_parser("generate", help="sample sequences from a model")
    p.add_argument("--model-file", required=True)
    p.add_argument("--vocab-file", required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--length", type=int)
    p.add_argument("--trees", action="store_true", help="emit bracketed derivations (PCFG only)")
    p.add_argument("--out")

    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's fields, overridden by the flags that are set."""
    try:
        raw = json.loads(decode_text(Path(args.config).read_bytes(), args.config)) if args.config else {}
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {args.config} is not JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"config file {args.config} does not hold a JSON object")
    for f in dataclasses.fields(ExperimentConfig):
        value = getattr(args, f.name)
        if value is not None:
            raw[f.name] = value
    return ExperimentConfig.from_dict(raw)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "prepare":
            cfg = _config_from_args(args)
            text = json.dumps({"prepared": cfg.out_dir, "vocab_size": cmd_prepare(cfg)["vocab_size"]})
        elif args.command == "train":
            from . import grid  # loaded by cmd_train already, for the fields that train prints

            row = cmd_train(_config_from_args(args), args.size, args.algo, args.seed, args.n_x)
            text = json.dumps({k: row[k] for k in grid.RESULT_FIELDS}, sort_keys=True)
        elif args.command == "sweep":
            text = json.dumps({"results": str(cmd_sweep(_config_from_args(args)))})
        elif args.command == "analyze":
            text = json.dumps(cmd_analyze(args.model_file, args.vocab_file, args.threshold), indent=2, sort_keys=True)
        else:
            lines = cmd_generate(args.model_file, args.vocab_file, args.count, args.seed, args.length, args.trees)
            text = "\n".join(lines)
        if getattr(args, "out", None):  # only analyze and generate take --out
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        else:
            print(text)
        return 0
    except Exception as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
