"""Command-line experiment driver.

Subcommands
    prepare   build vocabulary, encode, split, and subsample a corpus
    train     train a single (size, algorithm, seed, data-size) cell
    sweep     train and evaluate the full configured grid into results.csv
    analyze   report latent structure of a trained HMM or PCFG
    generate  sample sequences from a trained model

Every command takes ``--config`` (JSON) plus flag overrides; failures print a
machine-readable JSON object on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import evaluate, hmm, markov, model_io, pcfg
from .config import DATA_FIELDS, FIELD_KINDS, MODELS, ExperimentConfig, cell_seed, is_kind, kappa_from_mean_length
from .corpus import Vocabulary, build_vocabulary, encode, parse_corpus, split, subsample

RESULT_FIELDS = [
    "model",
    "size",
    "param_count",
    "N_X",
    "seed",
    "algo",
    "train_perplexity",
    "test_perplexity",
    "error_rate",
    "rmrr",
    "wall_time",
]
CSV_HEADER = RESULT_FIELDS + ["best_by_train", "best_by_test", "error"]

ANALYZE_TOP_SYMBOLS = 12
ANALYZE_THRESHOLD = 0.05
# trees a grammar's `generate` samples and formats at a time, so that it holds one slice's derivations
GENERATE_SLICE = 256


# ------------------------------------------------------------ encoded files


def _write_encoded(path: Path, sequences: list[np.ndarray]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for seq in sequences:
            fh.write(" ".join(str(int(i)) for i in seq) + "\n")


def _read_encoded(path: Path, vocab: Vocabulary) -> list[np.ndarray]:
    sequences = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                try:
                    seq = np.array([int(t) for t in line.split()], dtype=np.int64)
                    if seq.min() < 0 or seq.max() >= vocab.size:
                        raise ValueError(f"encoded id out of vocabulary range 0..{vocab.size - 1}")
                except (ValueError, OverflowError) as exc:
                    raise ValueError(f"{path} line {number}: {exc}") from None
                sequences.append(seq)
    return sequences


# ----------------------------------------------------------------- prepare


def cmd_prepare(cfg: ExperimentConfig) -> dict:
    if not cfg.corpus:
        raise ValueError("prepare requires a corpus path")
    corpus_path = Path(cfg.corpus)
    raw = corpus_path.read_bytes()
    sequences = parse_corpus(raw.decode("utf-8-sig"))
    if not sequences:
        raise ValueError(f"corpus {corpus_path} contains no sequences")

    vocab_k = 10 if cfg.vocab_k is None else cfg.vocab_k
    data_seed = 0 if cfg.data_seed is None else cfg.data_seed
    test_count = len(sequences) // 10 if cfg.test_count is None else cfg.test_count
    vocab = build_vocabulary(sequences, vocab_k)
    train, test = split(encode(sequences, vocab), test_count, data_seed)
    if len(train) == 0:
        raise ValueError("no training sequences left after the test split")
    cfg = dataclasses.replace(cfg, vocab_k=vocab_k, data_seed=data_seed, test_count=test_count,
                              train_sizes=[len(train)] if cfg.train_sizes is None else cfg.train_sizes)
    for n_x in cfg.train_sizes:
        if not 1 <= n_x <= len(train):
            raise ValueError(f"train size {n_x} out of range [1, {len(train)}]")

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vocab.save(out / "vocab.txt")
    _write_encoded(out / "train.ids", train)
    _write_encoded(out / "test.ids", test)
    for n_x in cfg.train_sizes:
        _write_encoded(out / f"train_nx{n_x}.ids", subsample(train, n_x, cfg.data_seed))

    meta = {
        "config": cfg.as_dict(),
        "corpus_sha256": hashlib.sha256(raw).hexdigest(),
        "n_sequences": len(sequences),
        "vocab_size": vocab.size,
    }
    (out / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return meta


# the keys of the meta.json that `prepare` writes; its config holds the data fields as `prepare` resolved them
PREPARED_KEYS = ("config", "corpus_sha256", "n_sequences", "vocab_size")
# the type and the least value of each number in meta.json outside its config
PREPARED_NUMBERS = {"n_sequences": (int, 1), "vocab_size": (int, 1)}


def _load_prepared(cfg: ExperimentConfig) -> tuple[ExperimentConfig, str]:
    """The config that the prepared directory's meta.json records, whose data
    must hold test lines and the file of each train size, and must not be
    other than this config names; and the config hash that seeds every cell.

    A data field is checked when the config sets it (it is not None), against
    what `prepare` resolved it to; the corpus is checked by the sha256 of its
    bytes.
    """
    meta_path = Path(cfg.out_dir) / "meta.json"
    if not meta_path.exists():
        raise FileNotFoundError(f"{meta_path} not found; run `chordlm prepare` first")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{meta_path} is not JSON: {exc}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"{meta_path} does not hold a JSON object; run `chordlm prepare` again")
    for key in PREPARED_KEYS:
        if key not in meta:
            raise ValueError(f"{meta_path} lacks the key {key!r}; run `chordlm prepare` again")
    if set(meta) != set(PREPARED_KEYS):
        raise ValueError(f"{meta_path} has unknown keys {sorted(set(meta) - set(PREPARED_KEYS))}; "
                         "run `chordlm prepare` again")
    if not isinstance(meta["config"], dict):
        raise ValueError(f"{meta_path} has a config that is not a JSON object; run `chordlm prepare` again")
    for name in DATA_FIELDS:
        if name not in meta["config"]:
            raise ValueError(f"{meta_path} lacks the config key {name!r}; run `chordlm prepare` again")
    try:  # every recorded field by the config's own checks, and the data fields never null once resolved
        if not isinstance(meta["corpus_sha256"], str):
            raise ValueError(f"corpus_sha256 must be str, got {meta['corpus_sha256']!r}")
        for key, (kind, least) in PREPARED_NUMBERS.items():
            if not (is_kind(meta[key], kind) and least <= meta[key] < math.inf):
                raise ValueError(f"{key} must be a finite {kind.__name__} >= {least}, got {meta[key]!r}")
        for name in DATA_FIELDS:
            if meta["config"][name] is None:
                raise ValueError(f"{name} must not be null")
        recorded = ExperimentConfig.from_dict(meta["config"])
    except ValueError as exc:
        raise ValueError(f"{meta_path} has a bad value: {exc}; run `chordlm prepare` again") from None
    data = {"corpus_sha256": meta["corpus_sha256"], **{name: getattr(recorded, name) for name in DATA_FIELDS}}
    for name in DATA_FIELDS:
        value = getattr(cfg, name)
        if value is not None and value != data[name]:
            raise ValueError(
                f"{meta_path} was prepared with {name}={data[name]!r}, not {value!r}; "
                "run `chordlm prepare` again or use another out_dir"
            )
    if recorded.test_count == 0:
        raise ValueError(f"{meta_path} has no test lines; run `chordlm prepare` again with --test-count >= 1")
    for n_x in recorded.train_sizes:
        ids = Path(cfg.out_dir) / f"train_nx{n_x}.ids"
        if n_x > meta["n_sequences"] - recorded.test_count:
            raise ValueError(f"{meta_path} has train size {n_x}, above its training lines; run `chordlm prepare` again")
        if not ids.exists():
            raise FileNotFoundError(f"{ids} not found; run `chordlm prepare` again")
    if cfg.corpus is not None and hashlib.sha256(Path(cfg.corpus).read_bytes()).hexdigest() != meta["corpus_sha256"]:
        raise ValueError(
            f"{meta_path} was prepared with corpus={recorded.corpus!r}, whose bytes differ from "
            f"{cfg.corpus!r}; run `chordlm prepare` again or use another out_dir"
        )
    return recorded, cfg.config_hash(data)


# ------------------------------------------------------------ cell training


def _cell_name(model: str, size: int, n_x: int, algo: str, seed: int) -> str:
    return f"{model}_s{size}_nx{n_x}_{algo}_seed{seed}"


def _pcfg_initializer(
    cfg: ExperimentConfig, train: list[np.ndarray], vocab_size: int, size: int, cell: tuple
) -> pcfg.PcfgParams:
    if cfg.pcfg_init == "random":
        return pcfg.init_random(size, vocab_size, cell_seed(*cell, "init"))
    # linear-chain initialization from a Gibbs-trained HMM of the same size
    hmm_cfg = dataclasses.replace(cfg, model="hmm")
    base, _, _ = _train_cell(hmm_cfg, train, vocab_size, size, "gs", cell + ("pcfg-init",))
    kappa = cfg.kappa if cfg.kappa is not None else kappa_from_mean_length(sum(map(len, train)) / len(train))
    eta = cfg.eta if cfg.eta is not None else 0.01 / size
    return pcfg.init_from_hmm(base, kappa=kappa, eta=eta)


def _train_cell(
    cfg: ExperimentConfig, train: list[np.ndarray], vocab_size: int, size: int, algo: str, cell: tuple
) -> tuple:
    """Train the model of one cell; ``cell`` is the hash that seeds it, then
    its coordinates. Returns the model, its log record and its training
    ``log_evidences``. HMMs and PCFGs train by EM or, for ``gs`` (the only
    other algorithm the config and ``cmd_train`` let through), by best-of-n
    Gibbs sampling, through the same calls to their family module."""
    if cfg.model == "markov":
        model = markov.fit(train, vocab_size, order=size, smoothing=algo, epsilon=cfg.epsilon)
        return model, {"algorithm": algo}, model.log_evidences(train)
    if cfg.model == "hmm":
        family, options, log = hmm, {}, {}
        init = hmm.init_random(size, vocab_size, cell_seed(*cell, "init"))
    else:
        family, options, log = pcfg, {"max_length": cfg.pcfg_max_length}, {"initialization": cfg.pcfg_init}
        init = _pcfg_initializer(cfg, train, vocab_size, size, cell)
    if algo == "em":
        config = family.EmConfig(max_iter=cfg.resolved_em_max_iter(), rel_tol=cfg.rel_tol, **options)
        fitted, trace, log_evidences = family.em_fit(init, train, config)
        log.update(algorithm="em", log_likelihood=trace)
    else:
        config = family.GibbsConfig(
            n_samples=cfg.resolved_gs_samples(),
            polish_iters=cfg.polish_iters,
            seed=cell_seed(*cell, "gibbs"),
            rel_tol=cfg.rel_tol,
            dirichlet_alpha=cfg.dirichlet_alpha,
            **options,
        )
        fitted, trace, log_evidences = family.gibbs_fit(init, train, config)
        log.update(
            algorithm="gs",
            sample_log_evidence=trace.sample_log_evidence,
            polish_log_likelihood=trace.polish_trace,
        )
    return fitted, log, log_evidences


def _run_cell(cfg: ExperimentConfig, config_hash: str, coordinates: tuple, record_error: bool = True) -> dict:
    """Train and evaluate the grid cell at ``coordinates``, (size, algo, seed,
    n_x); returns a result row. ``config_hash`` is the one ``_load_prepared``
    gives. A failure goes into the row's error, so a sweep goes on, or is
    raised as it is if not ``record_error``.

    Top-level function so sweep cells can run in worker processes.
    """
    size, algo, seed, n_x = coordinates
    row = dict.fromkeys(RESULT_FIELDS + ["error"], "")
    row.update(model=cfg.model, size=size, N_X=n_x, seed=seed, algo=algo)
    started = time.perf_counter()
    try:
        out = Path(cfg.out_dir)
        vocab = Vocabulary.load(out / "vocab.txt")
        train = _read_encoded(out / f"train_nx{n_x}.ids", vocab)
        test = _read_encoded(out / "test.ids", vocab)
        row["param_count"] = MODELS[cfg.model].param_count(size, vocab.size)

        cell = (config_hash, cfg.model, size, n_x, algo, seed)
        model, log, train_log_ev = _train_cell(cfg, train, vocab.size, size, algo, cell)

        models_dir = out / "models"
        models_dir.mkdir(exist_ok=True)
        name = _cell_name(cfg.model, size, n_x, algo, seed)
        model_io.save_model(model, models_dir / f"{name}.model", vocab_hash=vocab.content_hash())
        (models_dir / f"{name}.log.json").write_text(json.dumps(log, sort_keys=True) + "\n", encoding="utf-8")

        row["train_perplexity"] = evaluate._perplexity(train, train_log_ev)
        report = evaluate.evaluate_model(model, test)
        row["test_perplexity"] = report.perplexity
        row["error_rate"] = report.error_rate
        row["rmrr"] = report.rmrr
    except Exception as exc:
        if not record_error:
            raise
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["wall_time"] = time.perf_counter() - started
    return row


def cmd_train(cfg: ExperimentConfig, size: int, algo: str, seed: int, n_x: int | None) -> dict:
    if size < 1:
        raise ValueError("size must be >= 1")
    algos = MODELS[cfg.model].ALGOS
    if algo not in algos:
        raise ValueError(f"algo for model {cfg.model!r} must be one of {algos}, got {algo!r}")
    recorded, config_hash = _load_prepared(cfg)
    n_x = n_x if n_x is not None else recorded.train_sizes[-1]
    if n_x not in recorded.train_sizes:
        raise ValueError(f"n_x must be one of the prepared train sizes {recorded.train_sizes}, got {n_x}")
    return _run_cell(cfg, config_hash, (size, algo, seed, n_x), record_error=False)


# -------------------------------------------------------------------- sweep


def cmd_sweep(cfg: ExperimentConfig) -> Path:
    # only sweep writes CSV and runs a pool; the other commands' processes stay smaller without them
    import csv
    from concurrent.futures import ProcessPoolExecutor

    recorded, config_hash = _load_prepared(cfg)
    cells = [
        (size, algo, seed, n_x)
        for n_x in recorded.train_sizes
        for size in cfg.resolved_sizes()
        for algo in cfg.resolved_algos()
        for seed in cfg.seeds
    ]
    run = functools.partial(_run_cell, cfg, config_hash)
    workers = min(cfg.workers, len(cells))  # the pool forks all its workers at once: one per cell at most
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run, cells))
    else:
        rows = list(map(run, cells))

    # per-cell best-seed flags, judged by training and by test perplexity
    groups: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows):
        key = (row["model"], row["size"], row["N_X"], row["algo"])
        groups.setdefault(key, []).append(i)
    for row in rows:
        row["best_by_train"] = ""
        row["best_by_test"] = ""
    for indices in groups.values():
        ok = [i for i in indices if not rows[i]["error"]]
        if not ok:
            continue
        best_train = min(ok, key=lambda i: rows[i]["train_perplexity"])
        best_test = min(ok, key=lambda i: rows[i]["test_perplexity"])
        for i in ok:
            rows[i]["best_by_train"] = int(i == best_train)
            rows[i]["best_by_test"] = int(i == best_test)

    out_path = Path(cfg.out_dir) / "results.csv"
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows([row[c] for c in CSV_HEADER] for row in rows)  # a float is written as its repr
    return out_path


# ------------------------------------------------------------------ analyze


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


def _top_symbols(row: np.ndarray, vocab: Vocabulary, top: int) -> list[dict]:
    order = np.argsort(-row, kind="stable")[: min(top, len(row))]
    return [
        {"symbol": vocab.symbols[int(x)], "probability": float(row[int(x)])}
        for x in order
        if row[int(x)] > 0.0
    ]


def _entries_above(table: np.ndarray, threshold: float, names: tuple[str, ...]) -> list[dict]:
    """The entries of ``table`` above ``threshold`` in row-major order, each
    with its indices under ``names`` and its ``probability``."""
    return [
        {**dict(zip(names, map(int, index))), "probability": float(table[tuple(index)])}
        for index in np.argwhere(table > threshold)
    ]


def cmd_analyze(model_path: str, vocab_path: str, threshold: float) -> dict:
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    model, vocab = _load_model_and_vocabulary(model_path, vocab_path)
    if isinstance(model, markov.MarkovModel):
        raise ValueError("Markov models have no latent structure to analyze")

    if isinstance(model, hmm.HmmParams):
        info = hmm.info_measures(model)
        stationary = hmm.stationary_distribution(model)
        states = [
            {
                "state": z,
                "stationary_probability": float(stationary[z]),
                "top_symbols": _top_symbols(model.emission[z], vocab, ANALYZE_TOP_SYMBOLS),
            }
            for z in range(model.n_states)
        ]
        return {
            "kind": "hmm",
            "n_states": model.n_states,
            "info_measures": info.as_dict(),
            "states": states,
            "transitions_above_threshold": _entries_above(model.transition, threshold, ("from", "to")),
            "threshold": threshold,
        }

    d = model.n_nonterminals
    nonterminals = [
        {
            "nonterminal": z,
            "top_symbols": _top_symbols(model.emissions[z], vocab, ANALYZE_TOP_SYMBOLS),
        }
        for z in range(d)
    ]
    return {
        "kind": "pcfg",
        "n_nonterminals": d,
        "nonterminals": nonterminals,
        "start_rules_above_threshold": _entries_above(model.start_rules, threshold, ("left", "right")),
        "rules_above_threshold": _entries_above(model.rules, threshold, ("head", "left", "right")),
        "threshold": threshold,
    }


# ----------------------------------------------------------------- generate


def cmd_generate(
    model_path: str,
    vocab_path: str,
    count: int,
    seed: int,
    length: int | None,
    trees: bool = False,
) -> list[str]:
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    model, vocab = _load_model_and_vocabulary(model_path, vocab_path)
    seeds = [cell_seed(str(seed), "generate", i) for i in range(count)]
    if isinstance(model, pcfg.PcfgParams):
        if length is not None:
            raise ValueError("grammar sampling determines its own length; drop --length")
        lines = []
        for lo in range(0, count, GENERATE_SLICE):
            samples = pcfg.sample_tree(model, seeds[lo:lo + GENERATE_SLICE])
            if trees:
                lines += [pcfg.bracketed(derivation, model.n_nonterminals, vocab.symbols) for derivation, _ in samples]
            else:
                lines += [" ".join(vocab.symbols[x] for x in ids.tolist()) for _, ids in samples]
        return lines
    if trees:
        raise ValueError("--trees is only meaningful for grammar models")
    if length is None:
        raise ValueError("--length is required for Markov and HMM models")
    ids = model.sample_sequence(length, seeds)
    return [" ".join(vocab.symbols[x] for x in row) for row in ids.tolist()]


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
    raw = json.loads(Path(args.config).read_text(encoding="utf-8-sig")) if args.config else {}
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
            meta = cmd_prepare(_config_from_args(args))
            text = json.dumps({"prepared": meta["config"]["out_dir"], "vocab_size": meta["vocab_size"]})
        elif args.command == "train":
            row = cmd_train(_config_from_args(args), args.size, args.algo, args.seed, args.n_x)
            text = json.dumps({k: row[k] for k in RESULT_FIELDS}, sort_keys=True)
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
