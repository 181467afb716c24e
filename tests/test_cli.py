import ast
import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chordlm
from chordlm import cli, grid, hmm, markov, model_io, pcfg, training
from chordlm.config import (
    DATA_FIELDS,
    MODELS,
    ExperimentConfig,
    cell_seed,
    kappa_from_mean_length,
)
from chordlm.corpus import Vocabulary
from oracles import count_calls, from_markov, make_dataset


def write_corpus(path, rng, n_sequences=30, alphabet=("C", "F", "G", "Am", "Dm", "Em")):
    lines = []
    for _ in range(n_sequences):
        n = int(rng.integers(3, 10))
        lines.append(" ".join(str(rng.choice(alphabet)) for _ in range(n)))
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def prepared(tmp_path):
    rng = np.random.default_rng(0)
    corpus = write_corpus(tmp_path / "corpus.txt", rng)
    cfg = ExperimentConfig(
        corpus=str(corpus),
        out_dir=str(tmp_path / "run"),
        vocab_k=4,
        test_count=6,
        train_sizes=[8],
        model="hmm",
        sizes=[1, 2],
        algos=["em"],
        seeds=[0, 1],
        em_max_iter=10,
    )
    cli.cmd_prepare(cfg)
    return cfg, tmp_path


# ------------------------------------------------------------------ config


def _em_max_iter(family, cfg: ExperimentConfig) -> int:
    """The EM iteration cap that a cell of ``family`` trains with under ``cfg``."""
    return training.configure(family, "em", cfg, lambda *tags: 0).max_iter


def _gs_samples(family, cfg: ExperimentConfig) -> int:
    """The Gibbs sample count that a cell of ``family`` trains with under ``cfg``."""
    return training.configure(family, "gs", cfg, lambda *tags: 0).n_samples


def test_config_defaults_match_protocol():
    cfg = ExperimentConfig(model="hmm")
    assert cfg.resolved_sizes() == hmm.HmmParams.SIZE_GRID
    assert _em_max_iter(hmm, cfg) == 500
    assert _gs_samples(hmm, cfg) == 500
    assert cfg.polish_iters == 50
    assert cfg.dirichlet_alpha == 0.1
    assert cfg.epsilon == 0.1
    assert cfg.rel_tol == 1e-5

    pc = ExperimentConfig(model="pcfg")
    assert pc.resolved_sizes() == pcfg.PcfgParams.SIZE_GRID
    assert _em_max_iter(pcfg, pc) == 200
    assert _gs_samples(pcfg, pc) == 200

    mk = ExperimentConfig(model="markov")
    assert mk.resolved_sizes() == [1, 2, 3]
    assert mk.resolved_algos() == ["additive", "kn", "mkn"]


def test_config_reads_training_defaults_from_the_family_configs(monkeypatch):
    # the hashes seed every cell, so they stay those of the literal defaults
    hashes = {
        "hmm": "b0f8b3e38713d599ccb6ab2efce8237514b66c70169dc48035a643bee1839e88",
        "pcfg": "fbb85302070c5f4ace7859ad2c4bb07415765469c897d51cac41e115ad0cea15",
        "markov": "693363b6962cfe7e7622fa926a19709592bf23d3339045c05909af13285243f7",
    }
    data = {"corpus_sha256": "0" * 64, "vocab_k": 10, "test_count": 6, "data_seed": 0, "train_sizes": [54]}
    for model, digest in hashes.items():
        cfg = ExperimentConfig(model=model)
        assert cfg.config_hash(data) == digest
        assert {k: cfg.as_dict()[k] for k in ("em_max_iter", "gs_samples", "rel_tol", "polish_iters")} == {
            "em_max_iter": None, "gs_samples": None, "rel_tol": 1e-5, "polish_iters": 50
        }
    assert ExperimentConfig().pcfg_max_length == pcfg.DEFAULT_MAX_TRAIN_LENGTH == 64
    monkeypatch.setattr(pcfg.EmConfig, "max_iter", 7)
    monkeypatch.setattr(pcfg.GibbsConfig, "n_samples", 8)
    monkeypatch.setattr(hmm.EmConfig, "max_iter", 9)
    monkeypatch.setattr(hmm.GibbsConfig, "n_samples", 10)
    assert _em_max_iter(pcfg, ExperimentConfig(model="pcfg")) == 7
    assert _gs_samples(pcfg, ExperimentConfig(model="pcfg")) == 8
    assert _em_max_iter(hmm, ExperimentConfig(model="hmm")) == 9
    assert _gs_samples(hmm, ExperimentConfig(model="hmm")) == 10


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"vocab_size": 10})


@pytest.mark.parametrize(
    "bad",
    [
        {"workers": 0}, {"seeds": []}, {"sizes": [0]}, {"epsilon": -1}, {"vocab_k": "10"}, {"em_max_iter": True},
        {"epsilon": math.inf}, {"rel_tol": math.inf}, {"dirichlet_alpha": math.inf}, {"eta": math.inf},
        {"sizes": [1, 2, 1]}, {"algos": ["em", "em"]}, {"seeds": [0, 0]}, {"train_sizes": [10, 10]},
    ],
    ids=[
        "workers-0", "seeds-empty", "sizes-0", "epsilon-negative", "vocab_k-string", "bool-for-int",
        "epsilon-inf", "rel_tol-inf", "dirichlet_alpha-inf", "eta-inf",
        "sizes-repeated", "algos-repeated", "seeds-repeated", "train_sizes-repeated",
    ],
)
def test_config_rejects_bad_values(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        ExperimentConfig(**bad)
    with pytest.raises(ValueError, match=next(iter(bad))):
        ExperimentConfig.from_dict(bad)


def test_sweep_refuses_an_infinite_float_flag(capsys):
    argv = ["sweep", "--model", "markov", "--sizes", "1", "--algos", "additive", "--epsilon", "inf"]
    assert cli.main(argv) == 1
    error = json.loads(capsys.readouterr().err)
    assert error == {"error": "ValueError", "message": "epsilon must be finite, got inf"}


def test_config_checks_algos_against_the_model(capsys):
    for model, algos in (("hmm", ["em", "gs"]), ("pcfg", ["gs"]), ("markov", ["additive", "kn", "mkn"])):
        assert ExperimentConfig(model=model, algos=algos).resolved_algos() == algos
    for model, algos in (("hmm", ["emm"]), ("pcfg", ["em", "kn"]), ("markov", ["em"])):
        with pytest.raises(ValueError, match="algos"):
            ExperimentConfig(model=model, algos=algos)
    assert cli.main(["sweep", "--model", "hmm", "--sizes", "2", "--algos", "emm"]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ValueError" and "emm" in error["message"]


def test_a_repeated_grid_value_fails_before_any_cell_runs(tmp_path, capsys):
    # repeated cells would write the same model files, concurrently with --workers
    argv = ["sweep", "--out-dir", str(tmp_path), "--model", "markov", "--sizes", "1,1", "--algos", "additive"]
    assert cli.main(argv) == 1
    error = json.loads(capsys.readouterr().err)
    assert error == {"error": "ValueError", "message": "sizes must not repeat a value, got [1, 1]"}
    assert list(tmp_path.iterdir()) == []


def test_a_config_file_must_hold_a_json_object(tmp_path, capsys):
    for text in ("[1]", "[]", "3"):
        (tmp_path / "config.json").write_text(text)
        assert cli.main(["sweep", "--config", str(tmp_path / "config.json"), "--out-dir", str(tmp_path)]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ValueError" and "does not hold a JSON object" in error["message"]


def test_config_accepts_edge_values():
    cfg = ExperimentConfig(test_count=0, rel_tol=0.0, epsilon=1, polish_iters=0, kappa=1.0, eta=0.0)
    assert cfg.test_count == 0 and cfg.epsilon == 1


# the config flags as they were written out by hand before they were derived
# from the dataclass
CONFIG_FLAGS = {
    "--config", "--corpus", "--out-dir", "--vocab-k", "--test-count", "--data-seed", "--train-sizes",
    "--model", "--sizes", "--algos", "--seeds", "--epsilon", "--dirichlet-alpha", "--em-max-iter",
    "--rel-tol", "--gs-samples", "--polish-iters", "--kappa", "--eta", "--pcfg-init",
    "--pcfg-max-length", "--workers",
}


def test_config_flags_are_the_dataclass_fields():
    commands = cli._build_parser()._subparsers._group_actions[0].choices
    fields = {"--" + f.name.replace("_", "-") for f in dataclasses.fields(ExperimentConfig)}
    assert fields | {"--config"} == CONFIG_FLAGS
    extra = {"prepare": set(), "sweep": set(), "train": {"--size", "--algo", "--seed", "--n-x"}}
    for name, own in extra.items():
        options = {opt for action in commands[name]._actions for opt in action.option_strings}
        assert options - {"-h", "--help"} == CONFIG_FLAGS | own


def test_config_flags_parse_like_the_fields():
    args = cli._build_parser().parse_args(
        ["sweep", "--train-sizes", "3,30", "--algos", "em,gs", "--kappa", "0.6", "--test-count", "0",
         "--model", "pcfg", "--pcfg-init", "hmm", "--out-dir", "r"]
    )
    cfg = cli._config_from_args(args)
    assert cfg.train_sizes == [3, 30] and cfg.algos == ["em", "gs"]
    assert cfg.kappa == 0.6 and cfg.test_count == 0
    assert (cfg.model, cfg.pcfg_init, cfg.out_dir) == ("pcfg", "hmm", "r")
    for bad in (["--model", "rnn"], ["--pcfg-init", "flat"], ["--sizes", "1,x"]):
        with pytest.raises(SystemExit) as exc:
            cli._build_parser().parse_args(["prepare", *bad])
        assert exc.value.code == 2


def test_kappa_from_mean_length():
    assert kappa_from_mean_length(13.0) == pytest.approx(0.5416, abs=1e-4)
    assert kappa_from_mean_length(6.0) == pytest.approx(0.6, abs=1e-12)
    with pytest.raises(ValueError):
        kappa_from_mean_length(1.5)


def test_cell_seed_stable():
    assert cell_seed("abc", "hmm", 4, 30, "gs", 0) == cell_seed("abc", "hmm", 4, 30, "gs", 0)
    assert cell_seed("abc", "hmm", 4, 30, "gs", 0) != cell_seed("abc", "hmm", 4, 30, "gs", 1)


# ----------------------------------------------------------------- prepare


def test_prepare_vocab_size_and_artifacts(prepared):
    cfg, tmp_path = prepared
    run = tmp_path / "run"
    vocab = Vocabulary.load(run / "vocab.txt")
    assert vocab.size == 5  # K=4 plus Other
    assert (run / "train.ids").exists()
    assert (run / "test.ids").exists()
    assert (run / "train_nx8.ids").exists()
    meta = json.loads((run / "meta.json").read_text())
    assert meta["test_count"] == 6


def test_prepare_idempotent(prepared):
    cfg, tmp_path = prepared
    run = tmp_path / "run"
    before = {p.name: p.read_bytes() for p in run.iterdir() if p.is_file()}
    cli.cmd_prepare(cfg)
    after = {p.name: p.read_bytes() for p in run.iterdir() if p.is_file()}
    assert before == after


def test_prepare_default_vocab_k_is_ten(tmp_path):
    rng = np.random.default_rng(1)
    corpus = write_corpus(
        tmp_path / "c.txt", rng, n_sequences=60,
        alphabet=tuple("ABCDEFGHIJKLMNO"),
    )
    cfg = ExperimentConfig(corpus=str(corpus), out_dir=str(tmp_path / "r"))
    meta = cli.cmd_prepare(cfg)
    assert meta["vocab_size"] == 11


def test_a_byte_order_mark_is_not_part_of_the_first_chord(tmp_path):
    text = write_corpus(tmp_path / "plain.txt", np.random.default_rng(0)).read_text(encoding="utf-8")
    bom = b"\xef\xbb\xbf" + text.encode("utf-8")
    (tmp_path / "bom.txt").write_bytes(bom)
    files = {}
    for name in ("plain", "bom"):
        cfg = ExperimentConfig(corpus=str(tmp_path / f"{name}.txt"), out_dir=str(tmp_path / name),
                               test_count=6, train_sizes=[8, 24])
        meta = cli.cmd_prepare(cfg)
        files[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir() if p.suffix in (".txt", ".ids")}
    assert sorted(files["plain"]) == ["test.ids", "train.ids", "train_nx24.ids", "train_nx8.ids", "vocab.txt"]
    assert files["bom"] == files["plain"]
    assert meta["corpus_sha256"] == hashlib.sha256(bom).hexdigest()  # the hash of the bytes as they are


def test_a_config_file_may_start_with_a_byte_order_mark(tmp_path):
    (tmp_path / "config.json").write_bytes(b"\xef\xbb\xbf" + json.dumps({"model": "pcfg", "kappa": 0.6}).encode())
    cfg = cli._config_from_args(cli._build_parser().parse_args(["sweep", "--config", str(tmp_path / "config.json")]))
    assert (cfg.model, cfg.kappa) == ("pcfg", 0.6)


def test_a_corpus_byte_that_is_not_utf8_names_the_corpus(tmp_path, capsys):
    corpus = write_corpus(tmp_path / "chords.txt", np.random.default_rng(0))
    raw = corpus.read_bytes()
    corpus.write_bytes(raw[:9] + b"\xff" + raw[10:])
    assert cli.main(["prepare", "--corpus", str(corpus), "--out-dir", str(tmp_path / "run")]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError",
        "message": f"{corpus} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 9: invalid start byte",
    }


@pytest.mark.parametrize("raw, message", [
    (b'{"model": "\xff"}', "{} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 11: invalid start byte"),
    (b'{"model": ', "config file {} is not JSON: Expecting value: line 1 column 11 (char 10)"),
], ids=["not-utf8", "not-json"])
def test_a_config_file_that_does_not_parse_names_the_file(tmp_path, capsys, raw, message):
    config = tmp_path / "config.json"
    config.write_bytes(b"\xef\xbb\xbf" + raw)  # after a byte-order mark, which no position counts
    assert cli.main(["sweep", "--config", str(config)]) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message.format(config)}


def test_prepare_test_count_out_of_range(tmp_path):
    rng = np.random.default_rng(2)
    corpus = write_corpus(tmp_path / "c.txt", rng, n_sequences=5)
    cfg = ExperimentConfig(corpus=str(corpus), out_dir=str(tmp_path / "r"), test_count=9)
    with pytest.raises(ValueError):
        cli.cmd_prepare(cfg)


# ------------------------------------------------------------------- train


def test_train_cell_writes_model_and_monotone_log(prepared):
    cfg, tmp_path = prepared
    row = cli.cmd_train(cfg, size=2, algo="em", seed=0, n_x=8)
    assert row["error"] == ""
    assert row["param_count"] == (1 + 2) * 1 + 2 * 4
    name = "hmm_s2_nx8_em_seed0"
    run = tmp_path / "run"
    assert (run / "models" / f"{name}.model").exists()
    log = json.loads((run / "models" / f"{name}.log.json").read_text())
    trace = log["log_likelihood"]
    assert all(b >= a - 1e-9 * abs(a) for a, b in zip(trace, trace[1:]))


def test_train_markov_cell(prepared):
    cfg, tmp_path = prepared
    mk = ExperimentConfig.from_dict({**cfg.as_dict(), "model": "markov", "algos": ["mkn"]})
    row = cli.cmd_train(mk, size=1, algo="mkn", seed=0, n_x=8)
    assert row["error"] == ""
    assert row["train_perplexity"] >= 1.0
    model, _ = model_io.load_model(tmp_path / "run" / "models" / "markov_s1_nx8_mkn_seed0.model")
    assert model.smoothing == "mkn"


def test_train_pcfg_with_hmm_initialization(prepared):
    cfg, tmp_path = prepared
    pc = ExperimentConfig.from_dict(
        {
            **cfg.as_dict(),
            "model": "pcfg",
            "pcfg_init": "hmm",
            "gs_samples": 5,
            "polish_iters": 3,
            "em_max_iter": 3,
        }
    )
    row = cli.cmd_train(pc, size=2, algo="em", seed=0, n_x=8)
    assert row["error"] == ""
    model, _ = model_io.load_model(tmp_path / "run" / "models" / "pcfg_s2_nx8_em_seed0.model")
    assert model.n_nonterminals == 2
    model.validate(tol=1e-9)


def test_a_grammar_initialized_from_an_hmm_takes_kappa_from_its_own_training_lines(tmp_path, monkeypatch):
    corpus = write_corpus(tmp_path / "corpus.txt", np.random.default_rng(0))
    cfg = ExperimentConfig(
        corpus=str(corpus), out_dir=str(tmp_path / "run"), vocab_k=4, test_count=6, train_sizes=[8, 24],
        model="pcfg", pcfg_init="hmm", gs_samples=2, polish_iters=1, em_max_iter=1,
    )
    cli.cmd_prepare(cfg)
    vocab = Vocabulary.load(tmp_path / "run" / "vocab.txt")
    lines, split = (cli._read_encoded(tmp_path / "run" / name, vocab, count)
                    for name, count in (("train_nx8.ids", 8), ("train.ids", 24)))
    mean = sum(map(len, lines)) / len(lines)
    assert mean != sum(map(len, split)) / len(split)  # the 8 lines are not the whole split in miniature
    kappas = []
    init_from_hmm = pcfg.init_from_hmm

    def record(base, kappa, eta):
        kappas.append(kappa)
        return init_from_hmm(base, kappa=kappa, eta=eta)

    monkeypatch.setattr(pcfg, "init_from_hmm", record)
    assert cli.cmd_train(cfg, size=2, algo="em", seed=0, n_x=8)["error"] == ""
    assert kappas == [kappa_from_mean_length(mean)]


@pytest.mark.parametrize("family, algo", [("markov", "additive"), ("hmm", "em"), ("pcfg", "em")])
@pytest.mark.parametrize(
    "flag, value, why",
    [("--size", "0", "size must be >= 1"),
     ("--algo", "bogus", "algo for model {family!r} must be one of {algos}, got 'bogus'"),
     ("--n-x", "5", "n_x must be one of the prepared train sizes [8], got 5")],
    ids=["size", "algo", "n-x"],
)
def test_train_checks_its_cell_flags_before_it_trains(prepared, capsys, family, algo, flag, value, why):
    cfg, _ = prepared
    cell = {"--size": "2", "--algo": algo, "--n-x": "8", flag: value}
    # a grammar initialized from an HMM would train that HMM before its own algorithm
    argv = ["train", "--out-dir", cfg.out_dir, "--model", family, "--pcfg-init", "hmm", *itertools.chain(*cell.items())]
    capsys.readouterr()
    assert cli.main(argv) == 1
    message = why.format(family=family, algos=MODELS[family].ALGOS)
    assert json.loads(capsys.readouterr().err) == {"error": "ValueError", "message": message}
    assert not (Path(cfg.out_dir) / "models").exists()


# ------------------------------------------------------------------- sweep


def test_sweep_grid_and_flags(prepared):
    cfg, tmp_path = prepared
    path = cli.cmd_sweep(cfg)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(grid.CSV_HEADER)
    rows = [dict(zip(grid.CSV_HEADER, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 2 * 2  # sizes {1,2} x seeds {0,1}
    for key in ("hmm",):
        for size in ("1", "2"):
            group = [r for r in rows if r["size"] == size]
            assert sum(int(r["best_by_train"]) for r in group) == 1
            assert sum(int(r["best_by_test"]) for r in group) == 1
    for r in rows:
        assert float(r["train_perplexity"]) >= 1.0
        assert 0.0 <= float(r["error_rate"]) <= 1.0
        assert float(r["rmrr"]) >= 1.0


def test_sweep_parallel_matches_serial(prepared):
    cfg, tmp_path = prepared
    serial = cli.cmd_sweep(cfg).read_text().splitlines()
    par_cfg = ExperimentConfig.from_dict({**cfg.as_dict(), "workers": 2})
    parallel = cli.cmd_sweep(par_cfg).read_text().splitlines()

    def strip_wall(rows):
        header = rows[0].split(",")
        wall = header.index("wall_time")
        return [",".join(c for i, c in enumerate(r.split(",")) if i != wall) for r in rows]

    # worker count is an execution detail: identical rows either way
    assert strip_wall(serial) == strip_wall(parallel)


def test_a_sweep_starts_at_most_one_worker_per_cell(prepared, monkeypatch):
    forks = []
    fork = os.fork

    def counted_fork():
        """Counts the workers a sweep forks, and forks them."""
        forks.append(os.getpid())
        return fork()

    def rows(cfg):
        with open(cli.cmd_sweep(cfg), encoding="utf-8", newline="") as fh:
            return [{k: v for k, v in row.items() if k != "wall_time"} for row in csv.DictReader(fh)]

    monkeypatch.setattr(os, "fork", counted_fork)
    cfg, _ = prepared
    two_cells = dataclasses.replace(cfg, sizes=[1], seeds=[0, 1])
    serial = rows(two_cells)
    assert len(serial) == 2 and forks == []
    assert rows(dataclasses.replace(two_cells, workers=10**6)) == serial
    assert len(forks) == 2
    rows(dataclasses.replace(two_cells, seeds=[0], workers=8))
    assert len(forks) == 2  # one cell runs in this process


def _rows_of(path: Path, drop=("wall_time",)) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [{k: v for k, v in row.items() if k not in drop} for row in csv.DictReader(fh)]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("model, algos", [("hmm", ["em", "gs"]), ("pcfg", ["em"])])
def test_sweep_rows_and_model_files_are_the_same_at_one_two_and_three_workers(tmp_path, model, algos):
    # the workers take the cells largest first, each the next that is free: the assignment changes no byte
    corpus = write_corpus(tmp_path / "corpus.txt", np.random.default_rng(1), n_sequences=40)
    cfg = ExperimentConfig(corpus=str(corpus), out_dir=str(tmp_path / "run"), vocab_k=4, test_count=6,
                           train_sizes=[10, 34], model=model, sizes=[1, 2, 3], algos=algos, seeds=[0, 1],
                           em_max_iter=3, gs_samples=2, polish_iters=1)
    cli.cmd_prepare(cfg)
    outputs = []
    for workers in (1, 2, 3):
        shutil.rmtree(tmp_path / "run" / "models", ignore_errors=True)
        rows = _rows_of(cli.cmd_sweep(dataclasses.replace(cfg, workers=workers)))
        models = {p.name: p.read_bytes() for p in sorted((tmp_path / "run" / "models").iterdir())}
        outputs.append((rows, models))
        assert_no_child_left()
    rows, models = outputs[0]
    assert len(rows) == 2 * 3 * len(algos) * 2 and all(row["error"] == "" for row in rows)
    assert len(models) == 2 * len(rows)  # a model file and a log record per cell
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize("death, how", [(lambda: os._exit(3), "exited with status 3"),
                                        (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9")],
                         ids=["exit", "kill"])
def test_a_worker_that_dies_costs_only_the_cell_it_ran(prepared, monkeypatch, death, how):
    cfg, _ = prepared  # sizes 1 and 2, seeds 0 and 1
    flags = ("wall_time", "best_by_train", "best_by_test")  # the flags judge among the rows without an error
    serial = _rows_of(cli.cmd_sweep(cfg), drop=flags)
    fit = MODELS["hmm"].fit

    def dying_fit(train, vocab_size, size, algo, cell_cfg, seed_of):
        if (size, seed_of.args[-1]) == (2, 1):
            death()
        return fit(train, vocab_size, size, algo, cell_cfg, seed_of)

    monkeypatch.setattr(MODELS["hmm"], "fit", dying_fit)
    for workers in (2, 3):
        rows = _rows_of(cli.cmd_sweep(dataclasses.replace(cfg, workers=workers)), drop=flags)
        assert_no_child_left()
        lost = {**serial[3], **dict.fromkeys(grid.RESULT_FIELDS[6:-1], ""), "param_count": "",
                "error": f"ChildProcessError: the worker running this cell {how}"}
        assert (rows[3]["size"], rows[3]["seed"]) == ("2", "1")
        assert rows == [*serial[:3], lost]


def test_a_sweep_whose_workers_all_die_records_every_cell(prepared, monkeypatch):
    cfg, _ = prepared
    monkeypatch.setattr(MODELS["hmm"], "fit", lambda *args: os._exit(3))
    rows = _rows_of(cli.cmd_sweep(dataclasses.replace(cfg, workers=2)))
    assert_no_child_left()
    # the two largest cells go out first, one to each worker; the grid's rows come back in its order
    assert [(row["size"], row["seed"], row["error"]) for row in rows] == [
        ("1", "0", "ChildProcessError: no worker was left to run this cell"),
        ("1", "1", "ChildProcessError: no worker was left to run this cell"),
        ("2", "0", "ChildProcessError: the worker running this cell exited with status 3"),
        ("2", "1", "ChildProcessError: the worker running this cell exited with status 3"),
    ]


def test_a_sweep_that_fails_while_its_workers_run_leaves_none_running(prepared, monkeypatch):
    import select

    class FailingPoll:
        """Takes the workers' pipes, then fails as the sweep waits for their first rows."""

        def register(self, fd, events):
            pass

        def poll(self):
            raise RuntimeError("the sweep fails")

    monkeypatch.setattr(select, "poll", FailingPoll)
    cfg, _ = prepared
    with pytest.raises(RuntimeError, match="the sweep fails"):
        cli.cmd_sweep(dataclasses.replace(cfg, workers=2))
    assert_no_child_left()
    assert not (Path(cfg.out_dir) / "results.csv").exists()


def test_two_workers_without_os_fork_are_a_command_error(prepared, monkeypatch, capsys):
    cfg, _ = prepared
    monkeypatch.delattr(os, "fork")
    capsys.readouterr()
    assert cli.main(["sweep", "--out-dir", cfg.out_dir, "--workers", "2"]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "OSError", "message": "a sweep with more than one worker forks them, and this platform has no os.fork"}
    assert cli.main(["sweep", "--out-dir", cfg.out_dir, "--workers", "1", "--sizes", "1", "--algos", "em",
                     "--em-max-iter", "2"]) == 0


def test_sweep_records_partial_failures(prepared, tmp_path):
    cfg, base = prepared
    # PCFG cells fail (test split contains sequences shorter than 2? no:
    # force failure through the length cap instead)
    bad = ExperimentConfig.from_dict(
        {
            **cfg.as_dict(),
            "model": "pcfg",
            "pcfg_max_length": 3,
            "sizes": [1],
            "seeds": [0],
            "em_max_iter": 2,
        }
    )
    path = cli.cmd_sweep(bad)
    lines = path.read_text().splitlines()
    rows = [dict(zip(grid.CSV_HEADER, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 1
    assert rows[0]["error"] != ""


def test_sweep_quotes_an_error_that_holds_a_comma(prepared, monkeypatch):
    cfg, _ = prepared

    def fail(*args):
        raise ValueError("a, b")

    monkeypatch.setattr(hmm.HmmParams, "fit", fail)
    with open(cli.cmd_sweep(cfg), encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2
    for row in rows:
        assert list(row) == grid.CSV_HEADER  # no extra column
        assert row["error"] == "ValueError: a, b"


def test_sweep_writes_each_float_as_its_repr(tmp_path):
    # every column but the wall time, as an earlier chordlm wrote it for this corpus
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("C F G C\nAm F C G\nC G Am F\nF C\nG Am F C G\nC\nDm G C\nAm Dm G C\n")
    cfg = ExperimentConfig(corpus=str(corpus), out_dir=str(tmp_path / "run"), vocab_k=4, test_count=3,
                           model="markov", sizes=[1, 2], algos=["additive"], seeds=[0])
    cli.cmd_prepare(cfg)
    with open(cli.cmd_sweep(cfg), encoding="utf-8", newline="") as fh:
        rows = [{k: v for k, v in row.items() if k != "wall_time"} for row in csv.DictReader(fh)]
    want = [
        "markov,1,24,5,0,additive,2.0011251502761995,6.755579645526934,0.45454545454545453,1.3836477987421383,1,1,",
        "markov,2,124,5,0,additive,1.824675348430832,6.36156971851699,0.5454545454545454,1.6019417475728157,1,1,",
    ]
    header = [c for c in grid.CSV_HEADER if c != "wall_time"]
    assert rows == [dict(zip(header, line.split(","))) for line in want]


@pytest.mark.parametrize(
    "change",
    [{"corpus": "other.txt"}, {"vocab_k": 5}, {"test_count": 5}, {"data_seed": 1}, {"train_sizes": [7]}],
    ids=lambda change: next(iter(change)),
)
def test_sweep_and_train_refuse_a_directory_prepared_for_other_data(prepared, change):
    cfg, tmp_path = prepared
    if "corpus" in change:
        change = {"corpus": str(write_corpus(tmp_path / "other.txt", np.random.default_rng(1)))}
    other = ExperimentConfig.from_dict({**cfg.as_dict(), **change})
    name = next(iter(change))
    with pytest.raises(ValueError, match=f"prepared with {name}="):
        cli.cmd_sweep(other)
    with pytest.raises(ValueError, match=f"prepared with {name}="):
        cli.cmd_train(other, size=1, algo="em", seed=0, n_x=None)


def test_sweep_refuses_the_same_corpus_path_over_edited_bytes(prepared):
    cfg, tmp_path = prepared
    with open(cfg.corpus, "a") as fh:
        fh.write("C F G\n")
    with pytest.raises(ValueError, match="prepared with corpus="):
        cli.cmd_sweep(cfg)


def test_sweep_accepts_a_directory_prepared_for_the_same_data(prepared, monkeypatch):
    cfg, tmp_path = prepared
    # the grid, the hyperparameters and the workers are not data, and the
    # corpus is its bytes, not the spelling of its path
    monkeypatch.chdir(tmp_path)
    other = ExperimentConfig.from_dict(
        {**cfg.as_dict(), "corpus": "./corpus.txt", "model": "markov", "sizes": [2], "algos": ["kn"], "seeds": [3],
         "epsilon": 0.5, "workers": 2}
    )
    rows = cli.cmd_sweep(other).read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("markov,2,")
    assert cli.cmd_train(other, size=1, algo="additive", seed=0, n_x=None)["error"] == ""


def test_a_python_call_takes_an_unset_data_field_from_the_directory(prepared):
    cfg, tmp_path = prepared
    # run was prepared with vocab_k=4, test_count=6, data seed 0 and train size 8
    unset = ExperimentConfig(out_dir=cfg.out_dir, model="hmm", sizes=[1, 2], algos=["em"], seeds=[0, 1],
                             em_max_iter=10)
    assert all(getattr(unset, name) is None for name in DATA_FIELDS)
    model = tmp_path / "run" / "models" / "hmm_s2_nx8_em_seed1.model"

    def rows(config):
        with open(cli.cmd_sweep(config), encoding="utf-8", newline="") as fh:
            return [{k: v for k, v in row.items() if k != "wall_time"} for row in csv.DictReader(fh)]

    swept, swept_model = rows(cfg), model.read_bytes()
    assert rows(unset) == swept and model.read_bytes() == swept_model
    assert cli.cmd_train(unset, size=2, algo="em", seed=1, n_x=None)["N_X"] == 8
    assert model.read_bytes() == swept_model
    # a data field that the config sets is checked, also to the value prepare defaults it to
    for name, value in (("vocab_k", 10), ("data_seed", 1)):
        other = dataclasses.replace(unset, **{name: value})
        with pytest.raises(ValueError, match=f"prepared with {name}="):
            cli.cmd_sweep(other)
        with pytest.raises(ValueError, match=f"prepared with {name}="):
            cli.cmd_train(other, size=2, algo="em", seed=1, n_x=None)
    assert cli.cmd_train(dataclasses.replace(unset, data_seed=0), size=2, algo="em", seed=1, n_x=8)["error"] == ""


@pytest.fixture
def sixty_lines(tmp_path, monkeypatch):
    """A 60-line corpus.txt in the working directory, prepared into ``run``
    with ``--vocab-k 5 --test-count 6``."""
    monkeypatch.chdir(tmp_path)
    write_corpus(tmp_path / "corpus.txt", np.random.default_rng(3), n_sequences=60)
    assert cli.main(["prepare", "--corpus", "corpus.txt", "--out-dir", "run", "--vocab-k", "5",
                     "--test-count", "6"]) == 0


CELL = ["--model", "hmm", "--em-max-iter", "5"]


def _model_after(argv: list[str], out_dir: str = "run") -> bytes:
    """The HMM size-2 EM seed-0 cell's model file after one command."""
    assert cli.main([*argv, "--out-dir", out_dir, *CELL]) == 0
    return (Path(out_dir) / "models" / "hmm_s2_nx54_em_seed0.model").read_bytes()


def test_a_cell_seed_does_not_depend_on_the_grid(sixty_lines):
    one = _model_after(["sweep", "--sizes", "2", "--algos", "em"])
    assert _model_after(["sweep", "--sizes", "2,3", "--algos", "em", "--seeds", "0,1"]) == one


@pytest.mark.parametrize(
    "repeated", [[], ["--vocab-k", "5"], ["--corpus", "corpus.txt"], ["--test-count", "6", "--train-sizes", "54"]],
    ids=["no-data-flags", "vocab-k", "corpus", "test-count-and-train-sizes"],
)
def test_train_reproduces_a_sweep_cell_whichever_data_flags_it_repeats(sixty_lines, repeated):
    swept = _model_after(["sweep", "--sizes", "2", "--algos", "em"])
    assert _model_after(["train", "--size", "2", "--algo", "em", *repeated]) == swept


def test_a_cell_seed_reads_the_corpus_bytes_not_its_path(sixty_lines):
    models = [_model_after(["train", "--size", "2", "--algo", "em"])]
    for name in ("a", "b"):
        Path(name).mkdir()
        shutil.copy("corpus.txt", f"{name}/corpus.txt")
        data = ["--corpus", f"{name}/corpus.txt", "--vocab-k", "5", "--test-count", "6"]
        assert cli.main(["prepare", *data, "--out-dir", f"{name}/run"]) == 0
        models.append(_model_after(["train", "--size", "2", "--algo", "em", *data], out_dir=f"{name}/run"))
    assert models[0] == models[1] == models[2]


def test_sweep_and_train_check_a_data_field_set_to_its_default(sixty_lines, capsys):
    # run is prepared with --vocab-k 5 and data seed 0, seeded with data seed 3
    assert cli.main(["prepare", "--corpus", "corpus.txt", "--out-dir", "seeded", "--vocab-k", "5",
                     "--test-count", "6", "--data-seed", "3"]) == 0
    Path("seed0.json").write_text(json.dumps({"out_dir": "seeded", "data_seed": 0}))
    capsys.readouterr()
    for command in (["sweep", "--sizes", "2", "--algos", "em"], ["train", "--size", "2", "--algo", "em"]):
        for data, name in ((["--out-dir", "run", "--vocab-k", "10"], "vocab_k"), (["--config", "seed0.json"], "data_seed")):
            assert cli.main([*command, *data, *CELL]) == 1
            error = json.loads(capsys.readouterr().err)
            assert error["error"] == "ValueError" and f"prepared with {name}=" in error["message"]
    # a command that sets no data field takes the directory as it is
    assert cli.main(["sweep", "--out-dir", "seeded", "--sizes", "2", "--algos", "em", *CELL]) == 0


@pytest.mark.parametrize("bad", ["0 1 x", "0 1 99"], ids=["not-an-int", "out-of-range"])
def test_a_bad_encoded_id_names_its_file_and_line(sixty_lines, capsys, bad):
    # as a missing or miscounted file does, a bad id in the last line of either file fails the command before any cell
    for path in (Path("run") / "test.ids", Path("run") / "train_nx54.ids"):
        good = path.read_text(encoding="utf-8")
        lines = good.splitlines()
        path.write_text("\n".join([*lines[:-1], bad]) + "\n", encoding="utf-8")
        capsys.readouterr()
        for command in (["train", "--size", "2", "--algo", "em"], ["sweep", "--sizes", "2", "--algos", "em"]):
            assert cli.main([*command, "--out-dir", "run", *CELL]) == 1
            error = json.loads(capsys.readouterr().err)
            assert error["error"] == "ValueError" and error["message"].startswith(f"{path} line {len(lines)}: ")
        assert not Path("run/results.csv").exists() and not Path("run/models").exists()
        path.write_text(good, encoding="utf-8")


def test_train_reports_the_type_and_message_that_the_cell_raises(tmp_path, monkeypatch, capsys):
    # a grammar trains on no one-chord line; one of the two lands in the training split
    monkeypatch.chdir(tmp_path)
    Path("corpus.txt").write_text("C F G\nF G C Am\nC\nAm F\nG C F\nF\nC G\nDm G C\n")
    assert cli.main(["prepare", "--corpus", "corpus.txt", "--out-dir", "run", "--test-count", "1"]) == 0
    cell = ["--out-dir", "run", "--model", "pcfg", "--em-max-iter", "2"]
    capsys.readouterr()
    assert cli.main(["train", "--size", "2", "--algo", "em", *cell]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ValueError"
    assert re.fullmatch(r"training sequence \d+ has length < 2", error["message"])
    # a sweep row keeps the type in its error text
    assert cli.main(["sweep", "--sizes", "2", "--algos", "em", *cell]) == 0
    with open("run/results.csv", encoding="utf-8") as fh:
        (row,) = csv.DictReader(fh)
    assert row["error"] == f"ValueError: {error['message']}"


@pytest.mark.parametrize(
    "text, why",
    [("{not json", "is not JSON"), ("[1]", "does not hold a JSON object"),
     (None, "lacks the key 'n_sequences'")],
    ids=["not-json", "not-an-object", "missing-key"],
)
def test_a_bad_meta_json_names_its_file(sixty_lines, capsys, text, why):
    meta_path = Path("run") / "meta.json"
    meta = json.loads(meta_path.read_text())
    assert set(meta) == set(cli.PREPARED_KEYS)
    if text is None:
        del meta["n_sequences"]
        text = json.dumps(meta)
    meta_path.write_text(text)
    capsys.readouterr()
    for command in (["sweep", "--sizes", "2", "--algos", "em"], ["train", "--size", "2", "--algo", "em"]):
        assert cli.main([*command, "--out-dir", "run", *CELL]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ValueError" and f"{meta_path} {why}" in error["message"]


@pytest.mark.parametrize(
    "edit, why",
    [("vocab_k", "lacks the key 'vocab_k'"), ("train_sizes", "lacks the key 'train_sizes'")],
    ids=["missing-vocab-k", "missing-train-sizes"],
)
def test_a_bad_config_in_meta_json_names_its_file_and_key(sixty_lines, capsys, edit, why):
    meta_path = Path("run") / "meta.json"
    meta = json.loads(meta_path.read_text())
    del meta[edit]
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    for command in (["sweep", "--sizes", "2", "--algos", "em"], ["train", "--size", "2", "--algo", "em"]):
        assert cli.main([*command, "--out-dir", "run", *CELL]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ValueError" and f"{meta_path} {why}" in error["message"]


@pytest.mark.parametrize(
    "key, value, why",
    [("train_sizes", "54", "train_sizes must be a list of int, got '54'"),
     ("train_sizes", [0], "train_sizes must be >= 1"),
     ("test_count", "6", "test_count must be int, got '6'"),
     ("test_count", None, "test_count must not be null"),
     ("vocab_k", 5.0, "vocab_k must be int, got 5.0"),
     ("data_seed", -1, "data_seed must be >= 0"),
     ("n_sequences", True, "n_sequences must be a finite int >= 1, got True"),
     ("vocab_size", 0, "vocab_size must be a finite int >= 1, got 0"),
     ("corpus_sha256", None, "corpus_sha256 must be str, got None")],
    ids=["train-sizes-str", "train-size-zero", "test-count-str", "test-count-null", "vocab-k-float",
         "data-seed-negative", "n-sequences-bool", "vocab-size-zero", "sha256-null"],
)
def test_a_bad_value_in_meta_json_names_its_file_and_key(sixty_lines, capsys, key, value, why):
    meta_path = Path("run") / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta[key] = value
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    for command in (["sweep", "--sizes", "2", "--algos", "em"], ["train", "--size", "2", "--algo", "em"]):
        assert cli.main([*command, "--out-dir", "run", *CELL]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ValueError" and f"{meta_path} has a bad value: {why}" in error["message"]
    assert not Path("run/models").exists() and not Path("run/results.csv").exists()


def test_meta_json_keeps_one_copy_of_each_data_field(sixty_lines):
    meta = json.loads(Path("run/meta.json").read_text())
    assert set(meta) == set(cli.PREPARED_KEYS) and "config" not in meta
    resolved = {name: meta[name] for name in DATA_FIELDS}
    assert resolved == {"vocab_k": 5, "test_count": 6, "data_seed": 0, "train_sizes": [54]}
    assert sorted(meta) == ["corpus_sha256", "data_seed", "n_sequences", "test_count", "train_sizes", "vocab_k",
                            "vocab_size"]


def _with_a_config(meta: dict) -> dict:
    """``meta`` as an older chordlm wrote it: the whole config of the ``prepare``
    command, with the data fields inside it, in place of the data fields."""
    config = {**ExperimentConfig().as_dict(), **{name: meta[name] for name in DATA_FIELDS}}
    return {**{k: v for k, v in meta.items() if k not in DATA_FIELDS}, "config": config}


def test_a_directory_prepared_with_the_data_fields_at_the_top_level_is_prepared_again(sixty_lines, capsys):
    # meta.json used to repeat the resolved test_count and train_sizes next to its config
    meta_path = Path("run") / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta_path.write_text(json.dumps({**_with_a_config(meta), "test_count": 6, "train_sizes": [54]}))
    capsys.readouterr()
    assert cli.main(["train", "--size", "2", "--algo", "em", "--out-dir", "run", *CELL]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["message"] == f"{meta_path} has unknown keys ['config']; run `chordlm prepare` again"


def test_a_directory_prepared_with_a_config_in_meta_json_is_prepared_again(sixty_lines, capsys):
    # meta.json used to hold the prepare command's whole config, and the data fields only inside it
    meta_path = Path("run") / "meta.json"
    meta_path.write_text(json.dumps(_with_a_config(json.loads(meta_path.read_text()))))
    capsys.readouterr()
    for command in (["sweep", "--sizes", "2", "--algos", "em"], ["train", "--size", "2", "--algo", "em"]):
        assert cli.main([*command, "--out-dir", "run", *CELL]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["message"] == f"{meta_path} has unknown keys ['config']; run `chordlm prepare` again"


def test_a_directory_prepared_with_a_mean_train_length_is_prepared_again(sixty_lines, capsys):
    # meta.json used to record the mean length of the whole training split, which set every grammar's kappa
    meta_path = Path("run") / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["mean_train_length"] = 6.0
    meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    for command in (["sweep", "--sizes", "2", "--algos", "em"], ["train", "--size", "2", "--algo", "em"]):
        assert cli.main([*command, "--out-dir", "run", *CELL]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["message"] == f"{meta_path} has unknown keys ['mean_train_length']; run `chordlm prepare` again"


def test_train_and_sweep_refuse_a_directory_without_test_lines(tmp_path, capsys):
    # one tenth of 9 lines is no test line: prepare accepts that, training does not
    corpus = write_corpus(tmp_path / "nine.txt", np.random.default_rng(4), n_sequences=9)
    out = str(tmp_path / "run")
    assert cli.main(["prepare", "--corpus", str(corpus), "--out-dir", out]) == 0
    capsys.readouterr()
    for command in (["sweep", "--sizes", "2", "--algos", "em"], ["train", "--size", "2", "--algo", "em"]):
        assert cli.main([*command, "--out-dir", out, "--model", "hmm"]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ValueError" and "no test lines" in error["message"]
    assert not (tmp_path / "run" / "models").exists() and not (tmp_path / "run" / "results.csv").exists()


@pytest.mark.parametrize(
    "size, error, why",
    [(5, "FileNotFoundError", "train_nx5.ids not found"),
     (28, "ValueError", "meta.json has train size 28, above its training lines")],
    ids=["no-file", "above-the-training-lines"],
)
def test_a_train_size_without_its_lines_is_a_command_error(tmp_path, capsys, size, error, why):
    corpus = write_corpus(tmp_path / "thirty.txt", np.random.default_rng(5))
    out = tmp_path / "run"
    assert cli.main(["prepare", "--corpus", str(corpus), "--out-dir", str(out), "--test-count", "3"]) == 0
    meta = json.loads((out / "meta.json").read_text())
    meta["train_sizes"] = [size]
    (out / "meta.json").write_text(json.dumps(meta))
    (out / "train_nx28.ids").write_bytes((out / "train.ids").read_bytes())  # the file alone does not help
    capsys.readouterr()
    for command in (["sweep", "--sizes", "1", "--algos", "additive"], ["train", "--size", "1", "--algo", "additive"]):
        assert cli.main([*command, "--out-dir", str(out), "--model", "markov"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == error and why in err["message"]
    assert not (out / "models").exists() and not (out / "results.csv").exists()


# a missing train_nx<N>.ids: test_a_train_size_without_its_lines_is_a_command_error
@pytest.mark.parametrize("name", ["vocab.txt", "test.ids"])
def test_a_prepared_file_that_is_gone_is_a_command_error(sixty_lines, capsys, name):
    (Path("run") / name).unlink()
    capsys.readouterr()
    for command in (["sweep", "--sizes", "2", "--algos", "em"], ["train", "--size", "2", "--algo", "em"]):
        assert cli.main([*command, "--out-dir", "run", *CELL]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "FileNotFoundError" and error["message"].startswith(f"{Path('run') / name} not found")
    assert not Path("run/models").exists() and not Path("run/results.csv").exists()


@pytest.mark.parametrize("name, count, held", [("train_nx54.ids", 54, 34), ("test.ids", 6, 7)],
                         ids=["train-lines-deleted", "test-line-added"])
def test_an_encoded_file_of_other_length_than_the_record_is_a_command_error(sixty_lines, capsys, name, count, held):
    path = Path("run") / name
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == count
    path.write_text("\n".join((lines * 2)[:held]) + "\n", encoding="utf-8")
    capsys.readouterr()
    for command in (["sweep", "--sizes", "2", "--algos", "em"], ["train", "--size", "2", "--algo", "em"]):
        assert cli.main([*command, "--out-dir", "run", *CELL]) == 1
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ValueError"
        assert error["message"] == (f"{path} holds {held} lines, not the {count} that {Path('run') / 'meta.json'} "
                                    "counts; run `chordlm prepare` again")
    assert not Path("run/models").exists() and not Path("run/results.csv").exists()


@pytest.mark.parametrize("name", ["vocab.txt", "test.ids", "models/hmm_s2_nx54_em_seed0.model", "meta.json"],
                         ids=["vocabulary", "encoded", "model", "record"])
def test_a_byte_that_is_not_utf8_names_its_file(sixty_lines, capsys, name):
    train = ["train", "--out-dir", "run", "--size", "2", "--algo", "em", *CELL]
    assert cli.main(train) == 0
    path = Path("run") / name
    raw = path.read_bytes()
    path.write_bytes(raw[:20] + b"\xff" + raw[21:])
    files = ["--model-file", str(Path("run", "models", "hmm_s2_nx54_em_seed0.model")),
             "--vocab-file", str(Path("run", "vocab.txt"))]
    capsys.readouterr()
    assert cli.main(train if name.endswith((".ids", ".json")) else ["generate", *files]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "ValueError",
        "message": f"{path} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 20: invalid start byte",
    }


def test_train_and_sweep_after_prepare_need_no_data_flags(tmp_path, capsys):
    # the command-line sequence of the README: only prepare names the data
    corpus = write_corpus(tmp_path / "chords.txt", np.random.default_rng(0))
    out = str(tmp_path / "demo")
    prepare = ["prepare", "--corpus", str(corpus), "--out-dir", out, "--vocab-k", "4", "--test-count", "6",
               "--train-sizes", "5,12"]
    assert cli.main(prepare) == 0
    grid = ["--em-max-iter", "3", "--gs-samples", "2", "--polish-iters", "1"]
    assert cli.main(["train", "--out-dir", out, "--model", "hmm", "--size", "2", "--algo", "gs", "--seed", "0",
                     "--n-x", "5", *grid]) == 0
    assert cli.main(["sweep", "--out-dir", out, "--model", "hmm", "--sizes", "1,2", "--seeds", "0,1", *grid]) == 0
    with open(tmp_path / "demo" / "results.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 2 * 2 and all(row["error"] == "" for row in rows)


# ----------------------------------------------------------------- analyze


def test_analyze_identity_emission_hmm(tmp_path):
    data = make_dataset(["a b a", "b a"], symbols=["a", "b"])
    m = markov.fit(data, 2, order=1, smoothing="additive", epsilon=0.1)
    params = from_markov(m)
    vocab = Vocabulary(symbols=["a", "b"])
    vocab_path = tmp_path / "vocab.txt"
    vocab.save(vocab_path)
    model_path = tmp_path / "m.model"
    model_io.save_model(params, model_path, vocab_hash=vocab.content_hash())
    report = cli.cmd_analyze(str(model_path), str(vocab_path), threshold=0.05)
    assert report["kind"] == "hmm"
    assert report["info_measures"]["emission_perplexity"] == pytest.approx(1.0, abs=1e-9)
    assert report["threshold"] == 0.05


def test_analyze_two_state_hand_value(tmp_path):
    params = hmm.HmmParams(
        initial=np.array([0.5, 0.5]),
        transition=np.array([[0.9, 0.1], [0.5, 0.5]]),
        emission=np.eye(2),
    )
    vocab = Vocabulary(symbols=["a", "Other"])
    vocab.save(tmp_path / "v.txt")
    model_io.save_model(params, tmp_path / "m.model")
    report = cli.cmd_analyze(str(tmp_path / "m.model"), str(tmp_path / "v.txt"), 0.05)
    assert report["info_measures"]["stationary_perplexity"] == pytest.approx(1.5694, abs=1e-3)
    assert len(report["states"][0]["top_symbols"]) >= 1
    # only entries above the threshold are reported
    assert all(t["probability"] > 0.05 for t in report["transitions_above_threshold"])


def test_analyze_pcfg_report(tmp_path):
    g = pcfg.init_random(2, 2, seed=3)
    vocab = Vocabulary(symbols=["a", "Other"])
    vocab.save(tmp_path / "v.txt")
    model_io.save_model(g, tmp_path / "g.model")
    report = cli.cmd_analyze(str(tmp_path / "g.model"), str(tmp_path / "v.txt"), 0.05)
    assert report["kind"] == "pcfg"
    assert len(report["nonterminals"]) == 2
    assert all(r["probability"] > 0.05 for r in report["rules_above_threshold"])


def _entries_by_nested_loops(table: np.ndarray, threshold: float, names: tuple[str, ...]) -> list[dict]:
    entries = []
    for index in itertools.product(*(range(n) for n in table.shape)):
        if table[index] > threshold:
            entries.append({**dict(zip(names, index)), "probability": float(table[index])})
    return entries


def test_analyze_lists_every_entry_above_the_threshold_in_row_major_order(tmp_path):
    Vocabulary(symbols=["a", "b", "Other"]).save(tmp_path / "v.txt")
    params, grammar = hmm.init_random(5, 3, seed=11), pcfg.init_random(3, 3, seed=12)
    model_io.save_model(params, tmp_path / "m.model")
    model_io.save_model(grammar, tmp_path / "g.model")
    lists = [
        ("m.model", "transitions_above_threshold", params.transition, ("from", "to")),
        ("g.model", "start_rules_above_threshold", grammar.start_rules, ("left", "right")),
        ("g.model", "rules_above_threshold", grammar.rules, ("head", "left", "right")),
    ]
    for model_file, key, table, names in lists:
        report = cli.cmd_analyze(str(tmp_path / model_file), str(tmp_path / "v.txt"), 0.08)
        want = _entries_by_nested_loops(table, 0.08, names)
        assert 0 < len(want) < table.size
        assert report[key] == want


def test_analyze_markov_rejected(tmp_path):
    data = make_dataset(["a b a"], symbols=["a", "b"])
    m = markov.fit(data, 2, order=1)
    vocab = Vocabulary(symbols=["a", "b"])
    vocab.save(tmp_path / "v.txt")
    model_io.save_model(m, tmp_path / "m.model")
    with pytest.raises(ValueError):
        cli.cmd_analyze(str(tmp_path / "m.model"), str(tmp_path / "v.txt"), 0.05)


def test_analyze_vocab_hash_mismatch(tmp_path):
    params = hmm.init_random(2, 2, seed=0)
    model_io.save_model(params, tmp_path / "m.model", vocab_hash="deadbeef")
    Vocabulary(symbols=["a", "Other"]).save(tmp_path / "v.txt")
    with pytest.raises(ValueError):
        cli.cmd_analyze(str(tmp_path / "m.model"), str(tmp_path / "v.txt"), 0.05)


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "-0.5", "2"])
def test_analyze_refuses_a_threshold_outside_zero_to_one(tmp_path, capsys, threshold):
    model_io.save_model(hmm.init_random(2, 2, seed=0), tmp_path / "m.model")
    Vocabulary(symbols=["a", "Other"]).save(tmp_path / "v.txt")
    argv = ["analyze", "--model-file", str(tmp_path / "m.model"), "--vocab-file", str(tmp_path / "v.txt")]
    assert cli.main(argv + [f"--threshold={threshold}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    assert error["error"] == "ValueError" and "threshold must lie in [0, 1]" in error["message"]


@pytest.mark.parametrize("command", ["analyze", "generate"])
def test_a_model_and_a_vocabulary_of_other_sizes_are_refused(tmp_path, command):
    # a model saved without a vocabulary hash is checked by its size alone
    model_io.save_model(hmm.init_random(2, 5, 0), tmp_path / "m.model")
    Vocabulary(symbols=["a", "Other"]).save(tmp_path / "v.txt")
    paths = (str(tmp_path / "m.model"), str(tmp_path / "v.txt"))
    with pytest.raises(ValueError, match="has 5 symbols, vocabulary .* has 2"):
        if command == "analyze":
            cli.cmd_analyze(*paths, 0.05)
        else:
            cli.cmd_generate(*paths, 2, 0, 4)


# ---------------------------------------------------------------- generate


def test_generate_hmm_requires_length(tmp_path):
    params = hmm.init_random(2, 2, seed=1)
    vocab = Vocabulary(symbols=["a", "Other"])
    vocab.save(tmp_path / "v.txt")
    model_io.save_model(params, tmp_path / "m.model")
    with pytest.raises(ValueError):
        cli.cmd_generate(str(tmp_path / "m.model"), str(tmp_path / "v.txt"), 3, 0, None)
    lines = cli.cmd_generate(str(tmp_path / "m.model"), str(tmp_path / "v.txt"), 3, 0, 5)
    again = cli.cmd_generate(str(tmp_path / "m.model"), str(tmp_path / "v.txt"), 3, 0, 5)
    assert lines == again
    assert len(lines) == 3
    assert all(len(ln.split()) == 5 for ln in lines)


def test_generate_pcfg_forbids_length_and_matches_mean(tmp_path):
    base = hmm.HmmParams(np.array([1.0]), np.array([[1.0]]), np.array([[1.0]]))
    g = pcfg.init_from_hmm(base, kappa=0.6, eta=0.0)
    vocab = Vocabulary(symbols=["C"])
    vocab.save(tmp_path / "v.txt")
    model_io.save_model(g, tmp_path / "g.model")
    with pytest.raises(ValueError):
        cli.cmd_generate(str(tmp_path / "g.model"), str(tmp_path / "v.txt"), 2, 0, 5)
    lines = cli.cmd_generate(str(tmp_path / "g.model"), str(tmp_path / "v.txt"), 3000, 0, None)
    mean = np.mean([len(ln.split()) for ln in lines])
    assert abs(mean - 6.0) < 0.5


def _generation_models() -> dict:
    rng = np.random.default_rng(11)
    lines = [rng.integers(0, 5, size=int(n)) for n in rng.integers(1, 12, size=40)]
    base = hmm.init_random(3, 5, seed=1)
    return {
        "markov": markov.fit(lines, 5, order=2, smoothing="mkn"),
        "hmm": hmm.init_random(4, 5, seed=0),
        "pcfg": pcfg.init_from_hmm(base, kappa=0.6, eta=0.01),
    }


# sha256 of 40 generated lines at seed 7, joined by newlines; the values were
# recorded from the one-line-at-a-time samplers that the batch samplers replaced
GENERATED_SHA256 = {
    ("markov", 16, False): "45946d3e1c6e257a3fceba18f254f187f13bbb47aedaf42c9ef0c329bc37a236",
    ("markov", 1, False): "0872195488d5f89ed44cd3755ae634aafaebbf60f80080c77690f480902e0beb",
    ("hmm", 16, False): "7d6438d5d1095886b97bba5fe923a36aba128184aca8dc11ebaff56960835d1d",
    ("hmm", 1, False): "f7a82354f65d402cd45deb53d72c03ad84251086a70bb4dfc0d23012a55e7dbc",
    ("pcfg", None, False): "94679198ac4de29f8db5e00a6dea19a2a2c2141ff66c6ce922ac2f235c9ac2d5",
    ("pcfg", None, True): "76f32cc65fc20a57528a448b4deec98cab530bbe38189e6374b2e5dbe20d3d40",
}


@pytest.mark.parametrize("family, length, trees", list(GENERATED_SHA256))
def test_generated_lines_keep_their_bytes(tmp_path, family, length, trees):
    model_io.save_model(_generation_models()[family], tmp_path / "m.model")
    Vocabulary(symbols=["C", "F", "G", "Am", "Other"]).save(tmp_path / "v.txt")
    lines = cli.cmd_generate(str(tmp_path / "m.model"), str(tmp_path / "v.txt"), 40, 7, length, trees)
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    assert digest == GENERATED_SHA256[family, length, trees]


@pytest.mark.parametrize("trees", [False, True])
def test_a_grammar_generates_in_slices_the_lines_of_one_sampler_call(tmp_path, monkeypatch, trees):
    model_io.save_model(_generation_models()["pcfg"], tmp_path / "m.model")
    vocab = Vocabulary(symbols=["C", "F", "G", "Am", "Other"])
    vocab.save(tmp_path / "v.txt")
    g, _ = model_io.load_model(tmp_path / "m.model")
    samples = pcfg.sample_tree(g, [cell_seed("7", "generate", i) for i in range(600)])
    if trees:
        want = [pcfg.bracketed(derivation, g.n_nonterminals, vocab.symbols) for derivation, _ in samples]
    else:
        want = [" ".join(vocab.symbols[x] for x in ids.tolist()) for _, ids in samples]
    calls = count_calls(monkeypatch, pcfg, "sample_tree")
    assert cli.cmd_generate(str(tmp_path / "m.model"), str(tmp_path / "v.txt"), 600, 7, None, trees) == want
    assert calls[0] == math.ceil(600 / pcfg.GENERATE_SLICE) > 1


@pytest.mark.parametrize("count", [0, -3])
def test_generate_refuses_a_count_below_one(tmp_path, capsys, count):
    model_io.save_model(hmm.init_random(2, 2, seed=1), tmp_path / "m.model")
    Vocabulary(symbols=["a", "Other"]).save(tmp_path / "v.txt")
    capsys.readouterr()
    files = ["--model-file", str(tmp_path / "m.model"), "--vocab-file", str(tmp_path / "v.txt")]
    assert cli.main(["generate", *files, "--length", "4", "--count", str(count)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "ValueError", "message": f"count must be >= 1, got {count}"}


# ----------------------------------------------------------- process-level


LAUNCH = "import sys; from chordlm.cli import main; sys.exit(main())"


def _child_env(**extra):
    """The environment of a child that imports the same chordlm as this process, installed or not."""
    package_root = str(Path(chordlm.__file__).resolve().parents[1])
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}


def test_cli_exit_codes_and_error_json(tmp_path):
    env_cmd = [sys.executable, "-m", "chordlm.cli"]
    env = _child_env()
    bad = subprocess.run(
        env_cmd + ["prepare", "--corpus", str(tmp_path / "missing.txt"), "--out-dir", str(tmp_path / "r")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert bad.returncode != 0
    err = json.loads(bad.stderr.strip().splitlines()[-1])
    assert "error" in err and "message" in err

    corpus = tmp_path / "c.txt"
    corpus.write_text("C G Am F\nF G C C G\n")
    good = subprocess.run(
        env_cmd
        + ["prepare", "--corpus", str(corpus), "--out-dir", str(tmp_path / "r2"), "--vocab-k", "2", "--test-count", "0"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert good.returncode == 0, good.stderr
    assert json.loads(good.stdout)["vocab_size"] == 3


BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# cells whose products a multi-threaded BLAS would sum in another order, iterations capped
BLAS_CELLS = [["--model", "hmm", "--size", "100", "--algo", "em"], ["--model", "hmm", "--size", "100", "--algo", "gs"],
              ["--model", "pcfg", "--size", "20", "--algo", "em"]]


def test_trained_models_do_not_depend_on_the_blas_thread_count(tmp_path):
    rng = np.random.default_rng(5)
    symbols = ["C", "F", "G", "Am", "Dm", "Em", "E7", "Bb", "D", "A7", "Bdim", "Gm"]
    lines = [" ".join(rng.choice(symbols, size=int(n))) for n in 4 + (np.arange(140) * 7) % 16]
    (tmp_path / "corpus.txt").write_text("\n".join(lines) + "\n")
    run = tmp_path / "run"
    cli.cmd_prepare(ExperimentConfig(corpus=str(tmp_path / "corpus.txt"), out_dir=str(run), vocab_k=10, test_count=20))
    common = ["train", "--out-dir", str(run), "--em-max-iter", "1", "--gs-samples", "2", "--polish-iters", "1"]
    script = "import json, sys; from chordlm.cli import main; sys.exit(max(main(a) for a in json.loads(sys.argv[1])))"
    package_root = str(Path(chordlm.__file__).resolve().parents[1])
    models = {}
    for threads in ("1", "2", "3"):
        env = {**os.environ, **dict.fromkeys(BLAS_VARIABLES, threads),
               "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        argv = json.dumps([common + cell for cell in BLAS_CELLS])
        child = subprocess.run([sys.executable, "-c", script, argv], capture_output=True, text=True, env=env)
        assert child.returncode == 0, child.stderr
        models[threads] = {path.name: path.read_bytes() for path in sorted((run / "models").glob("*.model"))}
    assert len(models["1"]) == len(BLAS_CELLS)
    for threads in ("2", "3"):
        assert models[threads] == models["1"], f"{threads} BLAS threads train other bytes on {os.cpu_count()} CPUs"


def test_import_chordlm_loads_no_numpy_and_no_submodule():
    script = ("import json, os, sys; import chordlm; print(json.dumps({"
              "'modules': sorted(m for m in sys.modules if m.split('.')[0] == 'numpy' or m.startswith('chordlm.')), "
              "'blas': [os.environ[v] for v in sys.argv[1:]]}))")
    child = subprocess.run([sys.executable, "-c", script, *BLAS_VARIABLES], capture_output=True, text=True,
                           env=_child_env(OPENBLAS_NUM_THREADS="4"))
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == {"modules": [], "blas": ["1"] * len(BLAS_VARIABLES)}


def modules_of(command: list[str], prefixes: tuple[str, ...] = ("chordlm.", "concurrent", "multiprocessing")
               ) -> set[str]:
    """The modules under ``prefixes``, by default chordlm's, concurrent's and multiprocessing's, that a child
    process running ``command`` loads."""
    script = ("import json, sys; from chordlm.cli import main\n"
              "status = main(json.loads(sys.argv[1]))\n"
              "print(json.dumps([status, sorted(m for m in sys.modules if m.startswith(tuple(sys.argv[2:])))]))")
    child = subprocess.run([sys.executable, "-c", script, json.dumps(command), *prefixes], capture_output=True,
                           text=True, env=_child_env())
    assert child.returncode == 0, child.stderr
    status, modules = json.loads(child.stdout.splitlines()[-1])
    assert status == 0, child.stderr
    return set(modules)


def test_a_command_loads_only_the_families_it_runs(tmp_path):
    write_corpus(tmp_path / "corpus.txt", np.random.default_rng(0))
    run = str(tmp_path / "run")
    families = {"chordlm.hmm", "chordlm.markov", "chordlm.pcfg"}

    loaded = []
    # the second prepare checks the algos of the family it names; the directory records neither, so the sweep
    # after it loads no more than the first
    for prepare in ([], ["--model", "hmm", "--algos", "em,gs"]):
        for command in (["prepare", "--corpus", str(tmp_path / "corpus.txt"), "--out-dir", run, "--vocab-k", "4",
                         *prepare],
                        ["sweep", "--out-dir", run, "--model", "markov", "--sizes", "1", "--algos", "additive"]):
            loaded.append(families & modules_of(command))
    assert loaded == [set(), {"chordlm.markov"}, {"chordlm.hmm"}, {"chordlm.markov"}]

    # sampling a grammar loads its own family, but no other and no evaluation code
    assert cli.main(["train", "--out-dir", run, "--model", "pcfg", "--size", "2", "--algo", "em",
                     "--em-max-iter", "2", "--pcfg-init", "random"]) == 0
    modules = modules_of(["generate", "--model-file", f"{run}/models/pcfg_s2_nx27_em_seed0.model",
                          "--vocab-file", f"{run}/vocab.txt", "--count", "3"])
    assert families & modules == {"chordlm.pcfg"}
    assert "chordlm.evaluate" not in modules

    # a two-worker sweep forks its workers itself, and loads no process pool
    modules = modules_of(["sweep", "--out-dir", run, "--model", "markov", "--sizes", "1,2", "--algos", "additive",
                          "--workers", "2"])
    assert families & modules == {"chordlm.markov"} and "chordlm.evaluate" in modules
    assert {m.split(".")[0] for m in modules} == {"chordlm"}, modules


# the ways a module outside the families' own would name a family
FAMILY_BRANCH = re.compile(r'isinstance\(model|== "(markov|hmm|pcfg)"|model="hmm"')


def test_no_module_but_the_families_own_names_a_family():
    source = Path(cli.__file__).parent
    found = [f"{path.name}:{number}: {line.strip()}"
             for path in sorted(source.glob("*.py")) if path.stem not in ("markov", "hmm", "pcfg")
             for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if FAMILY_BRANCH.search(line)]
    assert found == []


def _chordlm_modules_imported(node: ast.AST) -> list[str]:
    """The chordlm submodules that the imports of ``node`` name, outside the bodies of its functions."""
    names = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            names += [alias.name.split(".")[1] for alias in child.names if alias.name.startswith("chordlm.")]
        elif isinstance(child, ast.ImportFrom) and (child.level or (child.module or "").startswith("chordlm")):
            module = (child.module or "").removeprefix("chordlm").lstrip(".")
            names += [module.split(".")[0]] if module else [alias.name for alias in child.names]
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            names += _chordlm_modules_imported(child)
    return names


def test_no_family_module_imports_another_family_at_top_level():
    # a process loads only the families it runs; a grammar initialised from an HMM imports hmm inside the fit
    source = Path(cli.__file__).parent
    found = {kind: sorted(set(_chordlm_modules_imported(ast.parse((source / f"{kind}.py").read_text("utf-8"))))
                          & set(MODELS) - {kind}) for kind in MODELS}
    assert found == dict.fromkeys(MODELS, [])
    fit = next(node for node in ast.walk(ast.parse((source / "pcfg.py").read_text("utf-8")))
               if isinstance(node, ast.FunctionDef) and node.name == "fit")
    assert _chordlm_modules_imported(fit) == ["hmm"]


def test_numpy_random_loads_only_where_a_cell_draws_or_workers_fork(tmp_path):
    write_corpus(tmp_path / "corpus.txt", np.random.default_rng(0))
    run = str(tmp_path / "run")
    assert cli.main(["prepare", "--corpus", str(tmp_path / "corpus.txt"), "--out-dir", run, "--vocab-k", "4"]) == 0
    markov_cells = ["--out-dir", run, "--model", "markov", "--algos", "additive"]
    # a Markov fit draws nothing, so neither train nor a one-worker sweep loads numpy.random
    for command in (["train", "--out-dir", run, "--model", "markov", "--size", "1", "--algo", "additive"],
                    ["sweep", *markov_cells, "--sizes", "1,2"]):
        assert "numpy.random" not in modules_of(command, ("numpy.random",)), command
    # a two-worker sweep loads it once, in the parent before it forks, for every cell's draws
    assert "numpy.random" in modules_of(["sweep", *markov_cells, "--sizes", "1,2", "--workers", "2"],
                                        ("numpy.random",))


def test_prepare_analyze_and_generate_load_no_grid_and_a_sweep_no_process_pool(tmp_path):
    write_corpus(tmp_path / "corpus.txt", np.random.default_rng(0))
    run, model = tmp_path / "run", tmp_path / "run" / "models" / "hmm_s2_nx27_em_seed0.model"
    files = ["--model-file", str(model), "--vocab-file", str(run / "vocab.txt")]
    loaded = {"prepare": modules_of(["prepare", "--corpus", str(tmp_path / "corpus.txt"), "--out-dir", str(run),
                                     "--vocab-k", "4"])}
    assert cli.main(["train", "--out-dir", str(run), "--model", "hmm", "--size", "2", "--algo", "em",
                     "--em-max-iter", "2"]) == 0
    loaded["analyze"] = modules_of(["analyze", *files, "--out", str(tmp_path / "analysis.json")])
    loaded["generate"] = modules_of(["generate", *files, "--length", "4", "--out", str(tmp_path / "generated.txt")])
    for command, modules in loaded.items():
        assert not modules & {"chordlm.grid", "chordlm.evaluate"}, command
    # a two-worker sweep forks its workers itself
    modules = modules_of(["sweep", "--out-dir", str(run), "--model", "hmm", "--sizes", "1,2", "--algos", "em",
                          "--em-max-iter", "2", "--workers", "2"])
    assert "chordlm.grid" in modules
    assert not [m for m in modules if m.startswith(("concurrent", "multiprocessing"))], modules


def test_commands_read_and_write_text_as_utf8_whatever_the_locale(tmp_path):
    # every text file chordlm opens names its encoding, so no call falls back on the locale's
    rng = np.random.default_rng(3)
    write_corpus(tmp_path / "corpus.txt", rng, n_sequences=40, alphabet=("C", "C♯m", "F♯", "G", "A", "E"))
    run = tmp_path / "run"

    def chordlm_command(*args):
        child = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-c", LAUNCH, *args],
            capture_output=True, env=_child_env(PYTHONIOENCODING="utf-8"),
        )
        assert child.returncode == 0, child.stderr.decode("utf-8")
        return child.stdout.decode("utf-8")

    chordlm_command("prepare", "--corpus", str(tmp_path / "corpus.txt"), "--out-dir", str(run), "--vocab-k", "6")
    assert "C♯m" in Vocabulary.load(run / "vocab.txt").symbols
    for model, algo in (("markov", "additive"), ("hmm", "em"), ("pcfg", "em")):
        chordlm_command("sweep", "--out-dir", str(run), "--model", model, "--sizes", "2", "--algos", algo,
                        "--seeds", "0,1", "--em-max-iter", "2", "--workers", "2")
        with open(run / "results.csv", encoding="utf-8", newline="") as fh:  # a cell records its failure, not exits
            assert [row["error"] for row in csv.DictReader(fh)] == ["", ""]
    files = ["--model-file", str(run / "models" / "pcfg_s2_nx36_em_seed0.model"),
             "--vocab-file", str(run / "vocab.txt")]
    for command, flags in (("generate", ["--count", "20", "--trees"]), ("analyze", [])):
        out = tmp_path / f"{command}.out"
        printed = chordlm_command(command, *files, *flags)
        assert chordlm_command(command, *files, *flags, "--out", str(out)) == ""
        assert out.read_bytes().decode("utf-8").splitlines() == printed.splitlines()
    assert "♯" in (tmp_path / "generate.out").read_text(encoding="utf-8")
