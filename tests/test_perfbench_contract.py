"""The benchmark's view of the program, on tiny grids.

perfbench drives chordlm through ``prepare``, ``sweep`` and ``generate`` and
then reads the outputs with its own parsers: model files through
``reference.read_model``, predictions through ``model_io.load_model`` and
``predict_distribution``, EM traces and Gibbs samples through the
``log.json`` keys, and metrics through the ``results.csv`` columns. This test
runs one small grid per model family the way perfbench does and hands the
outputs to perfbench's own checks, so a change that breaks what the
benchmark reads fails here instead of as a malformed benchmark run.

It also checks the per-layer metrics that ``BENCHMARK.json`` declares: each
must name a distinct function that the tracer can find, since a traced run
silently leaves out a function that no longer exists.

perfbench is imported read-only, through the ``bench`` fixture of ``conftest.py``.
"""

from __future__ import annotations

import collections
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chordlm
from chordlm import cli, model_io
from chordlm.config import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]

SWEEPS = [
    {"model": "pcfg", "sizes": [2], "algos": ["em"], "seeds": [0], "em_max_iter": 2, "pcfg_init": "random"},
    {"model": "pcfg", "sizes": [2], "algos": ["gs"], "seeds": [0], "gs_samples": 2, "polish_iters": 1,
     "pcfg_init": "hmm"},
    {"model": "hmm", "sizes": [2], "algos": ["em", "gs"], "seeds": [0], "em_max_iter": 2, "gs_samples": 2,
     "polish_iters": 1},
    {"model": "markov", "sizes": [1, 2], "algos": ["additive"], "seeds": [0]},
]
COMMON = {"corpus": "corpus.txt", "out_dir": "run", "vocab_k": 6, "data_seed": 0, "rel_tol": 0.0,
          "test_count": 4, "train_sizes": [24]}
GENERATES = [("pcfg_s2_nx24_em_seed0", 40, None), ("pcfg_s2_nx24_gs_seed0", 40, None),
             ("hmm_s2_nx24_gs_seed0", 10, 6), ("markov_s2_nx24_additive_seed0", 10, 6)]


def test_outputs_pass_the_benchmark_checks(bench, tmp_path, monkeypatch):
    checks, planted, ref = bench["checks"], bench["planted"], bench["reference"]
    monkeypatch.chdir(tmp_path)
    lengths = [2 + (5 * i) % 7 for i in range(28)]
    Path("corpus.txt").write_text(planted.corpus_text(3, lengths), encoding="utf-8")
    configs = []
    for i, sweep in enumerate(SWEEPS):
        configs.append({**COMMON, **sweep})
        Path(f"config{i}.json").write_text(json.dumps(configs[-1]))

    assert cli.main(["prepare", "--config", "config0.json"]) == 0
    run = Path("run")
    results = []
    for i in range(len(SWEEPS)):
        assert cli.main(["sweep", "--config", f"config{i}.json", "--workers", "1"]) == 0
        results.append(run / f"results{i}.csv")
        (run / "results.csv").rename(results[-1])
    vocab = ref.read_vocab(run / "vocab.txt")
    test = ref.read_ids(run / "test.ids")
    rows = []
    for cfg, path in zip(configs, results):
        grid = {k: cfg.get(k) for k in ("em_max_iter", "gs_samples", "polish_iters")}
        for row in checks.read_rows(path):
            assert row["error"] == ""
            counts = checks.check_cell(run, row, grid, len(vocab), test, model_io.load_model)
            assert (counts["em_iterations"] > 0) == (row["model"] != "markov")
            rows.append(row)
    assert len(rows) == 6

    for i, (name, count, length) in enumerate(GENERATES):
        args = ["generate", "--model-file", f"run/models/{name}.model", "--vocab-file", "run/vocab.txt",
                "--count", str(count), "--seed", "1", "--out", f"generated{i}.txt"]
        if length is not None:
            args += ["--length", str(length)]
        assert cli.main(args) == 0
        checks.check_generated(Path(f"generated{i}.txt"), vocab, count, length, run / "models" / f"{name}.model")

    first = checks.digest(run, results)
    assert cli.main(["sweep", "--config", "config0.json", "--workers", "1"]) == 0
    (run / "results.csv").rename(results[0])
    assert checks.digest(run, results) == first


def test_declared_layers_are_distinct_traced_functions(bench):
    """Every ``<module>.<name>.{calls,total_s,self_s}`` metric names a function
    in ``tracing.LAYERS`` that exists in ``chordlm.<module>``, and no two of
    them are one function object (the tracer rebinds by identity)."""
    tracing = bench["tracing"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = sorted({
        m["name"].rpartition(".")[0] for m in declared
        if m["name"].rpartition(".")[2] in ("calls", "total_s", "self_s")
    })
    assert names
    owners: dict[int, str] = {}
    for name in names:
        module, _, path = name.partition(".")
        assert path in tracing.LAYERS.get(module, []), f"{name} is not traced"
        obj = importlib.import_module(f"chordlm.{module}")
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        assert callable(obj), f"{name} is declared in BENCHMARK.json but missing from chordlm"
        assert id(obj) not in owners, f"{name} is the same function as {owners.get(id(obj))}"
        owners[id(obj)] = name


@pytest.mark.parametrize(
    "family, algo, fit, sampler",
    [("markov", "additive", "markov.fit", "markov.MarkovModel.sample_sequence"),
     ("hmm", "em", "hmm.em_fit", "hmm.sample_sequence"),
     ("pcfg", "em", "pcfg.em_fit", "pcfg.sample_tree")],
)
def test_the_tracer_counts_each_family_calls(tmp_path, family, algo, fit, sampler):
    """A traced ``train`` then ``generate`` of one tiny model counts one save,
    one evaluation, one load, one fit and one sampler call: a dispatch that
    went around a traced name would read 0 here, where the traced smoke run
    only checks that the names are present."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("C G Am F\nF G C C G\nAm F C G\nC C F G Am\nG F C\nF Am G C\nC G\n")
    run = str(tmp_path / "run")
    assert cli.main(["prepare", "--corpus", str(corpus), "--out-dir", run, "--vocab-k", "4", "--test-count", "1"]) == 0
    package_root = str(Path(chordlm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    model = f"{run}/models/{family}_s2_nx6_{algo}_seed0.model"
    generate = ["generate", "--model-file", model, "--vocab-file", f"{run}/vocab.txt", "--count", "3",
                "--out", str(tmp_path / "generated.txt")]
    calls = collections.Counter()
    for command in (["train", "--out-dir", run, "--model", family, "--size", "2", "--algo", algo, "--em-max-iter", "2"],
                    generate + ([] if family == "pcfg" else ["--length", "4"])):
        stats = tmp_path / f"{command[0]}.json"
        traced = subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(stats), *command],
                                capture_output=True, text=True, env=env)
        assert traced.returncode == 0, traced.stderr
        calls.update({name: value["calls"] for name, value in json.loads(stats.read_text()).items()})
    for name in ("model_io.save_model", "evaluate.evaluate_model", "model_io.load_model", fit, sampler):
        assert calls[name] == 1, name


def test_benchmark_configs_are_valid(bench):
    run = bench["run"]
    for name, spec in run.WORKLOADS.items():
        for sweep in spec.sweeps:
            cfg = ExperimentConfig.from_dict(spec.config(sweep))
            assert cfg.as_dict() == {**ExperimentConfig().as_dict(), **spec.config(sweep)}, name
    for sweep in SWEEPS:
        ExperimentConfig.from_dict({**COMMON, **sweep})
