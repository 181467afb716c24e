"""The training contract shared by HMMs and grammars: every fit returns its
model's per-line log evidences of the training data, which the CLI turns into
the train perplexity without scoring the training set again."""

from pathlib import Path

import numpy as np
import pytest

from chordlm import cli, evaluate, hmm, markov, pcfg
from chordlm.config import MODELS, Cell, ExperimentConfig
from chordlm.corpus import Vocabulary
from chordlm.hmm import HmmParams
from oracles import count_calls

FAMILIES = {"hmm": hmm, "pcfg": pcfg}


@pytest.mark.parametrize("family_name", ["hmm", "pcfg"])
@pytest.mark.parametrize(
    "algo, options, stop",
    [
        ("em", {"max_iter": 200, "rel_tol": 1e-3}, "tolerance"),
        ("em", {"max_iter": 3, "rel_tol": 0.0}, "cap"),
        ("gs", {"n_samples": 3, "polish_iters": 0}, "cap"),
        ("gs", {"n_samples": 3, "polish_iters": 2, "rel_tol": 0.0}, "cap"),
    ],
)
def test_fit_returns_the_fitted_models_training_evidences(family_name, algo, options, stop):
    rng = np.random.default_rng(90)
    seqs = [rng.integers(0, 4, size=int(n)) for n in rng.integers(2, 8, size=14)]
    family = FAMILIES[family_name]
    init = family.init_random(2, 4, seed=3)
    if algo == "em":
        fitted, em_trace, log_evidences = family.em_fit(init, seqs, family.EmConfig(**options))
        cap = options["max_iter"]
    else:
        config = family.GibbsConfig(seed=5, **options)
        fitted, trace, log_evidences = family.gibbs_fit(init, seqs, config)
        em_trace, cap = trace.polish_trace, options["polish_iters"]
    assert (len(em_trace) <= cap) == (stop == "tolerance")
    assert list(log_evidences) == list(fitted.log_evidences(seqs))
    assert em_trace[-1] == family.log_evidence_total(fitted, seqs)  # both sum in corpus order


@pytest.mark.parametrize("family_name", ["hmm", "pcfg"])
@pytest.mark.parametrize("algo", ["em", "gs"])
def test_zero_evidence_names_the_first_dead_line_in_corpus_order(family_name, algo):
    # symbol 2 is never emitted, so both lines are dead; the shorter one comes
    # first in length order
    base = HmmParams(
        initial=np.array([1.0, 0.0]),
        transition=np.array([[0.5, 0.5], [0.5, 0.5]]),
        emission=np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0]]),
    )
    family = FAMILIES[family_name]
    init = base if family is hmm else pcfg.init_from_hmm(base, kappa=0.7, eta=0.01)
    seqs = [np.array([2, 0, 0]), np.array([2, 2])]
    with pytest.raises(ValueError, match="^training sequence 0 has zero evidence$"):
        if algo == "em":
            family.em_fit(init, seqs, family.EmConfig(max_iter=2))
        else:
            config = family.GibbsConfig(n_samples=2, polish_iters=1)
            family.gibbs_fit(init, seqs, config)


@pytest.mark.parametrize("family_name", ["hmm", "pcfg"])
@pytest.mark.parametrize("alpha", [0.0, -0.5, float("nan")])
def test_gibbs_fit_refuses_a_concentration_that_is_not_positive(family_name, alpha):
    family = FAMILIES[family_name]
    seqs = [np.array([0, 1, 0]), np.array([1, 1])]
    config = family.GibbsConfig(n_samples=2, polish_iters=1, dirichlet_alpha=alpha)
    with pytest.raises(ValueError, match="^Dirichlet concentration must be positive$"):
        family.gibbs_fit(family.init_random(2, 2, seed=0), seqs, config)


@pytest.fixture
def prepared(tmp_path):
    rng = np.random.default_rng(91)
    symbols = ("C", "F", "G", "Am", "Dm")
    lines = [" ".join(rng.choice(symbols, size=int(rng.integers(2, 8)))) for _ in range(26)]
    (tmp_path / "corpus.txt").write_text("\n".join(lines) + "\n")
    cfg = ExperimentConfig(
        corpus=str(tmp_path / "corpus.txt"), out_dir=str(tmp_path / "run"), vocab_k=4, test_count=6,
        train_sizes=[20], sizes=[2], seeds=[0], em_max_iter=3, rel_tol=0.0, gs_samples=3, polish_iters=2,
    )
    meta = cli.cmd_prepare(cfg)
    run = Path(cfg.out_dir)
    vocab = Vocabulary.load(run / "vocab.txt")
    train, test = (cli._read_encoded(run / name, vocab) for name in ("train_nx20.ids", "test.ids"))
    return cfg, meta, train, test


def _run(cfg: ExperimentConfig, meta: dict, model: str, algo: str) -> dict:
    cell_cfg = ExperimentConfig.from_dict({**cfg.as_dict(), "model": model, "algos": [algo]})
    row = cli._run_cell(cell_cfg, cli._load_prepared(cell_cfg)[1], Cell(model, 2, 20, algo, 0))
    assert row["error"] == ""
    return row


@pytest.mark.parametrize(
    "model, algo", [("markov", "mkn"), ("hmm", "em"), ("hmm", "gs"), ("pcfg", "em"), ("pcfg", "gs")]
)
def test_run_cell_train_perplexity_is_the_fitted_models(prepared, monkeypatch, model, algo):
    cfg, meta, train, _ = prepared
    trained = []
    fit = MODELS[model].fit

    def keep(*args):
        trained.append(fit(*args))
        return trained[-1]

    monkeypatch.setattr(MODELS[model], "fit", keep)
    perplexity_calls = count_calls(monkeypatch, evaluate, "perplexity")
    row = _run(cfg, meta, model, algo)
    assert perplexity_calls[0] == 0  # the fit's own evidences, no second scoring pass
    assert row["train_perplexity"] == evaluate.perplexity(trained[-1][0], train)


def test_pcfg_em_cell_runs_one_inside_pass_per_batch_and_iteration(prepared, monkeypatch):
    cfg, meta, train, test = prepared
    calls = count_calls(monkeypatch, pcfg, "_inside_batch")
    _run(cfg, meta, "pcfg", "em")
    # each E-step, the capped end's evidences (also the train perplexity's),
    # then one pass over the test set
    v = meta["vocab_size"]
    batches = len(list(pcfg._batches(train, 2, v)))
    assert calls[0] == (cfg.em_max_iter + 1) * batches + len(list(pcfg._batches(test, 2, v)))


def test_hmm_em_cell_runs_one_forward_pass_per_chunk_and_iteration(prepared, monkeypatch):
    cfg, meta, train, test = prepared
    monkeypatch.setattr(markov, "MAX_CHUNK_FLOATS", 2 * 2 * 7)  # two lines of 7 chords per chunk at K=2
    calls = count_calls(monkeypatch, hmm, "_forward_batch")
    _run(cfg, meta, "hmm", "em")
    v = meta["vocab_size"]
    chunks = len(hmm._chunks(train, 2, v))
    assert chunks > 1
    assert calls[0] == (cfg.em_max_iter + 1) * chunks + len(hmm._chunks(test, 2, v))
