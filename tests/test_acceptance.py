"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time

import numpy as np
import pytest

from chordlm import cli, evaluate, hmm, markov, pcfg
from chordlm.config import ExperimentConfig
from chordlm.hmm import HmmParams
from oracles import (
    all_sequences,
    entropy_perplexity,
    evidence_ratio_prediction,
    hmm_evidence_by_enumeration,
    hmm_terminated_evidence,
    length_probability,
    make_dataset,
    pcfg_evidence_by_enumeration,
    random_stochastic,
)


def report(criterion: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion} [{description}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed: {description}"


def random_hmm(rng, n_states, vocab):
    return HmmParams(
        initial=random_stochastic(rng, (n_states,)),
        transition=random_stochastic(rng, (n_states, n_states)),
        emission=random_stochastic(rng, (n_states, vocab)),
    )


def test_criterion_1_embedding_equalities():
    started = time.perf_counter()
    ok = True

    # (a) first-order Markov model embedded as an HMM
    data = make_dataset(["a b c a b", "c a b", "b b c a"], symbols=["a", "b", "c"])
    mk = markov.fit(data, 3, order=1, smoothing="additive", epsilon=0.1)
    embedded = hmm.from_markov(mk)
    for length in range(1, 5):
        for seq in all_sequences(3, length):
            want = mk.log_evidence(seq)
            got = hmm.forward_backward(embedded, seq)[3]
            ok &= abs(got - want) <= 1e-12 * abs(want)

    # (b) strict PCFG embedding of length-terminated HMMs
    rng = np.random.default_rng(1234)
    for _ in range(5):
        base = random_hmm(rng, 2, 3)
        end = rng.uniform(0.2, 0.7, size=2)
        grammar = pcfg.strict_embed_hmm(base, end)
        for length in range(1, 6):
            for seq in all_sequences(3, length):
                want = hmm_terminated_evidence(
                    base.initial, base.transition, base.emission, end, seq
                )
                got = math.exp(pcfg.inside(grammar, seq).log_evidence[0])
                ok &= abs(got - want) <= 1e-9 * abs(want)

    elapsed = time.perf_counter() - started
    ok &= elapsed < 10.0
    report(1, f"embedding equalities, {elapsed:.1f}s", ok)


def test_criterion_2_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    ok = True

    for _ in range(50):
        k = int(rng.integers(1, 4))
        v = int(rng.integers(2, 5))
        params = random_hmm(rng, k, v)
        seq = rng.integers(0, v, size=int(rng.integers(1, 7)))
        want = hmm_evidence_by_enumeration(params.initial, params.transition, params.emission, seq)
        got = math.exp(hmm.forward_backward(params, seq)[3])
        ok &= abs(got - want) <= 1e-12 * abs(want)

    for _ in range(50):
        d = int(rng.integers(1, 3))
        v = int(rng.integers(2, 4))
        grammar = pcfg.init_random(d, v, seed=int(rng.integers(0, 2**31)))
        seq = rng.integers(0, v, size=int(rng.integers(2, 5)))
        want = pcfg_evidence_by_enumeration(
            grammar.start_rules, grammar.start_emissions, grammar.rules, grammar.emissions, seq
        )
        got = math.exp(pcfg.inside(grammar, seq).log_evidence[0])
        ok &= abs(got - want) <= 1e-12 * abs(want)

    elapsed = time.perf_counter() - started
    ok &= elapsed < 30.0
    report(2, f"chart algorithms match brute-force enumeration, {elapsed:.1f}s", ok)


def test_criterion_3_symbolwise_prediction_formulas():
    rng = np.random.default_rng(99)
    ok = True

    symbols = ["a", "b", "c"]
    for i in range(20):
        order = int(rng.integers(1, 4))
        smoothing = ("additive", "kn", "mkn")[i % 3]
        rows = [" ".join(rng.choice(symbols, size=rng.integers(2, 9))) for _ in range(10)]
        model = markov.fit(make_dataset(rows, symbols=symbols), len(symbols), order=order, smoothing=smoothing)
        seq = rng.integers(0, 3, size=int(rng.integers(1, 8)))
        for pos in range(1, len(seq) + 1):
            got = model.predict_distribution(seq, pos)
            want = evidence_ratio_prediction(model, seq, pos)
            ok &= bool(np.all(np.abs(got - want) <= 1e-9))

    for _ in range(20):
        params = random_hmm(rng, int(rng.integers(1, 4)), 4)
        seq = rng.integers(0, 4, size=int(rng.integers(1, 7)))
        for pos in range(1, len(seq) + 1):
            got = hmm.predict_distribution(params, seq, pos)
            want = evidence_ratio_prediction(params, seq, pos)
            ok &= bool(np.all(np.abs(got - want) <= 1e-9))

    for _ in range(20):
        grammar = pcfg.init_random(int(rng.integers(1, 4)), 3, seed=int(rng.integers(0, 2**31)))
        seq = rng.integers(0, 3, size=int(rng.integers(2, 6)))
        for pos in range(1, len(seq) + 1):
            got = pcfg.predict_distribution(grammar, seq, pos)
            want = evidence_ratio_prediction(grammar, seq, pos)
            ok &= bool(np.all(np.abs(got - want) <= 1e-9))

    report(3, "predictions equal evidence-ratio oracle for all three families", ok)


def test_criterion_4_normalized_evidence():
    rng = np.random.default_rng(123)
    grammar = pcfg.init_random(2, 2, seed=int(rng.integers(0, 2**31)))
    ok = True

    for n in (2, 3, 4):
        total = sum(
            math.exp(pcfg.normalized_log_evidence(grammar, seq)) for seq in all_sequences(2, n)
        )
        ok &= abs(total - 1.0) <= 1e-9

    for n in range(1, 6):
        string_sum = sum(
            math.exp(pcfg.inside(grammar, seq).log_evidence[0]) for seq in all_sequences(2, n)
        )
        ok &= abs(length_probability(grammar, n) - string_sum) <= 1e-9

    report(4, "fixed-length normalization sums to 1 and matches string sums", ok)


def test_criterion_5_em_monotonicity():
    rng = np.random.default_rng(2024)
    ok = True

    for run in range(50):
        k = int(rng.integers(1, 4))
        v = int(rng.integers(2, 5))
        seqs = [rng.integers(0, v, size=int(rng.integers(2, 9))) for _ in range(6)]
        init = hmm.init_random(k, v, seed=run)
        _, trace, _ = hmm.em_fit(init, seqs, hmm.EmConfig(max_iter=12))
        ok &= all(b >= a - 1e-9 * abs(a) for a, b in zip(trace, trace[1:]))

    for run in range(50):
        d = int(rng.integers(1, 3))
        v = int(rng.integers(2, 4))
        seqs = [rng.integers(0, v, size=int(rng.integers(2, 7))) for _ in range(5)]
        init = pcfg.init_random(d, v, seed=run)
        _, trace, _ = pcfg.em_fit(init, seqs, pcfg.EmConfig(max_iter=10))
        ok &= all(b >= a - 1e-9 * abs(a) for a, b in zip(trace, trace[1:]))

    report(5, "100 EM runs have non-decreasing log-likelihood traces", ok)


def test_criterion_6_expected_length():
    started = time.perf_counter()
    rng = np.random.default_rng(5)
    base = random_hmm(rng, 2, 3)
    ok = True

    for kappa, lo, hi in ((0.6, 5.9, 6.1), (0.5416, 12.5, 13.5)):
        grammar = pcfg.init_from_hmm(base, kappa=kappa, eta=0.0)
        total = 0
        n_trees = 100_000
        for i in range(n_trees):
            _, ids = pcfg.sample_tree(grammar, seed=i, max_expansions=1_000_000)
            total += len(ids)
        mean = total / n_trees
        ok &= lo <= mean <= hi

    elapsed = time.perf_counter() - started
    ok &= elapsed < 60.0
    report(6, f"sampled mean lengths match 2k/(2k-1), {elapsed:.1f}s", ok)


def _planted_hmm() -> HmmParams:
    """Cyclic 4-state model over 11 symbols with clustered emissions."""
    k, v = 4, 11
    trans = np.full((k, k), 0.075)
    for z in range(k):
        trans[z, (z + 1) % k] = 0.7
        trans[z, z] = 0.15
    trans /= trans.sum(axis=1, keepdims=True)
    emis = np.full((k, v), 0.015)
    clusters = [(0, 1, 8), (2, 3), (4, 5, 9), (6, 7)]
    for z, cluster in enumerate(clusters):
        for x in cluster:
            emis[z, x] += 0.94 / len(cluster)
    emis /= emis.sum(axis=1, keepdims=True)
    return HmmParams(np.full(k, 0.25), trans, emis)


def test_criterion_7_synthetic_recovery():
    started = time.perf_counter()
    planted = _planted_hmm()
    train = [hmm.sample_sequence(planted, 20, seed=1000 + i) for i in range(30)]
    test = [hmm.sample_sequence(planted, 20, seed=2000 + i) for i in range(200)]

    planted_perplexity = evaluate.perplexity(planted, test)
    markov_model = markov.fit(train, 11, order=1, smoothing="mkn")
    markov_perplexity = evaluate.perplexity(markov_model, test)

    best = math.inf
    for seed in range(10):
        init = hmm.init_random(4, 11, seed=seed)
        fitted, _, _ = hmm.gibbs_fit(
            init, train, hmm.GibbsConfig(n_samples=500, polish_iters=50, seed=seed, dirichlet_alpha=0.1)
        )
        best = min(best, evaluate.perplexity(fitted, test))

    elapsed = time.perf_counter() - started
    within_5pct = best <= 1.05 * planted_perplexity
    beats_markov = best < markov_perplexity
    ok = within_5pct and beats_markov and elapsed < 300.0
    report(
        7,
        f"planted-HMM recovery: best {best:.3f} vs planted {planted_perplexity:.3f} "
        f"and Markov {markov_perplexity:.3f}, {elapsed:.0f}s",
        ok,
    )


def test_criterion_8_information_measures():
    ok = True

    uniform = HmmParams(np.full(4, 0.25), np.full((4, 4), 0.25), np.eye(4))
    info = hmm.info_measures(uniform)
    ok &= abs(info.stationary_perplexity - 4.0) <= 1e-9
    ok &= abs(info.transition_perplexity - 4.0) <= 1e-9

    identity = HmmParams(
        np.array([0.5, 0.5]), np.array([[0.9, 0.1], [0.5, 0.5]]), np.eye(2)
    )
    info = hmm.info_measures(identity)
    ok &= abs(info.emission_perplexity - 1.0) <= 1e-9
    ok &= abs(info.state_variety - 1.0) <= 1e-9
    ok &= abs(info.stationary_perplexity - 1.5694) <= 1e-3
    ok &= abs(info.stationary_perplexity - entropy_perplexity(np.array([5 / 6, 1 / 6]))) <= 1e-9

    rng = np.random.default_rng(404)
    for _ in range(100):
        k = int(rng.integers(1, 7))
        v = int(rng.integers(1, 8))
        info = hmm.info_measures(random_hmm(rng, k, v))
        ok &= 1.0 - 1e-9 <= info.stationary_perplexity <= k + 1e-9
        ok &= 1.0 - 1e-9 <= info.emission_perplexity <= v + 1e-9
        ok &= 1.0 - 1e-9 <= info.state_variety <= k + 1e-9
        ok &= 1.0 - 1e-9 <= info.transition_perplexity <= k + 1e-9

    report(8, "information measures exact on forced cases and inside bounds", ok)


def test_criterion_9_smoothing_sanity():
    rng = np.random.default_rng(31415)
    symbols = [f"s{i}" for i in range(11)] + ["Other"]
    source = random_hmm(rng, 3, 12)
    train_rows = []
    for i in range(1000):
        n = int(rng.integers(5, 26))
        train_rows.append(" ".join(symbols[x] for x in hmm.sample_sequence(source, n, seed=i)))
    train = make_dataset(train_rows, symbols=symbols)

    # test sequences engineered to contain n-grams unseen in training
    test_seqs = [rng.integers(0, 12, size=12) for _ in range(20)]
    trigrams = set()
    for seq in train:
        for j in range(len(seq) - 2):
            trigrams.add(tuple(int(t) for t in seq[j : j + 3]))
    assert any(
        tuple(int(t) for t in seq[j : j + 3]) not in trigrams
        for seq in test_seqs
        for j in range(len(seq) - 2)
    ), "test data failed to include unseen n-grams"

    ok = True
    for order in (1, 2, 3):
        for smoothing in ("additive", "kn", "mkn"):
            model = markov.fit(train, len(symbols), order=order, smoothing=smoothing)
            try:
                model.validate(tol=1e-9)
            except ValueError:
                ok = False
            ok &= all(math.isfinite(model.log_evidence(seq)) for seq in test_seqs)

    report(9, "smoothed models stay proper and finite on unseen n-grams", ok)


def test_criterion_10_determinism(tmp_path):
    rng = np.random.default_rng(8)
    lines = []
    for _ in range(24):
        n = int(rng.integers(3, 9))
        lines.append(" ".join(str(rng.choice(["C", "F", "G", "Am", "Dm"])) for _ in range(n)))
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(lines) + "\n")

    ok = True
    for model_kind, sizes, algos in (
        ("markov", [1, 2], ["additive", "mkn"]),
        ("hmm", [1, 2], ["em", "gs"]),
        ("pcfg", [1, 2], ["em", "gs"]),
    ):
        out_dir = tmp_path / f"run_{model_kind}"
        cfg = ExperimentConfig(
            corpus=str(corpus),
            out_dir=str(out_dir),
            vocab_k=3,
            test_count=4,
            train_sizes=[10],
            model=model_kind,
            sizes=sizes,
            algos=algos,
            seeds=[0, 1],
            em_max_iter=5,
            gs_samples=5,
            polish_iters=3,
        )
        cli.cmd_prepare(cfg)

        def snapshot():
            cli.cmd_sweep(cfg)
            models = {
                p.name: p.read_bytes() for p in sorted((out_dir / "models").iterdir())
            }
            rows = (out_dir / "results.csv").read_text().splitlines()
            header = rows[0].split(",")
            wall = header.index("wall_time")
            stripped = [
                ",".join(c for i, c in enumerate(r.split(",")) if i != wall) for r in rows
            ]
            return models, stripped

        models_a, rows_a = snapshot()
        models_b, rows_b = snapshot()
        ok &= models_a == models_b
        ok &= rows_a == rows_b
        ok &= all(row.count(",") >= 10 for row in rows_a[1:])

    report(10, "sweep cells reproduce byte-identical models and rows", ok)
