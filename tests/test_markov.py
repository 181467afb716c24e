import math

import numpy as np
import pytest

from chordlm import evaluate, markov
from oracles import (
    all_sequences,
    evidence_ratio_prediction,
    kn_reference_table,
    make_dataset,
)


@pytest.fixture
def tiny_additive():
    data = make_dataset(["a b b", "a b"], symbols=["a", "b"])
    return markov.fit(data, 2, order=1, smoothing="additive", epsilon=0.1)


def test_fit_additive_hand_counts(tiny_additive):
    m = tiny_additive
    a, b = 0, 1
    assert m.initial_tables[0][a] == pytest.approx(2.1 / 2.2, abs=1e-12)
    assert m.transitions[a, b] == pytest.approx(2.1 / 2.2, abs=1e-12)
    assert m.transitions[b, b] == pytest.approx(1.1 / 1.2, abs=1e-12)


def test_fit_rows_normalized(tiny_additive):
    tiny_additive.validate(tol=1e-9)


def test_fit_rejects_bad_input():
    data = make_dataset(["a b"], symbols=["a", "b"])
    with pytest.raises(ValueError):
        markov.fit(data, 2, order=0)
    with pytest.raises(ValueError):
        markov.fit(data, 2, order=1, smoothing="katz")
    with pytest.raises(ValueError):
        markov.fit(data, 2, order=1, smoothing="additive", epsilon=0.0)
    empty = make_dataset([], symbols=["a", "b"])
    with pytest.raises(ValueError):
        markov.fit(empty, 2, order=1)


def test_log_evidence_hand_value(tiny_additive):
    got = tiny_additive.log_evidence(np.array([0, 1]))
    assert got == pytest.approx(math.log((2.1 / 2.2) ** 2), abs=1e-12)


def test_log_evidence_length_one(tiny_additive):
    got = tiny_additive.log_evidence(np.array([0]))
    assert got == pytest.approx(math.log(2.1 / 2.2), abs=1e-12)


def test_log_evidence_deterministic_model():
    # all transition mass forced onto symbol 0
    ini = np.array([0.25, 0.75])
    trans = np.array([[1.0, 0.0], [1.0, 0.0]])
    m = markov.MarkovModel(1, 2, [ini], trans, smoothing="additive", epsilon=None)
    forced = np.array([1, 0, 0, 0])
    assert m.log_evidence(forced) == pytest.approx(math.log(0.75), abs=1e-12)


def test_predict_last_position_is_transition_row(tiny_additive):
    seq = np.array([0, 1, 0])
    got = tiny_additive.predict_distribution(seq, position=3)
    assert np.allclose(got, tiny_additive.transitions[1], atol=1e-12)


def test_predict_interior_first_order(tiny_additive):
    # interior position: product of the incoming and outgoing transition factors
    seq = np.array([0, 1, 1])
    t = tiny_additive.transitions
    expected = t[0, :] * t[:, 1]
    expected = expected / expected.sum()
    got = tiny_additive.predict_distribution(seq, position=2)
    assert np.allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("smoothing", ["additive", "kn", "mkn"])
def test_predict_matches_evidence_ratio_oracle(order, smoothing):
    rng = np.random.default_rng(100 + order)
    rows = [" ".join(rng.choice(["a", "b", "c"], size=rng.integers(2, 9))) for _ in range(12)]
    data = make_dataset(rows, symbols=["a", "b", "c"])
    m = markov.fit(data, 3, order=order, smoothing=smoothing)
    for seq_len in (1, 2, 4, 6):
        seq = rng.integers(0, 3, size=seq_len)
        for pos in range(1, seq_len + 1):
            got = m.predict_distribution(seq, pos)
            want = evidence_ratio_prediction(m, seq, pos)
            assert np.allclose(got, want, atol=1e-9), (order, smoothing, seq, pos)


@pytest.mark.parametrize("smoothing", ["kn", "mkn"])
def test_kn_unseen_bigram_positive(smoothing):
    data = make_dataset(["a a b", "a b", "a a"], symbols=["a", "b"])
    m = markov.fit(data, 2, order=1, smoothing=smoothing)
    # bigram "b a" never observed
    assert m.transitions[1, 0] > 0.0
    assert np.isfinite(m.log_evidence(np.array([1, 0])))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("modified", [False, True])
def test_kn_matches_reference_implementation(order, modified):
    # sparse corpus: singleton and doubleton n-grams exist at the top level
    rng = np.random.default_rng(42 + order)
    syms = list("abcdefgh")
    rows = [" ".join(rng.choice(syms, size=rng.integers(3, 9))) for _ in range(10)]
    data = make_dataset(rows, symbols=syms)
    m = markov.fit(data, len(syms), order=order, smoothing="mkn" if modified else "kn")
    counts = markov._ngram_counts(data, order + 1, len(syms))
    want = kn_reference_table(counts, len(syms), modified=modified)
    assert np.allclose(m.transitions, want, atol=1e-12)


@pytest.mark.parametrize(
    "rows",
    [
        ["a b a", "a b a", "c c c"],  # KN: no count-1 bigram, so every discount is 0
        ["b a b", "a b a a", "a c a b", "c c"],  # MKN: the count-2 discount clamps to 0
    ],
)
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("smoothing", ["kn", "mkn"])
def test_kn_tables_strictly_positive_with_zero_discounts(rows, order, smoothing):
    m = markov.fit(make_dataset(rows, symbols=["a", "b", "c"]), 3, order=order, smoothing=smoothing)
    for table in m.initial_tables + [m.transitions]:
        assert (table > 0.0).all()


def test_kn_degenerate_counts_fall_back_to_additive():
    # every bigram occurs three times: no singletons or doubletons
    data = make_dataset(["a b a b a b a"], symbols=["a", "b"])
    m = markov.fit(data, 2, order=1, smoothing="kn")
    counts = markov._ngram_counts(data, 2, 2)
    want = (counts + 0.1) / (counts.sum(axis=-1, keepdims=True) + 0.2)
    assert np.allclose(m.transitions, want, atol=1e-12)
    m.validate()


def test_row_sums_orders_one_to_three():
    rng = np.random.default_rng(3)
    rows = [" ".join(rng.choice(list("abcde"), size=rng.integers(1, 20))) for _ in range(60)]
    data = make_dataset(rows, symbols=list("abcde"))
    for order in (1, 2, 3):
        for smoothing in ("additive", "kn", "mkn"):
            markov.fit(data, 5, order=order, smoothing=smoothing).validate(tol=1e-9)


def test_training_perplexity_non_increasing_in_order():
    # exhaustive corpus: every length-5 string over two symbols, so no sparsity
    rows = [" ".join("ab"[b] for b in seq) for seq in all_sequences(2, 5)]
    data = make_dataset(rows, symbols=["a", "b"])
    perps = []
    for order in (1, 2, 3):
        m = markov.fit(data, 2, order=order, smoothing="additive", epsilon=1e-9)
        total = sum(m.log_evidence(s) for s in data)
        perps.append(math.exp(-total / sum(len(s) for s in data)))
    assert perps[1] <= perps[0] + 1e-6
    assert perps[2] <= perps[1] + 1e-6


def test_param_count_formula():
    assert evaluate.param_count("markov", 1, 11) == 120
    assert evaluate.param_count("markov", 2, 3) == (1 + 3 + 9) * 2
    assert evaluate.param_count("markov", 3, 2) == (1 + 2 + 4 + 8) * 1


def test_sample_sequence_deterministic_and_forced():
    ini = np.array([1.0, 0.0])
    trans = np.array([[0.0, 1.0], [0.0, 1.0]])
    m = markov.MarkovModel(1, 2, [ini], trans, smoothing="additive")
    assert m.sample_sequence(4, seed=0).tolist() == [0, 1, 1, 1]
    rng_draws_a = m.sample_sequence(4, seed=9).tolist()
    assert rng_draws_a == m.sample_sequence(4, seed=9).tolist()
