import math

import numpy as np
import pytest

from chordlm import markov
from oracles import (
    all_sequences,
    evidence_ratio_prediction,
    kn_reference_table,
    make_dataset,
    markov_log_evidence_reference,
    markov_position_weights_reference,
    markov_sample_reference,
    ngram_counts_reference,
    per_line,
    random_stochastic,
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


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.inf, math.nan])
def test_fit_rejects_an_additive_epsilon_that_is_not_finite_and_positive(epsilon):
    data = make_dataset(["a b"], symbols=["a", "b"])
    with pytest.raises(ValueError, match="additive smoothing requires a finite epsilon > 0"):
        markov.fit(data, 2, order=1, smoothing="additive", epsilon=epsilon)


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


@pytest.mark.parametrize("seq", [[0, 2], [-1], [1, 0, 7]])
def test_scoring_rejects_a_symbol_id_outside_the_alphabet(tiny_additive, seq):
    with pytest.raises(ValueError):
        tiny_additive.log_evidences([np.array(seq)])


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


def assert_scores_equal_the_reference(m: markov.MarkovModel, seqs: list[np.ndarray]) -> None:
    """Evidences, weights and prediction rows of the chunk path equal the
    per-line left fold and factor product bit for bit."""
    want_ev = [markov_log_evidence_reference(m, seq) for seq in seqs]
    want_w = [np.stack([markov_position_weights_reference(m, seq, i) for i in range(len(seq))]) for seq in seqs]
    assert m.log_evidences(seqs).tolist() == want_ev
    log_ev, weights = m._score(seqs)
    assert log_ev.tolist() == want_ev
    for got, want in zip(per_line(weights, seqs), want_w):
        np.testing.assert_array_equal(got, want)
    rowful = [i for i, w in enumerate(want_w) if (w.sum(axis=1) > 0.0).all()]
    log_ev, rows = m.score([seqs[i] for i in rowful])
    assert log_ev.tolist() == [want_ev[i] for i in rowful]
    for i, got in zip(rowful, per_line(rows, [seqs[i] for i in rowful])):
        np.testing.assert_array_equal(got, want_w[i] / want_w[i].sum(axis=1, keepdims=True))


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("smoothing", ["additive", "kn", "mkn"])
def test_chunk_path_equals_the_per_line_reference(order, smoothing, monkeypatch):
    rng = np.random.default_rng(70 + order)
    train = [rng.integers(0, 5, size=int(n)) for n in rng.integers(1, 21, size=40)]
    test = [rng.integers(0, 5, size=int(n)) for n in rng.integers(1, 21, size=30)] + [np.array([3])]
    assert {1, 20} <= {len(seq) for seq in train + test}
    m = markov.fit(train, 5, order=order, smoothing=smoothing)
    for cap in (markov.MAX_CHUNK_FLOATS, 5 * 20 * 4):  # then four lines of 20 chords per chunk
        monkeypatch.setattr(markov, "MAX_CHUNK_FLOATS", cap)
        assert (len(markov._chunks(test, 5, 5)) > 1) == (cap < 1 << 16)
        assert_scores_equal_the_reference(m, test)
        for width in range(1, order + 2):
            np.testing.assert_array_equal(markov._ngram_counts(train, width, 5), ngram_counts_reference(train, width, 5))
        refit = markov.fit(train, 5, order=order, smoothing=smoothing)
        for got, want in zip(refit.initial_tables + [refit.transitions], m.initial_tables + [m.transitions]):
            np.testing.assert_array_equal(got, want)


def test_chunk_path_equals_the_per_line_reference_on_a_deterministic_cycle():
    # 0 -> 1 -> 2 -> 0 from 0: every other factor is an exact zero
    trans = np.roll(np.eye(3), 1, axis=1)
    m = markov.MarkovModel(1, 3, [np.array([1.0, 0.0, 0.0])], trans, smoothing="additive")
    seqs = [np.array(s) for s in ([0, 1, 2, 0, 1], [0, 2], [1], [0], [2, 0, 1], [0, 1, 2, 1, 2])]
    assert_scores_equal_the_reference(m, seqs)
    assert m.log_evidences(seqs)[1] == -np.inf and m.log_evidences(seqs)[0] == 0.0


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


def test_sample_sequence_deterministic_and_forced():
    ini = np.array([1.0, 0.0])
    trans = np.array([[0.0, 1.0], [0.0, 1.0]])
    m = markov.MarkovModel(1, 2, [ini], trans, smoothing="additive")
    assert m.sample_sequence(4, [0]).tolist() == [[0, 1, 1, 1]]
    rng_draws_a = m.sample_sequence(4, [9]).tolist()
    assert rng_draws_a == m.sample_sequence(4, [9]).tolist()


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("length", [1, 16])
def test_sample_sequence_rows_equal_the_per_line_reference(order, length):
    rng = np.random.default_rng(order)
    v = 11
    tables = [random_stochastic(rng, (v,) * j) for j in range(1, order + 2)]
    m = markov.MarkovModel(order, v, tables[:-1], tables[-1], smoothing="additive")
    seeds = [1000 * order + i for i in range(50)]
    got = m.sample_sequence(length, seeds)
    assert got.shape == (50, length)
    for row, seed in zip(got.tolist(), seeds):
        assert row == markov_sample_reference(m, length, seed).tolist()
