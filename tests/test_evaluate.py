import math

import numpy as np
import pytest

from chordlm import evaluate, hmm, markov, pcfg
from chordlm.hmm import HmmParams
from chordlm.markov import MarkovModel
from oracles import CSV_HEADER, csv_row, evidence_ratio_prediction, make_dataset, random_stochastic, rows_of_one


def uniform_markov(n_symbols: int) -> MarkovModel:
    ini = np.full(n_symbols, 1.0 / n_symbols)
    trans = np.full((n_symbols, n_symbols), 1.0 / n_symbols)
    return MarkovModel(1, n_symbols, [ini], trans, smoothing="additive")


def deterministic_cycle_markov(n_symbols: int) -> MarkovModel:
    # symbol i is always followed by (i + 1) mod n; starts at 0
    ini = np.zeros(n_symbols)
    ini[0] = 1.0
    trans = np.zeros((n_symbols, n_symbols))
    for i in range(n_symbols):
        trans[i, (i + 1) % n_symbols] = 1.0
    return MarkovModel(1, n_symbols, [ini], trans, smoothing="additive")


class ConstantModel:
    """Always predicts the same fixed distribution."""

    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=float)
        self.vocab_size = len(self.probs)

    def log_evidences(self, seqs):
        return [float(np.log(self.probs[np.asarray(seq)]).sum()) for seq in seqs]

    def score(self, seqs):
        return self.log_evidences(seqs), [np.tile(self.probs, (len(seq), 1)) for seq in seqs]


def test_perplexity_uniform_model():
    model = uniform_markov(8)
    data = make_dataset(["a b c", "d e"], symbols=list("abcdefgh"))
    assert evaluate.perplexity(model, data) == pytest.approx(8.0, rel=1e-12)


def test_perplexity_perfect_model():
    model = deterministic_cycle_markov(3)
    data = [np.array([0, 1, 2, 0]), np.array([0, 1])]
    assert evaluate.perplexity(model, data) == pytest.approx(1.0, rel=1e-12)


def test_perplexity_hand_arithmetic():
    data = make_dataset(["a b b", "b a"], symbols=["a", "b"])
    model = markov.fit(data, 2, order=1, smoothing="additive", epsilon=0.5)
    total = sum(model.log_evidence(s) for s in data)
    want = math.exp(-total / 5)
    assert evaluate.perplexity(model, data) == pytest.approx(want, rel=1e-12)


def test_perplexity_infinite_on_zero_evidence():
    model = deterministic_cycle_markov(3)
    data = [np.array([0, 2])]  # impossible under the cycle
    assert evaluate.perplexity(model, data) == math.inf


def test_perplexity_uses_normalized_evidence_for_grammars():
    base = HmmParams(np.array([1.0]), np.array([[1.0]]), np.array([[1.0]]))
    g = pcfg.init_from_hmm(base, kappa=0.6, eta=0.0)
    data = [np.zeros(3, dtype=np.int64)]
    # normalized evidence of the only length-3 string is exactly 1
    assert evaluate.perplexity(g, data) == pytest.approx(1.0, rel=1e-12)
    raw = math.exp(pcfg.inside(g, data[0]).log_evidence[0] / 3)
    assert raw < 1.0  # unnormalized evidence would have given > 1 perplexity


def test_error_rate_perfect_and_constant():
    perfect = deterministic_cycle_markov(4)
    seqs = [np.array([0, 1, 2, 3, 0])]
    assert evaluate.error_rate(perfect, seqs) == 0.0

    constant = ConstantModel([0.7, 0.2, 0.1])
    data = [np.array([0, 0, 1, 2, 0])]  # symbol 0 frequency 3/5
    assert evaluate.error_rate(constant, data) == pytest.approx(1 - 3 / 5, rel=1e-12)


def test_error_rate_hand_enumeration():
    data = make_dataset(["a b", "b b", "a a b"], symbols=["a", "b"])
    model = markov.fit(data, 2, order=1, smoothing="additive", epsilon=0.1)
    wrong = 0
    count = 0
    for seq in data:
        for pos in range(1, len(seq) + 1):
            probs = model.predict_distribution(seq, pos)
            best = min(
                (y for y in range(2)),
                key=lambda y: (-probs[y], y),
            )
            wrong += int(best != seq[pos - 1])
            count += 1
    assert evaluate.error_rate(model, data) == pytest.approx(wrong / count, rel=1e-12)


def test_rmrr_perfect_and_constant_rank_two():
    perfect = deterministic_cycle_markov(4)
    seqs = [np.array([0, 1, 2, 3])]
    assert evaluate.rmrr(perfect, seqs) == pytest.approx(1.0, rel=1e-12)

    constant = ConstantModel([0.6, 0.4])
    always_second = [np.array([1, 1, 1, 1])]
    assert evaluate.rmrr(constant, always_second) == pytest.approx(2.0, rel=1e-12)


def test_rmrr_tie_breaks_by_lowest_id():
    constant = ConstantModel([0.5, 0.5])
    # id 0 ranks first on ties, id 1 second
    assert evaluate.rmrr(constant, [np.array([0])]) == pytest.approx(1.0)
    assert evaluate.rmrr(constant, [np.array([1])]) == pytest.approx(2.0)


def test_rank_metrics_invariant_under_monotone_rescaling():
    rng = np.random.default_rng(4)
    data = make_dataset(["a b a", "b a b b"], symbols=["a", "b"])
    model = markov.fit(data, 2, order=1, smoothing="additive", epsilon=0.3)

    class Rescaled:
        vocab_size = 2

        def log_evidences(self, seqs):
            return model.log_evidences(seqs)

        def score(self, seqs):
            log_ev, rows = model.score(seqs)
            cubed = [q**3 for q in rows]  # strictly monotone transform
            return log_ev, [q / q.sum(axis=1, keepdims=True) for q in cubed]

    assert evaluate.error_rate(model, data) == evaluate.error_rate(Rescaled(), data)
    assert evaluate.rmrr(model, data) == pytest.approx(evaluate.rmrr(Rescaled(), data), rel=1e-12)


def test_evaluate_model_report_bounds():
    data = make_dataset(["a b b a", "b a"], symbols=["a", "b"])
    model = markov.fit(data, 2, order=1)
    report = evaluate.evaluate_model(model, data)
    assert report.perplexity >= 1.0
    assert 0.0 <= report.error_rate <= 1.0
    assert 1.0 <= report.rmrr <= 2.0
    assert report.n_symbols == 6


def test_csv_row_round_trips_metrics():
    data = make_dataset(["a b b a", "b a"], symbols=["a", "b"])
    model = markov.fit(data, 2, order=1)
    report = evaluate.evaluate_model(model, data)
    row = csv_row("markov-1", "toy", report)
    cells = row.split(",")
    assert cells[:2] == ["markov-1", "toy"]
    assert float(cells[2]) == report.perplexity
    assert int(cells[5]) == report.n_symbols
    assert CSV_HEADER.count(",") == row.count(",")


# ------------------------------------------- one prediction pass per sequence


def _tied_hmm() -> HmmParams:
    """Random HMM whose symbols 1 and 2 have identical, dominant emission
    columns, so every prediction ties them exactly at the maximum."""
    rng = np.random.default_rng(71)
    emission = random_stochastic(rng, (3, 4))
    emission[:, 1] += 1.0
    emission[:, 2] = emission[:, 1]
    emission /= emission.sum(axis=1, keepdims=True)
    return HmmParams(random_stochastic(rng, (3,)), random_stochastic(rng, (3, 3)), emission)


def _tied_grammar() -> pcfg.PcfgParams:
    g = pcfg.init_random(3, 4, seed=72)
    g.emissions[:, 1] += 1.0
    g.emissions[:, 2] = g.emissions[:, 1]
    totals = g.rules.sum(axis=(1, 2)) + g.emissions.sum(axis=1)
    g.rules /= totals[:, None, None]
    g.emissions /= totals[:, None]
    return g


def _tied_markov() -> MarkovModel:
    # b and c follow a equally often and start no sequence
    data = make_dataset(["a b", "a c", "a b a c", "d a"], symbols=["a", "b", "c", "d"])
    return markov.fit(data, 4, order=2, smoothing="additive", epsilon=0.2)


TIED_SEQUENCES = [np.array(s) for s in ([0, 1, 3, 2], [3, 2, 0, 1, 1], [0, 2], [1, 2, 2, 0, 3, 1])]


def _oracle_rank_metrics(model, seqs) -> tuple[float, float, int]:
    """(error rate, rmrr, argmax ties) from a per-position loop over
    evidence-ratio predictions."""
    wrong, recip_total, count, ties = 0, 0.0, 0, 0
    for seq in seqs:
        for pos in range(1, len(seq) + 1):
            probs = evidence_ratio_prediction(model, seq, pos)
            truth = int(seq[pos - 1])
            best = min(range(len(probs)), key=lambda y: (-probs[y], y))
            wrong += int(best != truth)
            ties += int((probs == probs[best]).sum() > 1)
            rank = 1 + sum(int(p > probs[truth]) for p in probs)
            rank += sum(int(probs[y] == probs[truth]) for y in range(truth))
            recip_total += 1.0 / rank
            count += 1
    return wrong / count, count / recip_total, ties


@pytest.mark.parametrize("make_model", [_tied_markov, _tied_hmm, _tied_grammar])
def test_evaluate_model_matches_per_position_oracle(make_model):
    model = make_model()
    want_error, want_rmrr, ties = _oracle_rank_metrics(model, TIED_SEQUENCES)
    assert ties > 0  # the fixture exercises tie-breaking toward the lowest id
    report = evaluate.evaluate_model(model, TIED_SEQUENCES)
    assert report.error_rate == want_error
    assert report.rmrr == pytest.approx(want_rmrr, rel=1e-12)
    assert evaluate.error_rate(model, TIED_SEQUENCES) == report.error_rate
    assert evaluate.rmrr(model, TIED_SEQUENCES) == report.rmrr
    for seq in TIED_SEQUENCES:
        rows = rows_of_one(model, seq)
        for pos in range(1, len(seq) + 1):
            assert np.array_equal(rows[pos - 1], model.predict_distribution(seq, pos))


def _impossible_cases():
    """(model, test set) pairs whose second sequence has a position that no
    symbol can fill: 0 -> ? -> 0 has no completion under the cycle, and the
    grammar never emits symbol 1."""
    cycle = deterministic_cycle_markov(3)
    blocked = pcfg.init_from_hmm(
        HmmParams(np.array([1.0]), np.array([[1.0]]), np.array([[1.0, 0.0]])), kappa=0.6, eta=0.0
    )
    return [
        (cycle, [np.array([0, 1, 2]), np.array([0, 1, 0])]),
        (hmm.from_markov(cycle), [np.array([0, 1, 2]), np.array([0, 1, 0])]),
        (blocked, [np.array([0, 0]), np.array([1, 0])]),
    ]


@pytest.mark.parametrize("case", range(3))
def test_position_without_positive_symbol_raises(case):
    model, seqs = _impossible_cases()[case]
    for metric in (evaluate.evaluate_model, evaluate.error_rate, evaluate.rmrr):
        with pytest.raises(ValueError, match="no symbol has positive probability at this position"):
            metric(model, seqs)


def test_grammar_errors_name_the_first_failing_line():
    # the blocked grammar generates no one-chord line and never emits symbol 1:
    # the perplexity reads evidences in corpus order up to the first -inf, and
    # the ranks read prediction rows in corpus order
    g = _impossible_cases()[2][0]
    short_first = [np.array([0]), np.array([1, 0])]
    for metric in (evaluate.perplexity, evaluate.evaluate_model):
        with pytest.raises(ValueError, match="grammar generates no sequence of length 1"):
            metric(g, short_first)
    with pytest.raises(ValueError, match="prediction requires sequences of length >= 2"):
        evaluate.error_rate(g, short_first)

    short_last = [np.array([1, 0]), np.array([0])]
    assert evaluate.perplexity(g, short_last) == math.inf
    for metric in (evaluate.evaluate_model, evaluate.error_rate):
        with pytest.raises(ValueError, match="no symbol has positive probability at this position"):
            metric(g, short_last)


@pytest.mark.parametrize("make_model", [_tied_markov, _tied_hmm, _tied_grammar])
def test_score_matches_log_evidences_and_per_line_rows(make_model):
    model = make_model()
    log_ev, rows = model.score(TIED_SEQUENCES)
    assert list(log_ev) == list(model.log_evidences(TIED_SEQUENCES))
    for seq, got in zip(TIED_SEQUENCES, rows):
        np.testing.assert_allclose(got, rows_of_one(model, seq), rtol=1e-12, atol=0)


@pytest.mark.parametrize("make_model", [_tied_markov, _tied_hmm, _tied_grammar])
def test_an_empty_batch_scores_to_nothing(make_model):
    model = make_model()
    assert list(model.log_evidences([])) == []
    log_ev, rows = model.score([])
    assert list(log_ev) == [] and list(rows) == []


def test_param_count_table_values():
    assert evaluate.param_count("markov", 1, 11) == 120
    assert evaluate.param_count("hmm", 4, 21) == 95
    assert evaluate.param_count("pcfg", 4, 21) == 159
    with pytest.raises(ValueError):
        evaluate.param_count("rnn", 1, 10)
    with pytest.raises(ValueError):
        evaluate.param_count("hmm", 0, 10)
