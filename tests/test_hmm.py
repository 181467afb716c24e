import math
import warnings

import numpy as np
import pytest

from chordlm import corpus, evaluate, hmm, markov
from chordlm.corpus import Vocabulary
from chordlm.hmm import EmConfig, GibbsConfig, HmmParams
from oracles import (
    all_sequences,
    best_of_gibbs_reference,
    count_calls,
    entropy_perplexity,
    evidence_ratio_prediction,
    from_markov,
    hmm_evidence_by_enumeration,
    hmm_expected_counts_reference,
    hmm_forward_backward_reference,
    hmm_gamma,
    hmm_info_measures_reference,
    hmm_init_random_reference,
    hmm_path_probabilities,
    hmm_prediction_weights_reference,
    hmm_sample_reference,
    hmm_state_draw_reference,
    hmm_xi,
    make_dataset,
    per_line,
    random_stochastic,
    rows_of_one,
    stationary_by_linear_solve,
)


def random_params(rng, n_states, vocab_size):
    return HmmParams(
        initial=random_stochastic(rng, (n_states,)),
        transition=random_stochastic(rng, (n_states, n_states)),
        emission=random_stochastic(rng, (n_states, vocab_size)),
    )


# ---------------------------------------------------------------- init_random


def test_init_random_rows_and_determinism():
    a = hmm.init_random(3, 5, seed=7)
    b = hmm.init_random(3, 5, seed=7)
    a.validate()
    assert np.array_equal(a.initial, b.initial)
    assert np.array_equal(a.transition, b.transition)
    assert np.array_equal(a.emission, b.emission)
    assert hmm.init_random(1, 4, seed=0).initial.tolist() == [1.0]


@pytest.mark.parametrize("n_states, vocab_size, seed", [(1, 1, 0), (3, 5, 7), (12, 30, 2)])
def test_init_random_draws_normalized_gamma_rows_in_turn(n_states, vocab_size, seed):
    got = hmm.init_random(n_states, vocab_size, seed)
    want = hmm_init_random_reference(n_states, vocab_size, seed)
    for name in ("initial", "transition", "emission"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


# ----------------------------------------------------------- forward_backward


def test_evidence_single_state_uniform():
    params = HmmParams(
        initial=np.array([1.0]),
        transition=np.array([[1.0]]),
        emission=np.array([[0.5, 0.5]]),
    )
    log_evidence = hmm.forward_backward(params, np.array([0, 1, 0]))[3]
    assert log_evidence == pytest.approx(math.log(1 / 8), abs=1e-12)


def test_evidence_matches_path_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(10):
        params = random_params(rng, 3, 4)
        seq = rng.integers(0, 4, size=5)
        want = hmm_evidence_by_enumeration(params.initial, params.transition, params.emission, seq)
        got = math.exp(hmm.forward_backward(params, seq)[3])
        assert got == pytest.approx(want, rel=1e-12)


def test_posteriors_normalized_and_consistent():
    rng = np.random.default_rng(2)
    params = random_params(rng, 4, 3)
    seq = rng.integers(0, 3, size=7)
    alpha, beta, scaling, log_evidence = hmm.forward_backward(params, seq)
    gamma = hmm_gamma(alpha, beta)
    assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-9)
    xi = hmm_xi(params, seq, alpha, beta, scaling)
    # transition posteriors marginalize back to the state posteriors
    assert np.allclose(xi.sum(axis=2), gamma[:-1], atol=1e-9)
    assert np.allclose(xi.sum(axis=1), gamma[1:], atol=1e-9)
    # unscaled alpha * beta reproduces the evidence at every position
    log_cum = np.cumsum(np.log(scaling))
    for t in range(len(seq)):
        log_rest = log_evidence - log_cum[t]
        recon = (alpha[t] * beta[t]).sum() * math.exp(log_cum[t] + log_rest)
        assert recon == pytest.approx(math.exp(log_evidence), rel=1e-9)


def test_zero_evidence_signalled():
    params = HmmParams(
        initial=np.array([1.0, 0.0]),
        transition=np.eye(2),
        emission=np.array([[1.0, 0.0], [0.0, 1.0]]),
    )
    assert hmm.forward_backward(params, np.array([0, 1]))[3] == -np.inf


def assert_tables_equal(tables, params, seq):
    alpha, beta, scaling, log_evidence = hmm_forward_backward_reference(params, seq)
    assert np.array_equal(tables[0], alpha)
    assert np.array_equal(tables[1], beta)
    assert np.array_equal(tables[2], scaling)
    assert tables[3] == log_evidence


def test_forward_backward_matches_step_by_step_reference_bitwise():
    # forward_backward is a batch of one through the batched passes
    rng = np.random.default_rng(40)
    for k in (2, 12, 100):
        for n in range(1, 20):
            params = random_params(rng, k, 7)
            seq = rng.integers(0, 7, size=n)
            assert_tables_equal(hmm.forward_backward(params, seq), params, seq)
    # zero evidence from the third step on: alpha and scaling stop there, beta is zero
    params = HmmParams(
        initial=np.array([0.5, 0.5]),
        transition=np.array([[0.5, 0.5], [0.0, 1.0]]),
        emission=np.array([[0.7, 0.3, 0.0], [0.2, 0.8, 0.0]]),
    )
    seq = np.array([0, 1, 2, 0])
    tables = hmm.forward_backward(params, seq)
    alpha, _, scaling, log_evidence = tables
    assert log_evidence == -np.inf
    assert (alpha[2:] == 0.0).all() and (scaling[2:] == 0.0).all()
    assert (alpha[:2] > 0.0).all()
    assert_tables_equal(tables, params, seq)


def with_dead_symbol(params: HmmParams) -> HmmParams:
    """The same model with the last symbol's emissions zeroed and the rows
    renormalized, so every line that holds that symbol has zero evidence."""
    emission = params.emission.copy()
    emission[:, -1] = 0.0
    return HmmParams(params.initial, params.transition, emission / emission.sum(axis=1, keepdims=True))


def mixed_lines(rng, vocab_size: int, count: int) -> list[np.ndarray]:
    """Lines of length 1..20 in shuffled order, several per length."""
    lengths = rng.permutation(np.repeat(np.arange(1, 21), count // 20 + 1))[:count]
    return [rng.integers(0, vocab_size, size=int(n)) for n in lengths]


@pytest.mark.parametrize("k", [2, 12, 100])
def test_batched_evidences_match_reference_per_line(k):
    # batch-of-B and batch-of-one matmuls may differ in the last bits
    rng = np.random.default_rng(41 + k)
    params = with_dead_symbol(random_params(rng, k, 7))
    seqs = mixed_lines(rng, 7, 90)
    got = params.log_evidences(seqs)
    dead = [i for i, seq in enumerate(seqs) if (seq == 6).any()]
    assert 0 < len(dead) < len(seqs)
    assert len({len(seq) for seq in seqs}) == 20
    for i, seq in enumerate(seqs):
        want = hmm_forward_backward_reference(params, seq)[3]
        if i in dead:
            assert want == got[i] == -np.inf
        else:
            assert got[i] == pytest.approx(want, rel=1e-12)


def test_log_evidence_is_the_forward_pass_of_forward_backward():
    rng = np.random.default_rng(43)
    params = with_dead_symbol(random_params(rng, 5, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seq in mixed_lines(rng, 4, 40):
            assert params.log_evidences([seq])[0] == hmm.forward_backward(params, seq)[3]
        assert params.log_evidences([np.array([0, 3, 1])])[0] == -np.inf
    with pytest.raises(ValueError, match="non-empty"):
        params.log_evidences([np.array([], dtype=np.int64)])


@pytest.mark.parametrize("k", [2, 12, 100])
def test_batched_prediction_rows_match_per_line_rows(k):
    rng = np.random.default_rng(44 + k)
    params = with_dead_symbol(random_params(rng, k, 7))
    seqs = mixed_lines(rng, 7, 60)
    for idx, batch, lengths in corpus._chunks(seqs, k, 7):
        log_ev, weights = hmm._score_batch(params, batch, lengths)
        np.testing.assert_array_equal(log_ev, params.log_evidences([seqs[i] for i in idx]))
        for i, rows in zip(idx, np.split(weights, np.cumsum(lengths)[:-1])):
            np.testing.assert_allclose(rows, hmm_prediction_weights_reference(params, seqs[i]), rtol=1e-12, atol=0)
    live = [seq for seq in seqs if not (seq == 6).any()]
    log_ev, rows = params.score(live)
    np.testing.assert_array_equal(log_ev, params.log_evidences(live))
    for seq, seq_rows in zip(live, per_line(rows, live)):
        np.testing.assert_allclose(seq_rows, rows_of_one(params, seq), rtol=1e-12, atol=0)


@pytest.mark.parametrize("k", [2, 12])
def test_e_step_counts_match_the_per_line_reference(k):
    rng = np.random.default_rng(47 + k)
    params = random_params(rng, k, 6)
    seqs = mixed_lines(rng, 6, 80)
    chunks = corpus._chunks(seqs, k, 6)
    assert len({len(seq) for seq in seqs}) == 20
    for got, want in zip(hmm._e_step(params, chunks), hmm_expected_counts_reference(params, seqs)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    # with a zero-evidence line in some batch, the E-step returns evidences only
    dead = with_dead_symbol(params)
    want = hmm_expected_counts_reference(dead, seqs)[3]
    assert 0 < (want == -np.inf).sum() < len(seqs)
    np.testing.assert_allclose(hmm._e_step(dead, chunks)[3], want, rtol=1e-12, atol=0)


def with_dead_padding_id(params: HmmParams) -> HmmParams:
    """The same model with symbol 0, the id that pads a chunk, never emitted."""
    emission = params.emission.copy()
    emission[:, 0] = 0.0
    return HmmParams(params.initial, params.transition, emission / emission.sum(axis=1, keepdims=True))


def normalized(weights: np.ndarray) -> np.ndarray:
    return weights / weights.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("k", [2, 12, 100])
def test_chunks_match_the_per_line_references(k, monkeypatch):
    rng = np.random.default_rng(60 + k)
    params = random_params(rng, k, 7)
    dead = with_dead_padding_id(params)
    seqs = mixed_lines(rng, 7, 90)
    monkeypatch.setattr(corpus, "MAX_CHUNK_FLOATS", 15 * k)  # lines of 16 to 20 chords run alone
    chunks = corpus._chunks(seqs, k, 7)
    order = np.concatenate([idx for idx, _, _ in chunks])
    assert sorted(order.tolist()) == list(range(len(seqs)))
    lengths = [len(seqs[i]) for i in order]
    assert lengths == sorted(lengths, reverse=True)
    for a, b in zip(order, order[1:]):
        assert len(seqs[a]) > len(seqs[b]) or a < b  # a stable sort
    for idx, batch, chunk_lengths in chunks:
        assert chunk_lengths.tolist() == [len(seqs[i]) for i in idx]
        for i, row in zip(idx, batch):
            np.testing.assert_array_equal(row[: len(seqs[i])], seqs[i])
    assert len(chunks) > 1
    assert [len(idx) for idx, batch, _ in chunks if batch.shape[1] > 15] == [1] * sum(len(s) > 15 for s in seqs)

    # every line live, then symbol 0 dead: lines that hold it have zero
    # evidence, and the others are padded with it
    live = [seq for seq in seqs if not (seq == 0).any()]
    assert 0 < len(live) < len(seqs)
    assert any(chunk_lengths.min() < batch.shape[1] for _, batch, chunk_lengths in corpus._chunks(live, k, 7))
    for model, lines in [(params, seqs), (dead, live)]:
        want = hmm_expected_counts_reference(model, lines)
        for got, w in zip(hmm._e_step(model, corpus._chunks(lines, k, 7)), want):
            np.testing.assert_allclose(got, w, rtol=1e-12, atol=0)
        log_ev, rows = model.score(lines)
        np.testing.assert_array_equal(log_ev, model.log_evidences(lines))
        np.testing.assert_allclose(log_ev, want[3], rtol=1e-12, atol=0)
        for seq, seq_rows in zip(lines, per_line(rows, lines)):
            np.testing.assert_allclose(seq_rows, normalized(hmm_prediction_weights_reference(model, seq)), rtol=1e-12)
    want = hmm_expected_counts_reference(dead, seqs)[3]
    np.testing.assert_allclose(dead.log_evidences(seqs), want, rtol=1e-12, atol=0)
    np.testing.assert_allclose(hmm._e_step(dead, chunks)[3], want, rtol=1e-12, atol=0)


def test_state_paths_are_drawn_from_the_exact_posterior():
    # every one of the 3^6 paths of one line, against its posterior by enumeration; seeds, draws and the bound
    # were fixed before the first run: 200,000 draws, chi-squared over the cells expecting at least 5 draws with
    # the rest pooled into one cell, |z| < 4
    k, n, draws = 3, 6, 200_000
    rng = np.random.default_rng(2017)
    params = random_params(rng, k, 4)
    seq = rng.integers(0, 4, n)
    posterior = hmm_path_probabilities(params.initial, params.transition, params.emission, seq)
    expected = draws * posterior / posterior.sum()
    lengths = np.full(draws, n)
    alpha, _ = hmm._forward_batch(params, np.tile(seq, (draws, 1)), lengths)
    states = hmm._sample_states(params.transition, alpha, lengths, np.random.default_rng(7))
    observed = np.bincount(states @ k ** np.arange(n - 1, -1, -1), minlength=k**n)
    kept = expected >= 5
    cells_expected = np.append(expected[kept], expected[~kept].sum())
    cells_observed = np.append(observed[kept], observed[~kept].sum())
    assert cells_expected[-1] >= 5, "the pooled cell itself expects too few draws for the test"
    chi2 = ((cells_observed - cells_expected) ** 2 / cells_expected).sum()
    df = len(cells_expected) - 1
    assert abs((chi2 - df) / math.sqrt(2 * df)) < 4, (chi2, df)


def test_gibbs_draws_one_uniform_per_live_row_in_chunk_order(monkeypatch):
    rng = np.random.default_rng(63)
    params = with_dead_padding_id(random_params(rng, 3, 5))
    seqs = [seq for seq in mixed_lines(rng, 5, 70) if not (seq == 0).any()]
    monkeypatch.setattr(corpus, "MAX_CHUNK_FLOATS", 3 * 40)
    chunks = corpus._chunks(seqs, 3, 5)
    assert len(chunks) > 1
    draws, want = np.random.default_rng(5), np.random.default_rng(5)
    state_counts = np.zeros(3, dtype=np.int64)
    for _, batch, lengths in chunks:
        alpha, _ = hmm._forward_batch(params, batch, lengths)
        got = hmm._sample_states(params.transition, alpha, lengths, draws)
        paths = hmm_state_draw_reference(params.transition, [a[:n] for a, n in zip(alpha, lengths)], want)
        for row, path in zip(got, paths):
            np.testing.assert_array_equal(row[: len(path)], path)
            state_counts += np.bincount(path, minlength=3)
    assert draws.random() == want.random()
    # the counts a sweep draws its parameters from hold the lines' positions only
    concentrations = []
    dirichlet_rows = hmm.dirichlet_rows
    monkeypatch.setattr(hmm, "dirichlet_rows", lambda r, c: concentrations.append(c) or dirichlet_rows(r, c))
    hmm._gibbs_step(params, chunks, 0.5, np.random.default_rng(5))
    initial, transition, emission = (c - 0.5 for c in concentrations)
    tokens = sum(len(seq) for seq in seqs)
    assert initial.sum() == len(seqs)
    assert transition.sum() == tokens - len(seqs)
    np.testing.assert_array_equal(emission.sum(axis=0), np.bincount(np.concatenate(seqs), minlength=5))
    np.testing.assert_array_equal(emission.sum(axis=1), state_counts)


def test_evaluate_model_runs_one_forward_pass_per_chunk(monkeypatch):
    rng = np.random.default_rng(45)
    params = random_params(rng, 6, 5)
    seqs = mixed_lines(rng, 5, 50)
    monkeypatch.setattr(corpus, "MAX_CHUNK_FLOATS", 6 * 60)
    chunks = len(corpus._chunks(seqs, 6, 5))
    assert chunks > 1
    calls = count_calls(monkeypatch, hmm, "_forward_batch")
    evaluate.evaluate_model(params, seqs)
    assert calls[0] == chunks  # evidences and prediction rows from one pass


# ----------------------------------------------------------------------- EM


def test_em_single_state_matches_unigram_frequencies():
    data = make_dataset(["a b b a", "b b"], symbols=["a", "b"])
    params = hmm.init_random(1, 2, seed=0)
    fitted, trace, _ = hmm.em_fit(params, data, EmConfig(max_iter=1))
    # the single-state emission row is the relative symbol frequency
    assert np.allclose(fitted.emission[0], [2 / 6, 4 / 6], atol=1e-12)


def test_em_defaults():
    cfg = EmConfig()
    assert cfg.max_iter == 500
    assert cfg.rel_tol == 1e-5


def test_em_trace_monotone_and_converges():
    rng = np.random.default_rng(5)
    data = make_dataset(
        [" ".join(rng.choice(["a", "b", "c"], size=rng.integers(2, 10))) for _ in range(12)],
        symbols=["a", "b", "c"],
    )
    params = hmm.init_random(3, 3, seed=1)
    fitted, trace, _ = hmm.em_fit(params, data, EmConfig(max_iter=60))
    assert len(trace) >= 2
    for prev, cur in zip(trace, trace[1:]):
        assert cur >= prev - 1e-9 * abs(prev)
    fitted.validate()
    assert trace[-1] == pytest.approx(hmm.log_evidence_total(fitted, data), abs=1e-9)


def test_em_zero_count_state_reset_uniform():
    # second state unreachable: its rows get uniform resets, model stays proper
    params = HmmParams(
        initial=np.array([1.0, 0.0]),
        transition=np.array([[1.0, 0.0], [0.3, 0.7]]),
        emission=np.array([[0.5, 0.5], [0.2, 0.8]]),
    )
    data = make_dataset(["a b a", "b a"], symbols=["a", "b"])
    fitted, _, _ = hmm.em_fit(params, data, EmConfig(max_iter=3))
    fitted.validate()
    assert np.allclose(fitted.transition[1], [0.5, 0.5], atol=1e-12)
    assert np.allclose(fitted.emission[1], [0.5, 0.5], atol=1e-12)


# -------------------------------------------------------------------- Gibbs


def test_gibbs_defaults():
    cfg = GibbsConfig()
    assert cfg.n_samples == 500
    assert cfg.polish_iters == 50
    assert cfg.dirichlet_alpha == 0.1


def test_gibbs_rows_valid_every_iteration():
    rng = np.random.default_rng(0)
    data = make_dataset(["a b a b", "b a", "a a b"], symbols=["a", "b"])
    chunks = corpus._chunks(data, 2, 2)
    params = hmm.init_random(2, 2, seed=3)
    for _ in range(25):
        params, _ = hmm._gibbs_step(params, chunks, 0.1, rng)
        params.validate(tol=1e-9)


def test_gibbs_deterministic_and_polish_improves():
    data = make_dataset(["a b a b a", "b a b", "a a b b"], symbols=["a", "b"])
    init = hmm.init_random(2, 2, seed=9)
    cfg = GibbsConfig(n_samples=30, polish_iters=20, seed=42)
    fit1, trace1, _ = hmm.gibbs_fit(init, data, cfg)
    fit2, trace2, _ = hmm.gibbs_fit(init, data, cfg)
    assert np.array_equal(fit1.transition, fit2.transition)
    assert np.array_equal(fit1.emission, fit2.emission)
    assert trace1.sample_log_evidence == trace2.sample_log_evidence
    # the polish starts at the retained sample and cannot decrease evidence
    assert trace1.polish_trace[0] == pytest.approx(max(trace1.sample_log_evidence), abs=1e-9)
    assert trace1.polish_trace[-1] >= max(trace1.sample_log_evidence) - 1e-9


def test_gibbs_fit_matches_the_score_every_sample_loop():
    # mixed lengths, several lines per length group
    rng = np.random.default_rng(46)
    seqs = [rng.integers(0, 4, size=int(n)) for n in rng.integers(1, 9, size=30)]
    init = hmm.init_random(3, 4, seed=8)
    cfg = GibbsConfig(n_samples=12, polish_iters=4, seed=17, rel_tol=0.0)
    chunks = corpus._chunks(seqs, 3, 4)
    fitted, trace, _ = hmm.gibbs_fit(init, seqs, cfg)
    want, want_samples, want_polish = best_of_gibbs_reference(
        init,
        lambda p, r: hmm._gibbs_step(p, chunks, cfg.dirichlet_alpha, r),
        lambda p: hmm.log_evidence_total(p, seqs),
        lambda best: hmm.em_fit(best, seqs, EmConfig(max_iter=cfg.polish_iters, rel_tol=cfg.rel_tol)),
        cfg.n_samples,
        cfg.seed,
    )
    assert trace.sample_log_evidence == want_samples
    assert trace.polish_trace == want_polish
    for name in ("initial", "transition", "emission"):
        assert np.array_equal(getattr(fitted, name), getattr(want, name))


def test_gibbs_fit_runs_one_forward_pass_per_chunk_and_sample(monkeypatch):
    rng = np.random.default_rng(47)
    seqs = [rng.integers(0, 3, size=int(n)) for n in rng.integers(1, 7, size=20)]
    monkeypatch.setattr(corpus, "MAX_CHUNK_FLOATS", 2 * 12)
    chunks = len(corpus._chunks(seqs, 2, 3))
    assert chunks > 1
    cfg = GibbsConfig(n_samples=7, polish_iters=3, seed=2, rel_tol=0.0)
    calls = count_calls(monkeypatch, hmm, "_forward_batch")
    _, trace, _ = hmm.gibbs_fit(hmm.init_random(2, 3, seed=1), seqs, cfg)
    assert len(trace.polish_trace) == cfg.polish_iters + 1  # E-steps, then the capped end's evidence
    # each sample's draw, the last sample's evidence, and the polish
    assert calls[0] == chunks * (cfg.n_samples + 1 + len(trace.polish_trace))


def test_gibbs_single_state_posterior_mean():
    # with one state the emission posterior is Dirichlet(prior + counts);
    # averaging many independent draws recovers its mean
    data = make_dataset(["a a b"], symbols=["a", "b"])
    counts = np.array([2.0, 1.0])
    post = 0.5 + counts
    want = post / post.sum()
    draws = []
    chunks = corpus._chunks(data, 1, 2)
    for seed in range(400):
        rng = np.random.default_rng(seed)
        params, _ = hmm._gibbs_step(hmm.init_random(1, 2, seed=0), chunks, 0.5, rng)
        draws.append(params.emission[0])
    mean = np.mean(draws, axis=0)
    # 400 draws, Dirichlet sd ~ 0.22/sqrt(400) ~ 0.011; allow 4 sigma
    assert np.allclose(mean, want, atol=0.045)


# --------------------------------------------------------------- prediction


def test_predict_matches_evidence_ratio_oracle():
    rng = np.random.default_rng(21)
    for _ in range(8):
        params = random_params(rng, 3, 4)
        seq = rng.integers(0, 4, size=int(rng.integers(1, 7)))
        for pos in range(1, len(seq) + 1):
            got = hmm.predict_distribution(params, seq, pos)
            want = evidence_ratio_prediction(params, seq, pos)
            assert np.allclose(got, want, atol=1e-9)


def test_predict_single_state_returns_emission_row():
    params = HmmParams(
        initial=np.array([1.0]),
        transition=np.array([[1.0]]),
        emission=np.array([[0.2, 0.3, 0.5]]),
    )
    seq = np.array([0, 2, 1])
    for pos in (1, 2, 3):
        got = hmm.predict_distribution(params, seq, pos)
        assert np.allclose(got, params.emission[0], atol=1e-12)


def test_predict_sums_to_one():
    rng = np.random.default_rng(31)
    params = random_params(rng, 2, 5)
    seq = rng.integers(0, 5, size=6)
    assert hmm.predict_distribution(params, seq, 3).sum() == pytest.approx(1.0, abs=1e-12)


def test_predict_handles_zero_evidence_sequence():
    # model can only produce "a b"; observed "a a" still predicts b at slot 2
    params = HmmParams(
        initial=np.array([1.0, 0.0]),
        transition=np.array([[0.0, 1.0], [0.0, 1.0]]),
        emission=np.array([[1.0, 0.0], [0.0, 1.0]]),
    )
    seq = np.array([0, 0])
    got = hmm.predict_distribution(params, seq, 2)
    assert np.allclose(got, [0.0, 1.0], atol=1e-12)


# -------------------------------------------------------------- from_markov


def test_from_markov_structure_and_evidence_equality():
    data = make_dataset(["a b c a", "b c", "c c a"], symbols=["a", "b", "c"])
    m = markov.fit(data, 3, order=1, smoothing="additive", epsilon=0.1)
    params = from_markov(m)
    assert params.n_states == m.vocab_size
    assert np.array_equal(params.emission, np.eye(3))
    for length in (1, 2, 3, 4):
        for seq in all_sequences(3, length):
            a = m.log_evidence(seq)
            b = hmm.forward_backward(params, seq)[3]
            assert b == pytest.approx(a, rel=1e-12)


def test_from_markov_rejects_higher_order():
    data = make_dataset(["a b a b"], symbols=["a", "b"])
    m = markov.fit(data, 2, order=2)
    with pytest.raises(ValueError):
        from_markov(m)


# ------------------------------------------------------ stationary + info


def test_stationary_hand_example():
    params = HmmParams(
        initial=np.array([0.5, 0.5]),
        transition=np.array([[0.9, 0.1], [0.5, 0.5]]),
        emission=np.eye(2),
    )
    got = hmm.stationary_distribution(params)
    assert np.allclose(got, [5 / 6, 1 / 6], atol=1e-10)
    want = stationary_by_linear_solve(params.transition)
    assert np.allclose(got, want, atol=1e-9)


def test_stationary_uniform_and_identity():
    uni = HmmParams(np.array([0.5, 0.5]), np.full((2, 2), 0.5), np.eye(2))
    assert np.allclose(hmm.stationary_distribution(uni), [0.5, 0.5], atol=1e-12)
    ident = HmmParams(np.array([1.0, 0.0]), np.eye(2), np.eye(2))
    assert np.allclose(hmm.stationary_distribution(ident), [0.5, 0.5], atol=1e-12)


def test_stationary_non_convergent_raises():
    # uniform start oscillates on this reducible asymmetric chain
    params = HmmParams(
        initial=np.array([1.0, 0.0, 0.0]),
        transition=np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        emission=np.eye(3),
    )
    with pytest.raises(RuntimeError):
        hmm.stationary_distribution(params, max_iter=2000)


def test_info_measures_uniform_transitions():
    k = 4
    params = HmmParams(np.full(k, 0.25), np.full((k, k), 0.25), np.eye(k))
    info = hmm.info_measures(params, hmm.stationary_distribution(params))
    assert info["stationary_perplexity"] == pytest.approx(4.0, abs=1e-9)
    assert info["transition_perplexity"] == pytest.approx(4.0, abs=1e-9)


def test_info_measures_identity_emission():
    params = HmmParams(
        initial=np.array([0.5, 0.5]),
        transition=np.array([[0.9, 0.1], [0.5, 0.5]]),
        emission=np.eye(2),
    )
    info = hmm.info_measures(params, hmm.stationary_distribution(params))
    assert info["emission_perplexity"] == pytest.approx(1.0, abs=1e-12)
    assert info["state_variety"] == pytest.approx(1.0, abs=1e-12)
    assert info["stationary_perplexity"] == pytest.approx(1.5694, abs=1e-3)
    assert info["stationary_perplexity"] == pytest.approx(
        entropy_perplexity(np.array([5 / 6, 1 / 6])), abs=1e-9
    )


def test_info_measures_ranges_random_models():
    rng = np.random.default_rng(17)
    for _ in range(30):
        k = int(rng.integers(1, 6))
        v = int(rng.integers(1, 7))
        params = random_params(rng, k, v)
        info = hmm.info_measures(params, hmm.stationary_distribution(params))
        assert 1.0 - 1e-9 <= info["stationary_perplexity"] <= k + 1e-9
        assert 1.0 - 1e-9 <= info["emission_perplexity"] <= v + 1e-9
        assert 1.0 - 1e-9 <= info["state_variety"] <= k + 1e-9
        assert 1.0 - 1e-9 <= info["transition_perplexity"] <= k + 1e-9


def test_info_measures_match_the_per_symbol_reference():
    # a third of the models have exact-zero emissions, and some of those a symbol that no state emits
    rng = np.random.default_rng(34)
    for trial in range(120):
        k, v = int(rng.integers(1, 9)), int(rng.integers(2, 13))
        params = random_params(rng, k, v)
        if trial % 3 == 0:
            emission = np.where(rng.random((k, v)) < 0.5, 0.0, params.emission)
            emission[np.arange(k), rng.integers(0, v, size=k)] += 0.1
            params.emission = emission / emission.sum(axis=1, keepdims=True)
        info = hmm.info_measures(params, hmm.stationary_distribution(params))
        want = hmm_info_measures_reference(params)
        assert list(info) == list(want)
        for name, value in want.items():
            assert info[name] == pytest.approx(value, rel=1e-12, abs=0), (trial, name)


def test_describe_runs_the_stationary_power_iteration_once(monkeypatch):
    params = random_params(np.random.default_rng(35), 3, 4)
    calls = count_calls(monkeypatch, hmm, "stationary_distribution")
    report = params.describe(Vocabulary(symbols=["a", "b", "c", "Other"]), 0.05)
    assert calls == [1]
    stationary = hmm.stationary_distribution(params)
    assert report["info_measures"] == hmm.info_measures(params, stationary)
    assert [state["stationary_probability"] for state in report["states"]] == stationary.tolist()


# ---------------------------------------------------------------- sampling


def test_sample_sequence_forced_and_deterministic():
    params = HmmParams(
        initial=np.array([1.0, 0.0]),
        transition=np.array([[0.0, 1.0], [0.0, 1.0]]),
        emission=np.array([[1.0, 0.0], [0.0, 1.0]]),
    )
    assert hmm.sample_sequence(params, 4, [0]).tolist() == [[0, 1, 1, 1]]
    rng_params = random_params(np.random.default_rng(1), 3, 4)
    assert np.array_equal(
        hmm.sample_sequence(rng_params, 10, [5]), hmm.sample_sequence(rng_params, 10, [5])
    )


@pytest.mark.parametrize("k", [1, 12, 100])
@pytest.mark.parametrize("length", [1, 16])
def test_sample_sequence_rows_equal_the_per_line_reference(k, length):
    params = random_params(np.random.default_rng(k), k, 11)
    seeds = [1000 * k + i for i in range(50)]
    got = hmm.sample_sequence(params, length, seeds)
    assert got.shape == (50, length)
    for row, seed in zip(got.tolist(), seeds):
        assert row == hmm_sample_reference(params, length, seed).tolist()


def test_sample_sequence_first_symbol_marginal():
    rng = np.random.default_rng(23)
    params = random_params(rng, 2, 3)
    want = params.initial @ params.emission
    n = 100_000
    counts = np.bincount(hmm.sample_sequence(params, 1, list(range(n)))[:, 0], minlength=3)
    freq = counts / n
    sigma = np.sqrt(want * (1 - want) / n)
    assert np.all(np.abs(freq - want) <= 3 * sigma + 1e-9)
