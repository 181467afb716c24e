import math
import re

import numpy as np
import pytest

from chordlm import cli, evaluate, hmm, model_io, pcfg, training
from chordlm.config import ExperimentConfig
from chordlm.hmm import HmmParams
from chordlm.pcfg import (
    START,
    EmConfig,
    GibbsConfig,
    PcfgParams,
)
from oracles import (
    all_sequences,
    best_of_gibbs_reference,
    count_blocks,
    count_calls,
    count_nodes,
    counts_table,
    derivation_counts,
    evidence_ratio_prediction,
    gibbs_step_reference,
    gibbs_tree_counts_reference,
    hmm_terminated_evidence,
    length_probability,
    lockstep_derivations,
    pcfg_evidence_by_enumeration,
    pcfg_expected_counts_reference,
    pcfg_init_random_reference,
    pcfg_inside_reference,
    pcfg_outside_reference,
    pcfg_outside_by_enumeration,
    per_line,
    random_stochastic,
    rows_of_one,
    sample_tree_reference,
    square_chart,
    strict_embed_hmm,
    tree_log_probability,
)


def single_terminal_grammar(kappa=0.6) -> PcfgParams:
    """One nonterminal, one terminal: S -> zz surely; z emits with prob kappa."""
    base = HmmParams(
        initial=np.array([1.0]),
        transition=np.array([[1.0]]),
        emission=np.array([[1.0]]),
    )
    return pcfg.init_from_hmm(base, kappa=kappa, eta=0.0)


def random_grammar(rng, n_nt, vocab) -> PcfgParams:
    return pcfg.init_random(n_nt, vocab, seed=int(rng.integers(0, 2**31)))


def random_hmm(rng, n_states, vocab) -> HmmParams:
    return HmmParams(
        initial=random_stochastic(rng, (n_states,)),
        transition=random_stochastic(rng, (n_states, n_states)),
        emission=random_stochastic(rng, (n_states, vocab)),
    )


# ------------------------------------------------------------ constructors


def test_init_random_valid_and_deterministic():
    a = pcfg.init_random(3, 4, seed=5)
    b = pcfg.init_random(3, 4, seed=5)
    a.validate()
    assert not a.start_emits
    assert np.array_equal(a.rules, b.rules)
    assert np.array_equal(a.start_rules, b.start_rules)
    one = pcfg.init_random(1, 2, seed=0)
    assert one.start_rules[0, 0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d, vocab_size, seed", [(1, 1, 0), (3, 4, 5), (20, 10, 3)])
def test_init_random_draws_normalized_gamma_rows_in_turn(d, vocab_size, seed):
    got = pcfg.init_random(d, vocab_size, seed)
    want = pcfg_init_random_reference(d, vocab_size, seed)
    for name in ("start_rules", "start_emissions", "rules", "emissions"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("d", [1, 3, 20])
def test_m_step_start_row_is_the_start_counts_over_their_sum(d):
    rng = np.random.default_rng(d)
    rules, emissions = rng.random((d, d, d)), rng.random((d, 4))
    start = 7.3 * rng.random((d, d))
    counts = counts_table(start, rules, emissions)
    got = pcfg._from_counts(training.normalize_rows, counts)
    np.testing.assert_array_equal(got.start_rules, start / start.sum())
    # no start counts at all give the uniform start row
    counts[0] = 0.0
    got = pcfg._from_counts(training.normalize_rows, counts)
    np.testing.assert_array_equal(got.start_rules, np.full((d, d), 1.0 / (d * d)))


def test_init_from_hmm_rows_exact_when_eta_zero():
    rng = np.random.default_rng(8)
    base = random_hmm(rng, 3, 4)
    g = pcfg.init_from_hmm(base, kappa=0.7, eta=0.0)
    g.validate(tol=1e-12)
    assert np.allclose(g.start_rules, base.initial[:, None] * base.transition, atol=1e-12)
    # left child equals the parent state when eta is zero
    for z in range(3):
        off = g.rules[z].copy()
        off[z, :] = 0.0
        assert np.all(off == 0.0)


def test_init_from_hmm_eta_renormalizes():
    rng = np.random.default_rng(9)
    base = random_hmm(rng, 2, 3)
    g = pcfg.init_from_hmm(base, kappa=0.6, eta=0.05)
    g.validate(tol=1e-12)
    assert np.all(g.rules > 0.0)


def test_init_from_hmm_mean_length_targets():
    # kappa chosen for the observed mean length of 13.0 symbols
    kappa = 0.5416
    assert 2 * kappa / (2 * kappa - 1) == pytest.approx(13.02, abs=0.01)
    with pytest.raises(ValueError):
        pcfg.init_from_hmm(random_hmm(np.random.default_rng(0), 2, 2), kappa=0.5, eta=0.0)
    with pytest.raises(ValueError):
        pcfg.init_from_hmm(random_hmm(np.random.default_rng(0), 2, 2), kappa=0.4, eta=0.0)


# ---------------------------------------------------------- strict embedding


def test_strict_embed_single_state_hand_value():
    base = HmmParams(np.array([1.0]), np.array([[1.0]]), np.array([[1.0]]))
    g = strict_embed_hmm(base, end_prob=np.array([0.5]))
    g.validate(tol=1e-12)
    # the HMM emits "a a" then stops with probability 0.5 * 0.5
    got = math.exp(pcfg.inside(g, np.array([0, 0])).log_evidence[0])
    assert got == pytest.approx(0.25, rel=1e-12)


def test_strict_embed_length_one_reads_off_stop_marginal():
    rng = np.random.default_rng(3)
    base = random_hmm(rng, 2, 3)
    end = np.array([0.3, 0.6])
    g = strict_embed_hmm(base, end)
    want = (base.initial * end) @ base.emission
    assert np.allclose(g.start_emissions, want, atol=1e-12)
    for x in range(3):
        got = math.exp(pcfg.inside(g, np.array([x])).log_evidence[0])
        assert got == pytest.approx(want[x], rel=1e-12)


def test_strict_embed_evidence_equality_exhaustive():
    rng = np.random.default_rng(14)
    base = random_hmm(rng, 2, 3)
    end = rng.uniform(0.2, 0.6, size=2)
    g = strict_embed_hmm(base, end)
    g.validate(tol=1e-9)
    for length in range(1, 5):
        for seq in all_sequences(3, length):
            want = hmm_terminated_evidence(base.initial, base.transition, base.emission, end, seq)
            got = math.exp(pcfg.inside(g, seq).log_evidence[0])
            assert got == pytest.approx(want, rel=1e-9), seq


def test_strict_embed_validates_rows():
    base = HmmParams(np.array([1.0]), np.array([[0.9]]), np.array([[1.0]]))
    with pytest.raises(ValueError):
        strict_embed_hmm(base, end_prob=np.array([0.5]))


# ------------------------------------------------------------------ inside


def test_inside_single_terminal_values():
    g = single_terminal_grammar(kappa=0.6)
    assert math.exp(pcfg.inside(g, np.array([0, 0])).log_evidence[0]) == pytest.approx(0.36, rel=1e-12)
    assert math.exp(pcfg.inside(g, np.array([0, 0, 0])).log_evidence[0]) == pytest.approx(
        2 * 0.4 * 0.6**3, rel=1e-12
    )


def test_inside_length_one_without_start_emission():
    g = single_terminal_grammar()
    assert pcfg.inside(g, np.array([0])).log_evidence[0] == -np.inf


def test_inside_matches_tree_enumeration():
    rng = np.random.default_rng(21)
    for _ in range(10):
        g = random_grammar(rng, 2, 3)
        n = int(rng.integers(2, 5))
        seq = rng.integers(0, 3, size=n)
        want = pcfg_evidence_by_enumeration(
            g.start_rules, g.start_emissions, g.rules, g.emissions, seq
        )
        got = math.exp(pcfg.inside(g, seq).log_evidence[0])
        assert got == pytest.approx(want, rel=1e-12)


def test_inside_long_sequence_stays_finite():
    g = single_terminal_grammar(kappa=0.51)
    seq = np.zeros(200, dtype=np.int64)
    log_ev = pcfg.inside(g, seq).log_evidence[0]
    assert np.isfinite(log_ev)


# ------------------------------------------------------------------ outside


def test_outside_hand_value():
    g = single_terminal_grammar(kappa=0.6)
    seq = np.array([0, 0])
    out, out_scale = pcfg.outside(g, pcfg.inside(g, seq))
    a_00 = square_chart(out[0])[0, 0] * math.exp(out_scale[0, 1])
    assert a_00[0] == pytest.approx(0.6, rel=1e-12)


def test_outside_leaf_band_identity():
    rng = np.random.default_rng(33)
    for _ in range(5):
        g = random_grammar(rng, 3, 2)
        seq = rng.integers(0, 2, size=6)
        chart = pcfg.inside(g, seq)
        out, out_scale = pcfg.outside(g, chart)
        outside, inside = square_chart(out[0]), square_chart(chart.by_start[0])
        ev = math.exp(chart.log_evidence[0])
        joint_scale = math.exp(out_scale[0, 1] + chart.scale[0, 1])
        for i in range(len(seq)):
            val = float(outside[i, i] @ inside[i, i]) * joint_scale
            assert val == pytest.approx(ev, rel=1e-9)


def test_outside_matches_enumeration():
    rng = np.random.default_rng(34)
    g = random_grammar(rng, 2, 2)
    seq = rng.integers(0, 2, size=4)
    out, out_scale = pcfg.outside(g, pcfg.inside(g, seq))
    outside = square_chart(out[0])
    for i in range(4):
        for j in range(i, 4):
            w = j - i + 1
            if w == 4:
                continue
            scale = out_scale[0, w]
            for z in range(2):
                got = outside[i, j, z] * (math.exp(scale) if np.isfinite(scale) else 0.0)
                want = pcfg_outside_by_enumeration(
                    g.start_rules, g.rules, g.emissions, seq, i, j, z
                )
                assert got == pytest.approx(want, rel=1e-9, abs=1e-15)


# ---------------------------------------------------------- batched charts


def true_values(chart, scale):
    """Scaled square chart to its true values; widths scaled by -inf are 0."""
    n = chart.shape[0]
    width = np.clip(np.arange(n)[None, :] - np.arange(n)[:, None] + 1, 0, n)
    return chart * np.exp(scale)[width][..., None]


def assert_close(got, want, rtol=1e-12):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    assert np.allclose(got[np.isfinite(got)], want[np.isfinite(want)], rtol=rtol, atol=0.0)


def assert_batch_matches_reference(g, seqs):
    """Every batch's inside and outside charts and log evidences against the
    per-sequence reference."""
    for idx, batch in pcfg._batches(seqs, g.n_nonterminals, g.vocab_size):
        chart = pcfg._inside_batch(g, batch)
        out, out_scale = pcfg._outside_batch(g, chart.by_start, chart.by_end, chart.scale)
        for k, i in enumerate(idx):
            b, s, log_ev = pcfg_inside_reference(g, seqs[i])
            a, h = pcfg_outside_reference(g, seqs[i], b, s)
            assert_close(chart.log_evidence[k], log_ev)
            assert np.array_equal(chart.scale[k] == -np.inf, s == -np.inf)
            assert_close(true_values(square_chart(chart.by_start[k]), chart.scale[k]), true_values(b, s))
            assert_close(true_values(square_chart(out[k]), out_scale[k]), true_values(a, h))


def test_batched_charts_match_reference_on_mixed_lengths():
    rng = np.random.default_rng(80)
    for d in (1, 3):
        g = random_grammar(rng, d, 3)
        seqs = [rng.integers(0, 3, size=n) for n in (1, 2, 5, 1, 2, 9, 5, 3, 5)]
        assert_batch_matches_reference(g, seqs)
        for seq in seqs:
            chart = pcfg.inside(g, seq)
            out, out_scale = pcfg.outside(g, chart)
            b, s, log_ev = pcfg_inside_reference(g, seq)
            a, h = pcfg_outside_reference(g, seq, b, s)
            assert_close(chart.log_evidence[0], log_ev)
            assert_close(true_values(square_chart(out[0]), out_scale[0]), true_values(a, h))


def test_batched_charts_match_reference_with_start_emissions():
    rng = np.random.default_rng(81)
    g = strict_embed_hmm(random_hmm(rng, 2, 3), end_prob=np.array([0.3, 0.6]))
    assert g.start_emits
    seqs = [rng.integers(0, 3, size=n) for n in (1, 1, 2, 3, 4, 4, 6)]
    assert_batch_matches_reference(g, seqs)


def test_zero_evidence_sequence_in_live_batch():
    # symbol 2 is never emitted: two of the four lines have zero evidence,
    # and the all-2 line has every width scale at -inf
    g = pcfg.init_random(2, 3, seed=6)
    g = PcfgParams(g.start_rules, g.start_emissions, g.rules, g.emissions.copy())
    g.emissions[:, 2] = 0.0
    seqs = [np.array(s) for s in ([0, 1, 0, 1], [0, 2, 1, 0], [2, 2, 2, 2], [1, 1, 0, 0])]
    chart = pcfg._inside_batch(g, np.stack(seqs))
    assert chart.log_evidence[1] == chart.log_evidence[2] == -np.inf
    assert (chart.scale[2, 1:] == -np.inf).all()
    assert_batch_matches_reference(g, seqs)

    counts, log_ev = pcfg._e_step(g, seqs)
    live = [pcfg_expected_counts_reference(g, seqs[i]) for i in (0, 3)]
    assert pcfg_expected_counts_reference(g, seqs[1]) is None
    for got, k in zip(count_blocks(counts), range(3)):
        assert_close(got, live[0][k] + live[1][k])
    assert_close(log_ev, [live[0][3], -np.inf, -np.inf, live[1][3]])
    with pytest.raises(ValueError, match="sequence 1 has"):
        pcfg.em_fit(g, seqs, EmConfig(max_iter=2))


def test_expected_counts_over_several_batches_match_one_at_a_time():
    rng = np.random.default_rng(82)
    for d in (12, 20):
        g = random_grammar(rng, d, 4)
        seqs = [rng.integers(0, 4, size=10) for _ in range(25)] + [rng.integers(0, 4, size=3)]
        batches = list(pcfg._batches(seqs, d, 4))
        assert len(batches) > 2 and max(len(idx) for idx, _ in batches) > 1
        counts, log_ev = pcfg._e_step(g, seqs)
        refs = [pcfg_expected_counts_reference(g, seq) for seq in seqs]
        for got, k in zip(count_blocks(counts), range(3)):
            assert_close(got, sum(r[k] for r in refs))
        assert_close(log_ev, [r[3] for r in refs])


def test_e_step_rebuilds_the_pair_matrices_of_the_inside_pass(monkeypatch):
    rng = np.random.default_rng(86)
    g = random_grammar(rng, 4, 3)
    calls = []
    width_pairs = pcfg._width_pairs

    def recorded(left, right, scale, w):
        pairs, pair_scale = width_pairs(left, right, scale, w)
        calls.append((w, pairs, pair_scale))
        return pairs, pair_scale

    monkeypatch.setattr(pcfg, "_width_pairs", recorded)
    for n in (2, 3, 7):
        seqs = [rng.integers(0, 3, size=n) for _ in range(5)]
        assert len(list(pcfg._batches(seqs, 4, 3))) == 1
        calls.clear()
        pcfg._e_step(g, seqs)
        inside, rebuilt = calls[:n - 1], calls[n - 1:]
        assert [w for w, _, _ in inside] == list(range(2, n + 1))
        assert sorted(w for w, _, _ in rebuilt) == list(range(2, n + 1))
        kept = {w: (pairs, pair_scale) for w, pairs, pair_scale in inside}
        for w, pairs, pair_scale in rebuilt:
            assert np.array_equal(pairs, kept[w][0])
            assert np.array_equal(pair_scale, kept[w][1])


def test_a_batch_holds_its_charts_and_one_widths_pairs_within_the_cap():
    # each case's length group fills at least one batch
    rng = np.random.default_rng(87)
    for d, n, count in ((10, 12, 30), (20, 15, 8), (20, 20, 4)):
        g = random_grammar(rng, d, 3)
        seqs = [rng.integers(0, 3, size=n) for _ in range(count)] + [rng.integers(0, 3, size=4)]
        multi_line = 0
        for idx, batch in pcfg._batches(seqs, d, 3):
            if len(idx) == 1:
                continue
            multi_line += 1
            chart = pcfg._inside_batch(g, batch)
            out, _ = pcfg._outside_batch(g, chart.by_start, chart.by_end, chart.scale)
            widest, _ = pcfg._chart_pairs(chart.by_start, chart.by_end, chart.scale, 2)
            # the outside pass also holds its right-child sums, shaped like ``out``
            assert chart.by_start.size + chart.by_end.size + 2 * out.size + widest.size <= pcfg.MAX_BATCH_FLOATS
        assert multi_line > 0


def test_gibbs_trees_do_not_depend_on_batching(monkeypatch):
    rng = np.random.default_rng(83)
    seqs = [rng.integers(0, 3, size=int(rng.integers(2, 8))) for _ in range(12)]
    g = pcfg.init_random(3, 3, seed=1)
    batched, _ = pcfg._gibbs_step(g, seqs, 0.1, np.random.default_rng(5))
    monkeypatch.setattr(pcfg, "MAX_BATCH_FLOATS", 1)
    alone, _ = pcfg._gibbs_step(g, seqs, 0.1, np.random.default_rng(5))
    for name in ("start_rules", "rules", "emissions"):
        assert np.array_equal(getattr(batched, name), getattr(alone, name))


# ---------------------------------------------------------------------- EM


def test_em_single_terminal_fixed_point():
    g = single_terminal_grammar(kappa=0.7)  # start away from the fixed point
    seqs = [np.zeros(6, dtype=np.int64)]
    fitted, trace, _ = pcfg.em_fit(g, seqs, EmConfig(max_iter=1))
    assert fitted.emissions[0, 0] == pytest.approx(0.6, abs=1e-12)
    assert fitted.rules[0, 0, 0] == pytest.approx(0.4, abs=1e-12)


def test_em_trace_monotone():
    rng = np.random.default_rng(40)
    seqs = [rng.integers(0, 3, size=int(rng.integers(2, 8))) for _ in range(8)]
    g = pcfg.init_random(2, 3, seed=4)
    fitted, trace, _ = pcfg.em_fit(g, seqs, EmConfig(max_iter=40))
    for prev, cur in zip(trace, trace[1:]):
        assert cur >= prev - 1e-9 * abs(prev)
    fitted.validate(tol=1e-9)
    assert trace[-1] == pytest.approx(pcfg.log_evidence_total(fitted, seqs), abs=1e-9)


def test_em_emissions_decouple_for_single_nonterminal():
    rng = np.random.default_rng(41)
    seqs = [rng.integers(0, 2, size=5) for _ in range(6)]
    counts = np.bincount(np.concatenate(seqs), minlength=2).astype(float)
    g = pcfg.init_random(1, 2, seed=9)
    fitted, _, _ = pcfg.em_fit(g, seqs, EmConfig(max_iter=200))
    want = counts / counts.sum()
    emitted = fitted.emissions[0] / fitted.emissions[0].sum()
    assert np.allclose(emitted, want, atol=1e-6)


def test_em_rejects_bad_inputs():
    g = single_terminal_grammar()
    with pytest.raises(ValueError):
        pcfg.em_fit(g, [], EmConfig())
    with pytest.raises(ValueError):
        pcfg.em_fit(g, [np.zeros(1, dtype=np.int64)], EmConfig())
    with pytest.raises(ValueError):
        pcfg.em_fit(g, [np.zeros(65, dtype=np.int64)], EmConfig())
    base = HmmParams(np.array([1.0]), np.array([[1.0]]), np.array([[1.0]]))
    embedded = strict_embed_hmm(base, np.array([0.5]))
    with pytest.raises(ValueError):
        pcfg.em_fit(embedded, [np.zeros(3, dtype=np.int64)], EmConfig())


def test_em_errors_on_zero_evidence_sequence():
    # grammar emits only symbol 0, sequence contains symbol 1
    g = single_terminal_grammar()
    g2 = PcfgParams(
        start_rules=g.start_rules,
        start_emissions=np.zeros(2),
        rules=g.rules,
        emissions=np.array([[0.6, 0.0]]),
    )
    with pytest.raises(ValueError, match="sequence 0"):
        pcfg.em_fit(g2, [np.array([0, 1])], EmConfig(max_iter=2))


def test_em_model_files_identical_for_one_and_two_workers(tmp_path):
    rng = np.random.default_rng(42)
    lines = [" ".join(rng.choice(["C", "F", "G", "Am"], size=int(rng.integers(2, 9)))) for _ in range(30)]
    (tmp_path / "corpus.txt").write_text("\n".join(lines) + "\n")
    models = {}
    for workers in (1, 2):
        cfg = ExperimentConfig(
            corpus=str(tmp_path / "corpus.txt"), out_dir=str(tmp_path / f"run{workers}"),
            vocab_k=3, test_count=4, train_sizes=[20], model="pcfg", sizes=[2, 5],
            algos=["em"], seeds=[0], em_max_iter=3, workers=workers,
        )
        cli.cmd_prepare(cfg)
        cli.cmd_sweep(cfg)
        models[workers] = {p.name: p.read_bytes() for p in sorted((tmp_path / f"run{workers}" / "models").iterdir())}
    assert len(models[1]) == 4
    assert models[1] == models[2]


# ------------------------------------------------------------------- Gibbs


def test_gibbs_tree_arithmetic():
    g = single_terminal_grammar()
    rng = np.random.default_rng(0)
    seq = np.zeros(7, dtype=np.int64)
    chart = pcfg._inside_batch(g, seq[None])
    derivation = lockstep_derivations(g, seq[None], chart, np.array([0]), rng.random((1, len(seq) - 1)))[0]
    s, r, e = count_blocks(derivation_counts(derivation, g.n_nonterminals, g.vocab_size))
    assert s.sum() == 1.0
    assert r.sum() == len(seq) - 2
    assert e.sum() == len(seq)


def grammar_without_last_symbol(d, v, seed):
    """A random grammar whose nonterminals never emit symbol v - 1, so a line
    holding it has zero evidence."""
    g = pcfg.init_random(d, v, seed=seed)
    emissions = g.emissions.copy()
    emissions[:, -1] = 0.0
    return PcfgParams(g.start_rules, g.start_emissions, g.rules, emissions)


@pytest.mark.parametrize("d", [1, 3, 8])
def test_gibbs_tree_derivations_count_like_the_per_node_reference(d):
    v = 4
    rng = np.random.default_rng(90 + d)
    g = grammar_without_last_symbol(d, v, seed=d)
    seqs = [rng.integers(0, v - 1, size=int(n)) for n in rng.integers(2, 13, size=30)]
    seqs.append(np.array([0, v - 1] + [1] * (len(seqs[0]) - 2)))  # dead, in a batch of live lines
    batches = list(pcfg._batches(seqs, d, v))
    dead_batch = next(idx for idx, _ in batches if len(seqs) - 1 in idx.tolist())
    assert len(dead_batch) > 1
    drawn = 0
    for idx, batch in batches:
        chart = pcfg._inside_batch(g, batch)
        uniforms = rng.random((len(idx), batch.shape[1] - 1))  # row k takes the k-th run of n - 1
        live = np.flatnonzero(chart.log_evidence > -np.inf)
        for k in np.flatnonzero(chart.log_evidence == -np.inf).tolist():
            assert idx[k] == len(seqs) - 1
            with pytest.raises(ValueError, match="zero-evidence"):
                pcfg._sample_trees(g, batch, chart, np.array([k]), uniforms)
            with pytest.raises(ValueError, match="zero-evidence"):
                gibbs_tree_counts_reference(g, batch[k], chart, k, iter(uniforms[k].tolist()))
        for k, derivation in lockstep_derivations(g, batch, chart, live, uniforms).items():
            seq = batch[k]
            want = counts_table(*gibbs_tree_counts_reference(g, seq, chart, k, iter(uniforms[k].tolist())))
            assert np.array_equal(derivation_counts(derivation, d, v), want)
            leaves = [p - d * d for _, p in derivation if p >= d * d]
            assert leaves == seq.tolist()
            text = pcfg.bracketed(derivation, d)
            assert text.startswith("(S ") and [int(t) for t in re.findall(r"t(\d+)\)", text)] == leaves
            drawn += 1
    assert drawn == len(seqs) - 1


@pytest.mark.parametrize("d", [1, 3, 8])
def test_gibbs_step_matches_the_sweep_that_adds_counts_tree_by_tree(d):
    v = 4
    rng = np.random.default_rng(95 + d)
    g = grammar_without_last_symbol(d, v, seed=d + 1)
    seqs = [rng.integers(0, v - 1, size=int(n)) for n in rng.integers(2, 13, size=30)]
    seqs.append(np.array([v - 1] * len(seqs[0])))
    got, log_ev = pcfg._gibbs_step(g, seqs, 0.1, np.random.default_rng(7))
    want = gibbs_step_reference(g, seqs, 0.1, np.random.default_rng(7))
    for name in ("start_rules", "start_emissions", "rules", "emissions"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert log_ev[-1] == -np.inf and np.isfinite(log_ev[:-1]).all()


def test_lockstep_gibbs_step_matches_the_reference_on_every_width_at_d20():
    d, v = 20, 5
    rng = np.random.default_rng(120)
    g = grammar_without_last_symbol(d, v, seed=20)
    # one live line of each length 2..40, more at 3, 10, 20 and 40, then dead lines: one among
    # live lines of length 10 and a whole batch of length 20
    lengths = list(range(2, 41)) + [3] * 4 + [10] * 12 + [20] * 2 + [40]
    seqs = [rng.integers(0, v - 1, size=n) for n in lengths]
    seqs += [np.array([v - 1] * 10)] + [np.array([1] + [v - 1] * 19) for _ in range(3)]
    dead = set(range(len(lengths), len(seqs)))
    batches = [(idx.tolist(), batch.shape[1]) for idx, batch in pcfg._batches(seqs, d, v)]
    assert {n for _, n in batches} == set(range(2, 41))
    assert any(len(idx) > 1 and not dead & set(idx) for idx, _ in batches)
    assert any(len(idx) > 1 and dead & set(idx) and not set(idx) <= dead for idx, _ in batches)
    assert any(len(idx) > 1 and set(idx) <= dead for idx, _ in batches)
    assert [len(idx) for idx, n in batches if n == 40] == [1, 1]  # a line too long to share a batch
    got, log_ev = pcfg._gibbs_step(g, seqs, 0.1, np.random.default_rng(7))
    want = gibbs_step_reference(g, seqs, 0.1, np.random.default_rng(7))
    for name in ("start_rules", "start_emissions", "rules", "emissions"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert np.flatnonzero(log_ev == -np.inf).tolist() == sorted(dead) and np.isfinite(log_ev[:len(lengths)]).all()


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["start_rules", "start_emissions", "rules", "emissions"])
def test_validate_rejects_a_value_that_is_not_finite(name, value):
    g = pcfg.init_random(3, 4, seed=0)
    g.validate()
    bad = getattr(g, name).copy()
    bad.reshape(-1)[-1] = value
    with pytest.raises(ValueError, match="production table"):
        PcfgParams(**{**vars(g), name: bad}).validate()


def test_gibbs_rows_valid_every_iteration():
    rng = np.random.default_rng(1)
    seqs = [rng.integers(0, 2, size=int(rng.integers(2, 6))) for _ in range(5)]
    params = pcfg.init_random(2, 2, seed=2)
    step_rng = np.random.default_rng(77)
    for _ in range(15):
        params, _ = pcfg._gibbs_step(params, seqs, 0.1, step_rng)
        params.validate(tol=1e-9)
        assert not params.start_emits


def test_gibbs_deterministic_and_polish_improves():
    rng = np.random.default_rng(2)
    seqs = [rng.integers(0, 2, size=int(rng.integers(2, 6))) for _ in range(6)]
    init = pcfg.init_random(2, 2, seed=3)
    cfg = GibbsConfig(n_samples=15, polish_iters=15, seed=5)
    fit1, trace1, _ = pcfg.gibbs_fit(init, seqs, cfg)
    fit2, trace2, _ = pcfg.gibbs_fit(init, seqs, cfg)
    assert np.array_equal(fit1.rules, fit2.rules)
    assert trace1.sample_log_evidence == trace2.sample_log_evidence
    assert trace1.polish_trace[0] == pytest.approx(max(trace1.sample_log_evidence), abs=1e-9)
    assert trace1.polish_trace[-1] >= max(trace1.sample_log_evidence) - 1e-9


def test_gibbs_fit_matches_the_score_every_sample_loop(monkeypatch):
    monkeypatch.setattr(pcfg, "MAX_BATCH_FLOATS", 1500)  # two lines of 6 or 7 chords per batch at D=3
    rng = np.random.default_rng(84)
    seqs = [rng.integers(0, 3, size=int(n)) for n in rng.integers(2, 8, size=24)]
    batches = list(pcfg._batches(seqs, 3, 3))
    assert len(batches) > len({len(seq) for seq in seqs})
    init = pcfg.init_random(3, 3, seed=4)
    cfg = GibbsConfig(n_samples=8, polish_iters=3, seed=6, rel_tol=0.0)
    fitted, trace, _ = pcfg.gibbs_fit(init, seqs, cfg)
    want, want_samples, want_polish = best_of_gibbs_reference(
        init,
        lambda p, r: pcfg._gibbs_step(p, seqs, cfg.dirichlet_alpha, r),
        lambda p: pcfg.log_evidence_total(p, seqs),
        lambda best: pcfg.em_fit(best, seqs, EmConfig(max_iter=cfg.polish_iters, rel_tol=cfg.rel_tol)),
        cfg.n_samples,
        cfg.seed,
    )
    assert trace.sample_log_evidence == want_samples
    assert trace.polish_trace == want_polish
    for name in ("start_rules", "rules", "emissions"):
        assert np.array_equal(getattr(fitted, name), getattr(want, name))


def test_gibbs_fit_runs_one_inside_pass_per_batch_and_sample(monkeypatch):
    rng = np.random.default_rng(85)
    seqs = [rng.integers(0, 3, size=int(n)) for n in rng.integers(2, 7, size=15)]
    batches = len(list(pcfg._batches(seqs, 2, 3)))
    cfg = GibbsConfig(n_samples=5, polish_iters=2, seed=3, rel_tol=0.0)
    calls = count_calls(monkeypatch, pcfg, "_inside_batch")
    _, trace, _ = pcfg.gibbs_fit(pcfg.init_random(2, 3, seed=1), seqs, cfg)
    assert len(trace.polish_trace) == cfg.polish_iters + 1  # E-steps, then the capped end's evidence
    # each sample's trees, the last sample's evidence, and the polish
    assert calls[0] == batches * (cfg.n_samples + 1 + len(trace.polish_trace))


# ------------------------------------------------------- length distribution


def test_length_probability_single_terminal():
    g = single_terminal_grammar(kappa=0.6)
    assert length_probability(g, 2) == pytest.approx(0.36, rel=1e-12)
    assert length_probability(g, 3) == pytest.approx(0.1728, rel=1e-12)
    assert length_probability(g, 1) == 0.0
    # tail mass: value cross-checked by generating-function iteration and
    # Monte Carlo; the distribution sums to 1 but has a subexponential tail
    total_30 = sum(length_probability(g, n) for n in range(2, 31))
    assert total_30 == pytest.approx(0.980242, abs=1e-6)
    total_200 = sum(length_probability(g, n) for n in range(2, 200))
    assert total_200 > 0.999


def test_length_probability_matches_string_sum():
    rng = np.random.default_rng(50)
    g = random_grammar(rng, 2, 2)
    for n in range(1, 6):
        want = sum(
            math.exp(pcfg.inside(g, seq).log_evidence[0])
            for seq in all_sequences(2, n)
            if pcfg.inside(g, seq).log_evidence[0] > -np.inf
        )
        assert length_probability(g, n) == pytest.approx(want, abs=1e-9)


def test_length_table_matches_length_probability_bitwise():
    rng = np.random.default_rng(53)
    embedded = strict_embed_hmm(random_hmm(rng, 2, 3), end_prob=np.array([0.3, 0.6]))
    for g in (single_terminal_grammar(), random_grammar(rng, 3, 2), embedded):
        table = pcfg.length_log_probabilities(g, 12)
        assert table.shape == (13,) and table[0] == -np.inf
        for n in range(1, 13):
            assert np.exp(table[n]) == length_probability(g, n)


def test_a_maximum_length_line_matches_the_log_space_reference(bench, tmp_path):
    # raising every production row to the 6th power leaves a near-degenerate
    # grammar, whose charts span many orders of magnitude within each width
    g = pcfg.init_random(8, 5, seed=7)
    g = pcfg._from_counts(training.normalize_rows, g.productions**6)
    model_io.save_model(g, tmp_path / "g.model")
    ref, model = bench["reference"], bench["reference"].read_model(tmp_path / "g.model")
    n = pcfg.DEFAULT_MAX_TRAIN_LENGTH
    seq = np.random.default_rng(8).integers(0, 5, n)
    assert pcfg.inside(g, seq).log_evidence[0] == pytest.approx(ref.pcfg_log_inside(model, seq[None])[0], rel=1e-12, abs=0)
    assert pcfg.length_log_probabilities(g, n)[n] == pytest.approx(ref.pcfg_log_length(model, n), rel=1e-12, abs=0)


def test_normalized_evidence_degenerate_and_sums_to_one():
    g = single_terminal_grammar(kappa=0.6)
    assert math.exp(pcfg.normalized_log_evidence(g, np.array([0, 0, 0]))) == pytest.approx(
        1.0, rel=1e-12
    )
    rng = np.random.default_rng(51)
    g2 = random_grammar(rng, 2, 2)
    for n in (2, 3, 4):
        total = sum(
            math.exp(pcfg.normalized_log_evidence(g2, seq)) for seq in all_sequences(2, n)
        )
        assert total == pytest.approx(1.0, abs=1e-9)
    assert pcfg.normalized_log_evidence(g, np.array([0])) == -np.inf  # P(1) = 0 without start emission


# --------------------------------------------------------------- prediction


def test_predict_matches_evidence_ratio_oracle():
    rng = np.random.default_rng(60)
    for _ in range(6):
        g = random_grammar(rng, int(rng.integers(1, 4)), 3)
        seq = rng.integers(0, 3, size=int(rng.integers(2, 6)))
        for pos in range(1, len(seq) + 1):
            got = pcfg.predict_distribution(g, seq, pos)
            want = evidence_ratio_prediction(g, seq, pos)
            assert np.allclose(got, want, atol=1e-9)


def test_predict_single_terminal_degenerate():
    g = single_terminal_grammar()
    got = pcfg.predict_distribution(g, np.zeros(3, dtype=np.int64), 2)
    assert got.tolist() == [1.0]


def test_predict_requires_length_two():
    g = single_terminal_grammar()
    with pytest.raises(ValueError):
        pcfg.predict_distribution(g, np.zeros(1, dtype=np.int64), 1)


def test_predict_sums_to_one():
    g = pcfg.init_random(2, 4, seed=11)
    seq = np.array([0, 1, 2, 3])
    assert pcfg.predict_distribution(g, seq, 2).sum() == pytest.approx(1.0, abs=1e-12)


def assert_batched_rows_match_per_line(g, seqs):
    """``score``'s rows against each line's rows in a batch of one. A batch
    that holds a one-chord line is refused at the call, naming the first such
    line, so the other lines are then scored without it.

    With numpy 2.4 and OpenBLAS on x86-64 every row came out bit-identical;
    the 1e-12 tolerance leaves room for a BLAS whose batch-of-B products
    differ from batch-of-one in the last bits.
    """
    short = [i for i, seq in enumerate(seqs) if len(seq) < 2]
    if short:
        with pytest.raises(ValueError, match=f"sequence {short[0]}: prediction requires sequences of length >= 2"):
            g.score(seqs)
        seqs = [seq for seq in seqs if len(seq) >= 2]
    _, rows = g.score(seqs)
    for seq, got in zip(seqs, per_line(rows, seqs)):
        np.testing.assert_allclose(got, rows_of_one(g, seq), rtol=1e-12, atol=0)


def test_batched_rows_match_per_line_rows_on_mixed_lengths():
    rng = np.random.default_rng(64)
    g = random_grammar(rng, 3, 4)
    assert_batched_rows_match_per_line(g, [rng.integers(0, 4, size=n) for n in (5, 2, 7, 5, 3, 7, 2, 5, 1)])


def test_batched_rows_match_per_line_rows_in_a_split_length_group(monkeypatch):
    # two lines of 15 chords at D=20 per batch: 2 x (4 D n (n + 1) + D^2 (n - 1)) floats
    monkeypatch.setattr(pcfg, "MAX_BATCH_FLOATS", 2 * (4 * 20 * 15 * 16 + 20 * 20 * 14))
    rng = np.random.default_rng(65)
    g = pcfg.init_random(20, 5, seed=66)
    seqs = [rng.integers(0, 5, size=15) for _ in range(5)]
    assert [len(idx) for idx, _ in pcfg._batches(seqs, 20, 5)] == [2, 2, 1]
    assert_batched_rows_match_per_line(g, seqs)


def test_evaluate_model_runs_one_inside_and_outside_pass_per_batch(monkeypatch):
    rng = np.random.default_rng(67)
    g = random_grammar(rng, 2, 3)
    seqs = [rng.integers(0, 3, size=int(n)) for n in rng.integers(2, 9, size=30)]
    batches = len(list(pcfg._batches(seqs, 2, 3)))
    inside_calls = count_calls(monkeypatch, pcfg, "_inside_batch")
    outside_calls = count_calls(monkeypatch, pcfg, "_outside_batch")
    evaluate.evaluate_model(g, seqs)
    assert inside_calls[0] == outside_calls[0] == batches


# ---------------------------------------------------------------- sampling


def test_sample_tree_deterministic():
    # a linear-chain grammar is guaranteed subcritical, so sampling halts
    base = random_hmm(np.random.default_rng(12), 2, 3)
    g = pcfg.init_from_hmm(base, kappa=0.7, eta=0.01)
    [(t1, y1)] = pcfg.sample_tree(g, [4])
    [(t2, y2)] = pcfg.sample_tree(g, [4])
    assert np.array_equal(y1, y2)
    assert t1 == t2


def test_sample_tree_matches_per_draw_cumsum_sampler():
    rng = np.random.default_rng(72)
    base = random_hmm(rng, 2, 3)
    grammars = (
        pcfg.init_from_hmm(random_hmm(np.random.default_rng(5), 2, 3), kappa=0.5416, eta=0.0),
        pcfg.init_from_hmm(base, kappa=0.7, eta=0.05),
        strict_embed_hmm(base, end_prob=np.array([0.4, 0.5])),
    )
    for g in grammars:
        for seed, (derivation, ids) in enumerate(pcfg.sample_tree(g, list(range(40)), max_expansions=100_000)):
            want_text, want_ids = sample_tree_reference(g, seed, max_expansions=100_000)
            assert pcfg.bracketed(derivation, g.n_nonterminals) == want_text
            assert np.array_equal(ids, want_ids)


def test_sample_tree_draws_past_its_first_block_of_uniforms():
    # kappa just above 1/2 grows trees far past the first block, which is drawn again as it runs out
    g = pcfg.init_from_hmm(random_hmm(np.random.default_rng(73), 2, 3), kappa=0.52, eta=0.0)
    trees = pcfg.sample_tree(g, list(range(60)), max_expansions=100_000)
    sizes = [len(derivation) for derivation, _ in trees]
    assert max(sizes) > 4 * pcfg.TREE_UNIFORMS
    for seed, (derivation, ids) in enumerate(trees):
        want_text, want_ids = sample_tree_reference(g, seed, max_expansions=100_000)
        assert pcfg.bracketed(derivation, g.n_nonterminals) == want_text
        assert np.array_equal(ids, want_ids)
    # the cap still holds at exactly max_expansions nodes past the first block
    big = sizes.index(max(sizes))
    assert pcfg.sample_tree(g, [big], max_expansions=sizes[big])[0][0] == trees[big][0]
    with pytest.raises(RuntimeError, match=f"exceeded {sizes[big] - 1} expansions; the grammar is unlikely"):
        pcfg.sample_tree(g, [big], max_expansions=sizes[big] - 1)


def test_sample_tree_counts_and_yield():
    g = single_terminal_grammar(kappa=0.6)
    [(derivation, yield_ids)] = pcfg.sample_tree(g, [7])
    leaves, binaries = count_nodes(derivation, g.n_nonterminals)
    assert leaves == len(yield_ids)
    assert binaries == leaves - 2


def test_sample_tree_depth_cap():
    # kappa just above 1/2 gives long spines; a tiny cap must trip
    g = single_terminal_grammar(kappa=0.51)
    with pytest.raises(RuntimeError):
        pcfg.sample_tree(g, list(range(50)), max_expansions=3)


def test_sampled_trees_respect_linear_chain_structure():
    # eta = 0: every binary expansion keeps the parent state as its left child
    rng = np.random.default_rng(70)
    base = random_hmm(rng, 3, 4)
    g = pcfg.init_from_hmm(base, kappa=0.7, eta=0.0)
    d = g.n_nonterminals
    for derivation, _ in pcfg.sample_tree(g, list(range(30))):
        for head, production in derivation:
            if production < d * d and head != START:
                assert production // d == head


def test_canonical_comb_probability_matches_chain_product():
    # the comb with emitters as left children and the chain descending right
    # carries exactly the state-chain probability times kappa/1-kappa factors
    rng = np.random.default_rng(71)
    base = random_hmm(rng, 3, 4)
    kappa = 0.65
    g = pcfg.init_from_hmm(base, kappa=kappa, eta=0.0)
    states = [1, 0, 2, 1]
    symbols = [3, 0, 2, 2]
    n = len(states)

    d = g.n_nonterminals
    derivation = [(START, states[0] * d + states[1]), (states[0], d * d + symbols[0])]
    for t in range(1, n - 1):
        derivation += [(states[t], states[t] * d + states[t + 1]), (states[t], d * d + symbols[t])]
    derivation.append((states[-1], d * d + symbols[-1]))
    assert [production - d * d for _, production in derivation if production >= d * d] == symbols

    chain = base.initial[states[0]] * base.emission[states[0], symbols[0]]
    for t in range(1, n):
        chain *= base.transition[states[t - 1], states[t]] * base.emission[states[t], symbols[t]]
    want = math.log(chain * kappa**n * (1 - kappa) ** (n - 2))
    assert tree_log_probability(g, derivation) == pytest.approx(want, rel=1e-12)


def test_sample_tree_mean_length_and_length_marginal():
    g = single_terminal_grammar(kappa=0.6)
    lengths = np.array([len(ids) for _, ids in pcfg.sample_tree(g, list(range(4000)))])
    assert abs(lengths.mean() - 6.0) < 0.4  # sd ~ 7.75/sqrt(4000) ~ 0.12
    p2 = length_probability(g, 2)
    freq2 = (lengths == 2).mean()
    sigma = math.sqrt(p2 * (1 - p2) / len(lengths))
    assert abs(freq2 - p2) <= 4 * sigma


def test_bracketed_renders_a_comb_deeper_than_the_recursion_limit():
    # one nonterminal: production 0 rewrites z0 to (z0, z0), production 1 emits t0
    n = 3000
    derivation = [(START, 0), (0, 1)] + [(0, 0), (0, 1)] * (n - 2) + [(0, 1)]
    want = "(S " + "(z0 t0) (z0 " * (n - 2) + "(z0 t0) (z0 t0)" + ")" * (n - 1)
    assert pcfg.bracketed(derivation, 1) == want


def test_bracketed_export():
    g = single_terminal_grammar()
    [(derivation, _)] = pcfg.sample_tree(g, [0])
    text = pcfg.bracketed(derivation, g.n_nonterminals, symbols=["C"])
    assert text.startswith("(S ")
    assert "C" in text
