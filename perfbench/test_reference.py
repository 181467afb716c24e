"""The benchmark's reference code against brute-force enumeration on tiny inputs.

    python3 -m pytest perfbench/test_reference.py -q
"""

import itertools
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402


def stochastic(rng, shape):
    x = rng.uniform(0.05, 1.0, size=shape)
    return x / x.sum(axis=-1, keepdims=True)


def all_sequences(v, n):
    return [np.array(s, dtype=np.int64) for s in itertools.product(range(v), repeat=n)]


def hmm_model(rng, k, v):
    return ref.ModelFile("hmm", v, {"n_states": str(k)}, {
        "initial": stochastic(rng, (1, k)),
        "transition": stochastic(rng, (k, k)),
        "emission": stochastic(rng, (k, v)),
    })


def hmm_by_paths(m, seq):
    init, trans, emit = m.tables["initial"][0], m.tables["transition"], m.tables["emission"]
    total = 0.0
    for path in itertools.product(range(len(init)), repeat=len(seq)):
        p = init[path[0]] * emit[path[0], seq[0]]
        for t in range(1, len(seq)):
            p *= trans[path[t - 1], path[t]] * emit[path[t], seq[t]]
        total += p
    return total


def pcfg_model(rng, d, v, start_emit=0.0):
    joint = stochastic(rng, (d, d * d + v))
    start = stochastic(rng, (1, d * d + v))
    start[0, d * d:] *= start_emit
    start[0, : d * d] *= (1.0 - start[0, d * d:].sum()) / start[0, : d * d].sum()
    return ref.ModelFile("pcfg", v, {"n_nonterminals": str(d)}, {
        "start_rules": start[0, : d * d].reshape(d, d),
        "start_emissions": start[:, d * d:],
        "rules": joint[:, : d * d],
        "emissions": joint[:, d * d:],
    })


def pcfg_by_trees(m, seq):
    """Sum over every derivation tree of its probability, by plain recursion."""
    d = int(m.fields["n_nonterminals"])
    rules = m.tables["rules"].reshape(d, d, d)
    emit = m.tables["emissions"]

    def below(z, i, j):
        if i == j:
            return emit[z, seq[i]]
        return sum(
            rules[z, l, r] * below(l, i, k) * below(r, k + 1, j)
            for k in range(i, j) for l in range(d) for r in range(d)
        )

    n = len(seq)
    if n == 1:
        return m.tables["start_emissions"][0, seq[0]]
    return sum(
        m.tables["start_rules"][l, r] * below(l, 0, k) * below(r, k + 1, n - 1)
        for k in range(n - 1) for l in range(d) for r in range(d)
    )


def test_hmm_forward_matches_path_enumeration():
    rng = np.random.default_rng(0)
    m = hmm_model(rng, 2, 3)
    for n in range(1, 5):
        seqs = all_sequences(3, n)
        got = np.exp(ref.hmm_log_evidence(m, np.stack(seqs)))
        want = np.array([hmm_by_paths(m, s) for s in seqs])
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert abs(want.sum() - 1.0) < 1e-12


def test_markov_product_is_a_distribution_and_matches_lookup():
    rng = np.random.default_rng(1)
    v, order = 3, 2
    m = ref.ModelFile("markov", v, {"order": str(order)}, {
        "initial1": stochastic(rng, (1, v)),
        "initial2": stochastic(rng, (v, v)),
        "transitions": stochastic(rng, (v * v, v)),
    })
    for n in range(1, 5):
        seqs = all_sequences(v, n)
        got = np.exp(ref.markov_log_evidence(m, np.stack(seqs)))
        assert abs(got.sum() - 1.0) < 1e-12
        for s, g in zip(seqs, got):
            p = m.tables["initial1"][0, s[0]]
            if n > 1:
                p *= m.tables["initial2"][s[0], s[1]]
            for t in range(2, n):
                p *= m.tables["transitions"][s[t - 2] * v + s[t - 1], s[t]]
            assert math.isclose(g, p, rel_tol=1e-12)


def test_pcfg_inside_matches_tree_enumeration():
    rng = np.random.default_rng(2)
    m = pcfg_model(rng, 2, 2, start_emit=0.3)
    for n in range(1, 6):
        seqs = all_sequences(2, n)
        got = np.exp(ref.pcfg_log_inside(m, np.stack(seqs)))
        want = np.array([pcfg_by_trees(m, s) for s in seqs])
        np.testing.assert_allclose(got, want, rtol=1e-11)
        length = math.exp(ref.pcfg_log_length(m, n))
        assert math.isclose(length, want.sum(), rel_tol=1e-11)


def test_pcfg_length_moments_match_the_length_distribution():
    rng = np.random.default_rng(3)
    m = pcfg_model(rng, 2, 2)
    rules = m.tables["rules"]
    rules *= 0.15 / rules.sum(axis=1, keepdims=True)  # strongly subcritical
    m.tables["emissions"] *= 0.85 / m.tables["emissions"].sum(axis=1, keepdims=True)
    probs = np.array([math.exp(ref.pcfg_log_length(m, n)) for n in range(1, 60)])
    lengths = np.arange(1, 60)
    assert abs(probs.sum() - 1.0) < 1e-9
    mean, var = ref.pcfg_length_moments(m)
    assert math.isclose(mean, float(lengths @ probs), rel_tol=1e-9)
    assert math.isclose(var, float(lengths**2 @ probs) - mean**2, rel_tol=1e-8)


def test_evidence_ratio_prediction_matches_enumerated_conditional():
    rng = np.random.default_rng(4)
    m = hmm_model(rng, 2, 3)
    seq = np.array([2, 0, 1, 1])
    for pos in range(1, 5):
        joint = []
        for x in range(3):
            alt = seq.copy()
            alt[pos - 1] = x
            joint.append(hmm_by_paths(m, alt))
        want = np.array(joint) / sum(joint)
        np.testing.assert_allclose(ref.predict_by_evidence_ratio(m, seq, pos), want, rtol=1e-12)


def test_model_file_parser(tmp_path):
    path = tmp_path / "m.model"
    path.write_text(
        "chordlm-model v1\nkind hmm\nvocab_size 2\nvocab_hash -\nn_states 1\n"
        "table initial 1 1\n1.0\ntable transition 1 1\n1.0\ntable emission 1 2\n0.25 0.75\n"
    )
    m = ref.read_model(path)
    assert m.kind == "hmm" and m.vocab_size == 2
    np.testing.assert_array_equal(m.tables["emission"], [[0.25, 0.75]])
    assert math.isclose(math.exp(ref.hmm_log_evidence(m, np.array([[1, 1]]))[0]), 0.5625)
