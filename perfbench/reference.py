"""Reference computations for checking chordlm's outputs, written apart from it.

Everything here reads the program's files itself (model files, vocabulary,
encoded id files) and recomputes in log space what the program computes with
scaled linear-space charts, so a shared mistake is unlikely. Nothing in this
module imports chordlm.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

MODEL_MAGIC = "chordlm-model v1"
VOCAB_MAGIC = "chordlm-vocab v1"


def lse(a: np.ndarray, axis) -> np.ndarray:
    """log-sum-exp that maps an all -inf slice to -inf."""
    m = np.max(a, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)) + m
    return np.squeeze(out, axis=axis)


def log(a) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(a, dtype=float))


# --------------------------------------------------------------- file readers


@dataclass
class ModelFile:
    kind: str
    vocab_size: int
    fields: dict[str, str]
    tables: dict[str, np.ndarray]


def read_model(path) -> ModelFile:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != MODEL_MAGIC:
        raise ValueError(f"{path}: missing {MODEL_MAGIC!r} header")
    fields: dict[str, str] = {}
    tables: dict[str, np.ndarray] = {}
    i = 1
    while i < len(lines):
        parts = lines[i].split()
        if parts[0] == "table":
            name, n_rows, n_cols = parts[1], int(parts[2]), int(parts[3])
            rows = [[float(x) for x in lines[i + 1 + r].split()] for r in range(n_rows)]
            tables[name] = np.array(rows, dtype=float).reshape(n_rows, n_cols)
            i += 1 + n_rows
        else:
            fields[parts[0]] = " ".join(parts[1:])
            i += 1
    return ModelFile(fields["kind"], int(fields["vocab_size"]), fields, tables)


def read_vocab(path) -> list[str]:
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln.strip()]
    if not lines or lines[0] != VOCAB_MAGIC:
        raise ValueError(f"{path}: missing {VOCAB_MAGIC!r} header")
    return [ln.split("\t")[1] for ln in lines[1:]]


def read_ids(path) -> list[np.ndarray]:
    text = Path(path).read_text(encoding="utf-8")
    return [np.array([int(t) for t in ln.split()], dtype=np.int64) for ln in text.splitlines() if ln.strip()]


# ------------------------------------------------------- row-stochastic check


def stochastic_rows(model: ModelFile) -> list[tuple[str, np.ndarray]]:
    """(label, rows) pairs whose every row must be a distribution."""
    t = model.tables
    if model.kind == "pcfg":
        d = int(model.fields["n_nonterminals"])
        start = np.concatenate([t["start_rules"].reshape(1, -1), t["start_emissions"]], axis=1)
        joint = np.concatenate([t["rules"].reshape(d, -1), t["emissions"]], axis=1)
        return [("start productions", start), ("nonterminal productions", joint)]
    return list(t.items())


# ------------------------------------------------------------- log evidence


def _markov_tables(model: ModelFile) -> tuple[list[np.ndarray], np.ndarray]:
    order, v = int(model.fields["order"]), model.vocab_size
    initial = [model.tables[f"initial{j}"].reshape((v,) * j) for j in range(1, order + 1)]
    return initial, model.tables["transitions"].reshape((v,) * (order + 1))


def markov_log_evidence(model: ModelFile, batch: np.ndarray) -> np.ndarray:
    """Sum of log n-gram probabilities, one value per row of an equal-length batch."""
    order = int(model.fields["order"])
    initial, transitions = _markov_tables(model)
    total = np.zeros(batch.shape[0])
    for pos in range(batch.shape[1]):
        if pos < order:
            p = initial[pos][tuple(batch[:, : pos + 1].T)]
        else:
            p = transitions[tuple(batch[:, pos - order: pos + 1].T)]
        total += log(p)
    return total


def _shifted_matmul(log_a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log(exp(log_a) @ b), with each row of log_a shifted by its maximum."""
    m = log_a.max(axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return log(np.exp(log_a - m) @ b) + m


def hmm_log_evidence(model: ModelFile, batch: np.ndarray) -> np.ndarray:
    """Log-space forward pass over an equal-length batch."""
    t = model.tables
    log_emit = log(t["emission"])
    alpha = log(t["initial"][0])[None, :] + log_emit[:, batch[:, 0]].T
    for pos in range(1, batch.shape[1]):
        alpha = _shifted_matmul(alpha, t["transition"]) + log_emit[:, batch[:, pos]].T
    return lse(alpha, axis=1)


def _pcfg_parts(model: ModelFile):
    t = model.tables
    d = int(model.fields["n_nonterminals"])
    return t["start_rules"], t["start_emissions"][0], t["rules"].reshape(d, d, d), t["emissions"]


def _apply_rules(pair: np.ndarray, rules: np.ndarray) -> np.ndarray:
    """log sum_{l,r} rules[z,l,r] * exp(pair[..., l, r]) for every z."""
    d = rules.shape[0]
    return _shifted_matmul(pair.reshape(pair.shape[:-2] + (d * d,)), rules.reshape(d, d * d).T)


def _cky(width_cells, n: int, start_rules: np.ndarray, rules: np.ndarray, start_single) -> np.ndarray:
    """Generic log-space CKY over spans. ``width_cells[i]`` holds the log
    inside vectors of the one-symbol spans, shape (..., D) each; returns the
    log inside value of the start symbol over the whole span."""
    if n == 1:
        return start_single
    chart = {(i, i): width_cells[i] for i in range(n)}
    top = None
    for w in range(2, n + 1):
        for i in range(n - w + 1):
            j = i + w - 1
            pairs = np.stack(
                [chart[i, k][..., :, None] + chart[k + 1, j][..., None, :] for k in range(i, j)]
            )
            pair = lse(pairs, axis=0)
            if w == n:
                top = lse((pair + log(start_rules)).reshape(pair.shape[:-2] + (-1,)), axis=-1)
            else:
                chart[i, j] = _apply_rules(pair, rules)
    return top


def pcfg_log_inside(model: ModelFile, batch: np.ndarray) -> np.ndarray:
    """Log evidence of each row of an equal-length batch under the grammar."""
    start_rules, start_emissions, rules, emissions = _pcfg_parts(model)
    n = batch.shape[1]
    cells = [log(emissions[:, batch[:, i]].T) for i in range(n)]
    return _cky(cells, n, start_rules, rules, log(start_emissions[batch[:, 0]]))


def pcfg_log_length(model: ModelFile, n: int) -> float:
    """log P(the grammar yields exactly n symbols): the inside recursion with
    every terminal cell summed over the alphabet."""
    start_rules, start_emissions, rules, emissions = _pcfg_parts(model)
    cell = log(emissions.sum(axis=1))
    return float(_cky([cell] * n, n, start_rules, rules, log(start_emissions.sum())))


def log_evidence(model: ModelFile, batch: np.ndarray) -> np.ndarray:
    if model.kind == "markov":
        return markov_log_evidence(model, batch)
    if model.kind == "hmm":
        return hmm_log_evidence(model, batch)
    return pcfg_log_inside(model, batch)


def perplexity(model: ModelFile, sequences: list[np.ndarray]) -> float:
    """exp of the mean negative log evidence per symbol; grammars are
    normalised within the set of sequences of each length."""
    by_len: dict[int, list[np.ndarray]] = {}
    for seq in sequences:
        by_len.setdefault(len(seq), []).append(seq)
    total, count = 0.0, 0
    for n, group in by_len.items():
        values = log_evidence(model, np.stack(group))
        if model.kind == "pcfg":
            values = values - pcfg_log_length(model, n)
        total += float(values.sum())
        count += n * len(group)
    return float(np.exp(-total / count)) if np.isfinite(total) else float("inf")


def predict_by_evidence_ratio(model: ModelFile, seq: np.ndarray, position: int) -> np.ndarray:
    """P(symbol at 1-based position | all others) as a ratio of full evidences."""
    v = model.vocab_size
    batch = np.repeat(seq[None, :], v, axis=0)
    batch[:, position - 1] = np.arange(v)
    values = log_evidence(model, batch)
    return np.exp(values - lse(values, axis=0))


# ------------------------------------------------------- grammar yield length


def pcfg_length_moments(model: ModelFile) -> tuple[float, float]:
    """Mean and variance of the yield length of a subcritical grammar, from the
    mean matrix of its branching process."""
    start_rules, start_emissions, rules, emissions = _pcfg_parts(model)
    d = rules.shape[0]
    mean_matrix = rules.sum(axis=2) + rules.sum(axis=1)  # expected z' children of z
    if np.max(np.abs(np.linalg.eigvals(mean_matrix))) >= 1.0:
        return float("inf"), float("inf")
    solve = np.linalg.inv(np.eye(d) - mean_matrix)
    emit = emissions.sum(axis=1)
    e = solve @ emit  # E[L_z]
    cross = np.einsum("zlr,l,r->z", rules, e, e)
    q = solve @ (emit + 2.0 * cross)  # E[L_z^2]
    mean = start_emissions.sum() + float((start_rules * (e[:, None] + e[None, :])).sum())
    second = start_emissions.sum() + float(
        (start_rules * (q[:, None] + q[None, :] + 2.0 * np.outer(e, e))).sum()
    )
    return mean, second - mean * mean


def param_count(kind: str, size: int, v: int) -> int:
    if kind == "markov":
        return sum(v**j for j in range(size + 1)) * (v - 1)
    if kind == "hmm":
        return (size - 1) + size * (size - 1) + size * (v - 1)
    return (size * size - 1) + size * (size * size + v - 1)
