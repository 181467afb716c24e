"""Output checks for one benchmark round, against reference.py and against
properties the methods must have. Each failed check raises CheckFailed with
the check's name."""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

import reference as ref

PERPLEXITY_RTOL = 1e-8
PREDICT_ATOL = 1e-9
ROW_ATOL = 1e-9
EM_RTOL = 1e-9
LENGTH_Z = 6.0  # standard errors allowed between sampled and expected mean length


class CheckFailed(Exception):
    def __init__(self, check: str, message: str):
        super().__init__(f"{check}: {message}")
        self.check = check


def expect(ok: bool, check: str, message: str) -> None:
    if not ok:
        raise CheckFailed(check, message)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def cell_name(row: dict) -> str:
    return f"{row['model']}_s{row['size']}_nx{row['N_X']}_{row['algo']}_seed{row['seed']}"


def digest(run_dir: Path, results: list[Path]) -> str:
    """sha256 over every model and log file and every results row without its
    wall_time column."""
    h = hashlib.sha256()
    for path in sorted((run_dir / "models").iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    for path in results:
        lines = path.read_text(encoding="utf-8").splitlines()
        drop = lines[0].split(",").index("wall_time")
        for line in lines:
            cols = line.split(",")
            h.update(",".join(cols[:drop] + cols[drop + 1:]).encode() + b"\n")
    return h.hexdigest()


def check_cell(run_dir: Path, row: dict, grid: dict, vocab_size: int, test, load_model) -> dict:
    """Every check on one trained cell; returns the counts read from its log.
    ``load_model`` is the program's own loader, whose models make the
    predictions under test."""
    name = cell_name(row)
    model = ref.read_model(run_dir / "models" / f"{name}.model")
    kind, size = row["model"], int(row["size"])

    for label, rows in ref.stochastic_rows(model):
        flat = rows.reshape(-1, rows.shape[-1])
        expect(np.isfinite(flat).all() and (flat >= 0).all(), "rows-nonnegative", f"{name} {label}")
        worst = float(np.abs(flat.sum(axis=1) - 1.0).max())
        expect(worst <= ROW_ATOL, "rows-sum-to-one", f"{name} {label} off by {worst:.3g}")
    expect(
        int(row["param_count"]) == ref.param_count(kind, size, vocab_size),
        "param-count", f"{name} reports {row['param_count']}",
    )

    train = ref.read_ids(run_dir / f"train_nx{row['N_X']}.ids")
    for split, seqs in (("train", train), ("test", test)):
        want = ref.perplexity(model, seqs)
        got = float(row[f"{split}_perplexity"])
        expect(
            got == want or abs(got - want) <= PERPLEXITY_RTOL * want,
            "perplexity", f"{name} {split} perplexity {got!r} != reference {want!r}",
        )
    expect(0.0 <= float(row["error_rate"]) <= 1.0, "error-rate-range", name)
    expect(float(row["rmrr"]) >= 1.0, "rmrr-range", name)

    # a fixed sample of positions: middle of the first test line, end of the second
    program_model, _ = load_model(run_dir / "models" / f"{name}.model")
    for seq, pos in ((test[0], len(test[0]) // 2 + 1), (test[1], len(test[1]))):
        if kind == "pcfg" and len(seq) < 2:
            continue
        want = ref.predict_by_evidence_ratio(model, seq, pos)
        got = program_model.predict_distribution(seq, pos)
        gap = float(np.abs(np.asarray(got) - want).max())
        expect(gap <= PREDICT_ATOL, "predict-evidence-ratio", f"{name} position {pos} off by {gap:.3g}")

    counts = {"em_iterations": 0, "gibbs_samples": 0}
    if kind == "markov":
        return counts
    log = json.loads((run_dir / "models" / f"{name}.log.json").read_text())
    if row["algo"] == "em":
        trace, cap = log["log_likelihood"], grid["em_max_iter"]
    else:
        trace, cap = log["polish_log_likelihood"], grid["polish_iters"]
        samples = len(log["sample_log_evidence"])
        expect(samples == grid["gs_samples"], "gibbs-sample-count", f"{name} drew {samples}")
        counts["gibbs_samples"] = samples
    for a, b in zip(trace, trace[1:]):
        expect(b >= a - EM_RTOL * abs(a), "em-non-decreasing", f"{name}: {a!r} then {b!r}")
    expect(len(trace) == cap + 1, "em-runs-to-cap", f"{name} stopped after {len(trace) - 1} of {cap}")
    counts["em_iterations"] = len(trace) - 1
    return counts


def check_generated(path: Path, vocab: list[str], count: int, length: int | None, model_path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    name = path.name
    expect(len(lines) == count, "generate-count", f"{name} has {len(lines)} lines, asked for {count}")
    known = set(vocab)
    lengths = []
    for line in lines:
        symbols = line.split()
        expect(set(symbols) <= known, "generate-vocabulary", f"{name}: {sorted(set(symbols) - known)}")
        lengths.append(len(symbols))
    if length is not None:
        expect(set(lengths) == {length}, "generate-length", f"{name} lengths {sorted(set(lengths))}")
        return
    mean, var = ref.pcfg_length_moments(ref.read_model(model_path))
    got = float(np.mean(lengths))
    tol = LENGTH_Z * (var / count) ** 0.5
    expect(
        abs(got - mean) <= tol,
        "pcfg-mean-yield-length", f"{name} mean {got:.4f}, expected {mean:.4f} +- {tol:.4f}",
    )
