"""End-to-end benchmark of chordlm, run through its command line.

    python3 perfbench/run.py --workload pcfg-em --seed 1 --seconds 20 --trace 0

Each run generates a corpus from the planted HMM in planted.py (the seed
picks the chords), then times set-up (importing chordlm, writing the corpus,
``chordlm prepare``) several times and reports the median. It then repeats
rounds of ``chordlm sweep`` and ``chordlm generate`` until ``--seconds`` are
used up, always finishing a round, and reports medians over rounds. Every
round must reproduce the same output digest; the last round's outputs are
checked against reference.py. ``--trace 1`` instead runs pairs of one-worker
rounds, untimed and timed per function (tracing.py), and reports per-layer
metrics and the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A failed check prints that object with
``correct: false``, names the workload and the check on stderr, and exits 1.
Everything is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path[:0] = [str(BENCH), str(SRC)]

import checks  # noqa: E402
import planted  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 5
CORPUS = "corpus.txt"  # one relative path on every run: the program's cell seeds hash it
RUN_DIR = "run"
LAUNCH = "import sys; from chordlm.cli import main; sys.exit(main())"

# Every cell runs its EM to the cap (rel_tol 0) and draws a fixed number of
# Gibbs samples, so a faster kernel shows as less time, never as less work.
COMMON = {"corpus": CORPUS, "out_dir": RUN_DIR, "vocab_k": 10, "data_seed": 0, "rel_tol": 0.0}


@dataclass
class Generate:
    model: str         # cell name under run/models
    count: int
    length: int | None  # None: a grammar, which picks its own lengths


@dataclass
class Workload:
    """One workload; README.md says why each exists."""

    lines: int
    min_len: int
    max_len: int
    single_chord_lines: int
    test_count: int
    train_sizes: list[int]
    sweeps: list[dict]
    generates: list[Generate]

    def config(self, sweep: dict) -> dict:
        return {**COMMON, "test_count": self.test_count, "train_sizes": self.train_sizes, **sweep}


WORKLOADS = {
    "pcfg-em": Workload(
        lines=68, min_len=4, max_len=10, single_chord_lines=0,
        test_count=8, train_sizes=[60],
        sweeps=[{"model": "pcfg", "sizes": [4, 20], "algos": ["em"], "seeds": [0, 1],
                 "em_max_iter": 2, "pcfg_init": "random"}],
        generates=[Generate("pcfg_s4_nx60_em_seed0", 1500, None),
                   Generate("pcfg_s20_nx60_em_seed0", 1500, None)],
    ),
    "pcfg-gibbs": Workload(
        lines=45, min_len=4, max_len=10, single_chord_lines=0,
        test_count=5, train_sizes=[40],
        sweeps=[{"model": "pcfg", "sizes": [4, 8], "algos": ["gs"], "seeds": [0, 1],
                 "gs_samples": 6, "polish_iters": 2, "pcfg_init": "hmm"}],
        generates=[Generate("pcfg_s4_nx40_gs_seed0", 2000, None),
                   Generate("pcfg_s8_nx40_gs_seed0", 2000, None)],
    ),
    "hmm-markov-sweep": Workload(
        lines=252, min_len=1, max_len=20, single_chord_lines=8,
        test_count=12, train_sizes=[60, 240],
        sweeps=[
            {"model": "hmm", "sizes": [2, 12, 100], "algos": ["em", "gs"], "seeds": [0],
             "em_max_iter": 10, "gs_samples": 10, "polish_iters": 3},
            {"model": "markov", "sizes": [1, 2, 3], "algos": ["additive"], "seeds": [0]},
        ],
        generates=[Generate("hmm_s12_nx240_gs_seed0", 1000, 16),
                   Generate("markov_s3_nx240_additive_seed0", 1000, 16)],
    ),
}


# ------------------------------------------------------------- processes


class CommandFailed(Exception):
    pass


@dataclass
class Tally:
    """Operations attempted and failed: prepares, sweep cells and generates."""

    attempted: int = 0
    failed: int = 0


def spawn(cmd: list[str], cwd: Path) -> tuple[float, float]:
    """Run one process to its end; returns (wall seconds, peak RSS in MB of
    the process and of the workers it waited for)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one BLAS thread per process: the sweep's workers already fill the CPUs
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    with open(cwd / "stdout.log", "ab") as out, open(cwd / "stderr.log", "ab") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        what = " ".join(cmd[3:]) or cmd[-1]
        raise CommandFailed(f"`{what}` exited {proc.returncode}; see {cwd / 'stderr.log'}")
    return wall, usage.ru_maxrss / 1024.0


def run_cli(args: list[str], cwd: Path, tally: Tally, ops: int = 1, trace_to: Path | None = None):
    """Run one chordlm command that performs ``ops`` operations, all of which
    count as failed if the command fails."""
    if trace_to is None:
        cmd = [sys.executable, "-c", LAUNCH]
    else:
        cmd = [sys.executable, str(BENCH / "tracing.py"), str(trace_to)]
    tally.attempted += ops
    try:
        return spawn(cmd + args, cwd)
    except CommandFailed:
        tally.failed += ops
        raise


# ----------------------------------------------------------------- rounds


def setup_once(work: Path, spec: Workload, text: str, tally: Tally) -> float:
    """One timed set-up from an empty directory: import, corpus write, prepare."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for i, sweep in enumerate(spec.sweeps):
        (work / f"config{i}.json").write_text(json.dumps(spec.config(sweep), indent=1) + "\n")
    import_s, _ = spawn([sys.executable, "-c", "import chordlm"], work)
    started = time.perf_counter()
    (work / CORPUS).write_text(text, encoding="utf-8")
    write_s = time.perf_counter() - started
    prepare_s, _ = run_cli(["prepare", "--config", "config0.json"], work, tally)
    return import_s + write_s + prepare_s


def run_round(work: Path, spec: Workload, workers: int, seed: int, tally: Tally,
              trace_dir: Path | None = None, prepare: bool = False) -> dict:
    """One sweep-and-generate round; returns its timings and output paths."""
    run = work / RUN_DIR
    shutil.rmtree(run / "models", ignore_errors=True)
    for old in run.glob("results*.csv"):
        old.unlink()
    commands = 0

    def cli(args, ops=1):
        nonlocal commands
        commands += 1
        trace_to = trace_dir / f"{commands}.json" if trace_dir else None
        return run_cli(args, work, tally, ops, trace_to)

    wall = cli(["prepare", "--config", "config0.json"])[0] if prepare else 0.0
    sweep_s, peak, results = 0.0, 0.0, []
    for i, sweep in enumerate(spec.sweeps):
        cells = len(spec.train_sizes) * len(sweep["sizes"]) * len(sweep["algos"]) * len(sweep["seeds"])
        t, rss = cli(["sweep", "--config", f"config{i}.json", "--workers", str(workers)], cells)
        sweep_s += t
        peak = max(peak, rss)
        results.append(run / f"results{i}.csv")
        (run / "results.csv").rename(results[-1])
    rows = [r for path in results for r in checks.read_rows(path)]
    tally.failed += sum(1 for r in rows if r["error"])

    generate_s, outputs = 0.0, []
    for i, g in enumerate(spec.generates):
        out = work / f"generated{i}.txt"
        args = ["generate", "--model-file", f"{RUN_DIR}/models/{g.model}.model",
                "--vocab-file", f"{RUN_DIR}/vocab.txt", "--count", str(g.count),
                "--seed", str(seed), "--out", out.name]
        if g.length is not None:
            args += ["--length", str(g.length)]
        t, rss = cli(args)
        generate_s += t
        peak = max(peak, rss)
        outputs.append(out)
    return {
        "sweep_s": sweep_s, "generate_s": generate_s, "peak_rss_mb": peak,
        "wall_s": wall + sweep_s + generate_s, "rows": rows, "generated": outputs,
        "digest": checks.digest(run, results),
    }


def check_outputs(work: Path, spec: Workload, rnd: dict) -> dict:
    """All reference checks on one round's outputs; returns output counts."""
    from chordlm import model_io  # the program's own loader, for its predictions

    run = work / RUN_DIR
    vocab = ref.read_vocab(run / "vocab.txt")
    test = ref.read_ids(run / "test.ids")
    corpus_symbols = set((work / CORPUS).read_text(encoding="utf-8").split())
    checks.expect(len(vocab) == COMMON["vocab_k"] + 1 and vocab[-1] == "Other", "vocabulary", str(vocab))
    checks.expect(len(corpus_symbols) > COMMON["vocab_k"], "vocabulary", "corpus too small to need Other")
    checks.expect(len(test) == spec.test_count, "test-split", f"{len(test)} test lines")

    grids = {}
    for sweep in spec.sweeps:
        cfg = spec.config(sweep)
        grids[sweep["model"]] = {k: cfg.get(k) for k in ("em_max_iter", "gs_samples", "polish_iters")}
    counts = {f"{m}.{c}": 0 for m in ("hmm", "pcfg") for c in ("em_fit.iterations", "gibbs_fit.samples")}
    positions = 0
    for row in rnd["rows"]:
        if row["error"]:
            continue
        got = checks.check_cell(run, row, grids[row["model"]], len(vocab), test, model_io.load_model)
        if row["model"] != "markov":
            counts[f"{row['model']}.em_fit.iterations"] += got["em_iterations"]
            counts[f"{row['model']}.gibbs_fit.samples"] += got["gibbs_samples"]
        positions += sum(len(s) for s in test)
    counts["evaluate.positions"] = positions

    for g, path in zip(spec.generates, rnd["generated"]):
        checks.check_generated(path, vocab, g.count, g.length, run / "models" / f"{g.model}.model")
    return counts


def planted_report(work: Path, rows: list[dict]) -> str:
    """The planted model's test perplexity beside the best fitted one."""
    run = work / RUN_DIR
    vocab = ref.read_vocab(run / "vocab.txt")
    model = planted.PlantedHmm()
    folded = ref.ModelFile("hmm", len(vocab), {}, {
        "initial": model.initial[None, :], "transition": model.transition,
        "emission": model.emission_over(vocab, "Other"),
    })
    truth = ref.perplexity(folded, ref.read_ids(run / "test.ids"))
    best = {}
    for r in rows:
        if not r["error"]:
            best[r["model"]] = min(best.get(r["model"], float("inf")), float(r["test_perplexity"]))
    fitted = ", ".join(f"best {m} {p:.4f}" for m, p in sorted(best.items()))
    return f"test perplexity: planted HMM {truth:.4f}, {fitted}"


# ------------------------------------------------------------------- main


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(spec: Workload, work: Path, seed: int, seconds: float, tally: Tally):
    workers = max(1, min(2, len(os.sched_getaffinity(0))))
    rounds, started = [], time.perf_counter()
    while True:
        rounds.append(run_round(work, spec, workers, seed, tally))
        r = rounds[-1]
        print(f"round {len(rounds)}: sweep {r['sweep_s']:.3f} s, generate {r['generate_s']:.3f} s, "
              f"peak {r['peak_rss_mb']:.1f} MB")
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(rounds) > seconds:
            break
    metrics = {
        name: metric(statistics.median(r[name] for r in rounds), unit)
        for name, unit in (("sweep_s", "s"), ("generate_s", "s"), ("peak_rss_mb", "MB"))
    }
    return rounds, metrics


def measure_traced(spec: Workload, work: Path, seed: int, seconds: float, tally: Tally):
    """Pairs of one-worker rounds, plain then traced; medians over pairs."""
    pairs, started = [], time.perf_counter()
    names = tracing.traced_names()
    while True:
        plain = run_round(work, spec, 1, seed, tally, prepare=True)
        trace_dir = work / f"trace{len(pairs)}"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir()
        traced = run_round(work, spec, 1, seed, tally, trace_dir=trace_dir, prepare=True)
        totals: dict[str, list[float]] = {}
        for path in sorted(trace_dir.glob("*.json")):
            for name, s in json.loads(path.read_text()).items():
                acc = totals.setdefault(name, [0, 0.0, 0.0])
                acc[0] += s["calls"]
                acc[1] += s["total_s"]
                acc[2] += s["self_s"]
        pairs.append((plain, traced, totals))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(pairs) > seconds:
            break
    metrics = {}
    for name in names:
        if name not in pairs[0][2]:
            continue  # renamed or removed in the program: reported as absent
        for i, (suffix, unit) in enumerate((("calls", "count"), ("total_s", "s"), ("self_s", "s"))):
            metrics[f"{name}.{suffix}"] = metric(statistics.median(p[2][name][i] for p in pairs), unit)
    absent = [n for n in names if n not in pairs[0][2]]
    if absent:
        print(f"absent from the program: {', '.join(absent)}", file=sys.stderr)
    overhead = statistics.median(t["wall_s"] - p["wall_s"] for p, t, _ in pairs)
    metrics["trace.overhead_s"] = metric(overhead, "s")
    return [r for plain, traced, _ in pairs for r in (plain, traced)], metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "chordlm" / "cli.py").is_file():
        print(f"chordlm sources not found at {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    work = OUT / args.workload
    lengths = planted.length_schedule(spec.lines, spec.min_len, spec.max_len, spec.single_chord_lines)
    text = planted.corpus_text(args.seed, lengths)
    tally = Tally()
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        repeats = 1 if args.trace else SETUP_REPEATS
        setup = [setup_once(work, spec, text, tally) for _ in range(repeats)]
        if args.trace:
            rounds, metrics = measure_traced(spec, work, args.seed, args.seconds, tally)
        else:
            rounds, metrics = measure(spec, work, args.seed, args.seconds, tally)
            metrics = {"setup_s": metric(statistics.median(setup), "s"), **metrics}
        digests = {r["digest"] for r in rounds}
        print(f"output digest: {' '.join(sorted(digests))} over {len(rounds)} rounds")
        if len(digests) != 1:
            raise checks.CheckFailed("digest", f"{len(digests)} different outputs over {len(rounds)} rounds")
        started = time.perf_counter()
        counts = check_outputs(work, spec, rounds[-1])
        print(f"output checks passed in {time.perf_counter() - started:.1f} s")
        if args.trace:
            metrics.update({name: metric(value, "count") for name, value in counts.items()})
        print(planted_report(work, rounds[-1]["rows"]))
        result["correct"] = True
    except checks.CheckFailed as exc:
        print(f"workload {args.workload}: check {exc.check} failed: {exc}", file=sys.stderr)
    except CommandFailed as exc:
        print(f"workload {args.workload}: {exc}", file=sys.stderr)
    result.update(attempted=max(tally.attempted, 1), failed=tally.failed, metrics=metrics if result["correct"] else {})
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
