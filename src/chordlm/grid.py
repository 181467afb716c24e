"""The grid of a sweep: each cell trained, saved and scored, in this process
or in workers forked from it, and the rows written to results.csv.

``run_cell`` trains and evaluates one cell and returns its result row,
``forked_rows`` runs the cells of a grid in forked workers, and
``write_results`` flags each cell's best seeds and writes the table. Of the
commands only `train` and `sweep` load this module, and with it the
evaluation code, which a forked worker then need not import again.
"""

from __future__ import annotations

import csv
import dataclasses
import gc
import json
import os
import select
import signal
import time
import typing
from pathlib import Path

from . import evaluate, model_io
from .config import MODELS, Cell, ExperimentConfig

if typing.TYPE_CHECKING:
    from .cli import Prepared

RESULT_FIELDS = ["model", "size", "param_count", "N_X", "seed", "algo", "train_perplexity", "test_perplexity",
                 "error_rate", "rmrr", "wall_time"]
CSV_HEADER = RESULT_FIELDS + ["best_by_train", "best_by_test", "error"]


def _cell_row(cell: Cell) -> dict:
    """A result row of ``cell`` with its coordinates and nothing else yet; a failed cell keeps no best-seed flag."""
    row = dict.fromkeys(CSV_HEADER, "")
    row.update(model=cell.model, size=cell.size, N_X=cell.n_x, seed=cell.seed, algo=cell.algo)
    return row


def run_cell(cfg: ExperimentConfig, prepared: Prepared, cell: Cell, record_error: bool = True) -> dict:
    """Train and evaluate one grid cell on the data of ``prepared``; returns a
    result row. A failure goes into the row's error, so a sweep goes on, or is
    raised as it is if not ``record_error``."""
    row = _cell_row(cell)
    started = time.perf_counter()
    try:
        train, test = prepared.train[cell.n_x], prepared.test
        family = MODELS[cell.model]
        row["param_count"] = family.param_count(cell.size, prepared.vocab.size)

        model, log, train_log_ev = family.fit(train, prepared.vocab.size, cell.size, cell.algo, cfg,
                                              cell.seed_of(prepared.config_hash))

        models_dir = Path(cfg.out_dir) / "models"
        models_dir.mkdir(exist_ok=True)
        model_io.save_model(model, models_dir / f"{cell.name}.model", vocab_hash=prepared.vocab.content_hash())
        (models_dir / f"{cell.name}.log.json").write_text(json.dumps(log, sort_keys=True) + "\n", encoding="utf-8")

        row["train_perplexity"] = evaluate._perplexity(train, train_log_ev)
        report = evaluate.evaluate_model(model, test)
        row["test_perplexity"] = report.perplexity
        row["error_rate"] = report.error_rate
        row["rmrr"] = report.rmrr
    except Exception as exc:
        if not record_error:
            raise
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["wall_time"] = time.perf_counter() - started
    return row


def write_results(rows: list[dict], path: Path) -> Path:
    """Flag the best seeds of each cell and write ``rows`` to ``path`` as CSV, in their order."""
    # per-cell best-seed flags among the rows without an error, judged by training and by test perplexity
    groups: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows):
        if not row["error"]:
            groups.setdefault((row["model"], row["size"], row["N_X"], row["algo"]), []).append(i)
    for ok in groups.values():
        best_train = min(ok, key=lambda i: rows[i]["train_perplexity"])
        best_test = min(ok, key=lambda i: rows[i]["test_perplexity"])
        for i in ok:
            rows[i].update(best_by_train=int(i == best_train), best_by_test=int(i == best_test))

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows([row[c] for c in CSV_HEADER] for row in rows)  # a float is written as its repr
    return path


@dataclasses.dataclass
class _Worker:
    """A forked sweep worker as the sweep sees it."""

    pid: int
    results: typing.BinaryIO  # the read end of its result pipe
    tasks: int | None  # the write end of its task pipe, None once closed
    cell: int | None = None  # the index of the cell it runs

    def give(self, cell: int | None) -> None:
        """Send the worker ``cell``, or close its task pipe, which ends it, if None."""
        self.cell = cell
        try:
            if cell is not None:
                os.write(self.tasks, b"%d\n" % cell)
            else:
                self.close_tasks()
        except BrokenPipeError:
            pass  # the worker has died, and its result pipe's end says so

    def close_tasks(self) -> None:
        if self.tasks is not None:
            os.close(self.tasks)
            self.tasks = None


def forked_rows(run, cells: list[Cell], workers: int) -> list[dict]:
    """``run(cell)`` of every cell, in grid order, from ``workers`` processes
    forked from this one, which share what it has loaded.

    The cells go out largest first, by size and then by N_X, each to the next
    worker that is free (Graham's longest-processing-time rule). A worker reads
    a cell's index from its task pipe and writes the cell's row to its result
    pipe as one JSON line. A worker that dies costs the cell it was running,
    whose row records how it died, and the others run the rest. Every worker
    has exited when this returns or raises. A fork copies only the calling
    thread; chordlm starts no other, and ``import chordlm`` pins BLAS to one.
    """
    if not hasattr(os, "fork"):
        raise OSError("a sweep with more than one worker forks them, and this platform has no os.fork")

    pending = iter(sorted(range(len(cells)), key=lambda i: (-cells[i].size, -cells[i].n_x)))
    rows: list = [None] * len(cells)
    running: dict[int, _Worker] = {}  # by the file descriptor of its result pipe
    poller = select.poll()
    import numpy.random  # noqa: F401  (the cells' draws, loaded once here rather than in each worker)
    # Objects alive now move to the permanent generation, for good: a worker's
    # collections then touch none of the pages it shares with this process, and
    # this process, which only dispatches and writes results from here, skips
    # their collection at exit.
    gc.freeze()
    try:
        for _ in range(workers):
            task_r, task_w = os.pipe()
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                others = [*running, *(w.tasks for w in running.values() if w.tasks is not None)]
                _work(run, cells, task_r, result_w, [task_w, result_r, *others])
            os.close(task_r)
            os.close(result_w)
            running[result_r] = worker = _Worker(pid, open(result_r, "rb"), task_w)
            poller.register(result_r, select.POLLIN)
            worker.give(next(pending, None))
        while running:
            for fd, _ in poller.poll():
                worker = running[fd]
                line = worker.results.readline()  # a worker writes each row whole, so this waits on no other
                if line.endswith(b"\n"):
                    rows[worker.cell] = json.loads(line)
                    worker.give(next(pending, None))
                    continue
                del running[fd]  # the worker has exited
                poller.unregister(fd)
                worker.results.close()
                worker.close_tasks()
                code = os.waitstatus_to_exitcode(os.waitpid(worker.pid, 0)[1])
                if worker.cell is not None:
                    how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                    rows[worker.cell] = {**_cell_row(cells[worker.cell]),
                                         "error": f"ChildProcessError: the worker running this cell {how}"}
    finally:
        for worker in running.values():  # only a sweep that fails leaves workers running
            os.kill(worker.pid, signal.SIGKILL)
            os.waitpid(worker.pid, 0)
            worker.results.close()
            worker.close_tasks()
    for i in pending:  # every worker died before these cells ran
        rows[i] = {**_cell_row(cells[i]), "error": "ChildProcessError: no worker was left to run this cell"}
    return rows


def _work(run, cells: list[Cell], task_fd: int, result_fd: int, inherited: list[int]) -> typing.NoReturn:
    """A forked worker: the row of each cell whose index comes in on the task
    pipe, as a JSON line on the result pipe, until the task pipe closes. It
    first closes the ``inherited`` descriptors of the parent's other pipe
    ends, and ends by ``os._exit``, so it flushes none of the parent's stdio
    buffers and runs none of its exit handlers."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        with open(task_fd, "rb") as tasks, open(result_fd, "wb") as results:
            for line in tasks:
                results.write(json.dumps(run(cells[int(line)])).encode("utf-8") + b"\n")
                results.flush()
        status = 0
    finally:
        os._exit(status)
