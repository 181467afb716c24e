"""Run one chordlm command with the public functions of each module timed.

    python3 perfbench/tracing.py STATS.json <chordlm arguments...>

Each wrapped function records its number of calls, the time spent in those
calls (``total_s``) and that time less the time spent in wrapped functions it
called (``self_s``). Nothing in the program changes: the wrappers replace the
functions in every chordlm module namespace that refers to them, so calls from
inside a module are timed too. A function that no longer exists is left out of
STATS.json rather than failing the run. Sweep cells run in worker processes
are not seen, so the traced sweep uses one worker.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

LAYERS = {
    "corpus": ["parse_corpus", "build_vocabulary", "encode", "subsample"],
    "cli": ["cmd_prepare", "cmd_sweep", "cmd_generate"],
    "pcfg": [
        "inside", "outside", "em_fit", "gibbs_fit", "log_evidence_total",
        "normalized_log_evidence", "predict_distribution", "sample_tree",
    ],
    "hmm": [
        "em_fit", "gibbs_fit", "log_evidence_total", "forward_backward",
        "predict_distribution", "sample_sequence",
    ],
    "markov": [
        "fit", "MarkovModel.log_evidence", "MarkovModel.predict_distribution",
        "MarkovModel.sample_sequence",
    ],
    "evaluate": ["perplexity", "error_rate", "rmrr", "evaluate_model"],
    "model_io": ["save_model", "load_model"],
}


def traced_names() -> list[str]:
    return [f"{module}.{name}" for module, names in LAYERS.items() for name in names]


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self._child_time: list[float] = []

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        child_time = self._child_time

        def traced(*args, **kwargs):
            child_time.append(0.0)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                inner = child_time.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner
                if child_time:
                    child_time[-1] += elapsed

        return traced

    def install(self) -> None:
        modules = {m: importlib.import_module(f"chordlm.{m}") for m in LAYERS}
        for module_name, names in LAYERS.items():
            module = modules[module_name]
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, attr, None) if owner is not None else None
                if not callable(original):
                    continue
                wrapper = self.wrap(f"{module_name}.{name}", original)
                setattr(owner, attr, wrapper)
                if owner is module:  # rebind `from .x import f` copies elsewhere
                    for other in modules.values():
                        for key, value in list(vars(other).items()):
                            if value is original:
                                setattr(other, key, wrapper)

    def as_dict(self) -> dict:
        return {
            name: {"calls": int(c), "total_s": total, "self_s": own}
            for name, (c, total, own) in self.stats.items()
        }


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from chordlm import cli

    try:
        return cli.main(argv)
    finally:
        Path(stats_path).write_text(json.dumps(tracer.as_dict(), sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
