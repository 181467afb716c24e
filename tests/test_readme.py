"""The README's code runs as written."""

from __future__ import annotations

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _fenced_block_under(heading: str) -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n{heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_the_library_example_runs_on_a_planted_corpus(bench, tmp_path, monkeypatch, capsys):
    lengths = [4 + (7 * i) % 9 for i in range(60)]  # 60 lines of 4 to 12 chords
    (tmp_path / "chords.txt").write_text(bench["planted"].corpus_text(5, lengths), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(_fenced_block_under("## Library"), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    scores = {name: (float(ppl), float(err)) for name, ppl, err in (ln.split() for ln in lines[:3])}
    assert list(scores) == ["markov", "hmm", "pcfg"]
    assert all(1.0 <= ppl < math.inf and 0.0 <= err <= 1.0 for ppl, err in scores.values())
    assert lines[-1].startswith("(S ")
