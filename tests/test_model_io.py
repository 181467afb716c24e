import json

import numpy as np
import pytest

from chordlm import cli, hmm, markov, model_io, pcfg
from oracles import make_dataset


def test_markov_round_trip(tmp_path):
    data = make_dataset(["a b b a", "b a a"], symbols=["a", "b"])
    model = markov.fit(data, order=2, smoothing="mkn")
    path = tmp_path / "m.model"
    model_io.save_model(model, path, vocab_hash=data.vocab.content_hash())
    loaded, vocab_hash = model_io.load_model(path)
    assert vocab_hash == data.vocab.content_hash()
    assert loaded.order == 2
    assert loaded.smoothing == "mkn"
    assert loaded.epsilon is None
    for a, b in zip(loaded.initial_tables, model.initial_tables):
        assert np.array_equal(a, b)
    assert np.array_equal(loaded.transitions, model.transitions)


def test_hmm_round_trip(tmp_path):
    model = hmm.init_random(3, 5, seed=2)
    path = tmp_path / "h.model"
    model_io.save_model(model, path)
    loaded, vocab_hash = model_io.load_model(path)
    assert vocab_hash is None
    assert np.array_equal(loaded.initial, model.initial)
    assert np.array_equal(loaded.transition, model.transition)
    assert np.array_equal(loaded.emission, model.emission)


def test_pcfg_round_trip(tmp_path):
    model = pcfg.init_random(3, 4, seed=8)
    path = tmp_path / "p.model"
    model_io.save_model(model, path, vocab_hash="abc123")
    loaded, vocab_hash = model_io.load_model(path)
    assert vocab_hash == "abc123"
    assert np.array_equal(loaded.start_rules, model.start_rules)
    assert np.array_equal(loaded.start_emissions, model.start_emissions)
    assert np.array_equal(loaded.rules, model.rules)
    assert np.array_equal(loaded.emissions, model.emissions)


def test_saves_are_byte_identical(tmp_path):
    model = hmm.init_random(2, 3, seed=0)
    p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
    model_io.save_model(model, p1)
    model_io.save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_garbage(tmp_path):
    path = tmp_path / "x.model"
    path.write_text("not a model\n")
    with pytest.raises(ValueError):
        model_io.load_model(path)


def test_rejects_non_finite_value(tmp_path, capsys):
    model = hmm.init_random(2, 3, 0)
    model.emission[0, 1] = np.nan
    path = tmp_path / "nan.model"
    model_io.save_model(model, path)
    with pytest.raises(ValueError, match="table emission has a value that is not finite"):
        model_io.load_model(path)
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("a\nb\nc\n")
    args = ["generate", "--model-file", str(path), "--vocab-file", str(vocab), "--length", "3"]
    assert cli.main(args) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "ValueError"


def test_rejects_truncated_file(tmp_path):
    path = tmp_path / "t.model"
    model_io.save_model(pcfg.init_random(2, 3, seed=1), path)
    lines = path.read_text().splitlines()
    for keep in range(1, len(lines)):
        path.write_text("\n".join(lines[:keep]) + "\n")
        with pytest.raises(ValueError, match=f"line {keep + 1}: unexpected end of file"):
            model_io.load_model(path)


def test_rejects_wrong_shape_and_unnormalized_rows(tmp_path):
    path = tmp_path / "s.model"
    model_io.save_model(hmm.init_random(2, 3, seed=4), path)
    text = path.read_text()
    path.write_text(text.replace("table transition 2 2", "table transition 2 3"))
    with pytest.raises(ValueError, match="table transition has shape 2 x 3, expected 2 x 2"):
        model_io.load_model(path)

    model = hmm.init_random(2, 3, seed=4)
    model.transition[1] *= 1.5
    model_io.save_model(model, path)
    with pytest.raises(ValueError, match="transition matrix rows do not sum to 1"):
        model_io.load_model(path)
