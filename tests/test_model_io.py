import hashlib
import json
import re

import numpy as np
import pytest

from chordlm import cli, hmm, markov, model_io, pcfg
from chordlm.corpus import Vocabulary
from oracles import make_dataset


def test_markov_round_trip(tmp_path):
    data = make_dataset(["a b b a", "b a a"], symbols=["a", "b"])
    model = markov.fit(data, 2, order=2, smoothing="mkn")
    vocab = Vocabulary(symbols=["a", "b"])
    path = tmp_path / "m.model"
    model_io.save_model(model, path, vocab_hash=vocab.content_hash())
    loaded, vocab_hash = model_io.load_model(path)
    assert vocab_hash == vocab.content_hash()
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


@pytest.mark.parametrize("family", ["markov", "hmm", "pcfg"])
def test_rejects_content_after_the_last_table(tmp_path, family):
    model = {
        "markov": lambda: markov.fit([np.array([0, 1, 2])], 3, order=1, smoothing="additive", epsilon=0.1),
        "hmm": lambda: hmm.init_random(2, 3, seed=4),
        "pcfg": lambda: pcfg.init_random(2, 3, seed=4),
    }[family]()
    path = tmp_path / "x.model"
    model_io.save_model(model, path)
    saved = path.read_text()
    end = len(saved.splitlines())
    path.write_text(saved + "\n  \n")  # blank lines are no content
    model_io.load_model(path)
    path.write_text(saved + "\ntable junk 1 1\nnot a number\n")
    why = f"^line {end + 2}: unexpected content after the last table, 'table junk 1 1'$"
    with pytest.raises(ValueError, match=why):
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


def _pinned_models() -> dict:
    lines = [np.array(s) for s in ([0, 1, 2, 1, 0], [2, 0, 1], [1, 1, 2, 0], [0, 2])]
    return {
        "markov-additive": (markov.fit(lines, 3, order=2, smoothing="additive", epsilon=0.1), "abc123"),
        "markov-mkn": (markov.fit(lines, 3, order=2, smoothing="mkn"), None),
        "hmm": (hmm.init_random(3, 4, seed=2), "abc123"),
        "pcfg": (pcfg.init_random(2, 3, seed=1), None),
    }


@pytest.mark.parametrize(
    "family, sha256",
    [("markov-additive", "2e1c484dfbe5814a6714c6a58ecf37d8a0bb026c4627864abeddf1a7b9db4e80"),
     ("markov-mkn", "9aed1c67f169f6c11c481944b47ab6697cd67967dd3dd4a9c16c649346cf8c78"),
     ("hmm", "92bccd71c42eda515de931280405a378f61b15d68ccd7a2fe168f0ce46b78b0a"),
     ("pcfg", "5d70f88872f6f11034214e94013e653a19b7dcfcd7b5956517ffd3e781eaeb64")],
)
def test_the_file_format_is_pinned_and_a_reload_saves_the_same_bytes(tmp_path, family, sha256):
    model, vocab_hash = _pinned_models()[family]
    first, second = tmp_path / "first.model", tmp_path / "second.model"
    model_io.save_model(model, first, vocab_hash=vocab_hash)
    assert hashlib.sha256(first.read_bytes()).hexdigest() == sha256
    loaded, loaded_hash = model_io.load_model(first)
    assert loaded_hash == vocab_hash
    model_io.save_model(loaded, second, vocab_hash=loaded_hash)
    assert second.read_bytes() == first.read_bytes()


def test_a_huge_markov_order_fails_at_its_first_missing_table(tmp_path):
    # each table's shape is worked out only when it is read: an order of 10^9
    # must not build the shapes of all its tables first
    path = tmp_path / "m.model"
    model_io.save_model(markov.fit([np.array([0, 1, 2])], 3, order=1), path)
    path.write_text(path.read_text().replace("\norder 1\n", "\norder 1000000000\n"))
    with pytest.raises(ValueError, match="^line 10: expected table 'initial2'"):
        model_io.load_model(path)


@pytest.mark.parametrize(
    "smoothing, epsilon, why",
    [("additive", "nan", "additive smoothing requires a finite epsilon > 0, got nan"),
     ("additive", "inf", "additive smoothing requires a finite epsilon > 0, got inf"),
     ("additive", "0.0", "additive smoothing requires a finite epsilon > 0, got 0.0"),
     ("additive", "-1.0", "additive smoothing requires a finite epsilon > 0, got -1.0"),
     ("additive", "-", "additive smoothing requires a finite epsilon > 0, got None"),
     ("kn", "0.5", "kn smoothing takes no epsilon, got 0.5")],
    ids=["nan", "inf", "zero", "negative", "none", "kn-with-epsilon"],
)
def test_a_markov_file_epsilon_must_suit_its_smoothing(tmp_path, smoothing, epsilon, why):
    path = tmp_path / "m.model"
    model_io.save_model(markov.fit([np.array([0, 1, 2, 0, 1])], 3, order=1, smoothing=smoothing), path)
    text = path.read_text()
    saved = "0.1" if smoothing == "additive" else "-"
    path.write_text(text.replace(f"\nepsilon {saved}\n", f"\nepsilon {epsilon}\n"))
    with pytest.raises(ValueError, match=f"^{re.escape(why)}$"):
        model_io.load_model(path)


@pytest.mark.parametrize(
    "line, why",
    [("smoothing bogus", "line 6: unknown smoothing 'bogus'"),
     ("epsilon abc", "line 7: epsilon 'abc' is not a number")],
    ids=["smoothing", "epsilon"],
)
def test_a_bad_markov_header_line_is_named(tmp_path, line, why):
    path = tmp_path / "m.model"
    model_io.save_model(markov.fit([np.array([0, 1, 2])], 3, order=1, smoothing="additive"), path)
    key = line.split()[0]
    saved = {"smoothing": "additive", "epsilon": "0.1"}[key]
    path.write_text(path.read_text().replace(f"\n{key} {saved}\n", f"\n{line}\n"))
    with pytest.raises(ValueError, match=f"^{re.escape(why)}$"):
        model_io.load_model(path)


def test_save_refuses_what_is_no_model_and_writes_no_file(tmp_path):
    path = tmp_path / "x.model"
    with pytest.raises(TypeError, match="^cannot serialize object$"):
        model_io.save_model(object(), path)
    assert not path.exists()


def test_rejects_an_unknown_kind(tmp_path):
    path = tmp_path / "x.model"
    model_io.save_model(hmm.init_random(2, 3, seed=4), path)
    path.write_text(path.read_text().replace("\nkind hmm\n", "\nkind rnn\n"))
    with pytest.raises(ValueError, match="^unknown model kind 'rnn'$"):
        model_io.load_model(path)


def test_a_numpy_float_epsilon_is_written_as_a_number(tmp_path):
    path = tmp_path / "m.model"
    model_io.save_model(markov.fit([np.array([0, 1, 2])], 3, order=1, epsilon=np.float64(0.25)), path)
    assert "\nepsilon 0.25\n" in path.read_text()
    assert model_io.load_model(path)[0].epsilon == 0.25
