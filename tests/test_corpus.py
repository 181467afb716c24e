import numpy as np
import pytest

from chordlm import corpus
from chordlm.corpus import (
    Vocabulary,
    build_vocabulary,
    encode,
    parse_corpus,
    split,
    subsample,
)


def test_parse_basic():
    seqs = parse_corpus("C F G C\nAm Dm")
    assert seqs == [["C", "F", "G", "C"], ["Am", "Dm"]]


def test_parse_empty_input():
    assert parse_corpus("") == []


def test_parse_collapses_whitespace_and_blank_lines():
    seqs = parse_corpus("  C   G  \n\n")
    assert seqs == [["C", "G"]]


def test_build_vocabulary_counts():
    seqs = parse_corpus("C C C C C G G G F")
    vocab = build_vocabulary(seqs, k=2)
    assert vocab.symbols == ["C", "G", "Other"]
    assert vocab.size == 3
    assert vocab.counts == [5, 3, 1]
    assert vocab.index["Other"] == 2


def test_build_vocabulary_fewer_distinct_than_k():
    seqs = parse_corpus("C C C C C")
    vocab = build_vocabulary(seqs, k=10)
    assert vocab.symbols == ["C", "Other"]
    assert vocab.counts == [5, 0]


def test_build_vocabulary_lexicographic_tie_break():
    seqs = parse_corpus("C G\nG C")
    vocab = build_vocabulary(seqs, k=1)
    assert vocab.symbols == ["C", "Other"]


def test_build_vocabulary_empty_corpus():
    vocab = build_vocabulary([], k=3)
    assert vocab.symbols == ["Other"]


def test_build_vocabulary_literal_other_token():
    seqs = parse_corpus("C C Other G")
    vocab = build_vocabulary(seqs, k=3)
    assert vocab.symbols == ["C", "G", "Other"]
    assert vocab.counts == [2, 1, 1]  # the literal token counts toward the bucket
    data = encode(seqs, vocab)
    assert data[0].tolist() == [0, 0, vocab.index["Other"], 1]


def test_encode_oov():
    vocab = build_vocabulary(parse_corpus("C C G"), k=2)
    data = encode(parse_corpus("C F#m G"), vocab)
    assert data[0].tolist() == [vocab.index["C"], vocab.index["Other"], vocab.index["G"]]


def test_encode_empty_and_all_oov():
    vocab = build_vocabulary(parse_corpus("C"), k=1)
    assert len(encode([], vocab)) == 0
    data = encode(parse_corpus("X Y Z"), vocab)
    assert data[0].tolist() == [vocab.index["Other"]] * 3


def test_encode_round_trips_token_counts():
    rng = np.random.default_rng(7)
    alphabet = ["C", "F", "G", "Am", "Dm7", "G7sus4add9"]
    lines = []
    for _ in range(40):
        n = rng.integers(1, 12)
        lines.append(" ".join(alphabet[i] for i in rng.integers(0, len(alphabet), n)))
    seqs = parse_corpus("\n".join(lines))
    vocab = build_vocabulary(seqs, k=3)
    data = encode(seqs, vocab)
    total_tokens = sum(len(s) for s in seqs)
    assert sum(len(s) for s in data) == total_tokens
    # retained frequencies dominate replaced frequencies
    kept = {s: c for s, c in zip(vocab.symbols[:-1], vocab.counts[:-1])}
    from collections import Counter

    full = Counter(t for s in seqs for t in s)
    dropped = [c for s, c in full.items() if s not in kept]
    if dropped and kept:
        assert min(kept.values()) >= max(dropped)


def test_split_deterministic_and_disjoint():
    # give each sequence a distinguishable length
    data = [np.full(i + 1, 0, dtype=np.int64) for i in range(10)]
    train, test = split(data, test_count=3, seed=11)
    train2, test2 = split(data, test_count=3, seed=11)
    assert len(train) == 7 and len(test) == 3
    assert [len(s) for s in train] == [len(s) for s in train2]
    assert [len(s) for s in test] == [len(s) for s in test2]
    lengths = sorted(len(s) for s in train) + sorted(len(s) for s in test)
    assert sorted(lengths) == list(range(1, 11))


def test_split_edges():
    data = [np.zeros(2, dtype=np.int64) for _ in range(4)]
    train, test = split(data, 0, seed=0)
    assert len(test) == 0 and len(train) == 4
    train, test = split(data, 4, seed=0)
    assert len(train) == 0 and len(test) == 4
    with pytest.raises(ValueError):
        split(data, 5, seed=0)


def test_subsample_nested_and_deterministic():
    data = [np.full(i + 1, 0, dtype=np.int64) for i in range(300)]
    small = subsample(data, 30, seed=5)
    large = subsample(data, 200, seed=5)
    again = subsample(data, 30, seed=5)
    key = lambda ds: sorted(len(s) for s in ds)
    assert key(small) == key(again)
    assert set(key(small)) <= set(key(large))
    assert subsample(data, 300, seed=5) is not data
    assert key(subsample(data, 300, seed=5)) == key(data)
    with pytest.raises(ValueError):
        subsample(data, 0, seed=1)
    with pytest.raises(ValueError):
        subsample(data, 301, seed=1)


def test_subsample_is_the_side_that_split_takes_off():
    data = [np.full(i + 1, 0, dtype=np.int64) for i in range(50)]
    for n_x in (1, 7, 30, 50):
        for seed in (0, 5, 977):
            _, side = split(data, n_x, seed)
            assert [len(s) for s in subsample(data, n_x, seed)] == [len(s) for s in side]


def test_vocabulary_save_load_round_trip(tmp_path):
    vocab = build_vocabulary(parse_corpus("C C G F F F"), k=2)
    path = tmp_path / "vocab.txt"
    vocab.save(path)
    text = path.read_text()
    assert text.splitlines()[0] == corpus.VOCAB_MAGIC
    assert text.splitlines()[-1].endswith("Other\t1")  # Other last, aggregated count
    loaded = Vocabulary.load(path)
    assert loaded.symbols == vocab.symbols
    assert loaded.counts == vocab.counts
    assert loaded.content_hash() == vocab.content_hash()


@pytest.mark.parametrize(
    "bad, why",
    [("2\tX", r"not enough values to unpack \(expected 3, got 2\)"), ("two\tX\t3", "invalid literal"),
     ("2\tX\tmany", "invalid literal"), ("5\tX\t3", "not the next dense id 2"),
     ("2\tC\t3", "symbol 'C' already has id 0"), ("2\t\t3", "symbol '' is empty or holds whitespace"),
     ("2\tC D\t3", "symbol 'C D' is empty or holds whitespace"), ("2\tX\t-5", "count -5 is negative")],
    ids=["field-count", "id-not-an-int", "count-not-an-int", "non-dense-id", "duplicate-symbol", "empty-symbol",
         "symbol-with-whitespace", "negative-count"],
)
def test_a_malformed_vocabulary_line_names_its_file_and_line(tmp_path, bad, why):
    path = tmp_path / "vocab.txt"
    Vocabulary(symbols=["C", "Other"], counts=[3, 1]).save(path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n" + bad + "\n")  # a blank line still counts toward the line number
    with pytest.raises(ValueError, match=f"{path} line 5: .*{why}"):
        Vocabulary.load(path)


@pytest.mark.parametrize(
    "symbols, counts, why",
    [(["C D", "Other"], [1, 3], "symbol 'C D' is empty or holds whitespace"),
     (["", "Other"], [1, 3], "symbol '' is empty or holds whitespace"),
     (["C", "Other"], [-2, 3], "count -2 is negative"),
     (["C", "C", "Other"], [1, 1, 3], "symbol 'C' already has id 0")],
    ids=["symbol-with-whitespace", "empty-symbol", "negative-count", "duplicate-symbol"],
)
def test_a_vocabulary_that_load_would_refuse_cannot_be_built(symbols, counts, why):
    with pytest.raises(ValueError, match=f"^{why}$"):
        Vocabulary(symbols=symbols, counts=counts)


def test_every_vocabulary_that_prepare_builds_loads(tmp_path):
    text = "C G  Am\tF\nOther C G7 \u00a0G7\n\nDm7b5 C C\n"  # odd whitespace and a literal Other
    for k in (1, 2, 10):
        vocab = build_vocabulary(parse_corpus(text), k=k)
        vocab.save(tmp_path / "vocab.txt")
        loaded = Vocabulary.load(tmp_path / "vocab.txt")
        assert (loaded.symbols, loaded.counts) == (vocab.symbols, vocab.counts)


def test_a_file_without_the_vocabulary_header_is_named(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("0\tC\t3\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"{path} is not a vocabulary file"):
        Vocabulary.load(path)
