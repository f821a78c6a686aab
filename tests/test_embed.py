import math
import os
import re
import string
import tempfile
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citegraph.corpus import PaperRecord, build_text
from citegraph.embed import (EmbeddingMatrix, embed_corpus, hash_embed,
                             load_embeddings, tokenize, write_embeddings)
from citegraph.graph import build_graph

from helpers import oracle_cosine, oracle_hash_embed, oracle_write_embeddings


def small_graph(ids):
    return build_graph([PaperRecord(id=pid) for pid in ids])


def write_tsv(path, rows, dim, count=None):
    lines = [f"{count if count is not None else len(rows)}\t{dim}"]
    for pid, values in rows:
        lines.append(pid + "\t" + "\t".join(repr(float(v)) for v in values))
    path.write_text("\n".join(lines) + "\n")


def test_tokenize_lowercase_nonalnum_split():
    assert tokenize("Graph-Attention, networks! 2024") == \
        ["graph", "attention", "networks", "2024"]
    assert tokenize("") == []


# ASCII punctuation, '_', digits, the ASCII whitespace that is not ' '
# (\x0b, \x0c and the separators \x1c-\x1f, which str.split also splits
# on), and non-ASCII letters, digits and spaces
TOKEN_CHARS = (string.printable + "_\x00\x0b\x0c\x1c\x1d\x1e\x1f\x7f"
               + "éßİ東京٣\u00a0\u2028")


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(st.characters(max_codepoint=127)),
                      st.text(st.sampled_from(TOKEN_CHARS)), st.text()))
@example(text="Graph_Attention\x0bNETS\x1c2024\x1fx1-y2")
@example(text="naïve Straße, İstanbul_東京 ٣4")
def test_tokenize_equals_regex_runs(text):
    assert tokenize(text) == re.findall(r"[^\W_]+", text.lower())


def test_load_embeddings_aligns_and_normalizes(tmp_path):
    g = small_graph(["a", "b"])
    path = tmp_path / "emb.tsv"
    write_tsv(path, [("b", [3.0, 4.0]), ("a", [1.0, 0.0])], dim=2)
    m = load_embeddings(str(path), g)
    assert m.ids == ("a", "b")
    assert np.allclose(m.vectors[0], [1.0, 0.0])
    assert np.allclose(m.vectors[1], [0.6, 0.8])
    assert abs(np.linalg.norm(m.vectors[1]) - 1.0) < 1e-6


def test_load_embeddings_missing_id(tmp_path):
    g = small_graph(["a", "b"])
    path = tmp_path / "emb.tsv"
    write_tsv(path, [("a", [1.0, 0.0])], dim=2)
    with pytest.raises(ValueError, match="missing node ids: b"):
        load_embeddings(str(path), g)


def test_load_embeddings_duplicate_id(tmp_path):
    g = small_graph(["a"])
    path = tmp_path / "emb.tsv"
    write_tsv(path, [("a", [1.0]), ("a", [2.0])], dim=1)
    with pytest.raises(ValueError, match="duplicate"):
        load_embeddings(str(path), g)


def test_load_embeddings_dim_mismatch(tmp_path):
    g = small_graph(["a"])
    path = tmp_path / "emb.tsv"
    path.write_text("1\t3\na\t1.0\t2.0\n")
    with pytest.raises(ValueError, match="expected 3 values"):
        load_embeddings(str(path), g)


def test_load_embeddings_header_count_mismatch(tmp_path):
    g = small_graph(["a"])
    path = tmp_path / "emb.tsv"
    write_tsv(path, [("a", [1.0])], dim=1, count=5)
    with pytest.raises(ValueError, match="header declared"):
        load_embeddings(str(path), g)


def test_load_embeddings_non_numeric_names_line_and_id(tmp_path):
    g = small_graph(["a", "b", "c"])
    path = tmp_path / "emb.tsv"
    # the duplicate id comes later in the file, so it is not reported
    path.write_text("3\t2\na\t1.0\t2.0\n\nb\t1.0\tabc\nc\t1\t2\nc\t1\t2\n")
    with pytest.raises(ValueError,
                       match="line 4: non-numeric value in row for id 'b'"):
        load_embeddings(str(path), g)


def test_load_embeddings_header_only_is_value_error(tmp_path):
    g = small_graph(["a"])
    path = tmp_path / "emb.tsv"
    path.write_text("0\t4\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="missing node ids: a"):
            load_embeddings(str(path), g)


def test_write_then_load_round_trip(tmp_path):
    records = [PaperRecord(id=f"p{i}", title=f"title {i} words")
               for i in range(5)]
    g = build_graph(records)
    m = embed_corpus(records, dim=16, seed=3)
    path = tmp_path / "emb.tsv"
    write_embeddings(str(path), m)
    loaded = load_embeddings(str(path), g)
    # loading re-normalizes, so equality holds to within an ulp of the norm
    assert np.allclose(loaded.vectors, m.vectors, atol=1e-12, rtol=0.0)


def test_hash_embed_empty_and_deterministic():
    assert np.all(hash_embed("", 8) == 0.0)
    a = hash_embed("graph attention networks", 64, seed=1)
    b = hash_embed("graph attention networks", 64, seed=1)
    assert np.array_equal(a, b)
    c = hash_embed("graph attention networks", 64, seed=2)
    assert not np.array_equal(a, c)


def test_hash_embed_bag_of_words():
    a = hash_embed("graph attention", 32, seed=0)
    b = hash_embed("attention graph", 32, seed=0)
    assert np.array_equal(a, b)


def test_hash_embed_matches_token_count_oracle():
    text = "a b a c b a punctuation, splits! a"
    dim, seed = 16, 5
    counts = Counter(tokenize(text))
    # recompute from per-token unit contributions: v = sum count * e_token
    expected = np.zeros(dim)
    for token, count in counts.items():
        single = hash_embed(token, dim, seed)  # one token, unit norm
        expected += count * single
    expected /= np.linalg.norm(expected)
    assert np.allclose(hash_embed(text, dim, seed), expected, atol=1e-12)


def test_hash_embed_unit_norm():
    v = hash_embed("some nonempty text", 64)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-9


def test_hash_embed_identical_across_thread_counts():
    from concurrent.futures import ThreadPoolExecutor
    text = "concurrent determinism check tokens repeat tokens"
    expected = hash_embed(text, 48, seed=7)
    for workers in (1, 4):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda _: hash_embed(text, 48, seed=7),
                                    range(16)))
        assert all(np.array_equal(r, expected) for r in results)


WORDS = ["graph", "attention", "citation", "naïve", "東京", "x1", "a"]
texts_strategy = st.lists(
    st.one_of(st.text(max_size=40),
              st.lists(st.sampled_from(WORDS), max_size=30).map(" ".join)),
    min_size=1, max_size=8)


# 600 texts over three counting blocks, empty ones on the block edges;
# every third text is non-ASCII, so both tokenizer paths feed a block
BLOCK_TEXTS = ["" if i % 7 == 0 or i in (255, 256, 511, 512, 599)
               else f"w{i % 13} Graph-{i % 5} x_{i} w{i % 13}"
               + (" naïve" if i % 3 == 0 else "")
               for i in range(600)]


@settings(max_examples=150, deadline=None)
@given(texts=texts_strategy, dim=st.sampled_from([1, 2, 7, 64, 384]),
       seed=st.integers(-2**63, 2**63 - 1))
@example(texts=BLOCK_TEXTS, dim=16, seed=3)
@example(texts=["", "a a a a", "Graph, graph; GRAPH graph_attention"],
         dim=16, seed=0)
@example(texts=["naïve 東京 naïve x1", "x1 x1 -x1"], dim=3, seed=-1)
def test_embed_corpus_bit_identical_to_hash_loop(texts, dim, seed):
    records = [PaperRecord(id=f"p{i}", title=t) for i, t in enumerate(texts)]
    matrix = embed_corpus(records, dim=dim, seed=seed)
    for record, row in zip(records, matrix.vectors):
        expected = oracle_hash_embed(build_text(record), dim, seed)
        assert row.tobytes() == expected.tobytes()
        assert hash_embed(build_text(record), dim, seed).tobytes() == \
            expected.tobytes()


finite = st.floats(allow_nan=False, allow_infinity=False)
# 700 rows over three 256-row blocks, drawn from a few repeated values
MANY_ROWS = np.random.default_rng(5).choice(
    [0.0, -0.0, 0.1, -2.5e-16, 5e-324, 1e308, 1.0 / 3.0],
    size=(700, 3)).tolist()


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(finite, min_size=3, max_size=3), max_size=6))
@example(rows=[[-0.0, 5e-324, 1e308], [-1e308, 2.2250738585072014e-308,
                                         1e-310], [0.1, -2.5e-16, 1e16]])
@example(rows=[[0.0, -0.0, 1.0]])  # equal values with distinct texts
@example(rows=[[0.0, 1.0, 2.0], [-0.0, 1.0, 2.0]])  # ... in one column
@example(rows=MANY_ROWS)
def test_write_embeddings_bytes_match_repr_writer(rows):
    vectors = np.array(rows, dtype=np.float64).reshape(len(rows), 3)
    ids = tuple(f"id#{i}" for i in range(len(rows)))
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.tsv"), os.path.join(tmp, "want.tsv")
        write_embeddings(got, EmbeddingMatrix(ids=ids, vectors=vectors, dim=3))
        oracle_write_embeddings(want, ids, vectors)
        with open(got, "rb") as a, open(want, "rb") as b:
            assert a.read() == b.read()


def check_load_matches_normalized_source(source, order, extra, blank_every):
    """Rows written in `order`, plus `extra` ids outside the graph and a
    blank line after every `blank_every` rows, load bit-equal to the
    source divided row by row by its L2 norm."""
    n, dim = source.shape
    ids = [f"p#{i}" for i in range(n)]
    lines = [f"{n + len(extra)}\t{dim}"]
    rows = [(ids[i], source[i]) for i in order] + extra
    for j, (pid, row) in enumerate(rows):
        lines.append(pid + "\t" + "\t".join(repr(float(x)) for x in row))
        if (j + 1) % blank_every == 0:
            lines.append("")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(source, axis=1)
    expected = source.copy()
    expected[norms > 0.0] /= norms[norms > 0.0, None]
    with tempfile.TemporaryDirectory() as tmp, np.errstate(over="ignore"):
        # a norm overflows to inf near 1e308, alike on both sides
        path = os.path.join(tmp, "emb.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        loaded = load_embeddings(path, small_graph(ids))
    assert loaded.ids == tuple(ids)
    assert loaded.vectors.tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 8), dim=st.integers(1, 5),
       blank_every=st.integers(1, 4))
def test_load_embeddings_bit_equal_to_normalized_source(data, n, dim,
                                                       blank_every):
    values = data.draw(st.lists(finite, min_size=n * dim, max_size=n * dim))
    source = np.array(values, dtype=np.float64).reshape(n, dim)
    order = data.draw(st.permutations(range(n)))
    extra = [(f"extra{j}", data.draw(st.lists(finite, min_size=dim,
                                              max_size=dim)))
             for j in range(data.draw(st.integers(0, 2)))]
    check_load_matches_normalized_source(source, order, extra, blank_every)


def test_load_embeddings_many_rows_bit_equal_to_normalized_source():
    rng = np.random.default_rng(4)
    source = rng.normal(size=(2500, 6)) * 10.0 ** rng.integers(-150, 150,
                                                               size=(2500, 1))
    source[7] = 0.0
    check_load_matches_normalized_source(
        source, rng.permutation(2500).tolist(), [("extra", [1.0] * 6)], 97)


def test_scores_matches_cosine_scan():
    records = [PaperRecord(id=f"p{i}", title=f"text {i} alpha beta")
               for i in range(8)] + [PaperRecord(id="empty")]
    m = embed_corpus(records, dim=24, seed=0)
    q = hash_embed("alpha beta text", 24, seed=0)
    s = m.scores(q)
    for i in range(m.node_count):
        assert s[i] == pytest.approx(oracle_cosine(m.vectors[i], q),
                                     abs=1e-12)
    assert s[-1] == 0.0  # empty text row scores zero


def test_embedding_matrix_shape_validation():
    with pytest.raises(ValueError):
        EmbeddingMatrix(ids=("a",), vectors=np.zeros((2, 3)), dim=3)
    m = EmbeddingMatrix(ids=("a",), vectors=np.zeros((1, 3)), dim=3)
    with pytest.raises(ValueError):
        m.scores(np.zeros(4))
