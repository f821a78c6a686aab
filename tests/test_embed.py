import math
import os
import re
import string
import tempfile
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from citegraph.corpus import PaperRecord, build_text
from citegraph.embed import (_SENTINEL, EmbeddingMatrix, _TokenCodes,
                             _tokens, embed_corpus, hash_counts, hash_embed,
                             load_embeddings, tokenize, write_embeddings)
from citegraph.graph import build_graph

from helpers import (oracle_cosine, oracle_hash_counts, oracle_hash_embed,
                     oracle_scores, oracle_unit_rows, oracle_write_counts)


def small_graph(ids):
    return build_graph([PaperRecord(id=pid) for pid in ids])


def unit_rows(matrix):
    """Every row of an `EmbeddingMatrix` as `rows` reads it."""
    return matrix.rows(range(matrix.node_count))


def smallest_int(values):
    """The smallest of int8, int16 and int32 that holds every value, or
    None."""
    return next((t for t in (np.int8, np.int16, np.int32)
                 if np.iinfo(t).min <= np.min(values, initial=0)
                 and np.max(values, initial=0) <= np.iinfo(t).max), None)


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
TOKEN_TEXTS = st.one_of(st.text(st.characters(max_codepoint=127)),
                        st.text(st.sampled_from(TOKEN_CHARS)), st.text())


@settings(max_examples=300, deadline=None)
@given(text=TOKEN_TEXTS)
@example(text="Graph_Attention\x0bNETS\x1c2024\x1fx1-y2")
@example(text="naïve Straße, İstanbul_東京 ٣4")
def test_tokenize_equals_regex_runs(text):
    assert tokenize(text) == re.findall(r"[^\W_]+", text.lower())


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(TOKEN_TEXTS, min_size=1, max_size=8))
@example(texts=["Graph_Attention\x0bNETS", "", "QQ q Q", "ΟΔΟΣ Σ naïve"])
@example(texts=["QQ q Q", "x_Q\x1cq", ""])
@example(texts=["", ""])
def test_block_tokens_cut_at_the_sentinel_are_each_texts_tokens(texts):
    """One block's tokens, cut at the sentinel, are each text's tokens:
    a block of only ASCII texts (split as bytes) and one holding any
    other text (split by the regex) alike."""
    parts = [[]]
    for token in _tokens(texts):
        if token == _SENTINEL:
            parts.append([])
        else:
            parts[-1].append(token.decode())
    assert parts == [tokenize(text) for text in texts]
    assert parts == [re.findall(r"[^\W_]+", t.lower()) for t in texts]


def test_load_embeddings_aligns_and_normalizes(tmp_path):
    g = small_graph(["a", "b"])
    path = tmp_path / "emb.tsv"
    write_tsv(path, [("b", [3.0, 4.0]), ("a", [1.0, 0.0])], dim=2)
    m = load_embeddings(str(path), g)
    assert m.ids == ("a", "b")
    assert np.array_equal(m.vectors, [[1.0, 0.0], [3.0, 4.0]])  # as stored
    assert np.allclose(m.row(0), [1.0, 0.0])
    assert np.allclose(m.row(1), [0.6, 0.8])
    assert abs(np.linalg.norm(m.row(1)) - 1.0) < 1e-6


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


def test_load_embeddings_huge_header_dim_is_a_field_count_error(tmp_path):
    # the matrix waits for a row of that width, so nothing is allocated
    path = tmp_path / "emb.tsv"
    path.write_text(f"1\t{10 ** 12}\na\t1.0\t2.0\n")
    with pytest.raises(ValueError, match=f"expected {10 ** 12} values, "
                                         "got 2 in row for id 'a'"):
        load_embeddings(str(path), small_graph(["a"]))


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


# what a header or a row is made of: ids, numbers the loader must take or
# refuse, empty fields, and whitespace that `str.split` and line reading
# treat unlike a tab or a newline
LOADER_IDS = ["p0", "p1", "p2", "ghost", "é", "", "0", "2"]
LOADER_PIECES = ["0", "1", "-3", "2", "-0", "2.5", "nan", "inf", "-1e400",
                 "1e-320", "1e200", "", "\t", "\r", "\x0b", "\x0c", "\x1c",
                 "\x85", "\u00e9t\u00e9", " "]


@st.composite
def embedding_files(draw):
    """The bytes of an embeddings TSV, from a header and rows of pieces
    joined by tabs, ending with or without a newline and non-UTF-8 bytes."""
    field = st.lists(st.sampled_from(LOADER_PIECES), max_size=2).map("".join)

    def line(first):
        return "\t".join([draw(first), *draw(st.lists(field, max_size=3))])

    lines = [line(st.sampled_from(["0", "1", "2", "3", "-1", "2.5", ""]))]
    lines += [line(st.sampled_from(LOADER_IDS))
              for _ in range(draw(st.integers(0, 5)))]
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))
    return text.encode() + draw(st.sampled_from([b"", b"\xff", b"\xc3",
                                                 b"\x80\n"]))


@settings(max_examples=300, deadline=None)
@given(raw=embedding_files())
@example(raw=b"2\t1\np1\t-0\np0\t1e-320\n")
@example(raw=b"3\t2\np0\t1\t2\nghost\t2.5\t-3\np1\t0\t0\n")
def test_load_embeddings_returns_aligned_rows_or_value_error(raw):
    """Any file loads as a matrix aligned to the graph, of finite rows
    with finite norms, or fails with a ValueError that says why."""
    graph = small_graph(["p0", "p1"])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "emb.tsv")
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            matrix = load_embeddings(path, graph)
        except ValueError as exc:
            assert str(exc)
            return
    assert matrix.ids == graph.node_ids
    assert matrix.vectors.shape == (graph.node_count, matrix.dim)
    assert np.isfinite(matrix.vectors).all()
    assert np.isfinite(matrix.norms).all()


def test_write_then_load_round_trip(tmp_path):
    records = [PaperRecord(id=f"p{i}", title=f"title {i} words")
               for i in range(5)]
    g = build_graph(records)
    path = tmp_path / "emb.tsv"
    write_embeddings(str(path), [r.id for r in records],
                     hash_counts(records, 16, 3))
    loaded = load_embeddings(str(path), g)
    # the file holds the counts, and both keep them as the same integers
    hashed = embed_corpus(records, dim=16, seed=3)
    assert loaded.vectors.dtype == hashed.vectors.dtype == np.int8
    assert loaded.vectors.tobytes() == hashed.vectors.tobytes()
    assert loaded.rows(range(5)).tobytes() == hashed.rows(range(5)).tobytes()


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
    for record, row in zip(records, matrix.rows(range(len(records)))):
        expected = oracle_hash_embed(build_text(record), dim, seed)
        assert row.tobytes() == expected.tobytes()
        assert hash_embed(build_text(record), dim, seed).tobytes() == \
            expected.tobytes()


# what a block tokenizer could get wrong: the sentinel letter Q in both
# cases, letters whose lowercase is ASCII (the Kelvin sign), longer (dotted
# I) or depends on context (final sigma), combining marks, '_', punctuation
TRICKY_CHARS = "Qq\u212aKkİiΣσςΟΔ09_ -.,!\u0301\u0307東"
tricky_texts = st.one_of(
    st.just(""), st.text(st.sampled_from(" .,;!?-_"), max_size=6),
    st.text(st.sampled_from(TRICKY_CHARS), max_size=30),
    st.text(st.characters(max_codepoint=127), max_size=30))


@settings(max_examples=300, deadline=None)
@given(pool=st.lists(tricky_texts, min_size=1, max_size=8),
       rows=st.integers(1, 600), step=st.integers(1, 7),
       dim=st.sampled_from([1, 3, 16, 384]),
       seed=st.integers(-2 ** 63, 2 ** 63 - 1))
@example(pool=["QQ q Q", "ΟΔΟΣ Σ", "\u212a K k", "İi", "", "_Q_"],
         rows=600, step=5, dim=16, seed=0)
# a block of 256 ASCII rows, split as bytes, then a non-ASCII row sharing
# their words, split by the regex: both reach the table as the same bytes
@example(pool=["Graph attention graph Q"] * 256 + ["graph attention naïve"],
         rows=257, step=1, dim=16, seed=0)
def test_block_counts_equal_a_per_text_loop(pool, rows, step, dim, seed):
    # `rows` texts cycle through the pool, so the blocks of hash_counts
    # (256 rows) cross with every mix of ASCII and non-ASCII texts
    texts = [pool[(i * step) % len(pool)] for i in range(rows)]
    expected = {text: oracle_hash_counts(text, dim, seed) for text in pool}
    got = _TokenCodes(dim, seed).counts(texts)
    assert got.shape == (rows, dim)
    for text, row in zip(texts, got):
        assert np.array_equal(row, expected[text]), text
    counts = hash_counts([PaperRecord(id=f"p{i}", title=text)
                          for i, text in enumerate(texts)], dim, seed)
    assert counts.dtype == smallest_int(got)
    assert np.array_equal(counts, got)


def check_unit_rows(matrix, counts):
    """Every `row(i)` and `rows` row is `c / np.linalg.norm(c)` in float64
    for the integer counts c, and a zero row stays zero."""
    expected = []
    for c in np.asarray(counts):
        norm = np.linalg.norm(c)
        expected.append(c / norm if norm > 0.0 else np.zeros(len(c)))
    for i, want in enumerate(expected):
        assert matrix.row(i).tobytes() == want.tobytes()
    assert unit_rows(matrix).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("repeats, dtype", [
    (127, np.int8), (200, np.int16), (40_000, np.int32)])
def test_hash_counts_widen_past_int8(repeats, dtype):
    """A record repeating one token `repeats` times, after a first block
    of small counts and an empty text, widens the count matrix to the
    smallest type that holds that count, keeping the rows before it."""
    texts = [""] + [f"w{i} graph w{i}" for i in range(1, 299)] + [
        " ".join(["token"] * repeats)]
    records = [PaperRecord(id=f"p{i}", title=t) for i, t in enumerate(texts)]
    expected = np.array([oracle_hash_counts(t, 16, 1) for t in texts])
    assert np.abs(expected).max() == repeats
    counts = hash_counts(records, 16, 1)
    assert counts.dtype == dtype and np.array_equal(counts, expected)
    matrix = embed_corpus(records, dim=16, seed=1)
    assert matrix.vectors.dtype == dtype
    check_unit_rows(matrix, expected)


@pytest.mark.parametrize("wide, dtype", [
    ({}, np.int8), ({1500: 200}, np.int16),
    ({1500: 200, 2090: -70_000}, np.int32), ({600: -70_000}, np.int32)])
def test_loaded_counts_widen_past_int8(tmp_path, wide, dtype):
    """A count file whose later 1024-row blocks hold 200 or -70,000 loads
    widened to the smallest type that holds every count, keeping the rows
    of the blocks before."""
    counts = np.random.default_rng(3).integers(-3, 4, size=(2100, 3))
    counts[[0, 1023, 2099]] = 0
    for at, value in wide.items():
        counts[at, 1] = value
    ids = [f"p{i}" for i in range(len(counts))]
    path = tmp_path / "emb.tsv"
    write_embeddings(str(path), ids, counts)
    loaded = load_embeddings(str(path), small_graph(ids))
    assert loaded.vectors.dtype == dtype
    assert np.array_equal(loaded.vectors, counts)
    check_unit_rows(loaded, counts)


INT_KINDS = {t: st.integers(np.iinfo(t).min, np.iinfo(t).max)
             for t in (np.int8, np.int16, np.int32)}


@st.composite
def unit_row_cases(draw):
    """Random integer or float rows, up to three of them zero, an index
    list into them and a query."""
    n, dim = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from([np.int8, np.int16, np.int32, np.float64]))
    values = INT_KINDS.get(kind, st.floats(-1e100, 1e100))
    vectors = np.array(draw(st.lists(values, min_size=n * dim,
                                     max_size=n * dim)),
                       dtype=kind).reshape(n, dim)
    vectors[draw(st.lists(st.integers(0, n - 1), max_size=3))] = 0
    idx = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    query = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=dim,
                                   max_size=dim)))
    return vectors, idx, query


@settings(max_examples=150, deadline=None)
@given(case=unit_row_cases())
# rows whose squares underflow, to 0 or to a few digits, a subnormal row
# and rows whose squares overflow, one with a subnormal unit value: each
# is scaled before its norm
@example(case=(np.array([[0.0], [5.98302442205159e-162]]), [1, 0],
               np.array([1.0])))
@example(case=(np.array([[5.407816096390033e-163]]), [0], np.array([1.0])))
@example(case=(np.array([[1e-320, -3e-321], [0.5, 0.25]]), [0, 1],
               np.array([1.0, 1.0])))
@example(case=(np.array([[1e200, -3e199],
                         [2.4375671040207424e+288, 1.1855884626713777e-32]]),
               [0, 1], np.array([1.0, -2.0])))
@example(case=(np.array([[1, 1]], dtype=np.int8), [0],
               np.array([0.0, 1.6e-161])))  # so can the query's
def test_unit_rows_and_scores_match_oracles(case):
    """Random integer and float rows, zero rows among them: `rows` of any
    index list and `row` are bit-equal to each row divided by its L2
    norm, and `scores` matches the straight-line cosine to 1e-12 for any
    nonzero query."""
    vectors, idx, query = case
    n, dim = vectors.shape
    matrix = EmbeddingMatrix(ids=tuple(f"p{i}" for i in range(n)),
                             vectors=vectors, dim=dim)
    assert matrix.vectors.dtype == vectors.dtype
    expected = oracle_unit_rows(vectors)
    assert matrix.rows(idx).tobytes() == expected[idx].tobytes()
    for i in range(n):
        assert matrix.row(i).tobytes() == expected[i].tobytes()
    assume(query.any())
    got = matrix.scores(query)
    for i in range(n):
        assert got[i] == pytest.approx(oracle_cosine(vectors[i], query),
                                       abs=1e-12)


# 700 rows over three 256-row blocks, drawn from a few repeated counts;
# -0.0 is written as 0, like 0.0
MANY_COUNTS = np.random.default_rng(5).choice(
    [0.0, -0.0, 1.0, -1.0, 3.0, -2.0 ** 31, 2.0 ** 31], size=(700, 3)).tolist()
# what `embed` writes: 600 hash-count rows, empty texts on the block edges
BLOCK_COUNTS = hash_counts(
    [PaperRecord(id=f"p{i}", title=t) for i, t in enumerate(BLOCK_TEXTS)],
    16, 3).tolist()
# 300 rows at the default 384 dimensions, 80 Zipf-drawn words each: its two
# blocks span 42 and 33 integers, as hash counts of a real corpus do
WIDE_COUNTS = hash_counts(
    [PaperRecord(id=f"p{i}", title=" ".join(
        f"w{j}" for j in np.random.default_rng(i).zipf(1.2, size=80)))
     for i in range(300)], 384, 1).tolist()


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 5).flatmap(lambda dim: st.lists(
    st.lists(st.integers(-2 ** 31, 2 ** 31), min_size=dim, max_size=dim),
    min_size=1, max_size=8)))
@example(rows=[[0], [-5], [0]])  # dim 1, all-zero rows
@example(rows=[[2 ** 31, -2 ** 31, 0], [0, 0, 0], [-1, 1, 2 ** 31]])
@example(rows=MANY_COUNTS)
@example(rows=BLOCK_COUNTS)
@example(rows=[[1, -2, 3], [0, 0, 7]])  # odd widths: the last column alone
@example(rows=[[-3, 4, 0, 1, -1], [2, 2, 2, 2, 2]])
@example(rows=[[-31, 32], [0, 5]])  # spans 64 integers: the pair table
@example(rows=[[-32, 32], [0, 5]])  # spans 65: binary search
@example(rows=WIDE_COUNTS)
def test_write_embeddings_bytes_match_str_int_writer(rows):
    # int32, as hash_counts gives, and int64; the largest drawn value,
    # 2**31, does not fit int32
    for counts in (np.clip(rows, -2 ** 31, 2 ** 31 - 1).astype(np.int32),
                   np.array(rows, dtype=np.int64)):
        check_write_matches_str_int_writer(counts)


def check_write_matches_str_int_writer(counts):
    ids = tuple(f"id#{i}" for i in range(len(counts)))
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.tsv"), os.path.join(tmp, "want.tsv")
        write_embeddings(got, ids, counts)
        oracle_write_counts(want, ids, counts)
        with open(got, "rb") as a, open(want, "rb") as b:
            assert a.read() == b.read()
        loaded = load_embeddings(got, small_graph(ids))
    # the loader parses int32; a block past it is read as float64
    assert loaded.vectors.dtype == (smallest_int(counts) or np.float64)
    assert np.array_equal(loaded.vectors, counts)
    assert unit_rows(loaded).tobytes() == oracle_unit_rows(counts).tobytes()


@pytest.mark.parametrize("dtype", [np.int64])
@pytest.mark.parametrize("lo, hi", [(0, 2 ** 20), (-2 ** 31, 2 ** 31)])
def test_write_embeddings_builds_no_table_for_a_wide_block(tmp_path, dtype,
                                                          lo, hi):
    # a table of every integer from lo to hi would hold 2**20 (or 2**32)
    # strings; the block's four distinct values are looked up instead
    counts = np.array([[lo, 1], [hi, 0]], dtype=dtype)
    path = tmp_path / "emb.tsv"
    tracemalloc.start()
    try:
        write_embeddings(str(path), ["a", "b"], counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    assert path.read_text() == f"2\t2\na\t{lo}\t1\nb\t{hi}\t0\n"


@pytest.mark.parametrize("least, built", [(-31, True), (-32, False)])
def test_write_embeddings_pairs_values_of_at_most_64_integers(tmp_path, least,
                                                              built):
    # a block spanning 64 integers is written from a table of 64 * 64 pair
    # texts; one spanning 65 builds no such table but looks up its values
    counts = np.array([[least, 32], [0, 1]], dtype=np.int32)
    path = tmp_path / "emb.tsv"
    tracemalloc.start()
    try:
        write_embeddings(str(path), ["a", "b"], counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak > 64 * 1024) == built, peak
    assert path.read_text() == f"2\t2\na\t{least}\t32\nb\t0\t1\n"


# 1.0 too: a float array is refused whatever values it holds
@pytest.mark.parametrize("bad", [0.5, -1e-300, math.nan, math.inf, 1.0])
def test_write_embeddings_rejects_non_integral_value(tmp_path, bad):
    path = tmp_path / "emb.tsv"
    with pytest.raises(ValueError, match="must be an integer array, "
                       "not float64"):
        write_embeddings(str(path), ["a", "b"], np.array([[1.0, 0.0],
                                                          [2.0, bad]]))
    assert not path.exists()


finite = st.floats(allow_nan=False, allow_infinity=False)


def check_load_matches_normalized_source(source, order, extra, blank_every):
    """Rows written in `order`, plus `extra` ids outside the graph and a
    blank line after every `blank_every` rows, load bit-equal to the
    source divided row by row by its L2 norm, taken without underflow or
    overflow (`oracle_unit_rows`)."""
    n, dim = source.shape
    ids = [f"p#{i}" for i in range(n)]
    lines = [f"{n + len(extra)}\t{dim}"]
    rows = [(ids[i], source[i]) for i in order] + extra
    for j, (pid, row) in enumerate(rows):
        lines.append(pid + "\t" + "\t".join(repr(float(x)) for x in row))
        if (j + 1) % blank_every == 0:
            lines.append("")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "emb.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        loaded = load_embeddings(path, small_graph(ids))
    assert loaded.ids == tuple(ids)
    assert unit_rows(loaded).tobytes() == oracle_unit_rows(source).tobytes()


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


# integer spellings the int32 pass must read as the float parse does, or
# leave to it: a signed zero, a sign, leading zeros, 2**53 + 1 (not a
# float64), the int32 and int64 limits and past them
ODD_INTEGERS = ["-0", "-00", "+0", "+5", "007", "-007", str(2 ** 53 + 1),
                str(-(2 ** 53 + 1)), str(2 ** 31 - 1), str(2 ** 31),
                str(-2 ** 31), str(-2 ** 31 - 1), str(2 ** 63),
                str(-2 ** 63 - 1), str(2 ** 64 + 1)]
TOKENS = st.one_of(st.integers(-300, 300).map(str),
                   st.sampled_from(ODD_INTEGERS),
                   st.integers(-2 ** 80, 2 ** 80).map(str),
                   finite.map(repr))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.integers(1, 4),
       n=st.sampled_from([1, 3, 1023, 1024, 1025, 2049]),
       seed=st.integers(0, 2 ** 16), crlf=st.booleans())
def test_integer_tokens_load_bit_equal_to_float_parse(data, dim, n, seed,
                                                      crlf):
    """Small integer rows, like `embed` writes, with drawn rows of odd
    integers and floats near the 1024-row block edges and blank lines in
    between, load bit-equal to every token read by `float`."""
    rows = np.random.default_rng(seed).integers(
        -3, 4, size=(n, dim)).astype(str).tolist()
    edges = st.sampled_from([0, n - 1, min(1023, n - 1), min(1024, n - 1)])
    for _ in range(data.draw(st.integers(0, 4))):
        rows[data.draw(edges | st.integers(0, n - 1))] = data.draw(
            st.lists(TOKENS, min_size=dim, max_size=dim))
    ids = [f"p{i}" for i in range(n)]
    lines = [f"{n}\t{dim}"] + [pid + "\t" + "\t".join(row)
                               for pid, row in zip(ids, rows)]
    for _ in range(data.draw(st.integers(0, 2))):
        lines.insert(data.draw(st.integers(1, len(lines))),
                     data.draw(st.sampled_from(["", " ", "\t "])))
    expected = oracle_unit_rows([[float(t) for t in row] for row in rows])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "emb.tsv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(("\r\n" if crlf else "\n").join(lines) + "\n")
        loaded = load_embeddings(path, small_graph(ids))
    assert unit_rows(loaded).tobytes() == expected.tobytes()


@pytest.mark.parametrize("token", ["-0", "-00", "+0", "-3", "0"])
def test_signed_zero_token_keeps_its_sign(tmp_path, token):
    """An integer block holding `-0` beside `token` loads as the float
    parse reads it, -0.0 kept, though other rows hold negative values."""
    rows = [["1", "-2"], ["-0", token], [token, "-3"], ["0", "5"]]
    ids = [f"p{i}" for i in range(len(rows))]
    path = tmp_path / "emb.tsv"
    path.write_text("".join([f"{len(rows)}\t2\n"] + [
        pid + "\t" + "\t".join(row) + "\n" for pid, row in zip(ids, rows)]))
    expected = np.array([[float(t) for t in row] for row in rows])
    norms = np.linalg.norm(expected, axis=1)
    expected[norms > 0.0] /= norms[norms > 0.0, None]
    loaded = load_embeddings(str(path), small_graph(ids))
    assert unit_rows(loaded).tobytes() == expected.tobytes()
    assert np.signbit(loaded.vectors[1, 0]) and np.signbit(loaded.row(1)[0])


# the two plain cases keep their ids; the others add an inf or nan on the
# first data line, before the second block's bad token or repeated id
SECOND_BLOCK_CASES = [pytest.param(value, None, "4x", id=value)
                      for value in ("3", "0.25")] + [
    pytest.param(value, first, later, id=f"{value}-{first}-{later}")
    for value in ("3", "0.25") for first in ("inf", "nan")
    for later in ("4x", "repeat")]


@pytest.mark.parametrize("value, first, later", SECOND_BLOCK_CASES)
def test_non_numeric_value_names_line_and_id_in_second_block(tmp_path, value,
                                                             first, later):
    """An integer file and a float file: the bad token, or a repeated id,
    sits in the second 1024-row block, after a blank line. A non-finite
    value on file line 3 comes first in the file, so it is named."""
    ids = [f"p{i}" for i in range(1500)]
    rows = [pid + "\t" + value + "\t-" + value for pid in ids]
    if first is not None:
        rows[0] = "p0\t" + first + "\t" + value
    rows[1300] = ("p1300\t" + value + "\t4x" if later == "4x"
                  else "p5\t" + value + "\t" + value)
    path = tmp_path / "emb.tsv"
    path.write_text("1500\t2\n\n" + "\n".join(rows) + "\n")
    expected = ("line 1303: non-numeric value in row for id 'p1300'"
                if first is None else
                "line 3: non-finite value in row for id 'p0'")
    with pytest.raises(ValueError, match=f"^{expected}$"):
        load_embeddings(str(path), small_graph(ids))


# one defect per file: the line written in its place, and the error
DEFECTS = {
    "no tab": lambda pid, row, dim, earlier: (
        pid, f"expected {dim} values, got 0 in row for id {pid!r}"),
    "field count": lambda pid, row, dim, earlier: (
        "\t".join([pid, *row, "1"]),
        f"expected {dim} values, got {dim + 1} in row for id {pid!r}"),
    "repeated id": lambda pid, row, dim, earlier: (
        "\t".join([earlier, *row]),
        f"duplicate embedding row for id {earlier!r}"),
    "non-numeric": lambda pid, row, dim, earlier: (
        "\t".join([pid, *row[:-1], "4x"]),
        f"non-numeric value in row for id {pid!r}"),
    "nan": lambda pid, row, dim, earlier: (
        "\t".join([pid, "nan", *row[1:]]),
        f"non-finite value in row for id {pid!r}"),
    "inf": lambda pid, row, dim, earlier: (
        "\t".join([pid, *row[:-1], "-inf"]),
        f"non-finite value in row for id {pid!r}"),
    "empty value": lambda pid, row, dim, earlier: (
        "\t".join([pid, "", *row[1:]]),
        f"non-numeric value in row for id {pid!r}"),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), defect=st.sampled_from(sorted(DEFECTS)),
       n=st.sampled_from([2, 3, 1024, 1025, 1026, 1100]),
       dim=st.integers(1, 3), floats=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_one_defect_is_named_by_its_line_and_id(data, defect, n, dim, floats,
                                                seed):
    """One drawn defect at a drawn row, block edges included, with blank
    lines in between: the error names exactly that file line and id."""
    values = np.random.default_rng(seed).integers(-3, 4, size=(n, dim))
    rows = [[f"{v}.5" if floats else str(v) for v in row]
            for row in values.tolist()]
    at = data.draw(st.sampled_from([r for r in (1023, 1024, 1025, n - 1)
                                    if r < n]) | st.integers(1, n - 1))
    ids = [f"p{i}" for i in range(n)]
    earlier = ids[data.draw(st.integers(0, at - 1))]
    lines = ["\t".join([pid, *row]) for pid, row in zip(ids, rows)]
    lines[at], message = DEFECTS[defect](ids[at], rows[at], dim, earlier)
    blanks = sorted(data.draw(st.lists(st.integers(0, n), max_size=3)))
    for before in reversed(blanks):  # a blank line before row `before`
        lines.insert(before, "")
    line_no = 2 + at + sum(before <= at for before in blanks)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "emb.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{n}\t{dim}\n" + "\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            load_embeddings(path, small_graph(ids))
    assert str(err.value) == f"line {line_no}: {message}"


def load_counts_traced(tmp_path, n, dim):
    """The matrix loaded from a file of n rows of counts in [-4, 4], and
    the peak traced while loading it."""
    ids = [f"p{i}" for i in range(n)]
    counts = np.random.default_rng(2).integers(-4, 5, size=(n, dim))
    path = tmp_path / "emb.tsv"
    write_embeddings(str(path), ids, counts)
    graph = small_graph(ids)
    del counts
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_embeddings(str(path), graph)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return loaded, peak


def test_load_embeddings_peak_memory_stays_near_the_matrix(tmp_path):
    """The file streams through blocks into one preallocated matrix: the
    peak traced while loading 8000 rows of counts, the matrix included,
    stays within the matrix plus 4 MiB for the one block of text and
    parsed values alive at a time."""
    loaded, peak = load_counts_traced(tmp_path, 8000, 256)
    assert loaded.vectors.shape == (8000, 256)
    assert peak <= loaded.vectors.nbytes + (4 << 20), peak


def test_loaded_counts_peak_below_half_a_float64_matrix(tmp_path):
    """Counts in [-4, 4] are held as int8, with no float64 copy: loading
    8000 x 256 of them peaks below half the 16.4 MB float64 matrix."""
    loaded, peak = load_counts_traced(tmp_path, 8000, 256)
    assert loaded.vectors.dtype == np.int8
    assert peak < 0.5 * 8000 * 256 * 8, peak


def test_scores_matches_cosine_scan():
    records = [PaperRecord(id=f"p{i}", title=f"text {i} alpha beta")
               for i in range(8)] + [PaperRecord(id="empty")]
    m = embed_corpus(records, dim=24, seed=0)
    q = hash_embed("alpha beta text", 24, seed=0)
    s = m.scores(q)
    for i in range(m.node_count):
        assert s[i] == pytest.approx(oracle_cosine(m.vectors[i], q),
                                     abs=1e-12)  # the counts' cosine
    assert s[-1] == 0.0  # empty text row scores zero


@settings(max_examples=80, deadline=None)
@given(n=st.integers(0, 1100), m=st.integers(1, 20), dim=st.integers(1, 40),
       zeros=st.lists(st.integers(0, 1099), max_size=6),
       seed=st.integers(0, 2**32 - 1))
@example(n=0, m=3, dim=4, zeros=[], seed=0)
@example(n=1, m=1, dim=1, zeros=[], seed=0)
@example(n=511, m=2, dim=16, zeros=[510], seed=1)
@example(n=512, m=5, dim=40, zeros=[0, 511], seed=2)
@example(n=513, m=20, dim=7, zeros=[511], seed=3)
@example(n=1024, m=1, dim=33, zeros=[512], seed=4)
@example(n=1025, m=8, dim=40, zeros=[1023], seed=5)
@example(n=1026, m=3, dim=2, zeros=[1025], seed=6)
def test_batched_scores_rows_bit_equal_to_one_scan_per_query(n, m, dim, zeros,
                                                            seed):
    """A stack's rows keep the bytes of one whole-matrix scan of the unit
    rows per query, across slice edges, a one-row tail, n below one slice
    and zero rows; the rows are stored unnormalized and divided per slice."""
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((n, dim)) * rng.uniform(0.5, 2.0, (n, 1))
    vectors[[z for z in zeros if z < n]] = 0.0
    matrix = EmbeddingMatrix(ids=tuple(f"p{i}" for i in range(n)),
                             vectors=vectors, dim=dim)
    stack = rng.standard_normal((m, dim))
    got = matrix.scores(stack)
    assert got.shape == (m, n) and got.dtype == np.float64
    for query, row in zip(stack, got):
        assert row.tobytes() == oracle_scores(oracle_unit_rows(vectors),
                                              query).tobytes()
    one = matrix.scores(stack[-1])
    assert one.shape == (n,)
    assert one.tobytes() == got[-1].tobytes()


@pytest.mark.parametrize("at", [0, 2, 4])
def test_scores_rejects_a_zero_query_anywhere_in_a_stack(at):
    rng = np.random.default_rng(at)
    matrix = EmbeddingMatrix(ids=("a", "b"), vectors=rng.standard_normal(
        (2, 3)), dim=3)
    stack = rng.standard_normal((5, 3))
    stack[at] = 0.0
    with pytest.raises(ValueError, match="degenerate query"):
        matrix.scores(stack)
    with pytest.raises(ValueError, match="degenerate query"):
        matrix.scores(stack[at])


@pytest.mark.parametrize("shape", [(4,), (2,), (2, 4), (1, 2), (2, 3, 3),
                                   (1, 1, 3), ()])
def test_scores_rejects_a_wrong_width_or_rank(shape):
    matrix = EmbeddingMatrix(ids=("a",), vectors=np.ones((1, 3)), dim=3)
    with pytest.raises(ValueError, match="dimension 3"):
        matrix.scores(np.ones(shape))


def test_embedding_matrix_shape_validation():
    with pytest.raises(ValueError):
        EmbeddingMatrix(ids=("a",), vectors=np.zeros((2, 3)), dim=3)
    m = EmbeddingMatrix(ids=("a",), vectors=np.zeros((1, 3)), dim=3)
    with pytest.raises(ValueError):
        m.scores(np.zeros(4))
