import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citegraph import cli
from citegraph.baselines import (_TEXTS, B, K1, HybridConfig, bm25_build,
                                 bm25_rank, bm25_scores, dense_rank,
                                 hybrid_rank, hybrid_scores)
from citegraph.embed import EmbeddingMatrix, embed_corpus, tokenize
from citegraph.graph import build_graph
from citegraph.corpus import PaperRecord, build_text
from citegraph.ranking import (RankedItem, RankedList, top_k,
                               top_k_indices)
from citegraph.retriever import select_seed
from helpers import (evaluation_inputs, oracle_bm25_index, oracle_bm25_loop,
                     oracle_cosine, oracle_top_k)

FIVE_DOCS = [
    "graph attention networks for citation ranking",
    "dense retrieval with sentence embeddings",
    "classic lexical ranking with term statistics",
    "attention attention attention",
    "citation graphs and ranking graphs together",
]


def test_build_empty_corpus_errors():
    with pytest.raises(ValueError, match="empty"):
        bm25_build([])
    with pytest.raises(ValueError, match="^cannot build a BM25 index over "
                       "an empty corpus$"):
        bm25_build(text for text in ())


def test_build_single_empty_doc():
    index = bm25_build([""])
    assert index.doc_count == 1
    assert index.postings == {}
    assert len(index.weights) == 0


def test_idf_smoothed_floor_for_ubiquitous_term():
    # tf 1 in docs of average length: each weight is idf / (1 + K1)
    index = bm25_build(["cat", "cat", "cat"])
    expected = math.log(1.0 + 0.5 / 3.5)
    assert index.weights.tolist() == pytest.approx(
        [expected / (1.0 + K1)] * 3, abs=1e-12)
    assert np.all(index.weights > 0.0)


def term_weights(index, term):
    """The BM25 weights stored beside `index.postings[term]`."""
    i = index.terms[term]
    return index.weights[index.ptr[i]:index.ptr[i + 1]]


def test_postings_match_hand_count():
    index = bm25_build(["a b a", "b c", "c c c"])
    assert {t: docs.tolist() for t, docs in index.postings.items()} == \
        {"a": [0], "b": [0, 1], "c": [1, 2]}
    assert index.ptr.tolist() == [0, 1, 3, 5]
    # (term, doc, tf, doc length) counted by hand; norm at k1 1.2, b 0.75
    for term, doc, tf, length in (("a", 0, 2, 3), ("b", 0, 1, 3),
                                  ("b", 1, 1, 2), ("c", 1, 1, 2),
                                  ("c", 2, 3, 3)):
        norm = 1.2 * (0.25 + 0.75 * length / (8.0 / 3.0))
        df = len(index.postings[term])
        idf = math.log((3 - df + 0.5) / (df + 0.5) + 1.0)
        at = index.postings[term].tolist().index(doc)
        assert term_weights(index, term)[at] == pytest.approx(
            idf * tf / (tf + norm), abs=1e-12), (term, doc)


def test_rank_absent_term_empty():
    index = bm25_build(FIVE_DOCS)
    assert bm25_rank(index, "zymurgy", 5).ids() == []


def test_rank_identical_docs_tie_by_index():
    index = bm25_build(["same words here"] * 4)
    ranked = bm25_rank(index, "same words", 4)
    assert ranked.ids() == ["0", "1", "2", "3"]
    scores = [it.score for it in ranked.items]
    assert len(set(scores)) == 1


def test_bm25_scores_match_formula_oracle():
    k1, b = 1.2, 0.75
    assert (K1, B) == (k1, b)
    index = bm25_build(FIVE_DOCS)
    queries = ["attention ranking", "citation graphs", "dense lexical graph",
               "attention attention", "networks"]
    n = len(FIVE_DOCS)
    docs = [tokenize(d) for d in FIVE_DOCS]
    avg = sum(len(d) for d in docs) / n
    for query in queries:
        scores = bm25_scores(index, query)
        for d in range(n):
            expected = 0.0
            for term in tokenize(query):
                tf = docs[d].count(term)
                if tf == 0:
                    continue
                df = sum(1 for doc in docs if term in doc)
                term_idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
                norm = k1 * (1.0 - b + b * len(docs[d]) / avg)
                expected += term_idf * tf / (tf + norm)
            assert scores[d] == pytest.approx(expected, abs=1e-9), (query, d)


WORDS = ["alpha", "beta", "gamma", "delta"]
docs_strategy = st.lists(st.lists(st.sampled_from(WORDS), max_size=8),
                         min_size=1, max_size=8)
query_strategy = st.lists(st.sampled_from(WORDS + ["unknown"]), max_size=6)


@settings(max_examples=200, deadline=None)
@given(docs=docs_strategy, query=query_strategy)
@example(docs=[["alpha", "beta"]], query=["alpha", "alpha"])
@example(docs=[[], ["alpha"], []], query=["alpha", "unknown"])
@example(docs=[[], []], query=["alpha"])
def test_bm25_scores_bit_identical_to_posting_loop(docs, query):
    index = bm25_build([" ".join(doc) for doc in docs])
    scores = bm25_scores(index, " ".join(query))
    assert scores.tobytes() == oracle_bm25_loop(docs, query, K1, B).tobytes()


@settings(max_examples=100, deadline=None)
@given(docs=docs_strategy, query=query_strategy)
def test_bm25_build_from_a_generator_equals_build_from_the_list(docs, query):
    texts = [" ".join(doc) for doc in docs]
    listed = bm25_build(texts, ids=[f"d{i}" for i in range(len(texts))])
    streamed = bm25_build((text for text in texts),
                          ids=(f"d{i}" for i in range(len(texts))))
    assert list(streamed.postings) == list(listed.postings)
    for term, docs in listed.postings.items():
        assert docs.dtype == streamed.postings[term].dtype == np.int32
        assert not streamed.postings[term].flags.writeable
        assert streamed.postings[term].tobytes() == docs.tobytes()
    for name in ("ptr", "docs", "weights"):
        assert getattr(streamed, name).tobytes() == \
            getattr(listed, name).tobytes(), name
    assert (streamed.doc_count, streamed.ids) == \
        (listed.doc_count, listed.ids)
    text = " ".join(query)
    assert bm25_scores(streamed, text).tobytes() == \
        bm25_scores(listed, text).tobytes()


# three full tokenizing blocks and a short fourth: empty texts close the
# first block and open the third, the sentinel letter Q and q appear in
# ASCII texts, and the one non-ASCII text, with a capital-sigma word, sits
# in the second block, so that block alone takes the regex path
BLOCK_TEXTS = ["" if i in (_TEXTS - 1, 2 * _TEXTS, 3 * _TEXTS + 2)
               else "ΟΔΟΣ naïve Q graph qq Straße" if i == _TEXTS + 3
               else f"w{i % 11} Graph-{i % 4} Q{i} q w{i % 11} x_{i % 3}"
               for i in range(3 * _TEXTS + 3)]


def test_bm25_build_across_blocks_equals_a_per_text_build():
    index = bm25_build(text for text in BLOCK_TEXTS)
    terms, ptr, docs, weights = oracle_bm25_index(BLOCK_TEXTS)
    assert index.doc_count == len(BLOCK_TEXTS)
    assert list(index.terms.items()) == list(terms.items())
    assert {"οδος", "naïve", "q", "straße", "q2"} <= set(index.terms)
    for got, want in ((index.ptr, ptr), (index.docs, docs),
                      (index.weights, weights)):
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
    tokens = [re.findall(r"[^\W_]+", t.lower()) for t in BLOCK_TEXTS]
    for query in ("ΟΔΟΣ graph q", "Q5 w3 naïve x_1", "straße STRASSE w0 w0",
                  BLOCK_TEXTS[_TEXTS + 3], BLOCK_TEXTS[7]):
        expected = oracle_bm25_loop(
            tokens, re.findall(r"[^\W_]+", query.lower()))
        assert bm25_scores(index, query).tobytes() == expected.tobytes()


def test_bm25_keys_past_int32_do_not_wrap():
    """50,000 one-token documents, each its own term: term id * doc count
    reaches 2.5e9, past 2**31, and every posting still names its doc."""
    n = 50_000
    index = bm25_build(f"t{i}" for i in range(n))
    assert len(index.postings) == n
    for i, (term, docs) in enumerate(index.postings.items()):
        assert term == f"t{i}"
        assert docs.dtype == np.int32
        assert docs.tolist() == [i]
    # tf 1 in a doc of average length: idf / (1 + k1) for every posting
    assert np.all(index.weights == math.log((n - 0.5) / 1.5 + 1.0) / 2.2)


def test_bm25_build_peak_memory_per_token():
    """One pass into 32-bit term ids, then in-place int64 keys, and last
    the CSR: int32 docs and tf written in place, and the float64 weights
    computed over fixed-size chunks of postings. Over 240,000 tokens
    (235,268 postings) the peak traced while building, the index
    included, stays under 20 bytes per token (about 19.1: the int64 run
    starts beside the docs and tf; the weight step holds 16 bytes per
    posting and one chunk)."""
    rng = np.random.default_rng(3)
    words = [f"term{i}" for i in range(3000)]
    docs, length = 2000, 120
    texts = [" ".join(words[j] for j in rng.integers(0, 3000, length))
             for _ in range(docs)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = bm25_build(texts)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert index.doc_count == docs
    assert peak <= 20 * docs * length, peak / (docs * length)


def test_bm25_build_keeps_twelve_bytes_per_posting():
    """What the index holds once built: an int32 doc and a float64 weight
    per posting, and per term its dict entry, its string and one int64
    `ptr` entry (about 115 bytes in all here). A per-term array (a numpy
    view alone is over 100 bytes) or a per-doc array would not fit."""
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(20000)]
    texts = [" ".join(words[j] for j in rng.integers(0, 20000, 30))
             for _ in range(2000)]
    ids = tuple(f"p{i}" for i in range(len(texts)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = bm25_build(texts, ids=ids)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    postings, terms = len(index.docs), len(index.terms)
    assert (index.docs.dtype, index.weights.dtype, index.ptr.dtype) == \
        (np.int32, np.float64, np.int64)
    assert len(index.weights) == postings and len(index.ptr) == terms + 1
    assert all(type(i) is int for i in index.terms.values())
    assert kept <= 12 * postings + 150 * terms + 4096, \
        ((kept - 12 * postings) / terms)


def test_bm25_scores_allocates_per_posting_read():
    """A query gathers each posting it reads as an intp doc, the index
    `bincount` takes without a widening copy, and a float64 weight, and
    returns one float64 per document: 16 bytes per posting read, against
    the 56 of computing each weight per query."""
    rng = np.random.default_rng(6)
    words = [f"w{i}" for i in range(500)]
    texts = [" ".join(words[j] for j in rng.integers(0, 500, 40))
             for _ in range(3000)]
    index = bm25_build(texts)
    for query in (texts[0], texts[1] + " " + texts[2], "w1 w1 w1 unknown"):
        read = sum(len(index.postings.get(t, ())) for t in tokenize(query))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            bm25_scores(index, query)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert read > 500
        assert peak <= 16 * read + 8 * index.doc_count + 8192, peak / read


@settings(max_examples=100, deadline=None)
@given(docs=docs_strategy)
def test_postings_ascend_by_doc_and_their_length_is_df(docs):
    index = bm25_build([" ".join(doc) for doc in docs])
    assert sorted(index.postings) == sorted({t for doc in docs for t in doc})
    for term, hits in index.postings.items():
        assert hits.tolist() == [d for d, doc in enumerate(docs)
                                 if term in doc]
        assert len(hits) == sum(term in doc for doc in docs)
        assert term_weights(index, term).tobytes() == \
            oracle_bm25_loop(docs, [term])[hits].tobytes()
    assert index.postings.get("unknown", ()) == ()


def test_bm25_scores_on_raw_text_match_posting_loop():
    texts = ["Graph-Attention, NETWORKS! graph", "naïve Bayes; NAÏVE bayes",
             "東京 graph_attention 2024", "", "Straße STRASSE straße ٣",
             "networks\x0bgraph\x1fgraph"]
    docs = [re.findall(r"[^\W_]+", t.lower()) for t in texts]
    index = bm25_build(texts)
    for query in ["GRAPH naïve, straße Attention", "東京 ٣ networks",
                  "graph_attention", "bayes-BAYES"]:
        expected = oracle_bm25_loop(
            docs, re.findall(r"[^\W_]+", query.lower()))
        assert bm25_scores(index, query).tobytes() == expected.tobytes()


def test_bm25_scores_nonnegative_property():
    rng = np.random.default_rng(0)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon"]
    for _ in range(50):
        texts = [" ".join(rng.choice(vocab, size=rng.integers(0, 8)))
                 for _ in range(int(rng.integers(1, 6)))]
        index = bm25_build(texts)
        query = " ".join(rng.choice(vocab, size=3))
        assert np.all(bm25_scores(index, query) >= 0.0)


def hash_matrix(texts, dim=16, seed=0):
    from citegraph.embed import hash_embed
    vectors = np.stack([hash_embed(t, dim, seed) for t in texts])
    ids = tuple(f"d{i}" for i in range(len(texts)))
    return EmbeddingMatrix(ids=ids, vectors=vectors, dim=dim)


def test_dense_rank_zero_query_errors():
    emb = hash_matrix(FIVE_DOCS)
    with pytest.raises(ValueError, match="degenerate"):
        dense_rank(np.zeros(16), emb, 3)


def test_dense_rank_k_at_least_n_returns_all():
    emb = hash_matrix(FIVE_DOCS)
    q = emb.vectors[2]
    assert len(dense_rank(q, emb, 100)) == 5


def test_dense_rank_top1_equals_seed_selection():
    emb = hash_matrix(FIVE_DOCS)
    g = build_graph([PaperRecord(id=f"d{i}") for i in range(5)])
    rng = np.random.default_rng(1)
    for _ in range(10):
        q = rng.normal(size=16)
        top = dense_rank(q, emb, 1).ids()[0]
        assert top == f"d{select_seed(emb.scores(q), emb, g)}"


def test_dense_rank_matches_exhaustive_scan():
    emb = hash_matrix(FIVE_DOCS)
    rng = np.random.default_rng(2)
    for _ in range(10):
        q = rng.normal(size=16)
        ranked = dense_rank(q, emb, 5)
        scored = sorted(((i, oracle_cosine(emb.vectors[i], q))
                         for i in range(5)),
                        key=lambda t: (-t[1], t[0]))
        assert ranked.ids() == [f"d{i}" for i, _ in scored]
        for item, (_, score) in zip(ranked.items, scored):
            assert item.score == pytest.approx(score, abs=1e-9)


def full_lists(texts, query_text, dim=16):
    ids = tuple(f"d{i}" for i in range(len(texts)))
    index = bm25_build(texts, ids=ids)
    emb = hash_matrix(texts, dim=dim)
    from citegraph.embed import hash_embed
    q = hash_embed(query_text, dim, 0)
    return (bm25_rank(index, query_text, len(texts)),
            dense_rank(q, emb, len(texts)),
            tuple(f"d{i}" for i in range(len(texts))))


def test_hybrid_alpha_one_matches_bm25_ordering():
    query = "attention ranking graphs"
    bl, dl, universe = full_lists(FIVE_DOCS, query)
    hybrid = hybrid_rank(bl, dl, HybridConfig(alpha=1.0), 5, universe=universe)
    # every positive-score doc keeps its BM25 order; zero docs trail by index
    expected = bl.ids() + [d for d in universe if d not in bl.ids()]
    assert hybrid.ids() == expected


def test_hybrid_alpha_zero_matches_dense_ordering():
    query = "attention ranking graphs"
    bl, dl, universe = full_lists(FIVE_DOCS, query)
    hybrid = hybrid_rank(bl, dl, HybridConfig(alpha=0.0), 5, universe=universe)
    assert hybrid.ids() == dl.ids()


def test_hybrid_blend_arithmetic():
    universe = ("d0", "d1", "d2")
    bl = RankedList(items=[RankedItem("d2", 1.0, "bm25"),
                           RankedItem("d1", 0.8, "bm25")])
    dl = RankedList(items=[RankedItem("d2", 1.0, "dense"),
                           RankedItem("d1", 0.4, "dense"),
                           RankedItem("d0", 0.0, "dense")])
    hybrid = hybrid_rank(bl, dl, HybridConfig(alpha=0.5), 3, universe=universe)
    by_id = {it.id: it.score for it in hybrid.items}
    assert by_id["d1"] == pytest.approx(0.5 * 0.8 + 0.5 * 0.4, abs=1e-12)
    assert by_id["d2"] == pytest.approx(1.0, abs=1e-12)
    assert by_id["d0"] == pytest.approx(0.0, abs=1e-12)


def test_hybrid_constant_lists_normalize_to_zero():
    universe = ("d0", "d1")
    bl = RankedList(items=[RankedItem("d0", 2.5, "bm25"),
                           RankedItem("d1", 2.5, "bm25")])
    dl = RankedList(items=[RankedItem("d0", 0.9, "dense"),
                           RankedItem("d1", 0.1, "dense")])
    hybrid = hybrid_rank(bl, dl, HybridConfig(alpha=0.5), 2, universe=universe)
    by_id = {it.id: it.score for it in hybrid.items}
    assert by_id["d0"] == pytest.approx(0.5, abs=1e-12)  # dense side only
    assert by_id["d1"] == pytest.approx(0.0, abs=1e-12)


def test_hybrid_mismatched_universe_errors():
    bl = RankedList(items=[RankedItem("stranger", 1.0, "bm25")])
    dl = RankedList(items=[RankedItem("d0", 1.0, "dense")])
    with pytest.raises(ValueError, match="mismatched universes"):
        hybrid_rank(bl, dl, HybridConfig(), 1, universe=("d0",))


def test_hybrid_config_validation():
    with pytest.raises(ValueError):
        HybridConfig(alpha=1.5)
    with pytest.raises(ValueError):
        HybridConfig(alpha=-0.1)


def test_rankers_are_deterministic():
    query = "citation graphs attention"
    index = bm25_build(FIVE_DOCS)
    emb = hash_matrix(FIVE_DOCS)
    a = bm25_rank(index, query, 5)
    b = bm25_rank(index, query, 5)
    assert a.ids() == b.ids()
    assert [i.score for i in a.items] == [i.score for i in b.items]
    q = emb.vectors[0]
    assert dense_rank(q, emb, 5).ids() == dense_rank(q, emb, 5).ids()


def test_bm25_ids_default_to_indices():
    index = bm25_build(["x", "y"])
    assert index.ids == ("0", "1")
    named = bm25_build(["x", "y"], ids=("a", "b"))
    assert named.ids == ("a", "b")
    with pytest.raises(ValueError, match="equal length"):
        bm25_build(["x"], ids=("a", "b"))


def test_adding_unrelated_doc_keeps_existing_tf_terms():
    base = bm25_build(FIVE_DOCS)
    texts = FIVE_DOCS + ["entirely unrelated zymurgy content"]
    grown = bm25_build(texts)
    for term, docs in base.postings.items():
        assert grown.postings[term].tolist() == docs.tolist()
        # the same tf, weighed by the grown corpus's statistics
        assert term_weights(grown, term).tobytes() == oracle_bm25_loop(
            [tokenize(t) for t in texts], [term])[docs].tobytes()
    assert grown.doc_count == base.doc_count + 1


def test_bm25_repeated_query_token_counts_twice():
    index = bm25_build(FIVE_DOCS)
    once = bm25_scores(index, "attention")
    twice = bm25_scores(index, "attention attention")
    assert np.allclose(twice, 2.0 * once)


def test_evaluate_hybrid_matches_hybrid_rank_over_full_lists():
    records = [PaperRecord(id=f"p{i}", title=text,
                           citations=[f"p{(i + 1) % 5}", f"p{(i + 3) % 5}"])
               for i, text in enumerate(FIVE_DOCS)]
    k, cfg = 3, HybridConfig(alpha=0.3)
    result = cli.evaluate_corpus(records, methods=("hybrid",), k=k,
                                 hybrid=cfg,
                                 **evaluation_inputs(records, dim=16))
    texts = [build_text(r) for r in records]
    ids = tuple(r.id for r in records)
    index = bm25_build(texts, ids=ids)
    emb = embed_corpus(records, dim=16)
    run = result["runs"]["hybrid"]
    assert list(run) == ["p1", "p3"]  # the evaluation half of 5 queries
    for pid in run:
        i = ids.index(pid)
        full = hybrid_rank(bm25_rank(index, texts[i], 5),
                           dense_rank(emb.row(i), emb, 5), cfg, k + 1,
                           universe=ids)
        expected = [it for it in full.to_dicts() if it["id"] != pid][:k]
        assert run[pid].to_dicts() == expected


@st.composite
def tied_corpora(draw):
    """Up to 12 papers, each citing the next, whose texts are drawn from
    at most 3 strings, so that tied scores straddle position k; and k from
    1 to one past the paper count."""
    n = draw(st.integers(2, 12))
    texts = draw(st.lists(st.sampled_from(FIVE_DOCS), min_size=1, max_size=3,
                          unique=True))
    titles = draw(st.lists(st.sampled_from(texts), min_size=n, max_size=n))
    records = [PaperRecord(id=f"p{i}", title=title,
                           citations=[f"p{(i + 1) % n}"])
               for i, title in enumerate(titles)]
    return records, draw(st.integers(1, n + 1))


@settings(max_examples=80, deadline=None)
@given(case=tied_corpora())
def test_evaluate_ranks_the_k_best_papers_but_the_query(case):
    """bm25, dense and hybrid each list the first k of a full sort of one
    pool, every paper but the query (for bm25, of positive score only)."""
    records, k = case
    inputs = evaluation_inputs(records, dim=16)
    cfg = HybridConfig()
    result = cli.evaluate_corpus(records, methods=("bm25", "dense", "hybrid"),
                                 k=k, hybrid=cfg, **inputs)
    emb = inputs["embeddings"]
    assert result["runs"]["dense"]
    for pid in result["runs"]["dense"]:
        i = inputs["graph"].index_of[pid]
        bm = bm25_scores(inputs["bm25"], build_text(records[i]))
        cos = emb.scores(emb.row(i))
        others = np.arange(len(records)) != i
        for method, scores, pool in (
                ("bm25", bm, others & (bm > 0.0)), ("dense", cos, others),
                ("hybrid", hybrid_scores(bm, cos, cfg), others)):
            expected = oracle_top_k(scores.tolist(), k, pool)
            ranked = result["runs"][method][pid]
            assert ranked.ids() == [records[j].id for j in expected], method
            assert [it.score for it in ranked.items] == \
                [scores[j] for j in expected], method


finite = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def pools(draw):
    """Scores (often drawn from at most 3 values, so heavily tied), an
    optional candidate mask, and k at 1, the pool size, past it or free."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        values = draw(st.lists(finite, min_size=1, max_size=3))
        scores = draw(st.lists(st.sampled_from(values), min_size=n,
                               max_size=n))
    else:
        scores = draw(st.lists(finite, min_size=n, max_size=n))
    mask = draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n))
    size = n if mask is None else sum(mask)
    k = draw(st.sampled_from([1, max(size, 1), size + 3])
             | st.integers(1, n + 3))
    return (np.array(scores),
            None if mask is None else np.array(mask, dtype=bool), k)


@settings(max_examples=400, deadline=None)
@given(case=pools())
@example(case=(np.array([0.5, 0.5, 0.5, 0.1, 0.5]), None, 2))
@example(case=(np.array([0.0, -0.0, 0.0, 1.0]),
               np.array([True, True, False, True]), 2))
def test_top_k_equals_full_sort_oracle(case):
    scores, mask, k = case
    ids = [f"d{i}" for i in range(len(scores))]
    ranked = top_k(scores, ids, k, "dense", candidates=mask)
    expected = oracle_top_k(scores.tolist(), k, mask)
    assert ranked.ids() == [ids[i] for i in expected]
    assert [it.score for it in ranked.items] == [scores[i] for i in expected]


@pytest.mark.parametrize("k", [1, 11, 8000])
def test_top_k_without_candidates_holds_two_floats_per_score(k):
    """With no candidate mask a position in the negated scores is its
    index, so the peak is the negated copy plus the copy `np.partition`
    sorts (or the argsort of every score): 16 bytes per score, with no
    index range and no gathered copy of the scores."""
    scores = np.random.default_rng(k).standard_normal(8000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        picked = top_k_indices(scores, k)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert picked.tolist() == oracle_top_k(scores.tolist(), k)
    assert peak <= 17 * len(scores) + 8192, peak / len(scores)
