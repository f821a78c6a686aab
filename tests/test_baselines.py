import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citegraph import cli
from citegraph.baselines import (HybridConfig, bm25_build, bm25_rank,
                                 bm25_scores, dense_rank, hybrid_rank, idf)
from citegraph.embed import EmbeddingMatrix, embed_corpus, tokenize
from citegraph.graph import build_graph
from citegraph.corpus import PaperRecord, build_text
from citegraph.ranking import RankedItem, RankedList, top_k
from citegraph.retriever import select_seed
from helpers import oracle_bm25_loop, oracle_cosine, oracle_top_k

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


def test_build_single_empty_doc():
    index = bm25_build([""])
    assert index.doc_count == 1
    assert index.postings == {}
    assert index.avg_doc_length == 0.0


def test_idf_smoothed_floor_for_ubiquitous_term():
    index = bm25_build(["cat", "cat", "cat"])
    expected = math.log(1.0 + 0.5 / 3.5)
    assert idf(index, "cat") == pytest.approx(expected, abs=1e-12)
    assert idf(index, "cat") > 0.0


def pairs(posting):
    return [tuple(p) for p in posting.tolist()]


def test_postings_match_hand_count():
    index = bm25_build(["a b a", "b c", "c c c"])
    assert pairs(index.postings["a"]) == [(0, 2)]
    assert pairs(index.postings["b"]) == [(0, 1), (1, 1)]
    assert pairs(index.postings["c"]) == [(1, 1), (2, 3)]
    assert index.doc_lengths.tolist() == [3, 2, 3]
    assert index.avg_doc_length == pytest.approx(8.0 / 3.0)


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
    index = bm25_build(FIVE_DOCS, k1=k1, b=b)
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
@given(docs=docs_strategy, query=query_strategy,
       k1=st.floats(0.0, 3.0), b=st.floats(0.0, 1.0))
@example(docs=[["alpha", "beta"]], query=["alpha", "alpha"], k1=1.2, b=0.75)
@example(docs=[[], ["alpha"], []], query=["alpha", "unknown"], k1=1.2,
         b=0.75)
@example(docs=[[], []], query=["alpha"], k1=1.2, b=0.75)
def test_bm25_scores_bit_identical_to_posting_loop(docs, query, k1, b):
    index = bm25_build([" ".join(doc) for doc in docs], k1=k1, b=b)
    scores = bm25_scores(index, " ".join(query))
    assert scores.tobytes() == oracle_bm25_loop(docs, query, k1, b).tobytes()


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


def test_bm25_build_rejects_bad_parameters():
    for k1, b in ((-0.1, 0.75), (1.2, 1.5), (1.2, -0.5), (float("nan"), 0.5)):
        with pytest.raises(ValueError, match="k1"):
            bm25_build(FIVE_DOCS, k1=k1, b=b)


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
    grown = bm25_build(FIVE_DOCS + ["entirely unrelated zymurgy content"])
    for term, posting in base.postings.items():
        assert [p for p in pairs(grown.postings[term]) if p[0] < 5] == \
            pairs(posting)
    assert grown.doc_count == base.doc_count + 1
    # IDF and avg length shift consistently with the new corpus statistics
    assert grown.avg_doc_length == pytest.approx(
        (sum(base.doc_lengths) + 4) / 6.0)
    for term in base.postings:
        df = len(grown.postings[term])
        assert idf(grown, term) == pytest.approx(
            math.log((6 - df + 0.5) / (df + 0.5) + 1.0), abs=1e-12)


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
    result = cli.evaluate_corpus(records, methods=("hybrid",), k=k, dim=16,
                                 hybrid=cfg)
    texts = [build_text(r) for r in records]
    ids = tuple(r.id for r in records)
    index = bm25_build(texts, ids=ids)
    emb = embed_corpus(records, dim=16)
    run = result["runs"]["hybrid"]
    assert len(run) == 5
    for i, pid in enumerate(ids):
        full = hybrid_rank(bm25_rank(index, texts[i], 5),
                           dense_rank(emb.row(i), emb, 5), cfg, k + 1,
                           universe=ids)
        expected = [it for it in full.to_dicts() if it["id"] != pid][:k]
        assert run[pid].to_dicts() == expected


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
