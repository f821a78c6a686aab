from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from citegraph.embed import EmbeddingMatrix
from citegraph.gat import relevance_scores
from citegraph.ranking import RankedItem, RankedList, top_k
from citegraph.retriever import (RetrievedSubgraph, RetrieverConfig,
                                 decode_and_rank, retrieve_subgraph,
                                 retrieval_to_json, select_seed)
from helpers import (citation_graph, oracle_bfs_ball, oracle_cosine,
                     oracle_retrieve, random_digraph, random_scorer,
                     retriever_fixture)


def matrix(vectors):
    vectors = np.asarray(vectors, dtype=np.float64)
    ids = tuple(f"n{i}" for i in range(len(vectors)))
    return EmbeddingMatrix(ids=ids, vectors=vectors, dim=vectors.shape[1])


def test_select_seed_exact_copy():
    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(10, 4))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    emb = matrix(vectors)
    g = citation_graph(10, [])
    assert select_seed(emb.scores(vectors[7]), emb, g) == 7


def test_select_seed_tie_breaks_low_index():
    best = np.array([1.0, 0.0])
    vectors = np.array([[0.0, 1.0], [0.6, 0.8], [0.0, 1.0], best, [0.6, 0.8],
                        [0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0], best])
    emb = matrix(vectors)
    g = citation_graph(10, [])
    assert select_seed(emb.scores(np.array([2.0, 0.0])), emb, g) == 3


def test_select_seed_matches_linear_scan():
    rng = np.random.default_rng(1)
    vectors = rng.normal(size=(50, 5))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    emb = matrix(vectors)
    g = citation_graph(50, [])
    for _ in range(10):
        q = rng.normal(size=5)
        expected = max(range(50), key=lambda i: (oracle_cosine(vectors[i], q), -i))
        assert select_seed(emb.scores(q), emb, g) == expected


def test_select_seed_degenerate_query():
    emb = matrix(np.eye(3))
    g = citation_graph(3, [])
    with pytest.raises(ValueError, match="degenerate"):
        select_seed(emb.scores(np.zeros(3)), emb, g)


def run_fixture(fx, sigma=None, hops=None):
    cfg = RetrieverConfig(
        hops=hops if hops is not None else fx["hops"],
        prune_threshold=sigma if sigma is not None else fx["sigma"])
    return retrieve_subgraph(fx["graph"], fx["embeddings"], fx["query"],
                             fx["seed_node"], fx["scorer"], cfg), cfg


def test_sigma_zero_equals_bfs_ball():
    for fixture_seed in range(8):
        fx = retriever_fixture(fixture_seed)
        sub, _ = run_fixture(fx, sigma=0.0)
        ball = oracle_bfs_ball(fx["n"], fx["edges"], [fx["seed_node"]],
                               fx["hops"])
        assert set(sub.nodes) == ball


def test_sigma_one_keeps_only_seed():
    for fixture_seed in range(8):
        fx = retriever_fixture(fixture_seed)
        sub, _ = run_fixture(fx, sigma=1.0)
        assert sub.nodes.tolist() == [fx["seed_node"]]
        assert sub.hops.tolist() == [0]
        assert sub.scores.tolist() == [1.0]


def test_retrieve_matches_loop_oracle():
    for fixture_seed in range(25):
        fx = retriever_fixture(fixture_seed)
        sub, _ = run_fixture(fx)
        kept, scores, hops = oracle_retrieve(
            fx["n"], fx["edges"], fx["embeddings"].vectors, fx["query"],
            fx["seed_node"], fx["scorer"].u, fx["scorer"].b, fx["sigma"],
            fx["hops"])
        assert sub.nodes.tolist() == kept, f"fixture {fixture_seed}"
        assert sub.hops.tolist() == [hops[v] for v in kept]
        assert sub.scores.tolist() == pytest.approx(
            [scores[v] for v in kept], abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), sigma=st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]),
       hops=st.integers(1, 5))
def test_kept_invariants_seed_and_radius(data, sigma, hops):
    """On random graphs: aligned arrays, the seed first at hop 0 with score
    1.0, hops non-decreasing, indices rising within a hop and never
    repeated, every other score at least sigma, and the loop oracle's
    kept order, scores and hops."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    n, edges = random_digraph(rng, max_nodes=25)
    vectors = rng.normal(size=(n, 4))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    query = rng.normal(size=4)
    scorer = random_scorer(4, int(rng.integers(0, 2 ** 31)))
    seed = data.draw(st.integers(0, n - 1))
    sub = retrieve_subgraph(citation_graph(n, edges), matrix(vectors), query,
                            seed, scorer,
                            RetrieverConfig(hops=hops, prune_threshold=sigma))
    nodes, hop, scores = sub.nodes, sub.hops, sub.scores
    assert len(nodes) == len(hop) == len(scores)
    assert (nodes[0], hop[0], scores[0]) == (seed, 0, 1.0)
    assert (np.diff(hop) >= 0).all() and hop.max() <= hops
    assert (hop[1:] >= 1).all()
    same_hop = hop[1:] == hop[:-1]
    assert (nodes[1:][same_hop] > nodes[:-1][same_hop]).all()
    assert len(set(nodes.tolist())) == len(nodes)
    assert (scores[1:] >= sigma).all()
    kept, oracle_scores, oracle_hops = oracle_retrieve(
        n, edges, vectors, query, seed, scorer.u, scorer.b, sigma, hops)
    assert nodes.tolist() == kept
    assert hop.tolist() == [oracle_hops[v] for v in kept]
    assert scores.tolist() == pytest.approx(
        [oracle_scores[v] for v in kept], abs=1e-9)


def test_pruning_monotone_in_sigma():
    for fixture_seed in range(25):
        fx = retriever_fixture(fixture_seed)
        loose, _ = run_fixture(fx, sigma=0.3)
        strict, _ = run_fixture(fx, sigma=0.7)
        assert set(strict.nodes) <= set(loose.nodes), f"fixture {fixture_seed}"


def test_scores_come_from_embedding_rows():
    """Pruning scores are the scorer on each node's embedding row, and
    graph candidates and dense fallback share the query's cosine scores."""
    for fixture_seed in range(25):
        fx = retriever_fixture(fixture_seed)
        sub, _ = run_fixture(fx, sigma=0.0)
        rows, query = fx["embeddings"].vectors, fx["query"]
        expected = relevance_scores(rows[sub.nodes[1:]], query, fx["scorer"])
        assert sub.scores[1:].tolist() == pytest.approx(expected.tolist(),
                                                        abs=1e-12)
        ranked = decode_and_rank(sub, fx["embeddings"].scores(query),
                                 fx["embeddings"], 10, sub.seed)
        cos = fx["embeddings"].scores(query)
        assert ranked.items
        for item in ranked.items:
            assert item.score == cos[fx["graph"].index_of[item.id]]


def test_retrieve_deterministic():
    fx = retriever_fixture(3)
    a, _ = run_fixture(fx)
    b, _ = run_fixture(fx)
    assert a.nodes.tolist() == b.nodes.tolist()
    assert a.hops.tolist() == b.hops.tolist()
    assert a.scores.tolist() == b.scores.tolist()
    assert a.trace == b.trace


def test_trace_accounts_for_every_hop():
    fx = retriever_fixture(4)
    sub, cfg = run_fixture(fx, sigma=0.0)
    assert len(sub.trace) <= cfg.hops
    survivors = sum(t.expanded - t.pruned for t in sub.trace)
    assert survivors == len(sub.nodes) - 1
    for t in sub.trace:
        assert t.expanded >= 0 and 0 <= t.pruned <= t.expanded


def test_wide_frontier_keeps_every_survivor():
    # star: hub 0 cites 1..3000; one hop at sigma 0 keeps the whole ring
    n = 3001
    edges = [(0, v) for v in range(1, n)]
    rng = np.random.default_rng(5)
    vectors = rng.normal(size=(n, 4))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    query = rng.normal(size=4)
    scorer = random_scorer(4, 0)
    cfg = RetrieverConfig(hops=1, prune_threshold=0.0)
    sub = retrieve_subgraph(citation_graph(n, edges), matrix(vectors), query,
                            0, scorer, cfg)
    kept, _, _ = oracle_retrieve(n, edges, vectors, query, 0, scorer.u,
                                 scorer.b, 0.0, 1)
    assert sub.nodes.tolist() == kept == list(range(n))
    assert sub.trace[0].expanded == 3000 and sub.trace[0].pruned == 0


def test_deep_hops_reuse_last_layer():
    # path graph needing 6 hops, more than the default 3
    n = 7
    edges = [(i, i + 1) for i in range(n - 1)]
    g = citation_graph(n, edges)
    rng = np.random.default_rng(20)
    vectors = rng.normal(size=(n, 5))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    emb = matrix(vectors)
    query = rng.normal(size=5)
    scorer = random_scorer(5, 3)
    cfg = RetrieverConfig(hops=6, prune_threshold=0.0)
    sub = retrieve_subgraph(g, emb, query, 0, scorer, cfg)
    kept, scores, hops = oracle_retrieve(n, edges, vectors, query, 0,
                                         scorer.u, scorer.b, 0.0, 6)
    assert sub.nodes.tolist() == kept == list(range(n))
    assert sub.hops.tolist() == [hops[v] for v in kept] == list(range(n))
    assert sub.scores.tolist() == pytest.approx(
        [scores[v] for v in kept], abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 5).flatmap(lambda dim: st.lists(
    st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
    min_size=1, max_size=20)),
       pick=st.integers(0, 19), k=st.integers(1, 25),
       sigma=st.floats(0.0, 1.0), hops=st.integers(1, 4),
       scorer_seed=st.integers(0, 2 ** 32 - 1))
@example(rows=[[1, 0], [1, 0], [0, 1]], pick=1, k=2, sigma=0.5, hops=3,
         scorer_seed=0)  # q = 1: its twin, node 0, is the seed
def test_attn_without_edges_lists_the_cosine_top_k_but_the_query(
        rows, pick, k, sigma, hops, scorer_seed):
    """With no edge to walk, attn (seed, walk, decode, leaving q out)
    lists the ids and scores that `top_k` gives over q's cosine row with
    every paper but q in the pool, whether the seed is q or its twin."""
    vectors = np.array(rows, dtype=np.float64)
    norms = np.linalg.norm(vectors, axis=1)
    nonzero = np.flatnonzero(norms > 0.0).tolist()
    assume(nonzero)
    vectors[nonzero] /= norms[nonzero, None]
    q = nonzero[pick % len(nonzero)]  # any node whose row is non-zero
    n, dim = vectors.shape
    emb, graph = matrix(vectors), citation_graph(n, [])
    cos = emb.scores(emb.row(q))
    seed = select_seed(cos, emb, graph)
    sub = retrieve_subgraph(graph, emb, emb.row(q), seed,
                            random_scorer(dim, scorer_seed),
                            RetrieverConfig(hops=hops, prune_threshold=sigma))
    ranked = decode_and_rank(sub, cos, emb, k, q)
    dense = top_k(cos, emb.ids, k, "dense", candidates=np.arange(n) != q)
    assert [(it.id, it.score) for it in ranked.items] == \
        [(it.id, it.score) for it in dense.items]


def graph_tier(ranked):
    return [it for it in ranked.items if it.provenance == "graph"]


def test_decode_and_rank_seed_only_no_fallback():
    fx = retriever_fixture(7)
    sub, _ = run_fixture(fx, sigma=1.0)
    ranked = decode_and_rank(sub, fx["embeddings"].scores(fx["query"]),
                             fx["embeddings"], 10, sub.seed)
    assert graph_tier(ranked) == []  # the graph-only list is empty
    assert len(ranked) == min(10, fx["n"] - 1)
    assert all(it.provenance == "dense-fallback" for it in ranked.items)
    assert fx["embeddings"].ids[sub.seed] not in ranked.ids()


def test_decode_and_rank_single_candidate():
    emb = matrix(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    sub = RetrievedSubgraph(seed=0, nodes=np.array([0, 1]),
                            hops=np.array([0, 1]), scores=np.array([1.0, 0.6]))
    ranked = decode_and_rank(sub, emb.scores(np.array([1.0, 0.0])), emb, 10,
                             sub.seed)
    assert ranked.ids() == ["n1"]  # kept regardless of its (negative) score
    assert ranked.items[0].score < 0
    assert ranked.items[0].provenance == "graph"


def test_decode_and_rank_matches_sort_oracle():
    fx = retriever_fixture(8)
    sub, _ = run_fixture(fx, sigma=0.0)
    ranked = decode_and_rank(sub, fx["embeddings"].scores(fx["query"]),
                             fx["embeddings"], 3, sub.seed)
    scored = []
    for v in sub.nodes:
        if v == sub.seed:
            continue
        h = fx["embeddings"].vectors[v]
        denom = np.linalg.norm(h) * np.linalg.norm(fx["query"])
        score = float(h @ fx["query"]) / denom if denom else 0.0
        scored.append((v, score))
    expected = [f"n{v}" for v, _ in
                sorted(scored, key=lambda t: (-t[1], t[0]))[:3]]
    assert [it.id for it in graph_tier(ranked)] == expected
    assert ranked.ids()[:len(expected)] == expected
    assert len(expected) == 3  # the ball is wide enough that no fill is due
    assert all(it.provenance == "graph" for it in ranked.items)


def test_decode_and_rank_dense_fallback_pads_and_flags():
    vectors = np.array([[1.0, 0.0], [0.8, 0.6], [0.6, 0.8], [0.0, 1.0],
                        [-1.0, 0.0]])
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    emb = matrix(vectors)
    sub = RetrievedSubgraph(seed=0, nodes=np.array([0, 1]),
                            hops=np.array([0, 1]), scores=np.array([1.0, 0.9]))
    query = np.array([1.0, 0.0])
    ranked = decode_and_rank(sub, emb.scores(query), emb, 3, sub.seed)
    assert len(ranked) == 3
    assert "n0" not in ranked.ids()  # seed never appears, even as padding
    provenance = {it.id: it.provenance for it in ranked.items}
    assert provenance["n1"] == "graph"
    assert ranked.ids() == ["n1", "n2", "n3"]  # graph tier, then the fill
    assert provenance["n2"] == provenance["n3"] == "dense-fallback"
    scores = [it.score for it in ranked.items]
    assert scores == sorted(scores, reverse=True)


def test_decode_and_rank_graph_tier_then_dense_fill():
    """On 25 fixtures at sigma 0, 0.5 and 1, depth 3 and 10, leaving out
    the seed or nothing: the graph tier is the kept nodes but the left-out
    one by (-cosine, index), up to k; the best k - #graph nodes neither
    kept nor left out follow in the same order as the dense fill; every
    score is the query's cosine and every item names its tier. Among the
    cases are a seed-only retrieval, whose graph tier is empty, and kept
    nodes of negative cosine, which are listed all the same."""
    empty_graph_tier = negative_graph_item = False
    for fixture_seed in range(25):
        fx = retriever_fixture(fixture_seed)
        emb, query = fx["embeddings"], fx["query"]
        cos = emb.scores(query)

        def best(nodes):
            return sorted(nodes, key=lambda v: (-cos[v], v))

        for sigma in (0.0, 0.5, 1.0):
            sub, _ = run_fixture(fx, sigma=sigma)
            for k in (3, 10):
                for leave_out in (sub.seed, None):
                    ranked = decode_and_rank(sub, cos, emb, k, leave_out)
                    kept = set(sub.nodes.tolist()) - {leave_out}
                    graph = best(kept)[:k]
                    fill = best(set(range(fx["n"])) - kept - {leave_out})
                    fill = fill[:k - len(graph)]
                    expected = [emb.ids[v] for v in graph + fill]
                    assert ranked.ids() == expected, (fixture_seed, sigma)
                    assert [it.provenance for it in ranked.items] == \
                        ["graph"] * len(graph) + ["dense-fallback"] * len(fill)
                    for item, v in zip(ranked.items, graph + fill):
                        assert item.score == cos[v] == pytest.approx(
                            oracle_cosine(emb.vectors[v], query), abs=1e-12)
                    empty_graph_tier |= not graph
                    negative_graph_item |= any(cos[v] < 0 for v in graph)
    assert empty_graph_tier and negative_graph_item


def test_ranked_list_scores_fall_within_each_provenance():
    graph = [RankedItem("a", 0.5), RankedItem("b", 0.2)]
    fill = [RankedItem("c", 0.9, "dense-fallback"),
            RankedItem("d", 0.1, "dense-fallback")]
    assert RankedList(items=graph + fill).ids() == ["a", "b", "c", "d"]
    with pytest.raises(ValueError, match="non-increasing"):
        RankedList(items=graph + fill[::-1])
    with pytest.raises(ValueError, match="non-increasing"):
        RankedList(items=graph[::-1] + fill)
    with pytest.raises(ValueError, match="duplicate"):
        RankedList(items=graph + [RankedItem("a", 0.1, "dense-fallback")])


def test_retrieval_json_shape():
    fx = retriever_fixture(10)
    sub, _ = run_fixture(fx)
    ranked = decode_and_rank(sub, fx["embeddings"].scores(fx["query"]),
                             fx["embeddings"], 10, sub.seed)
    out = retrieval_to_json("q1", sub, ranked, fx["graph"])
    assert set(out) == {"query_id", "seed", "candidates", "trace"}
    assert out["seed"] == fx["graph"].node_ids[fx["seed_node"]]
    for c in out["candidates"]:
        assert set(c) == {"id", "score", "provenance"}
    for t in out["trace"]:
        assert set(t) == {"hop", "expanded", "pruned"}


def test_config_validation():
    with pytest.raises(ValueError, match=r"hops \(--hops\)"):
        RetrieverConfig(hops=0)
    with pytest.raises(ValueError, match=r"prune_threshold \(--sigma\)"):
        RetrieverConfig(prune_threshold=1.5)
    assert [f.name for f in fields(RetrieverConfig)] == ["hops",
                                                          "prune_threshold"]
