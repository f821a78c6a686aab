import numpy as np
import pytest

from citegraph.embed import EmbeddingMatrix
from citegraph.gat import relevance_scores
from citegraph.retriever import (RetrievedSubgraph, RetrieverConfig,
                                 decode_and_rank, retrieve_subgraph,
                                 retrieval_to_json, select_seed)
from helpers import (citation_graph, oracle_bfs_ball, oracle_cosine,
                     oracle_retrieve, random_scorer, retriever_fixture)


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


def run_fixture(fx, sigma=None, hops=None, max_frontier=2048):
    cfg = RetrieverConfig(
        hops=hops if hops is not None else fx["hops"],
        prune_threshold=sigma if sigma is not None else fx["sigma"],
        max_frontier=max_frontier)
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
        assert sub.nodes == [fx["seed_node"]]
        assert sub.hops == {fx["seed_node"]: 0}


def test_retrieve_matches_loop_oracle():
    for fixture_seed in range(25):
        fx = retriever_fixture(fixture_seed)
        sub, _ = run_fixture(fx)
        kept, scores, hops = oracle_retrieve(
            fx["n"], fx["edges"], fx["embeddings"].vectors, fx["query"],
            fx["seed_node"], fx["scorer"].u, fx["scorer"].b, fx["sigma"],
            fx["hops"])
        assert sub.nodes == kept, f"fixture {fixture_seed}"
        for v in kept:
            assert sub.scores[v] == pytest.approx(scores[v], abs=1e-9)
            assert sub.hops[v] == hops[v]


def test_kept_invariants_seed_and_radius():
    for fixture_seed in range(25):
        fx = retriever_fixture(fixture_seed)
        sub, cfg = run_fixture(fx)
        assert sub.nodes[0] == fx["seed_node"]
        assert sub.hops[fx["seed_node"]] == 0
        for v in sub.nodes[1:]:
            assert 1 <= sub.hops[v] <= cfg.hops
            assert sub.scores[v] >= cfg.prune_threshold


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
        sub, cfg = run_fixture(fx, sigma=0.0)
        rows, query = fx["embeddings"].vectors, fx["query"]
        others = sub.nodes[1:]
        expected = relevance_scores(rows[others], query, fx["scorer"])
        for v, score in zip(others, expected):
            assert sub.scores[v] == pytest.approx(score, abs=1e-12)
        ranked = decode_and_rank(sub, fx["embeddings"].scores(query),
                                 fx["embeddings"], cfg)
        cos = fx["embeddings"].scores(query)
        assert ranked.items
        for item in ranked.items:
            assert item.score == cos[fx["graph"].index_of[item.id]]


def test_retrieve_deterministic():
    fx = retriever_fixture(3)
    a, _ = run_fixture(fx)
    b, _ = run_fixture(fx)
    assert a.nodes == b.nodes
    assert a.trace == b.trace
    for v in a.nodes:
        assert a.scores[v] == b.scores[v]


def test_trace_accounts_for_every_hop():
    fx = retriever_fixture(4)
    sub, cfg = run_fixture(fx, sigma=0.0)
    assert len(sub.trace) <= cfg.hops
    survivors = sum(t.expanded - t.pruned for t in sub.trace)
    assert survivors == len(sub.nodes) - 1
    for t in sub.trace:
        assert t.expanded >= 0 and 0 <= t.pruned <= t.expanded


def test_max_frontier_caps_by_score_then_index():
    # star: hub 0 cites 1..9; one hop, sigma 0, cap 3
    edges = [(0, v) for v in range(1, 10)]
    fx_graph = citation_graph(10, edges)
    rng = np.random.default_rng(5)
    vectors = rng.normal(size=(10, 4))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    emb = matrix(vectors)
    query = rng.normal(size=4)
    scorer = random_scorer(4, 0)
    cfg = RetrieverConfig(hops=1, prune_threshold=0.0, max_frontier=3)
    sub = retrieve_subgraph(fx_graph, emb, query, 0, scorer, cfg)
    kept, _, _ = oracle_retrieve(10, edges, vectors, query, 0, scorer.u,
                                 scorer.b, 0.0, 1, max_frontier=3)
    assert sub.nodes == kept
    assert len(sub.nodes) == 4
    assert sub.trace[0].expanded == 9 and sub.trace[0].pruned == 6


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
    assert sub.nodes == kept == list(range(n))
    assert sub.hops == hops == {i: i for i in range(n)}
    for v in kept:
        assert sub.scores[v] == pytest.approx(scores[v], abs=1e-9)


def test_decode_and_rank_seed_only_no_fallback():
    fx = retriever_fixture(7)
    sub, _ = run_fixture(fx, sigma=1.0)
    cfg = RetrieverConfig(fallback_to_dense=False)
    ranked = decode_and_rank(sub, fx["embeddings"].scores(fx["query"]),
                             fx["embeddings"], cfg)
    assert len(ranked) == 0


def test_decode_and_rank_single_candidate():
    emb = matrix(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    sub = RetrievedSubgraph(
        seed=0, nodes=[0, 1], scores={0: 1.0, 1: 0.6}, hops={0: 0, 1: 1},
        trace=[])
    cfg = RetrieverConfig(fallback_to_dense=False)
    ranked = decode_and_rank(sub, emb.scores(np.array([1.0, 0.0])), emb, cfg)
    assert ranked.ids() == ["n1"]  # kept regardless of its (negative) score
    assert ranked.items[0].score < 0


def test_decode_and_rank_matches_sort_oracle():
    fx = retriever_fixture(8)
    sub, cfg = run_fixture(fx, sigma=0.0)
    cfg = RetrieverConfig(hops=cfg.hops, prune_threshold=0.0, top_k=3,
                          fallback_to_dense=False)
    ranked = decode_and_rank(sub, fx["embeddings"].scores(fx["query"]),
                             fx["embeddings"], cfg)
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
    assert ranked.ids() == expected
    assert all(it.provenance == "graph" for it in ranked.items)


def test_decode_and_rank_dense_fallback_pads_and_flags():
    g = citation_graph(5, [(0, 1)])
    vectors = np.array([[1.0, 0.0], [0.8, 0.6], [0.6, 0.8], [0.0, 1.0],
                        [-1.0, 0.0]])
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    emb = matrix(vectors)
    sub = RetrievedSubgraph(
        seed=0, nodes=[0, 1], scores={0: 1.0, 1: 0.9}, hops={0: 0, 1: 1},
        trace=[])
    cfg = RetrieverConfig(top_k=3, fallback_to_dense=True)
    query = np.array([1.0, 0.0])
    ranked = decode_and_rank(sub, emb.scores(query), emb, cfg)
    assert len(ranked) == 3
    assert "n0" not in ranked.ids()  # seed never appears, even as padding
    provenance = {it.id: it.provenance for it in ranked.items}
    assert provenance["n1"] == "graph"
    assert set(ranked.ids()) == {"n1", "n2", "n3"}
    assert provenance["n2"] == provenance["n3"] == "dense-fallback"
    scores = [it.score for it in ranked.items]
    assert scores == sorted(scores, reverse=True)


def test_retrieval_json_shape():
    fx = retriever_fixture(10)
    sub, cfg = run_fixture(fx)
    ranked = decode_and_rank(sub, fx["embeddings"].scores(fx["query"]),
                             fx["embeddings"], cfg)
    out = retrieval_to_json("q1", sub, ranked, fx["graph"])
    assert set(out) == {"query_id", "seed", "candidates", "trace"}
    assert out["seed"] == fx["graph"].node_ids[fx["seed_node"]]
    for c in out["candidates"]:
        assert set(c) == {"id", "score", "provenance"}
    for t in out["trace"]:
        assert set(t) == {"hop", "expanded", "pruned"}


def test_config_validation():
    with pytest.raises(ValueError):
        RetrieverConfig(hops=0)
    with pytest.raises(ValueError):
        RetrieverConfig(prune_threshold=1.5)
    with pytest.raises(ValueError):
        RetrieverConfig(top_k=0)
