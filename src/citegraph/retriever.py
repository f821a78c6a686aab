"""Attention-pruned subgraph retrieval around a query-selected seed.

The loop, per hop l = 1..L: take the not-yet-visited undirected neighbors
of the kept set as the frontier, run one attention layer over the induced
subgraph of kept + frontier (layer l, reusing the last layer when l
exceeds the stack), score the frontier against the query, and keep only
frontier nodes scoring at least the pruning threshold. Kept-node states
carry forward between hops, so the seed accumulates as many layers as
hops run. Each node is scored once, at the hop it first appears; the seed
is never pruned. Retrieval is a pure function of its inputs.

Everything runs on the graph's CSR arrays: the frontier gathers the kept
nodes' rows through a boolean visited mask, and each hop's subgraph is a
local `Csr` whose index i is the i-th node of kept + frontier.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embed import EmbeddingMatrix
from .gat import GatWeights, ScorerParams, gat_layer_forward, relevance_scores
from .graph import CitationGraph
from .ranking import RankedItem, RankedList


@dataclass
class RetrieverConfig:
    hops: int = 3
    prune_threshold: float = 0.5
    top_k: int = 10
    max_frontier: int = 2048
    fallback_to_dense: bool = True

    def __post_init__(self) -> None:
        if self.hops < 1:
            raise ValueError("hops must be >= 1")
        if not 0.0 <= self.prune_threshold <= 1.0:
            raise ValueError("prune_threshold must be in [0, 1]")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.max_frontier < 1:
            raise ValueError("max_frontier must be >= 1")


@dataclass(frozen=True)
class HopTrace:
    hop: int
    expanded: int
    pruned: int


@dataclass
class RetrievedSubgraph:
    """Kept nodes with scores, hop labels, final states and induced edges.

    `nodes` is in insertion order (seed first, then survivors per hop in
    ascending index order). The seed carries the sentinel score 1.0; every
    other kept node survived the threshold at the hop recorded for it.
    Edges are the induced directed citation edges among kept nodes, as
    graph-level index pairs sorted by (source, target).
    """

    seed: int
    nodes: list[int]
    scores: dict[int, float]
    hops: dict[int, int]
    states: dict[int, np.ndarray]
    edges: list[tuple[int, int]] = field(default_factory=list)
    trace: list[HopTrace] = field(default_factory=list)


def select_seed(query: np.ndarray, embeddings: EmbeddingMatrix,
                graph: CitationGraph) -> int:
    """Node whose embedding is most cosine-similar to the query.

    Ties break toward the smallest node index. An all-zero query has no
    meaningful similarity and is rejected.
    """
    q = np.asarray(query, dtype=np.float64)
    if np.linalg.norm(q) == 0.0:
        raise ValueError("degenerate query: zero vector")
    if graph.node_count != embeddings.node_count:
        raise ValueError("graph and embeddings disagree on node count")
    if graph.node_count == 0:
        raise ValueError("cannot select a seed in an empty graph")
    return int(np.argmax(embeddings.scores(q)))


def retrieve_subgraph(graph: CitationGraph, embeddings: EmbeddingMatrix,
                      query: np.ndarray, seed: int, weights: GatWeights,
                      scorer: ScorerParams,
                      config: RetrieverConfig) -> RetrievedSubgraph:
    """Expand and prune around the seed for up to `hops` rings."""
    if not 0 <= seed < graph.node_count:
        raise IndexError(f"seed index {seed} out of range")
    query = np.asarray(query, dtype=np.float64)

    kept = np.array([seed])
    H_kept = embeddings.vectors[kept]  # states of the kept nodes, in order
    visited = np.zeros(graph.node_count, dtype=bool)
    visited[seed] = True
    scores: dict[int, float] = {seed: 1.0}
    hop_of: dict[int, int] = {seed: 0}
    trace: list[HopTrace] = []

    for hop in range(1, config.hops + 1):
        frontier = graph.frontier(kept, visited)
        if not len(frontier):
            trace.append(HopTrace(hop=hop, expanded=0, pruned=0))
            break
        visited[frontier] = True

        sub = graph.induced_subgraph(np.concatenate([kept, frontier]))
        H = np.concatenate([H_kept, embeddings.vectors[frontier]])
        layer = weights.layers[min(hop, len(weights.layers)) - 1]
        H_next = gat_layer_forward(sub, H, layer)
        frontier_scores = relevance_scores(H_next[len(kept):], query, scorer)

        passed = np.flatnonzero(frontier_scores >= config.prune_threshold)
        if len(passed) > config.max_frontier:  # best scores, ties to lower index
            best = np.argsort(-frontier_scores[passed], kind="stable")
            passed = np.sort(passed[best[:config.max_frontier]])
        trace.append(HopTrace(hop=hop, expanded=len(frontier),
                              pruned=len(frontier) - len(passed)))

        survivors = frontier[passed]  # ascending node index
        scores.update(zip(survivors.tolist(), frontier_scores[passed].tolist()))
        hop_of.update(dict.fromkeys(survivors.tolist(), hop))
        H_kept = np.concatenate([H_next[:len(kept)], H_next[len(kept) + passed]])
        kept = np.concatenate([kept, survivors])

    nodes = kept.tolist()
    return RetrievedSubgraph(seed=seed, nodes=nodes, scores=scores,
                             hops=hop_of, states=dict(zip(nodes, H_kept)),
                             edges=graph.edges(kept), trace=trace)


def decode_and_rank(subgraph: RetrievedSubgraph, query: np.ndarray,
                    embeddings: EmbeddingMatrix,
                    config: RetrieverConfig) -> RankedList:
    """Rank kept nodes (seed excluded) by cosine of final state vs query.

    Final states have the embedding width (each hop stacks them with
    embedding rows), so they are compared with the query as they are.
    When fewer than top_k candidates survive and dense fallback is
    enabled, the remaining slots are filled with the highest raw-cosine
    nodes not already present (never the seed), flagged "dense-fallback";
    the combined list is ordered by score with index tie-breaks.
    """
    query = np.asarray(query, dtype=np.float64)
    scored: list[tuple[int, float, str]] = []
    nodes = [u for u in subgraph.nodes if u != subgraph.seed]
    if nodes:
        decoded = np.stack([subgraph.states[u] for u in nodes])
        # cosine per row, 0 where either vector is zero (as embed.cosine)
        norms = np.linalg.norm(decoded, axis=1) * np.linalg.norm(query)
        with np.errstate(divide="ignore", invalid="ignore"):
            cos = np.where(norms > 0.0,
                           np.clip(decoded @ query / norms, -1.0, 1.0), 0.0)
        order = np.lexsort((nodes, -cos))[:config.top_k].tolist()
        scored = [(nodes[i], float(cos[i]), "graph") for i in order]

    if len(scored) < config.top_k and config.fallback_to_dense:
        dense = embeddings.scores(query)
        pool = np.ones(embeddings.node_count, dtype=bool)
        pool[[u for u, _, _ in scored] + [subgraph.seed]] = False
        pool = np.flatnonzero(pool)
        best = pool[np.argsort(-dense[pool], kind="stable")]
        scored += [(i, float(dense[i]), "dense-fallback")
                   for i in best[:config.top_k - len(scored)].tolist()]
        scored.sort(key=lambda t: (-t[1], t[0]))

    return RankedList(items=[
        RankedItem(id=embeddings.ids[u], score=s, provenance=prov)
        for u, s, prov in scored
    ])


def retrieval_to_json(query_id: str, subgraph: RetrievedSubgraph,
                      ranked: RankedList, graph: CitationGraph) -> dict:
    """Exportable summary: seed id, candidates and the per-hop trace."""
    return {
        "query_id": query_id,
        "seed": graph.node_ids[subgraph.seed],
        "candidates": ranked.to_dicts(),
        "trace": [
            {"hop": t.hop, "expanded": t.expanded, "pruned": t.pruned}
            for t in subgraph.trace
        ],
    }
