"""Score-pruned subgraph retrieval around a query-selected seed.

The loop, per hop l = 1..L: take the not-yet-visited undirected neighbors
of the last hop's survivors as the frontier, score each frontier node's
embedding row against the query with the relevance scorer (the rows it
was fitted on), and keep only frontier nodes scoring at least the pruning
threshold. Expanding only the last hop's survivors yields the same
frontier as expanding every kept node, because the neighbors of earlier
kept nodes are already visited. Each node is scored once, at the hop it
first appears; the seed is never pruned. Retrieval is a pure function of
its inputs.

Everything runs on the graph's CSR arrays: the frontier gathers the
survivors' rows through a boolean visited mask.

`select_seed` and `decode_and_rank` take the query's cosine row, the
`EmbeddingMatrix.scores` array over all nodes, rather than the query
vector: the caller computes it once per query (that call rejects an
all-zero query) and every step that ranks by cosine reads it.
`retrieve_subgraph` takes the query vector, which the scorer reads.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embed import EmbeddingMatrix
from .gat import ScorerParams, relevance_scores
from .graph import CitationGraph
from .ranking import RankedItem, RankedList, top_k_indices


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
    """Kept nodes with scores, hop labels and the per-hop trace.

    `nodes` is in insertion order (seed first, then survivors per hop in
    ascending index order). The seed carries the sentinel score 1.0; every
    other kept node survived the threshold at the hop recorded for it.
    """

    seed: int
    nodes: list[int]
    scores: dict[int, float]
    hops: dict[int, int]
    trace: list[HopTrace] = field(default_factory=list)


def select_seed(cos: np.ndarray, embeddings: EmbeddingMatrix,
                graph: CitationGraph) -> int:
    """Node whose embedding is most cosine-similar to the query.

    `cos` is the query's `embeddings.scores` row. Ties break toward the
    smallest node index.
    """
    if not graph.node_count == embeddings.node_count == len(cos):
        raise ValueError("graph, embeddings and scores disagree on node count")
    if graph.node_count == 0:
        raise ValueError("cannot select a seed in an empty graph")
    return int(np.argmax(cos))


def retrieve_subgraph(graph: CitationGraph, embeddings: EmbeddingMatrix,
                      query: np.ndarray, seed: int, scorer: ScorerParams,
                      config: RetrieverConfig) -> RetrievedSubgraph:
    """Expand and prune around the seed for up to `hops` rings."""
    if not 0 <= seed < graph.node_count:
        raise IndexError(f"seed index {seed} out of range")
    query = np.asarray(query, dtype=np.float64)

    kept = [np.array([seed])]  # the seed, then each hop's survivors
    visited = np.zeros(graph.node_count, dtype=bool)
    visited[seed] = True
    scores: dict[int, float] = {seed: 1.0}
    hop_of: dict[int, int] = {seed: 0}
    trace: list[HopTrace] = []

    for hop in range(1, config.hops + 1):
        frontier = graph.frontier(kept[-1], visited)
        if not len(frontier):
            trace.append(HopTrace(hop=hop, expanded=0, pruned=0))
            break
        visited[frontier] = True
        frontier_scores = relevance_scores(embeddings.vectors[frontier],
                                           query, scorer)

        passed = np.flatnonzero(frontier_scores >= config.prune_threshold)
        if len(passed) > config.max_frontier:  # best scores, ties to lower index
            best = np.argsort(-frontier_scores[passed], kind="stable")
            passed = np.sort(passed[best[:config.max_frontier]])
        trace.append(HopTrace(hop=hop, expanded=len(frontier),
                              pruned=len(frontier) - len(passed)))

        survivors = frontier[passed]  # ascending node index
        scores.update(zip(survivors.tolist(), frontier_scores[passed].tolist()))
        hop_of.update(dict.fromkeys(survivors.tolist(), hop))
        kept.append(survivors)

    nodes = np.concatenate(kept)
    return RetrievedSubgraph(seed=seed, nodes=nodes.tolist(), scores=scores,
                             hops=hop_of, trace=trace)


def decode_and_rank(subgraph: RetrievedSubgraph, cos: np.ndarray,
                    embeddings: EmbeddingMatrix,
                    config: RetrieverConfig) -> RankedList:
    """Rank kept nodes (seed excluded) by embedding cosine to the query.

    `cos` is the query's `embeddings.scores` row; kept nodes and dense
    fallback are both scored from it, so the combined list is on one
    scale. When fewer than top_k candidates survive and dense fallback is
    enabled, the remaining slots are filled with the highest-cosine nodes
    not already present (never the seed), flagged "dense-fallback"; the
    combined list is ordered by score with index tie-breaks.
    """
    kept = np.zeros(embeddings.node_count, dtype=bool)
    kept[subgraph.nodes] = True
    kept[subgraph.seed] = False
    picked = top_k_indices(cos, config.top_k, kept)
    if len(picked) < config.top_k and config.fallback_to_dense:
        pool = ~kept
        pool[subgraph.seed] = False
        fill = top_k_indices(cos, config.top_k - len(picked), pool)
        picked = np.concatenate([picked, fill])
        picked = picked[np.lexsort((picked, -cos[picked]))]

    return RankedList(items=[
        RankedItem(id=embeddings.ids[u], score=float(cos[u]),
                   provenance="graph" if kept[u] else "dense-fallback")
        for u in picked.tolist()
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
