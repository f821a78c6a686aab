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
survivors' rows through a boolean visited mask, and each hop appends its
survivors and their scores as arrays. No cap bounds a hop: each node is
scored at most once per query, so pruning reads at most the n rows that
the query's cosine row already reads.

`select_seed` and `decode_and_rank` take the query's cosine row, the
`EmbeddingMatrix.scores` array over all nodes, rather than the query
vector: the caller computes it once per query (that call rejects an
all-zero query) and every step that ranks by cosine reads it.
`retrieve_subgraph` takes the query vector, which the scorer reads.

`decode_and_rank` lists the k best papers other than the node left out:
the kept nodes first, then dense hits, which only top up a list shorter
than k, after every kept node.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .embed import EmbeddingMatrix
from .graph import CitationGraph
from .ranking import RankedItem, RankedList, top_k_indices

if TYPE_CHECKING:  # gat loads with the first retrieval, not with the config
    from .gat import ScorerParams


@dataclass
class RetrieverConfig:
    hops: int = 3
    prune_threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.hops < 1:
            raise ValueError("hops (--hops) must be >= 1")
        if not 0.0 <= self.prune_threshold <= 1.0:
            raise ValueError("prune_threshold (--sigma) must be in [0, 1]")


@dataclass(frozen=True)
class HopTrace:
    hop: int
    expanded: int
    pruned: int


@dataclass
class RetrievedSubgraph:
    """Kept nodes as aligned arrays, plus the per-hop trace.

    `nodes`, `hops` and `scores` are in insertion order: the seed first, at
    hop 0 with the sentinel score 1.0, then each hop's survivors in
    ascending index order, with the hop that reached them and the score
    (at least the threshold) that kept them.
    """

    seed: int
    nodes: np.ndarray
    hops: np.ndarray
    scores: np.ndarray
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
    from .gat import relevance_scores
    if not 0 <= seed < graph.node_count:
        raise IndexError(f"seed index {seed} out of range")
    query = np.asarray(query, dtype=np.float64)

    kept = [np.array([seed])]  # the seed, then each hop's survivors
    kept_scores = [np.ones(1)]
    visited = np.zeros(graph.node_count, dtype=bool)
    visited[seed] = True
    trace: list[HopTrace] = []

    for hop in range(1, config.hops + 1):
        frontier = graph.frontier(kept[-1], visited)
        if not len(frontier):
            trace.append(HopTrace(hop=hop, expanded=0, pruned=0))
            break
        visited[frontier] = True
        frontier_scores = relevance_scores(embeddings.rows(frontier),
                                           query, scorer)
        passed = frontier_scores >= config.prune_threshold
        kept.append(frontier[passed])  # ascending node index
        kept_scores.append(frontier_scores[passed])
        trace.append(HopTrace(hop=hop, expanded=len(frontier),
                              pruned=len(frontier) - len(kept[-1])))

    hops = np.repeat(np.arange(len(kept)), [len(nodes) for nodes in kept])
    return RetrievedSubgraph(seed=seed, nodes=np.concatenate(kept), hops=hops,
                             scores=np.concatenate(kept_scores), trace=trace)


def decode_and_rank(subgraph: RetrievedSubgraph, cos: np.ndarray,
                    embeddings: EmbeddingMatrix, k: int,
                    leave_out: int | None) -> RankedList:
    """The k best papers: kept nodes by cosine to the query, then the fill.

    Every score is read from `cos`, the query's `embeddings.scores` row.
    Up to k kept nodes other than `leave_out` come first, flagged
    "graph"; the best nodes neither kept nor `leave_out` fill the rest,
    flagged "dense-fallback". Each tier is ordered by cosine, ties to the
    lower index; the fill is appended, so its first score can exceed the
    last graph score. A corpus-paper query leaves out its own node, so a
    paper with the same text can be listed; free text passes None, so its
    closest paper can be listed.
    """
    kept = np.zeros(embeddings.node_count, dtype=bool)
    kept[subgraph.nodes] = True
    pool = ~kept
    if leave_out is not None:
        kept[leave_out] = pool[leave_out] = False
    picked = top_k_indices(cos, k, kept)
    fill = (top_k_indices(cos, k - len(picked), pool)
            if len(picked) < k else picked[:0])
    return RankedList(items=[
        RankedItem(id=embeddings.ids[u], score=float(cos[u]), provenance=tier)
        for tier, nodes in (("graph", picked), ("dense-fallback", fill))
        for u in nodes.tolist()
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
