"""Citation recommendation over a homogeneous citation graph.

Pipeline stages: corpus ingestion and repair, citation-graph construction,
node embeddings, subgraph retrieval with score-threshold pruning, candidate ranking, BM25 / dense / hybrid baselines, ranking
metrics, and optional LLM re-ranking of the top candidates.

The public names below load their submodule on first use (PEP 562), so a
command imports only the stages it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it. The re-ranking entry point
# lives at citegraph.rerank.rerank; exporting the bare function here would
# shadow the submodule name.
_EXPORTS = {
    **dict.fromkeys(("IngestReport", "PaperRecord", "build_text",
                     "normalize_citations", "parse_records"), "corpus"),
    **dict.fromkeys(("CitationGraph", "build_graph"), "graph"),
    **dict.fromkeys(("EmbeddingMatrix", "embed_corpus", "hash_embed",
                     "load_embeddings"), "embed"),
    **dict.fromkeys(("ScorerParams", "relevance_scores", "train_scorer"),
                    "gat"),
    **dict.fromkeys(("RankedItem", "RankedList"), "ranking"),
    **dict.fromkeys(("RetrievedSubgraph", "RetrieverConfig", "decode_and_rank",
                     "retrieve_subgraph", "select_seed"), "retriever"),
    **dict.fromkeys(("Bm25Index", "HybridConfig", "bm25_build", "bm25_rank",
                     "dense_rank", "hybrid_rank"), "baselines"),
    **dict.fromkeys(("EvalReport", "ndcg_at_k", "precision_at_k",
                     "recall_at_k"), "metrics"),
    **dict.fromkeys(("MockClient", "RerankRequest", "Triplet", "build_prompt",
                     "parse_ranking", "verbalize_triplets"), "rerank"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                    name)
    globals()[name] = value
    return value
