"""Citation recommendation over a homogeneous citation graph.

Pipeline stages, one module each: `corpus` (ingestion and repair),
`graph` (the citation graph), `embed` (node embeddings), `gat` (the
relevance scorer), `retriever` (subgraph retrieval with score-threshold
pruning), `ranking` (candidate lists), `baselines` (BM25, dense and
hybrid), `metrics` (ranking metrics), `rerank` (optional LLM re-ranking
of the top candidates) and `cli` (the commands). Each public name is
imported from the module that defines it, so `import citegraph` alone
loads no stage.
"""

__version__ = "0.1.0"
