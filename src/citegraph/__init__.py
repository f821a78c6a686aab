"""Citation recommendation over a homogeneous citation graph.

Pipeline stages: corpus ingestion and repair, citation-graph construction,
node embeddings, subgraph retrieval with score-threshold pruning, candidate ranking, BM25 / dense / hybrid baselines, ranking
metrics, and optional LLM re-ranking of the top candidates.
"""

__version__ = "0.1.0"

from .corpus import (IngestReport, PaperRecord, PartialDate, build_text,
                     normalize_citations, parse_pub_date, parse_records)
from .graph import CitationGraph, build_graph
from .embed import EmbeddingMatrix, embed_corpus, hash_embed, load_embeddings
from .gat import (ScorerParams, TrainConfig, TrainingQuery, relevance_scores,
                  train_scorer)
from .ranking import RankedItem, RankedList
from .retriever import (RetrievedSubgraph, RetrieverConfig, decode_and_rank,
                        retrieve_subgraph, select_seed)
from .baselines import Bm25Index, HybridConfig, bm25_build, bm25_rank, dense_rank, hybrid_rank
from .metrics import EvalReport, ndcg_at_k, precision_at_k, recall_at_k
# the re-ranking entry point lives at citegraph.rerank.rerank; importing the
# bare function here would shadow the submodule name
from .rerank import (MockClient, RerankRequest, Triplet, build_prompt,
                     parse_ranking, verbalize_triplets)
