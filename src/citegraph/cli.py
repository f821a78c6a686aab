"""Command-line pipelines: build, embed, train, retrieve, evaluate, rerank.

Every command is deterministic under a fixed seed (live LLM mode aside).
Exit codes: 0 success, 1 usage error, 2 data error, 3 network error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from . import baselines, corpus, embed, gat, metrics, rerank
from . import graph as graphmod
from . import retriever as retrievermod
from .ranking import RankedItem, RankedList, top_k

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NETWORK = 3

METHODS = ("bm25", "dense", "hybrid", "attn", "attn+llm")
_ATTN_METHODS = ("attn", "attn+llm")  # the methods that prune with the scorer


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# configuration: flat key=value file, overridden by CLI flags
# ---------------------------------------------------------------------------

def _to_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# Every setting is both a --flag and a config-file key:
# name -> (type, default, help). A `_to_bool` setting is an on/off flag.
_SETTINGS = {
    "corpus": (str, None, "corpus JSONL path"),
    "embeddings": (str, None, "embedding TSV path"),
    "weights": (str, None, "relevance scorer weights JSON path"),
    "output": (str, None, "output file or directory"),
    "k": (int, 10, "ranking depth"),
    "sigma": (float, 0.5, "pruning threshold in [0, 1]"),
    "hops": (int, 3, "max expansion hops"),
    "alpha": (float, 0.5, "hybrid BM25 weight in [0, 1]"),
    "seed": (int, 0, "RNG seed"),
    "subset": (int, 1000, "evaluation/training subset size"),
    "llm_subset": (int, 100, "query count for LLM re-ranking"),
    "dim": (int, embed.DEFAULT_DIM, "hash embedding dimension"),
    "k1": (float, 1.2, "BM25 k1"),
    "b": (float, 0.75, "BM25 b"),
    "max_frontier": (int, 2048, "frontier size cap"),
    "dense_fallback": (_to_bool, True,
                       "pad short candidate lists with dense hits"),
    "epochs": (int, 200, "training epochs"),
    "lr": (float, 0.5, "training learning rate"),
    "negatives": (int, 1, "negatives per positive"),
    "method": (str, "bm25,dense,hybrid,attn",
               f"comma-separated methods ({', '.join(METHODS)})"),
    "model": (str, "default", "chat model id"),
}


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise UsageError(f"{path}:{line_no}: expected 'key = value'")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in _SETTINGS:
                raise UsageError(f"{path}:{line_no}: unknown key {key!r}")
            try:
                values[key] = _SETTINGS[key][0](raw.strip())
            except ValueError as exc:
                raise UsageError(f"{path}:{line_no}: bad value for "
                                 f"{key}: {exc}") from exc
    return values


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    file_values = {}
    if getattr(args, "config", None):
        file_values = _read_config_file(args.config)
    for key, (_, default, _) in _SETTINGS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, file_values.get(key, default))
    _validate(args)
    return args


def _validate(args: argparse.Namespace) -> None:
    """Check the merged settings; the config classes own k, sigma, hops,
    alpha and max_frontier, and are built here once for the commands."""
    if args.dim < 1:
        raise UsageError("dim must be >= 1")
    if args.subset < 1 or args.llm_subset < 1:
        raise UsageError("subset sizes must be >= 1")
    try:
        args.retriever = retrievermod.RetrieverConfig(
            hops=args.hops, prune_threshold=args.sigma, top_k=args.k,
            max_frontier=args.max_frontier,
            fallback_to_dense=args.dense_fallback)
        args.hybrid = baselines.HybridConfig(alpha=args.alpha)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required "
                             f"(flag or config file)")


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------

def _load_corpus(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return corpus.parse_records(fh)


def _get_embeddings(args, records, graph):
    if args.embeddings:
        return embed.load_embeddings(args.embeddings, graph)
    return embed.embed_corpus(records, dim=args.dim, seed=args.seed)


def _llm_client(args):
    if getattr(args, "llm_mock", False):
        return rerank.MockClient()
    return rerank.HttpChatClient()


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True))
        fh.write("\n")


# ---------------------------------------------------------------------------
# evaluation harness
# ---------------------------------------------------------------------------

def eligible_queries(graph, embeddings) -> tuple[list[int], int]:
    """Indices usable as evaluation queries, plus the excluded count.

    A paper qualifies when it has at least one in-corpus citation (the
    ground truth; a record never cites itself, so that is an out-edge)
    and a non-degenerate embedding row; everything else is excluded and
    counted. The rows' sums of squares come from `einsum`, which forms no
    (n, d) temporary.
    """
    v = embeddings.vectors
    ok = (np.diff(graph.out_indptr) > 0) & (np.einsum("ij,ij->i", v, v) > 0.0)
    eligible = np.flatnonzero(ok).tolist()
    return eligible, len(ok) - len(eligible)


def sample_queries(eligible: Sequence[int], subset: int, seed: int) -> list[int]:
    """Seeded uniform sample without replacement, returned in index order."""
    if subset >= len(eligible):
        return list(eligible)
    rng = np.random.default_rng(seed)
    picked = rng.choice(np.asarray(eligible, dtype=np.intp), size=subset,
                        replace=False)
    return sorted(int(i) for i in picked)


def _drop_self(ranked: RankedList, own_id: str, k: int) -> RankedList:
    items = [it for it in ranked.items if it.id != own_id][:k]
    return RankedList(items=items, fallback=ranked.fallback)


def evaluate_corpus(records, *, methods: Sequence[str], k: int = 10,
                    retriever: retrievermod.RetrieverConfig | None = None,
                    hybrid: baselines.HybridConfig | None = None,
                    seed: int = 0, subset: int = 1000, llm_subset: int = 100,
                    dim: int = embed.DEFAULT_DIM, k1: float = 1.2,
                    b: float = 0.75, graph=None, embeddings=None,
                    scorer=None, llm_client=None,
                    llm_model: str = "default") -> dict:
    """Run each requested method over a seeded query subset and score it.

    Queries are held-out corpus papers; each query's relevant set is its
    own citation list restricted to corpus members, and the paper itself
    is removed from every method's candidates. attn and attn+llm prune
    with the trained `scorer` under `retriever` (default: the stock
    settings at depth k); hybrid blends with `hybrid`.
    `graph` is the records' citation graph, built here when omitted.
    Returns a mapping with the per-method EvalReports, runs and per-query
    metric rows, and the run metadata.
    """
    for method in methods:
        if method not in METHODS:
            raise UsageError(f"unknown method {method!r}; "
                             f"choose from {', '.join(METHODS)}")
    if scorer is None and any(m in _ATTN_METHODS for m in methods):
        raise UsageError("attn needs a trained scorer: pass --weights "
                         "(written by train)")
    if "attn+llm" in methods and llm_client is None:
        raise UsageError("attn+llm needs a chat client: pass --llm-mock or "
                         "configure the endpoint")
    if graph is None:
        graph = graphmod.build_graph(records)
    if embeddings is None:
        embeddings = embed.embed_corpus(records, dim=dim, seed=seed)
    rcfg = retriever or retrievermod.RetrieverConfig(top_k=k)
    hycfg = hybrid or baselines.HybridConfig()

    eligible, excluded = eligible_queries(graph, embeddings)
    queries = sample_queries(eligible, subset, seed)
    if not queries:
        raise ValueError("no eligible evaluation queries in this corpus")

    needs_bm25 = any(m in ("bm25", "hybrid") for m in methods)
    texts = ([corpus.build_text(r) for r in records]
             if needs_bm25 or "attn+llm" in methods else None)
    index = (baselines.bm25_build(texts, ids=graph.node_ids, k1=k1, b=b)
             if needs_bm25 else None)

    def attn_rank(qidx: int, cos: np.ndarray):
        query = embeddings.row(qidx)
        seed_node = retrievermod.select_seed(cos, embeddings, graph)
        sub = retrievermod.retrieve_subgraph(
            graph, embeddings, query, seed_node, scorer, rcfg)
        return sub, retrievermod.decode_and_rank(sub, cos, embeddings, rcfg)

    def rank_for(method: str, qidx: int, bm, cos, attn) -> RankedList:
        own_id = records[qidx].id
        if method == "bm25":
            ranked = top_k(bm, graph.node_ids, k + 1, "bm25",
                           candidates=bm > 0.0)
        elif method == "dense":
            ranked = top_k(cos, embeddings.ids, k + 1, "dense")
        elif method == "hybrid":
            blend = baselines.hybrid_scores(bm, cos, hycfg)
            ranked = top_k(blend, graph.node_ids, k + 1, "hybrid")
        elif method == "attn":
            _, ranked = attn
        else:  # attn+llm
            sub, ranked = attn
            ranked = _drop_self(ranked, own_id, k)
            if not ranked.items:
                return ranked
            request = rerank.RerankRequest(
                query_text=texts[qidx],
                candidates=[(it.id, _title_of(records, graph, it.id))
                            for it in ranked.items],
                triplets=rerank.verbalize_triplets(sub, graph, records),
                model=llm_model)
            return rerank.rerank(llm_client, request, ranked)
        return _drop_self(ranked, own_id, k)

    judgments = {
        records[i].id: frozenset(c for c in records[i].citations
                                 if c in graph.index_of)
        for i in queries
    }
    llm_queries = set(queries[:llm_subset])
    runs: dict[str, dict[str, RankedList]] = {method: {} for method in methods}
    for i in queries:
        # the query's BM25 row, cosine row and (subgraph, ranking), each
        # computed once and shared by every method that reads it
        bm = cos = attn = None
        for method in methods:
            if method == "attn+llm" and i not in llm_queries:
                continue
            if method in ("bm25", "hybrid") and bm is None:
                bm = baselines.bm25_scores(index, texts[i])
            if method != "bm25" and cos is None:
                cos = embeddings.scores(embeddings.row(i))
            if method in _ATTN_METHODS and attn is None:
                attn = attn_rank(i, cos)
            runs[method][records[i].id] = rank_for(method, i, bm, cos, attn)
    reports: dict[str, metrics.EvalReport] = {}
    rows: dict[str, list[dict]] = {}
    for method, run in runs.items():
        rows[method] = metrics.per_query_metrics(run, judgments, k)
        reports[method] = metrics.report_from_rows(rows[method], k, excluded)
    return {"k": k, "seed": seed, "subset": len(queries),
            "excluded": excluded, "methods": reports, "runs": runs,
            "rows": rows, "judgments": judgments}


def _title_of(records, graph, pid: str) -> str:
    record = records[graph.index_of[pid]]
    return record.title if record.title else record.id


def comparison_json(result: dict) -> dict:
    return {
        "k": result["k"],
        "seed": result["seed"],
        "subset": result["subset"],
        "excluded": result["excluded"],
        "methods": {name: report.to_json_dict()
                    for name, report in result["methods"].items()},
    }


def comparison_table(result: dict) -> str:
    header = (f"{'method':<10} {'recall@k':>10} {'precision@k':>12} "
              f"{'mrr':>10} {'ndcg@k':>10} {'queries':>8}")
    lines = [header, "-" * len(header)]
    for name, rep in result["methods"].items():
        lines.append(
            f"{name:<10} {rep.recall_at_k:>10.6f} {rep.precision_at_k:>12.6f} "
            f"{rep.mrr:>10.6f} {rep.ndcg_at_k:>10.6f} {rep.query_count:>8d}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_build(args) -> int:
    _require(args, "corpus", "output")
    records, report = _load_corpus(args.corpus)
    graph = graphmod.build_graph(records)
    os.makedirs(args.output, exist_ok=True)
    corpus.write_cleaned_corpus(os.path.join(args.output, "cleaned.jsonl"), records)
    corpus.write_ingest_report(os.path.join(args.output, "ingest_report.json"),
                               report)
    graphmod.save_snapshot(graph, os.path.join(args.output, "graph.cgr"))
    if args.edge_list:
        graphmod.write_edge_list(graph, os.path.join(args.output, "edges.txt"))
    print(f"records: parsed={report.records_parsed} "
          f"dropped={report.records_dropped}")
    print(f"graph: {graph.node_count} nodes, {graph.edge_count} edges")
    return EXIT_OK


def cmd_embed(args) -> int:
    _require(args, "corpus")
    records, _ = _load_corpus(args.corpus)
    if args.embeddings:
        matrix = embed.load_embeddings(args.embeddings,
                                       graphmod.build_graph(records))
        print(f"embeddings ok: {matrix.node_count} rows, dim={matrix.dim}")
        return EXIT_OK
    _require(args, "output")
    matrix = embed.embed_corpus(records, dim=args.dim, seed=args.seed)
    embed.write_embeddings(args.output, matrix)
    print(f"wrote {matrix.node_count} hash embeddings (dim={matrix.dim}) "
          f"to {args.output}")
    return EXIT_OK


def cmd_train(args) -> int:
    _require(args, "corpus", "output")
    records, _ = _load_corpus(args.corpus)
    graph = graphmod.build_graph(records)
    embeddings = _get_embeddings(args, records, graph)
    eligible, _ = eligible_queries(graph, embeddings)
    if not eligible:
        raise ValueError("no training queries: no paper has in-corpus citations")
    picked = sample_queries(eligible, args.subset, args.seed)
    train_queries = [
        gat.TrainingQuery(
            query=embeddings.row(i),
            positives=tuple(graph.index_of[c] for c in records[i].citations
                            if c in graph.index_of))
        for i in picked
    ]
    result = gat.train_scorer(graph, embeddings, train_queries, gat.TrainConfig(
        learning_rate=args.lr, epochs=args.epochs,
        negatives_per_positive=args.negatives, seed=args.seed))
    gat.save_weights(args.output, embeddings.dim, result.params)
    print(f"trained scorer on {len(train_queries)} queries: "
          f"loss {result.losses[0]:.6f} -> {result.losses[-1]:.6f} "
          f"({args.epochs} epochs)")
    return EXIT_OK


def _query_vector(args, records, graph, embeddings):
    if args.paper_id is not None:
        if args.paper_id not in graph.index_of:
            raise ValueError(f"unknown paper id {args.paper_id!r}")
        idx = graph.index_of[args.paper_id]
        return args.paper_id, corpus.build_text(records[idx]), \
            embeddings.row(idx)
    if args.embeddings:
        raise ValueError(
            "free-text queries need the hashing embedder; with a "
            "precomputed embedding file, query by --paper-id instead")
    return "query", args.query, embed.hash_embed(args.query, dim=args.dim,
                                                 seed=args.seed)


def cmd_retrieve(args) -> int:
    _require(args, "corpus", "weights")
    if (args.query is None) == (args.paper_id is None):
        raise UsageError("provide exactly one of --query or --paper-id")
    records, _ = _load_corpus(args.corpus)
    graph = graphmod.build_graph(records)
    embeddings = _get_embeddings(args, records, graph)
    scorer = gat.load_weights(args.weights, width=embeddings.dim)
    query_id, query_text, query = _query_vector(args, records, graph, embeddings)
    cos = embeddings.scores(query)
    seed_node = retrievermod.select_seed(cos, embeddings, graph)
    sub = retrievermod.retrieve_subgraph(graph, embeddings, query, seed_node,
                                         scorer, args.retriever)
    ranked = retrievermod.decode_and_rank(sub, cos, embeddings,
                                          args.retriever)
    result = retrievermod.retrieval_to_json(query_id, sub, ranked, graph)
    if args.rerank:
        client = _llm_client(args)
        request = rerank.RerankRequest(
            query_text=query_text,
            candidates=[(it.id, _title_of(records, graph, it.id))
                        for it in ranked.items],
            triplets=rerank.verbalize_triplets(sub, graph, records),
            model=args.model)
        reranked = rerank.rerank(client, request, ranked)
        result["rerank"] = {"fallback": reranked.fallback,
                            "candidates": reranked.to_dicts()}
    if args.output:
        _write_json(args.output, result)
    print(json.dumps(result, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    _require(args, "corpus")
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    if not methods:
        raise UsageError("no methods requested")
    if any(m in _ATTN_METHODS for m in methods):
        _require(args, "weights")
    records, _ = _load_corpus(args.corpus)
    graph = graphmod.build_graph(records)
    embeddings = _get_embeddings(args, records, graph)
    scorer = (gat.load_weights(args.weights, width=embeddings.dim)
              if args.weights else None)
    client = _llm_client(args) if "attn+llm" in methods else None
    result = evaluate_corpus(
        records, methods=methods, k=args.k, retriever=args.retriever,
        hybrid=args.hybrid, seed=args.seed, subset=args.subset,
        llm_subset=args.llm_subset, dim=args.dim, k1=args.k1, b=args.b,
        graph=graph, embeddings=embeddings, scorer=scorer,
        llm_client=client, llm_model=args.model)
    table = comparison_table(result)
    print(table)
    if args.output:
        os.makedirs(args.output, exist_ok=True)
        for name, report in result["methods"].items():
            safe = name.replace("+", "_")
            metrics.write_report_json(
                os.path.join(args.output, f"report_{safe}.json"), report)
            if args.per_query:
                metrics.write_per_query_csv(
                    os.path.join(args.output, f"per_query_{safe}.csv"),
                    result["rows"][name])
        _write_json(os.path.join(args.output, "comparison.json"),
                    comparison_json(result))
        with open(os.path.join(args.output, "comparison.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(table)
            fh.write("\n")
    return EXIT_OK


def _is_number(value) -> bool:
    """A finite JSON number; true and false are not numbers."""
    if type(value) not in (int, float):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _saved_candidates(retrieval, graph) -> RankedList:
    """The candidates of a saved retrieval, checked entry by entry.

    Each is an object with a corpus paper `id`, a finite number `score`
    and an optional string `provenance`; an error names the entry.
    """
    if not isinstance(retrieval, dict):
        raise ValueError("retrieval: not a JSON object")
    candidates = retrieval.get("candidates")
    if not isinstance(candidates, list):
        raise ValueError("candidates: not a list")
    items = []
    for i, c in enumerate(candidates):
        where = f"candidates[{i}]"
        if not isinstance(c, dict):
            raise ValueError(f"{where}: not an object")
        pid = c.get("id")
        if not isinstance(pid, str) or pid not in graph.index_of:
            raise ValueError(f"{where}.id: not a corpus paper id")
        if not _is_number(c.get("score")):
            raise ValueError(f"{where}.score: not a number")
        provenance = c.get("provenance", "graph")
        if not isinstance(provenance, str):
            raise ValueError(f"{where}.provenance: not a string")
        items.append(RankedItem(id=pid, score=c["score"],
                                provenance=provenance))
    return RankedList(items=items)


def cmd_rerank(args) -> int:
    _require(args, "corpus", "input")
    with open(args.input, "r", encoding="utf-8") as fh:
        retrieval = json.load(fh)
    records, _ = _load_corpus(args.corpus)
    graph = graphmod.build_graph(records)
    original = _saved_candidates(retrieval, graph)
    if not original.items:
        raise ValueError("nothing to rerank: retrieval has no candidates")
    query_id = retrieval.get("query_id", "query")
    if not isinstance(query_id, str):
        raise ValueError("query_id: not a string")
    if args.query is not None:
        query_text = args.query
    elif query_id in graph.index_of:
        query_text = corpus.build_text(records[graph.index_of[query_id]])
    else:
        raise ValueError("query text unavailable: pass --query or use a "
                         "retrieval whose query_id is a corpus paper id")
    client = _llm_client(args)
    request = rerank.RerankRequest(
        query_text=query_text,
        candidates=[(it.id, _title_of(records, graph, it.id))
                    for it in original.items],
        triplets=[],
        model=args.model)
    reranked = rerank.rerank(client, request, original)
    result = {"query_id": query_id, "fallback": reranked.fallback,
              "candidates": reranked.to_dicts()}
    if args.output:
        _write_json(args.output, result)
    print(json.dumps(result, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(sub: argparse.ArgumentParser, *names: str,
                llm_mock: bool = False) -> None:
    """Add --config, a flag for each named setting and, with `llm_mock`,
    the --llm-mock switch."""
    sub.add_argument("--config", type=str, default=None,
                     help="flat key=value config file")
    for name in names:
        kind, _, help_text = _SETTINGS[name]
        flag = f"--{name.replace('_', '-')}"
        if kind is _to_bool:
            sub.add_argument(flag, action=argparse.BooleanOptionalAction,
                             default=None, dest=name, help=help_text)
        else:
            sub.add_argument(flag, type=kind, default=None, dest=name,
                             help=help_text)
    if llm_mock:
        sub.add_argument("--llm-mock", action="store_true", dest="llm_mock",
                         help="use the offline mock chat client")


def _build_parser() -> _Parser:
    parser = _Parser(prog="citegraph",
                     description="citation recommendation pipelines")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build", help="parse corpus, build graph snapshot")
    _add_common(p, "corpus", "output")
    p.add_argument("--edge-list", action="store_true", dest="edge_list",
                   help="also write a text edge list")
    p.set_defaults(func=cmd_build)

    p = subs.add_parser("embed", help="hash-embed the corpus or validate a TSV")
    _add_common(p, "corpus", "embeddings", "output", "dim", "seed")
    p.set_defaults(func=cmd_embed)

    p = subs.add_parser("train", help="train the relevance scorer")
    _add_common(p, "corpus", "embeddings", "output", "dim", "seed", "subset",
                "epochs", "lr", "negatives")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("retrieve", help="retrieve candidates for one query")
    _add_common(p, "corpus", "embeddings", "weights", "output", "k", "sigma",
                "hops", "seed", "dim", "max_frontier", "dense_fallback",
                "model", llm_mock=True)
    p.add_argument("--query", type=str, default=None, help="free query text")
    p.add_argument("--paper-id", type=str, default=None, dest="paper_id",
                   help="query by corpus paper id")
    p.add_argument("--rerank", action="store_true",
                   help="re-rank candidates via the chat endpoint")
    p.set_defaults(func=cmd_retrieve)

    p = subs.add_parser("evaluate", help="compare retrieval methods")
    _add_common(p, "corpus", "embeddings", "weights", "output", "k", "sigma",
                "hops", "alpha", "seed", "subset", "llm_subset", "dim", "k1",
                "b", "max_frontier", "dense_fallback", "method", "model",
                llm_mock=True)
    p.add_argument("--per-query", action="store_true", dest="per_query",
                   help="also write per-query metric CSVs")
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("rerank", help="re-rank a saved retrieval result")
    _add_common(p, "corpus", "output", "model", llm_mock=True)
    p.add_argument("--input", type=str, default=None,
                   help="retrieval JSON produced by the retrieve command")
    p.add_argument("--query", type=str, default=None,
                   help="query text (when query_id is not a corpus paper)")
    p.set_defaults(func=cmd_rerank)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        args = _merge_config(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except rerank.EndpointError as exc:
        print(f"network error: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except (OSError, ValueError, KeyError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
