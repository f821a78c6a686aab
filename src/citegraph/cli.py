"""Command-line pipelines: build, embed, train, retrieve, evaluate.

`retrieve --rerank` and evaluate's attn+llm are the two ways to the LLM,
and both send it the pruned subgraph that the retrieval kept.

Only the corpus, graph and embedding stages load with this module; each
command imports the other stages it runs, so `build` and `embed` load no
scorer, retriever, baseline, metric or LLM code.

Every command is deterministic under a fixed seed (live LLM mode aside).
Exit codes: 0 success, 1 usage error, 2 data error, 3 network error.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import corpus, embed
from . import graph as graphmod

if TYPE_CHECKING:
    from . import baselines
    from . import retriever as retrievermod
    from .ranking import RankedList

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NETWORK = 3

METHODS = ("bm25", "dense", "hybrid", "attn", "attn+llm")
_ATTN_METHODS = ("attn", "attn+llm")  # the methods that prune with the scorer
_COSINE_VALUES = 65536  # float64 cosine values per chunk of queries: 512 KiB


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# settings: one --flag each
# ---------------------------------------------------------------------------

# Every setting is a --flag: name -> (type, default, help).
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
    "method": (str, "bm25,dense,hybrid,attn",
               f"comma-separated methods ({', '.join(METHODS)})"),
    "model": (str, "default", "chat model id"),
}


def _validate(args: argparse.Namespace) -> None:
    """Check the parsed settings of a command (one it has no flag for is
    not checked) and parse `evaluate`'s --method list into `args.methods`.
    The config classes own sigma, hops and alpha, name the flag in their
    errors, and are built here once, each only for the commands that take
    it, so `build`, `embed` and `train` load none of their modules.
    """
    settings = vars(args)
    if not 0 <= settings.get("seed", 0) < 2 ** 63:
        raise UsageError("seed (--seed) must be in [0, 2**63)")
    for name in ("dim", "subset", "llm_subset", "k"):
        if settings.get(name, 1) < 1:
            flag = name.replace("_", "-")
            raise UsageError(f"{name} (--{flag}) must be >= 1")
    try:
        if args.command in ("retrieve", "evaluate"):
            from .retriever import RetrieverConfig
            args.retriever = RetrieverConfig(hops=args.hops,
                                             prune_threshold=args.sigma)
        if args.command == "evaluate":
            from .baselines import HybridConfig
            args.hybrid = HybridConfig(alpha=args.alpha)
            args.methods = _checked_methods(
                [m.strip() for m in args.method.split(",") if m.strip()])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _checked_methods(methods: Sequence[str]) -> Sequence[str]:
    if not methods:
        raise UsageError("no methods requested")
    for method in methods:
        if method not in METHODS:
            raise UsageError(f"unknown method {method!r}; "
                             f"choose from {', '.join(METHODS)}")
    return methods


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required")


# ---------------------------------------------------------------------------
# shared pipeline pieces
# ---------------------------------------------------------------------------

def _load_corpus(path: str):
    # a byte that is not UTF-8 becomes a lone surrogate, which drops its line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return corpus.parse_records(fh)


def _get_embeddings(args, records, graph):
    if args.embeddings:
        return embed.load_embeddings(args.embeddings, graph)
    return embed.embed_corpus(records, dim=args.dim, seed=args.seed)


def _hash_seed(args):
    """The seed that hashed the rows, recorded and checked in weights.json."""
    return None if args.embeddings else args.seed


def _llm_client(args):
    from . import rerank
    if getattr(args, "llm_mock", False):
        return rerank.MockClient()
    return rerank.HttpChatClient()


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# evaluation harness
# ---------------------------------------------------------------------------

def eligible_queries(graph, embeddings) -> tuple[list[int], int]:
    """Indices usable as evaluation queries, plus the excluded count.

    A paper qualifies when it cites a corpus paper (an out-edge: a record
    never cites itself) and its embedding row has a positive, finite norm,
    as every nonzero finite row has; the rest are excluded and counted.
    """
    norms = embeddings.norms
    ok = (np.diff(graph.out_indptr) > 0) & (norms > 0.0) & (norms < np.inf)
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


def _attn_query(graph, embeddings, query, cos, scorer, config, k: int,
                leave_out: int | None):
    """The (subgraph, ranking of k) of one query's pruned retrieval; `cos`
    is its `embeddings.scores` row. `leave_out` is the node never listed: a
    corpus paper's own index (a paper with the same text can be listed),
    or None for free text, which may list its closest paper."""
    from . import retriever as retrievermod
    seed_node = retrievermod.select_seed(cos, embeddings, graph)
    sub = retrievermod.retrieve_subgraph(graph, embeddings, query, seed_node,
                                         scorer, config)
    return sub, retrievermod.decode_and_rank(sub, cos, embeddings, k,
                                             leave_out)


def _rerank_request(query_text, ranked, records, graph, model, sub):
    """The re-rank request for `ranked`: each candidate with its title,
    and the triplets of the retrieved subgraph `sub` that touch its seed
    or a candidate."""
    from . import rerank
    nodes = [graph.index_of[it.id] for it in ranked.items]
    return rerank.RerankRequest(
        query_text=query_text,
        candidates=[(records[i].id, records[i].title or records[i].id)
                    for i in nodes],
        triplets=rerank.verbalize_triplets(sub, graph, records, nodes),
        model=model)


def evaluate_corpus(records, *, graph, embeddings, bm25,
                    methods: Sequence[str], k: int = 10,
                    retriever: retrievermod.RetrieverConfig | None = None,
                    hybrid: baselines.HybridConfig | None = None,
                    seed: int = 0, subset: int = 1000, llm_subset: int = 100,
                    scorer=None, llm_client=None,
                    llm_model: str = "default") -> dict:
    """Run each requested method over a seeded query subset and score it.

    Queries are held-out corpus papers, each a node of `graph`, sampled
    from the odd positions of `eligible_queries` (`train` samples the even
    ones); a query's relevant set is the papers its out-row cites. No
    method lists the query: bm25, dense and hybrid rank the k best papers
    of a pool of every node but the query (for bm25, only those of
    positive score), attn leaves the query node out of its k, and
    attn+llm re-ranks attn's list. attn and attn+llm prune with the
    trained `scorer` under `retriever` (default: the stock walk); hybrid
    blends with `hybrid`. `graph`, `embeddings` and `bm25` (None if
    neither bm25 nor hybrid runs) are the records' citation graph,
    embedding matrix and BM25 index. Queries go in chunks whose cosine
    rows, from one `embeddings.scores` call, fill at most 512 KiB (8
    queries at 8,000 papers); the methods then rank each query alone.
    Returns the per-method reports, runs and per-query rows, and run
    metadata.
    """
    from . import baselines, metrics
    from . import retriever as retrievermod
    from .ranking import top_k
    _checked_methods(methods)
    if scorer is None and any(m in _ATTN_METHODS for m in methods):
        raise UsageError("attn needs a trained scorer: pass --weights "
                         "(written by train)")
    if "attn+llm" in methods and llm_client is None:
        raise UsageError("attn+llm needs a chat client: pass --llm-mock or "
                         "configure the endpoint")
    rcfg = retriever or retrievermod.RetrieverConfig()
    hycfg = hybrid or baselines.HybridConfig()

    eligible, excluded = eligible_queries(graph, embeddings)
    queries = sample_queries(eligible[1::2], subset, seed)
    if not queries:
        raise ValueError("no eligible evaluation queries in this corpus")

    # every method ranks this pool: each paper but the query being ranked
    pool = np.ones(graph.node_count, dtype=bool)

    def rank(method: str, qidx: int, bm, cos, attn) -> RankedList:
        if method == "bm25":
            return top_k(bm, graph.node_ids, k, "bm25",
                         candidates=pool & (bm > 0.0))
        if method == "dense":
            return top_k(cos, embeddings.ids, k, "dense", candidates=pool)
        if method == "hybrid":
            blend = baselines.hybrid_scores(bm, cos, hycfg)
            return top_k(blend, graph.node_ids, k, "hybrid", candidates=pool)
        sub, ranked = attn
        if method == "attn":
            return ranked
        from . import rerank
        request = _rerank_request(corpus.build_text(records[qidx]), ranked,
                                  records, graph, llm_model, sub)
        return rerank.rerank(llm_client, request, ranked)

    indptr, cited = graph.out_indptr, graph.out_indices
    judgments = {
        graph.node_ids[i]: frozenset(
            graph.node_ids[j] for j in cited[indptr[i]:indptr[i + 1]].tolist())
        for i in queries
    }
    todo = {i: [m for m in methods if m != "attn+llm" or at < llm_subset]
            for at, i in enumerate(queries)}
    runs: dict[str, dict[str, RankedList]] = {method: {} for method in methods}
    chunk = max(1, _COSINE_VALUES // embeddings.node_count)
    for block in (queries[s:s + chunk] for s in range(0, len(queries), chunk)):
        # one pass over the matrix scores every cosine row a method reads
        scored = [i for i in block if set(todo[i]) - {"bm25"}]
        # unit rows: normalizing counts in `scores` would change the last bits
        cos_rows = dict(zip(scored, embeddings.scores(
            embeddings.rows(scored)))) if scored else {}
        for i in block:
            # the query's BM25 row and (subgraph, ranking), each computed
            # once and shared by every method that reads it
            bm, cos, attn = None, cos_rows.get(i), None
            pool[i] = False
            for method in todo[i]:
                if method in ("bm25", "hybrid") and bm is None:
                    bm = baselines.bm25_scores(bm25,
                                               corpus.build_text(records[i]))
                if method in _ATTN_METHODS and attn is None:
                    attn = _attn_query(graph, embeddings, embeddings.row(i),
                                       cos, scorer, rcfg, k, i)
                runs[method][records[i].id] = rank(method, i, bm, cos, attn)
            pool[i] = True
        del cos_rows, cos  # only one chunk's rows are alive at a time
    reports: dict[str, metrics.EvalReport] = {}
    rows: dict[str, list[dict]] = {}
    for method, run in runs.items():
        rows[method] = metrics.per_query_metrics(run, judgments, k)
        reports[method] = metrics.report_from_rows(rows[method], k, excluded)
    return {"k": k, "seed": seed, "subset": len(queries),
            "excluded": excluded, "methods": reports, "runs": runs,
            "rows": rows, "judgments": judgments}


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
    _write_json(os.path.join(args.output, "ingest_report.json"),
                report.to_dict())
    graphmod.save_snapshot(graph, os.path.join(args.output, "graph.cgr"))
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
    embed.write_embeddings(args.output, [r.id for r in records],
                           embed.hash_counts(records, args.dim, args.seed))
    print(f"wrote {len(records)} hash embeddings (dim={args.dim}) "
          f"to {args.output}")
    return EXIT_OK


def cmd_train(args) -> int:
    from . import gat
    _require(args, "corpus", "output")
    records, _ = _load_corpus(args.corpus)
    graph = graphmod.build_graph(records)
    embeddings = _get_embeddings(args, records, graph)
    eligible, _ = eligible_queries(graph, embeddings)
    if not eligible:
        raise ValueError("no training queries: no paper has in-corpus citations")
    picked = sample_queries(eligible[0::2], args.subset, args.seed)
    result = gat.train_scorer(graph, embeddings, picked, args.seed)
    gat.save_weights(args.output, embeddings.dim, result.params,
                     hash_seed=_hash_seed(args))
    print(f"trained scorer on {len(picked)} queries: "
          f"loss {result.losses[0]:.6f} -> {result.losses[-1]:.6f} "
          f"({gat.EPOCHS} epochs)")
    return EXIT_OK


def _query_vector(args, graph, embeddings):
    """The query's id, vector and node index (None for free text)."""
    if args.paper_id is None:
        return "query", embed.hash_embed(args.query, dim=args.dim,
                                         seed=args.seed), None
    if args.paper_id not in graph.index_of:
        raise ValueError(f"unknown paper id {args.paper_id!r}")
    node = graph.index_of[args.paper_id]
    return args.paper_id, embeddings.row(node), node


def cmd_retrieve(args) -> int:
    from . import gat
    from . import retriever as retrievermod
    _require(args, "corpus", "weights")
    if (args.query is None) == (args.paper_id is None):
        raise UsageError("provide exactly one of --query or --paper-id")
    if args.query is not None and args.embeddings:  # before any file is read
        raise ValueError(
            "free-text queries need the hashing embedder; with a "
            "precomputed embedding file, query by --paper-id instead")
    records, _ = _load_corpus(args.corpus)
    graph = graphmod.build_graph(records)
    embeddings = _get_embeddings(args, records, graph)
    scorer = gat.load_weights(args.weights, width=embeddings.dim,
                              hash_seed=_hash_seed(args))
    query_id, query, node = _query_vector(args, graph, embeddings)
    sub, ranked = _attn_query(graph, embeddings, query,
                              embeddings.scores(query), scorer,
                              args.retriever, args.k, node)
    result = retrievermod.retrieval_to_json(query_id, sub, ranked, graph)
    if args.rerank:
        from . import rerank
        client = _llm_client(args)
        query_text = (args.query if node is None else
                      corpus.build_text(records[node]))
        request = _rerank_request(query_text, ranked, records, graph,
                                  args.model, sub)
        reranked = rerank.rerank(client, request, ranked)
        result["rerank"] = {"fallback": reranked.fallback,
                            "candidates": reranked.to_dicts()}
    if args.output:
        _write_json(args.output, result)
    print(json.dumps(result, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from . import baselines, metrics
    _require(args, "corpus")
    prunes = any(m in _ATTN_METHODS for m in args.methods)
    if prunes:
        _require(args, "weights")
    if args.per_query and not args.output:
        raise UsageError("--per-query writes its CSVs into --output; "
                         "pass --output")
    records, _ = _load_corpus(args.corpus)
    # BM25 first: its build temporaries are freed before the embeddings load
    bm25 = (baselines.bm25_build(map(corpus.build_text, records),
                                 ids=[r.id for r in records])
            if {"bm25", "hybrid"} & set(args.methods) else None)
    graph = graphmod.build_graph(records)
    embeddings = _get_embeddings(args, records, graph)
    scorer = None
    if prunes:
        from . import gat
        scorer = gat.load_weights(args.weights, width=embeddings.dim,
                                  hash_seed=_hash_seed(args))
    client = _llm_client(args) if "attn+llm" in args.methods else None
    result = evaluate_corpus(
        records, graph=graph, embeddings=embeddings, bm25=bm25,
        methods=args.methods, k=args.k, retriever=args.retriever,
        hybrid=args.hybrid, seed=args.seed, subset=args.subset,
        llm_subset=args.llm_subset, scorer=scorer, llm_client=client,
        llm_model=args.model)
    table = comparison_table(result)
    print(table)
    if args.output:
        os.makedirs(args.output, exist_ok=True)
        for name, report in result["methods"].items():
            safe = name.replace("+", "_")
            _write_json(os.path.join(args.output, f"report_{safe}.json"),
                        report.to_json_dict())
            if args.per_query:
                metrics.write_per_query_csv(
                    os.path.join(args.output, f"per_query_{safe}.csv"),
                    result["rows"][name])
        comparison = comparison_json(result)
        if client is not None:  # attn+llm ran: name the client that re-ranked
            comparison["llm"] = "mock-identity" if args.llm_mock else args.model
        _write_json(os.path.join(args.output, "comparison.json"), comparison)
        with open(os.path.join(args.output, "comparison.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(table + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common(sub: argparse.ArgumentParser, *names: str,
                llm_mock: bool = False) -> None:
    """Add a flag for each named setting and, with `llm_mock`, the
    --llm-mock switch."""
    for name in names:
        kind, default, help_text = _SETTINGS[name]
        sub.add_argument(f"--{name.replace('_', '-')}", type=kind,
                         default=default, dest=name, help=help_text)
    if llm_mock:
        sub.add_argument("--llm-mock", action="store_true", dest="llm_mock",
                         help="use the offline mock chat client")


def _build_parser() -> _Parser:
    parser = _Parser(prog="citegraph",
                     description="citation recommendation pipelines")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build", help="parse corpus, build graph snapshot")
    _add_common(p, "corpus", "output")
    p.set_defaults(func=cmd_build)

    p = subs.add_parser("embed", help="hash-embed the corpus or validate a TSV")
    _add_common(p, "corpus", "embeddings", "output", "dim", "seed")
    p.set_defaults(func=cmd_embed)

    p = subs.add_parser("train", help="train the relevance scorer")
    _add_common(p, "corpus", "embeddings", "output", "dim", "seed", "subset")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("retrieve", help="retrieve candidates for one query")
    _add_common(p, "corpus", "embeddings", "weights", "output", "k", "sigma",
                "hops", "seed", "dim", "model", llm_mock=True)
    p.add_argument("--query", type=str, default=None, help="free query text")
    p.add_argument("--paper-id", type=str, default=None, dest="paper_id",
                   help="query by corpus paper id")
    p.add_argument("--rerank", action="store_true",
                   help="re-rank candidates via the chat endpoint")
    p.set_defaults(func=cmd_retrieve)

    p = subs.add_parser("evaluate", help="compare retrieval methods")
    _add_common(p, "corpus", "embeddings", "weights", "output", "k", "sigma",
                "hops", "alpha", "seed", "subset", "llm_subset", "dim",
                "method", "model", llm_mock=True)
    p.add_argument("--per-query", action="store_true", dest="per_query",
                   help="also write per-query metric CSVs")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # A command loads the whole corpus as many small acyclic objects
    # (records, their citation lists and text strings) that reference counting
    # frees; the cyclic collector would only scan them again and again, one
    # full pass landing in build_graph. So what is alive on entry (the
    # imports) is frozen out of later collections, and collection pauses
    # while the command runs. A command leaves a few hundred cyclic objects,
    # mostly its parser, however large the corpus or the query set; the
    # collector, put back in the state it was found in, reclaims them.
    was_enabled = gc.isenabled()
    gc.freeze()
    gc.disable()
    try:
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        _validate(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError as exc:  # a closed stdout, not the network
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConnectionError as exc:  # rerank.EndpointError
        print(f"network error: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except (OSError, ValueError, KeyError, MemoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    finally:
        if was_enabled:
            gc.enable()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
