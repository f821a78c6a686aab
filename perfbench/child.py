"""Run one citegraph command in a fresh process, traced or not.

    python3 perfbench/child.py REPORT.json [--trace SPANS.tsv] -- <cli args>
    python3 perfbench/child.py REPORT.json --trace SPANS.tsv --probe PROBE.json

Untraced, this calls `citegraph.cli.main` and nothing else, so the
command runs as a user would run it. With `--trace`, every public
function of every citegraph module (and the graph, embedding and ranked
list methods the layers call) is replaced, at each name a caller looks
it up by, with a wrapper that records a span: name, start, end, parent
and query id. Spans stay in memory and are written when the command
ends. A few wrappers also count work where it happens (postings read,
rows attended, nodes expanded and kept, prompt bytes).

`--probe` runs no command: it loads a corpus untraced and then calls
layers no command of the workload reaches (the graph snapshot loader,
and BM25 and hybrid ranking where the workload evaluates neither), so
every layer has a measured figure on every workload.

REPORT.json receives the exit code, the process's peak resident memory
and the counters.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

PER_QUERY_ROOTS = {
    "baselines.bm25_rank", "baselines.dense_rank", "baselines.hybrid_rank",
    "retriever.select_seed", "retriever.retrieve_subgraph",
    "retriever.decode_and_rank", "rerank.verbalize_triplets",
    "rerank.rerank", "ranking.RankedList", "cli._drop_self",
}


def peak_rss_kb() -> int:
    """High-water resident set of this process (its own address space)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Span recorder; spans are [name, start, end, parent, query id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.query: str | None = None
        self.last_query: str | None = None

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                try:
                    after(self, args, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    # the layer changed shape; its counter stops, the run
                    # goes on and the report shows how often
                    self.counters["hook_errors"] += 1
            return result

        return traced

    def close_query(self, query_id: str) -> None:
        """Give `query_id` to the per-query calls made since the last one.

        Called when evaluation drops the query from its own ranking, which
        ends that query's work (a re-rank, if any, follows and is tagged
        by its own hook). The hook runs inside evaluate_corpus, whose span
        is then the innermost open one.
        """
        root = self.stack[-1]
        for rec in reversed(self.spans):
            if rec[3] != root:
                continue
            if rec[4] is not None or rec[0] not in PER_QUERY_ROOTS:
                break
            rec[4] = query_id
        self.last_query = query_id

    def finish(self) -> None:
        for rec in self.spans:
            if rec[4] is None and rec[3] >= 0:
                rec[4] = self.spans[rec[3]][4]

    def write(self, path: str) -> None:
        self.finish()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, query) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t"
                         f"{query or ''}\n")


# --- counters recorded at the layer boundaries -----------------------------

def _count_postings(tokenize):
    def after(tr, args, result):
        index, text = args[0], args[1]
        tr.counters["bm25_queries"] += 1
        tr.counters["bm25_postings"] += sum(
            len(index.postings.get(t, ())) for t in tokenize(text))
    return after


def _count_rows(tr, args, result):
    tr.counters["gat_rows"] += args[0].node_count


def _count_subgraph(tr, args, result):
    tr.counters["subgraphs"] += 1
    tr.counters["expanded"] += sum(t.expanded for t in result.trace)
    tr.counters["kept"] += len(result.nodes)


def _count_seed(tr, args, result):
    import numpy as np
    query, embeddings = args[0], args[1]
    tr.counters["seeds"] += 1
    tr.counters["seed_is_query"] += int(
        np.array_equal(embeddings.vectors[result], query))


def _count_decoded(tr, args, result):
    tr.counters["decoded_items"] += len(result.items)
    tr.counters["fallback_items"] += sum(
        1 for it in result.items if it.provenance == "dense-fallback")


def _count_prompt(tr, args, result):
    tr.counters["prompts"] += 1
    tr.counters["prompt_bytes"] += len(result.encode("utf-8"))


def _count_rerank(tr, args, result):
    tr.counters["reranks"] += 1
    tr.counters["rerank_fallbacks"] += int(result.fallback)
    if tr.last_query is not None:  # re-rank follows the query it belongs to
        tr.close_query(tr.last_query)


def _count_ranked(tr, args, result):
    tr.counters["items_built"] += len(args[0].items)


def _count_returned(tr, args, result):
    tr.counters["items_returned"] += sum(
        len(ranked.items) for run in result["runs"].values()
        for ranked in run.values())


def _drop_self_hook(tr, args, result):
    tr.close_query(args[1])


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions wherever callers look them up."""
    import citegraph
    from citegraph import (baselines, cli, corpus, embed, gat, graph, metrics,
                           ranking, rerank, retriever)
    modules = [corpus, graph, embed, gat, ranking, retriever, baselines,
               metrics, rerank, cli]
    hooks = {
        "baselines.bm25_scores": _count_postings(
            getattr(embed, "tokenize", None)),
        "gat.gat_layer_forward": _count_rows,
        "retriever.retrieve_subgraph": _count_subgraph,
        "retriever.select_seed": _count_seed,
        "retriever.decode_and_rank": _count_decoded,
        "rerank.build_prompt": _count_prompt,
        "rerank.rerank": _count_rerank,
        "cli.evaluate_corpus": _count_returned,
        "cli._drop_self": _drop_self_hook,
    }
    replaced: dict[int, object] = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for name, fn in list(vars(mod).items()):
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            if name.startswith("cmd_"):
                span = f"cli.{name[4:]}"
            elif name.startswith("_") and name != "_drop_self":
                continue
            elif inspect.isgeneratorfunction(fn) or name == "entry":
                continue
            else:
                span = f"{layer}.{name}"
            replaced[id(fn)] = tracer.wrap(span, fn, hooks.get(span))
    # rebind every module attribute that still points at an original
    for mod in modules + [citegraph]:
        for name, obj in list(vars(mod).items()):
            if id(obj) in replaced and inspect.isfunction(obj):
                setattr(mod, name, replaced[id(obj)])
    # cli.main builds its parser on each call, so the sub-commands bind
    # the wrapped cmd_* functions
    methods = [
        (getattr(graph, "CitationGraph", None), "neighbors", "graph.neighbors",
         None),
        (getattr(graph, "CitationGraph", None), "induced_subgraph",
         "graph.induced_subgraph", None),
        (getattr(embed, "EmbeddingMatrix", None), "scores", "embed.scores",
         None),
        (getattr(ranking, "RankedList", None), "__post_init__",
         "ranking.RankedList", _count_ranked),
    ]
    for cls, attr, span, hook in methods:
        if hasattr(cls, attr):  # a later design may drop the method
            setattr(cls, attr, tracer.wrap(span, getattr(cls, attr), hook))


def run_probe(spec: dict, tracer: Tracer) -> None:
    """Call the layers no command of the workload reaches, traced.

    The corpus, graph and embeddings are loaded before the wrappers go in,
    so the probe adds no calls to the loaders' figures.
    """
    from citegraph import baselines, corpus, embed, graph as graphmod
    with open(spec["corpus"], "r", encoding="utf-8") as fh:
        records, _ = corpus.parse_records(fh)
    g = graphmod.build_graph(records)
    texts = [corpus.build_text(r) for r in records]
    embeddings = (embed.load_embeddings(spec["embeddings"], g)
                  if spec["bm25_queries"] else None)
    install(tracer)

    def body():
        graphmod.load_snapshot(spec["snapshot"])
        if not spec["bm25_queries"]:
            return
        k, n = spec["k"], g.node_count
        index = baselines.bm25_build(texts, ids=g.node_ids)
        for pid in spec["bm25_queries"]:
            i = g.index_of[pid]
            tracer.query = pid
            baselines.bm25_rank(index, texts[i], k + 1)
            baselines.hybrid_rank(
                baselines.bm25_rank(index, texts[i], n),
                baselines.dense_rank(embeddings.row(i), embeddings, n),
                baselines.HybridConfig(), k + 1, universe=g.node_ids)
        tracer.query = None

    tracer.wrap("probe", body)()


def main(argv: list[str]) -> int:
    report_path, rest = argv[0], argv[1:]
    spans_path = probe_path = None
    if rest[:1] == ["--trace"]:
        spans_path, rest = rest[1], rest[2:]
    if rest[:1] == ["--probe"]:
        probe_path, rest = rest[1], rest[2:]
    if rest[:1] == ["--"]:
        rest = rest[1:]
    tracer = Tracer() if spans_path else None
    if probe_path:
        with open(probe_path, "r", encoding="utf-8") as fh:
            run_probe(json.load(fh), tracer)
        code = 0
    else:
        from citegraph import cli
        if tracer is not None:
            install(tracer)
            if "--paper-id" in rest:
                tracer.query = rest[rest.index("--paper-id") + 1]
        code = cli.main(rest)
    sys.stdout.flush()
    report = {"rc": code, "peak_kb": peak_rss_kb(),
              "counters": dict(tracer.counters) if tracer else {}}
    if tracer is not None:
        tracer.write(spans_path)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
