"""Per-layer figures from the spans and counters of a traced run.

A span's self time is its duration minus the durations of its child
spans (one thread, so children never overlap). Layer figures add up over
every traced command of the run and the probe, except where a metric
says it reads the evaluate command alone.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

# (metric, unit, better) in the order the report lists them
PER_LAYER = [
    ("baselines.bm25_rank.ms_p50", "ms", "lower"),
    ("baselines.bm25_rank.calls", "count", "lower"),
    ("baselines.bm25_postings_per_query", "count", "lower"),
    ("baselines.bm25_build.s", "s", "lower"),
    ("baselines.hybrid_rank.ms_p50", "ms", "lower"),
    ("ranking.items_built", "count", "lower"),
    ("ranking.items_returned_per_built", "ratio", "higher"),
    ("baselines.dense_rank.ms_p50", "ms", "lower"),
    ("embed.scores.calls", "count", "lower"),
    ("embed.scores.s", "s", "lower"),
    ("gat.gat_layer_forward.s", "s", "lower"),
    ("gat.gat_layer_forward.calls", "count", "lower"),
    ("gat.gat_layer_forward.rows", "count", "lower"),
    ("gat.relevance_scores.s", "s", "lower"),
    ("graph.induced_subgraph.s", "s", "lower"),
    ("graph.induced_subgraph.calls", "count", "lower"),
    ("graph.neighbors.calls", "count", "lower"),
    ("retriever.select_seed.ms_p50", "ms", "lower"),
    ("retriever.retrieve_subgraph.ms_p50", "ms", "lower"),
    ("retriever.retrieve_subgraph.self_ms_p50", "ms", "lower"),
    ("retriever.decode_and_rank.ms_p50", "ms", "lower"),
    ("embed.cosine.calls", "count", "lower"),
    ("embed.cosine.s", "s", "lower"),
    ("retriever.fallback_share", "ratio", "lower"),
    ("retriever.expanded", "count", "lower"),
    ("retriever.kept", "count", "lower"),
    ("retriever.kept_per_expanded", "ratio", "higher"),
    ("retriever.seed_is_query", "ratio", "lower"),
    ("rerank.verbalize_triplets.s", "s", "lower"),
    ("rerank.build_prompt.s", "s", "lower"),
    ("rerank.rerank.ms_p50", "ms", "lower"),
    ("rerank.prompt_bytes", "B", "lower"),
    ("rerank.fallbacks", "count", "lower"),
    ("corpus.parse_records.s", "s", "lower"),
    ("corpus.parse_records.calls", "count", "lower"),
    ("graph.build_graph.s", "s", "lower"),
    ("graph.build_graph.calls", "count", "lower"),
    ("embed.load_embeddings.s", "s", "lower"),
    ("embed.load_embeddings.calls", "count", "lower"),
    ("gat.load_weights.s", "s", "lower"),
    ("embed.embed_corpus.s", "s", "lower"),
    ("embed.write_embeddings.s", "s", "lower"),
    ("graph.save_snapshot.s", "s", "lower"),
    ("corpus.write_cleaned_corpus.s", "s", "lower"),
    ("graph.load_snapshot.s", "s", "lower"),
    ("gat.train_scorer.s", "s", "lower"),
    ("gat.save_weights.s", "s", "lower"),
    ("metrics.evaluate.s", "s", "lower"),
    ("metrics.per_query_metrics.s", "s", "lower"),
    ("cli.eligible_queries.s", "s", "lower"),
    ("cli.evaluate_corpus.self_s", "s", "lower"),
    ("cli.build.self_s", "s", "lower"),
    ("cli.embed.self_s", "s", "lower"),
    ("cli.train.self_s", "s", "lower"),
    ("cli.evaluate.self_s", "s", "lower"),
    ("cli.retrieve.self_s", "s", "lower"),
    ("trace.evaluate_s", "s", "lower"),
    ("trace.untraced_evaluate_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.evaluate_residual_s", "s", "lower"),
]


def read_spans(path: str) -> list[tuple]:
    """Spans as (name, start, end, parent, query id), in start order."""
    spans = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            _, parent, name, start, end, query = line.rstrip("\n").split("\t")
            spans.append((name, float(start), float(end), int(parent), query))
    return spans


def self_times(spans: list[tuple]) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_, start, end, _, _) in enumerate(spans)]


class LayerStats:
    """Durations and self times per span name over a set of commands."""

    def __init__(self) -> None:
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.selfs: dict[str, list[float]] = defaultdict(list)

    def add(self, spans: list[tuple]) -> None:
        for (name, start, end, _, _), own in zip(spans, self_times(spans)):
            self.durations[name].append(end - start)
            self.selfs[name].append(own)

    def value(self, name: str, stat: str) -> float:
        durs, selfs = self.durations.get(name, []), self.selfs.get(name, [])
        if stat == "calls":
            return len(durs)
        if stat == "s":
            return sum(durs)
        if stat == "self_s":
            return sum(selfs)
        if stat == "ms_p50":
            return 1e3 * statistics.median(durs) if durs else 0.0
        if stat == "self_ms_p50":
            return 1e3 * statistics.median(selfs) if selfs else 0.0
        raise KeyError(stat)

    def table(self) -> str:
        rows = sorted(self.durations, key=lambda n: -sum(self.selfs[n]))
        lines = [f"{'span':<36} {'calls':>9} {'total_s':>10} {'self_s':>10} "
                 f"{'p50_ms':>10} {'self_p50_ms':>12}"]
        for name in rows:
            lines.append(
                f"{name:<36} {self.value(name, 'calls'):>9d} "
                f"{self.value(name, 's'):>10.4f} "
                f"{self.value(name, 'self_s'):>10.4f} "
                f"{self.value(name, 'ms_p50'):>10.4f} "
                f"{self.value(name, 'self_ms_p50'):>12.4f}")
        return "\n".join(lines)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(stats: LayerStats, counters: dict,
                      eval_counters: dict, extra: dict) -> dict[str, float]:
    """Every PER_LAYER metric from span stats, counters and run figures.

    `counters` add up over the whole traced run; `eval_counters` come from
    the traced evaluate command alone; `extra` holds the trace.* figures.
    """
    c, e = counters, eval_counters
    derived = {
        "baselines.bm25_postings_per_query":
            _ratio(c.get("bm25_postings", 0), c.get("bm25_queries", 0)),
        "ranking.items_built": e.get("items_built", 0),
        "ranking.items_returned_per_built":
            _ratio(e.get("items_returned", 0), e.get("items_built", 0)),
        "gat.gat_layer_forward.rows": c.get("gat_rows", 0),
        "retriever.fallback_share":
            _ratio(c.get("fallback_items", 0), c.get("decoded_items", 0)),
        "retriever.expanded":
            _ratio(c.get("expanded", 0), c.get("subgraphs", 0)),
        "retriever.kept": _ratio(c.get("kept", 0), c.get("subgraphs", 0)),
        "retriever.kept_per_expanded":
            _ratio(c.get("kept", 0) - c.get("subgraphs", 0),
                   c.get("expanded", 0)),
        "retriever.seed_is_query":
            _ratio(c.get("seed_is_query", 0), c.get("seeds", 0)),
        "rerank.prompt_bytes":
            _ratio(c.get("prompt_bytes", 0), c.get("prompts", 0)),
        "rerank.fallbacks": c.get("rerank_fallbacks", 0),
    }
    derived.update(extra)
    out = {}
    for name, _, _ in PER_LAYER:
        if name in derived:
            out[name] = float(derived[name])
        else:
            span, stat = name.rsplit(".", 1)
            out[name] = float(stats.value(span, stat))
    return out
