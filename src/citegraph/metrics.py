"""Ranking metrics at k (recall, precision, MRR, nDCG) and run evaluation.

Relevance is binary citation membership, so the 2^rel - 1 gain in DCG
reduces to {0, 1}. Queries with an empty relevant set are undefined for
recall/nDCG and are excluded from means (and counted) rather than scored.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Set

from .ranking import RankedList


@dataclass(frozen=True)
class QueryJudgment:
    query_id: str
    relevant: frozenset[str]


@dataclass
class EvalReport:
    k: int
    recall_at_k: float
    precision_at_k: float
    mrr: float
    ndcg_at_k: float
    query_count: int
    excluded_count: int

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "recall_at_k": round(self.recall_at_k, 6),
            "precision_at_k": round(self.precision_at_k, 6),
            "mrr": round(self.mrr, 6),
            "ndcg_at_k": round(self.ndcg_at_k, 6),
            "query_count": self.query_count,
            "excluded_count": self.excluded_count,
        }


def _ids(ranked: RankedList | Sequence[str]) -> list[str]:
    if isinstance(ranked, RankedList):
        return ranked.ids()
    return list(ranked)


def recall_at_k(ranked: RankedList | Sequence[str], relevant: Set[str],
                k: int) -> float:
    """Relevant items in the top k over all relevant items."""
    if not relevant:
        raise ValueError("recall is undefined for an empty relevant set")
    top = set(_ids(ranked)[:k])
    return len(top & set(relevant)) / len(relevant)


def precision_at_k(ranked: RankedList | Sequence[str], relevant: Set[str],
                   k: int) -> float:
    """Relevant items in the top k over k (k stays the denominator even
    when fewer results were returned)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    top = set(_ids(ranked)[:k])
    return len(top & set(relevant)) / k


def first_relevant_rank(ranked: RankedList | Sequence[str],
                        relevant: Set[str]) -> Optional[int]:
    """1-based rank of the first relevant item, or None when absent."""
    for i, pid in enumerate(_ids(ranked), start=1):
        if pid in relevant:
            return i
    return None


def mrr(first_ranks: Iterable[Optional[int]]) -> float:
    """Mean reciprocal rank; a query with no hit contributes 0."""
    ranks = list(first_ranks)
    if not ranks:
        raise ValueError("MRR is undefined over an empty query set")
    return sum(1.0 / r if r is not None else 0.0 for r in ranks) / len(ranks)


def ndcg_at_k(ranked: RankedList | Sequence[str], relevant: Set[str],
              k: int) -> float:
    """DCG@k over the ideal DCG, with binary gains discounted by log2(i+1)."""
    if not relevant:
        raise ValueError("nDCG is undefined for an empty relevant set")
    rel = set(relevant)
    dcg = sum(1.0 / math.log2(i + 2)
              for i, pid in enumerate(_ids(ranked)[:k]) if pid in rel)
    idcg = sum(1.0 / math.log2(i + 2) for i in range(min(len(rel), k)))
    return dcg / idcg


def _judgment_map(judgments) -> dict[str, frozenset[str]]:
    if isinstance(judgments, Mapping):
        return {qid: frozenset(rel) for qid, rel in judgments.items()}
    return {j.query_id: frozenset(j.relevant) for j in judgments}


def per_query_metrics(run: Mapping[str, RankedList | Sequence[str]],
                      judgments, k: int) -> list[dict]:
    """Rows (query_id, recall, precision, rr, ndcg) for included queries."""
    jmap = _judgment_map(judgments)
    rows = []
    for qid, ranked in run.items():
        if qid not in jmap:
            raise KeyError(f"no judgment for query {qid!r}")
        relevant = jmap[qid]
        if not relevant:
            continue
        rank = first_relevant_rank(ranked, relevant)
        rows.append({
            "query_id": qid,
            "recall": recall_at_k(ranked, relevant, k),
            "precision": precision_at_k(ranked, relevant, k),
            "rr": 1.0 / rank if rank is not None else 0.0,
            "ndcg": ndcg_at_k(ranked, relevant, k),
        })
    return rows


def evaluate(run: Mapping[str, RankedList | Sequence[str]], judgments,
             k: int) -> EvalReport:
    """Mean metrics over all queries in `run`.

    Every query must have a judgment; queries whose relevant set is empty
    have no per-query row, are excluded from the means and counted in
    excluded_count.
    """
    rows = per_query_metrics(run, judgments, k)
    if not rows:
        raise ValueError("no evaluable queries (all had empty relevant sets)")
    n = len(rows)
    means = {key: sum(row[key] for row in rows) / n
             for key in ("recall", "precision", "rr", "ndcg")}
    return EvalReport(
        k=k,
        recall_at_k=means["recall"],
        precision_at_k=means["precision"],
        mrr=means["rr"],
        ndcg_at_k=means["ndcg"],
        query_count=n,
        excluded_count=len(run) - n,
    )


def write_report_json(path: str, report: EvalReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_per_query_csv(path: str, rows: Sequence[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["query_id", "recall", "precision", "rr", "ndcg"])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
