"""Ranking metrics at k (recall, precision, MRR, nDCG) and their means.

Relevance is binary citation membership, so the 2^rel - 1 gain in DCG
reduces to {0, 1}. Queries with an empty relevant set are undefined for
recall/nDCG and are excluded from means (and counted) rather than scored.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Set

from .ranking import RankedList


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


def recall_at_k(ranked: Sequence[str], relevant: Set[str], k: int) -> float:
    """Relevant items in the top k over all relevant items."""
    if not relevant:
        raise ValueError("recall is undefined for an empty relevant set")
    top = set(ranked[:k])
    return len(top & set(relevant)) / len(relevant)


def precision_at_k(ranked: Sequence[str], relevant: Set[str], k: int) -> float:
    """Relevant items in the top k over k (k stays the denominator even
    when fewer results were returned)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    top = set(ranked[:k])
    return len(top & set(relevant)) / k


def first_relevant_rank(ranked: Sequence[str],
                        relevant: Set[str]) -> Optional[int]:
    """1-based rank of the first relevant item, or None when absent."""
    for i, pid in enumerate(ranked, start=1):
        if pid in relevant:
            return i
    return None


def ndcg_at_k(ranked: Sequence[str], relevant: Set[str], k: int) -> float:
    """DCG@k over the ideal DCG, with binary gains discounted by log2(i+1)."""
    if not relevant:
        raise ValueError("nDCG is undefined for an empty relevant set")
    rel = set(relevant)
    dcg = sum(1.0 / math.log2(i + 2)
              for i, pid in enumerate(ranked[:k]) if pid in rel)
    idcg = sum(1.0 / math.log2(i + 2) for i in range(min(len(rel), k)))
    return dcg / idcg


def per_query_metrics(run: Mapping[str, RankedList],
                      judgments: Mapping[str, frozenset[str]],
                      k: int) -> list[dict]:
    """Rows (query_id, recall, precision, rr, ndcg) for included queries.

    Every query must have a judgment; one whose relevant set is empty gets
    no row, so `report_from_rows` leaves it out of the means.
    """
    rows = []
    for qid, result in run.items():
        if qid not in judgments:
            raise KeyError(f"no judgment for query {qid!r}")
        relevant = judgments[qid]
        if not relevant:
            continue
        ranked = result.ids()
        rank = first_relevant_rank(ranked, relevant)
        rows.append({
            "query_id": qid,
            "recall": recall_at_k(ranked, relevant, k),
            "precision": precision_at_k(ranked, relevant, k),
            "rr": 1.0 / rank if rank is not None else 0.0,
            "ndcg": ndcg_at_k(ranked, relevant, k),
        })
    return rows


def report_from_rows(rows: Sequence[dict], k: int,
                     excluded_count: int) -> EvalReport:
    """Mean metrics over `per_query_metrics` rows, one per included query."""
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
        excluded_count=excluded_count,
    )


def write_per_query_csv(path: str, rows: Sequence[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["query_id", "recall", "precision", "rr", "ndcg"])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
