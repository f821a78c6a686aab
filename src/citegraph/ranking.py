"""Ranked candidate lists shared by the retriever, baselines and reranker."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class RankedItem:
    id: str
    score: float
    provenance: str = "graph"


@dataclass
class RankedList:
    """Candidates with unique ids, each provenance's scores non-increasing
    (the retriever's `dense-fallback` tier follows its `graph` tier and may
    score higher than the last graph item).

    `fallback` is set when the list is a graceful degradation (for example
    a re-rank that could not be applied); items keep their provenance.
    """

    items: list[RankedItem] = field(default_factory=list)
    fallback: bool = False

    def __post_init__(self) -> None:
        ids = [item.id for item in self.items]
        if len(ids) != len(set(ids)):
            raise ValueError("ranked list contains duplicate ids")
        last: dict[str, float] = {}
        for item in self.items:
            if item.score > last.setdefault(item.provenance, item.score):
                raise ValueError("ranked list scores must be non-increasing "
                                 "within each provenance")
            last[item.provenance] = item.score

    def ids(self) -> list[str]:
        return [item.id for item in self.items]

    def __len__(self) -> int:
        return len(self.items)

    def to_dicts(self) -> list[dict]:
        return [
            {"id": it.id, "score": it.score, "provenance": it.provenance}
            for it in self.items
        ]


def top_k_indices(scores: np.ndarray, k: int,
                  candidates: np.ndarray | None = None) -> np.ndarray:
    """Pool indices in `top_k` order (see there)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    pool = None if candidates is None else np.flatnonzero(candidates)
    neg = -scores if pool is None else -scores[pool]
    if k < len(neg):
        keep = np.flatnonzero(~(neg > np.partition(neg, k - 1)[k - 1]))
        pool, neg = keep if pool is None else pool[keep], neg[keep]
    order = np.argsort(neg, kind="stable")[:k]
    return order if pool is None else pool[order]


def top_k(scores: np.ndarray, ids: Sequence[str], k: int, provenance: str,
          candidates: np.ndarray | None = None) -> RankedList:
    """Best k by score, ties to the lower index; `candidates` masks the pool.

    `np.partition` finds the k-th best score first. Only the scores at
    least that good, every one tied with it included, go through the
    stable argsort, so the result equals a full stable sort of the pool
    (NaN compares false, so NaNs stay in and sort last).
    """
    return RankedList(items=[
        RankedItem(id=ids[i], score=float(scores[i]), provenance=provenance)
        for i in top_k_indices(scores, k, candidates).tolist()
    ])
