"""Straight-line references the benchmark checks the program against.

Nothing here imports citegraph. BM25 scores come from the generator's
token ids with the documented smoothed IDF, k1 and b; dense scores are
cosines over the rows of the embeddings TSV the program wrote; the hybrid
blend is the documented per-query min-max mix of the two. Every ranking
breaks ties by document index. Operations are written in the order the
documentation states them, so scores match the program's to the last bit
and no near-tie can swap two documents.
"""
from __future__ import annotations

import math
from collections import deque

import numpy as np


class Bm25:
    """BM25 over token-id documents: postings grouped by term, doc order."""

    def __init__(self, tokens: np.ndarray, offsets: np.ndarray,
                 k1: float = 1.2, b: float = 0.75):
        n = len(offsets) - 1
        lengths = np.diff(offsets)
        docs = np.repeat(np.arange(n, dtype=np.int64), lengths)
        keys, tf = np.unique(tokens * n + docs, return_counts=True)
        terms, self.docs = np.divmod(keys, n)
        vocab = int(tokens.max()) + 1 if len(tokens) else 1
        self.ptr = np.searchsorted(terms, np.arange(vocab + 1))
        df = np.diff(self.ptr)
        idf = np.array([math.log((n - d + 0.5) / (d + 0.5) + 1.0)
                        for d in df.tolist()])
        avg = int(lengths.sum()) / n
        ratio = lengths[self.docs] / avg
        denom = tf + k1 * ((1.0 - b) + b * ratio)
        self.weight = idf[terms] * tf / denom
        self.n = n

    def scores(self, query_tokens: np.ndarray) -> np.ndarray:
        """Score of every document, adding query tokens in query order."""
        scores = np.zeros(self.n, dtype=np.float64)
        for t in query_tokens.tolist():
            if t + 1 >= len(self.ptr):
                continue
            lo, hi = self.ptr[t], self.ptr[t + 1]
            scores[self.docs[lo:hi]] += self.weight[lo:hi]
        return scores


def read_embeddings(path: str, ids: list[str]) -> np.ndarray:
    """Rows of the embeddings TSV, L2-normalized, checked against `ids`.

    The benchmark's paper ids are decimal integers, so the whole file
    parses as one whitespace-separated array of numbers.
    """
    with open(path, "r", encoding="utf-8") as fh:
        count, dim = (int(x) for x in fh.readline().split("\t"))
        values = np.fromstring(fh.read(), dtype=np.float64, sep=" ")
    if count != len(ids) or values.size != count * (dim + 1):
        raise ValueError(f"{path}: expected {len(ids)} rows of {dim} values")
    table = values.reshape(count, dim + 1)
    if not np.array_equal(table[:, 0], np.array(ids, dtype=np.float64)):
        raise ValueError(f"{path}: rows are not in corpus order")
    rows = np.array(table[:, 1:])
    norms = np.linalg.norm(rows, axis=1)
    nonzero = norms > 0.0
    rows[nonzero] /= norms[nonzero, None]
    return rows


def cosines(rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    q = query / np.linalg.norm(query)
    return np.clip(rows @ q, -1.0, 1.0)


def rank(scores: np.ndarray, positive_only: bool = False) -> np.ndarray:
    """Document indices by descending score, ties by ascending index."""
    idx = np.flatnonzero(scores > 0.0) if positive_only \
        else np.arange(len(scores))
    return idx[np.lexsort((idx, -scores[idx]))]


def min_max(values: np.ndarray) -> np.ndarray:
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def top_k_without(order: np.ndarray, own: int, k: int) -> list[int]:
    return [int(d) for d in order[:k + 1] if d != own][:k]


def metric_row(ranked: list[int], relevant: set[int], k: int) -> dict:
    """Recall, precision, reciprocal rank and nDCG of one ranked list."""
    top = ranked[:k]
    hits = [d in relevant for d in top]
    first = next((i for i, hit in enumerate(hits, start=1) if hit), None)
    dcg = sum(1.0 / math.log2(i + 2) for i, hit in enumerate(hits) if hit)
    idcg = sum(1.0 / math.log2(i + 2) for i in range(min(len(relevant), k)))
    return {"recall": sum(hits) / len(relevant), "precision": sum(hits) / k,
            "rr": 1.0 / first if first else 0.0, "ndcg": dcg / idcg}


def bfs_rings(adjacency: list[list[int]], seed: int,
              hops: int) -> list[set[int]]:
    """Undirected BFS rings around `seed`: ring h holds nodes at distance h."""
    dist = {seed: 0}
    queue = deque([seed])
    rings: list[set[int]] = [set() for _ in range(hops + 1)]
    rings[0].add(seed)
    while queue:
        u = queue.popleft()
        if dist[u] == hops:
            continue
        for w in adjacency[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                rings[dist[w]].add(w)
                queue.append(w)
    return rings


def undirected(targets: list[list[int]], drop_out_edges_of: int | None = None
               ) -> list[list[int]]:
    """Undirected adjacency from citation targets, optionally without the
    out-edges of one paper (a protocol that hides the query's citations)."""
    adjacency: list[set[int]] = [set() for _ in targets]
    for u, outs in enumerate(targets):
        if u == drop_out_edges_of:
            continue
        for v in outs:
            adjacency[u].add(v)
            adjacency[v].add(u)
    return [sorted(a) for a in adjacency]
