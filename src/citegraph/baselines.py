"""Retrieval baselines: BM25, dense cosine scan, and their hybrid blend.

Each baseline scores every document and ranks with `ranking.top_k`.
`bm25_build` makes one pass over the texts, which may be any iterable:
each paper's tokens (the embedder's `tokenize`) become 32-bit term ids
appended to one flat `array('i')`, and its token count goes into
`doc_lengths`, so no per-paper array, token list or text outlives its
paper. The term ids then become one int64 key per token (term-major),
sorted in place, and the runs of equal keys fill one preallocated (P, 2)
int32 array of (doc index, term frequency) rows, grouped by term and
ascending by doc within a term. Each temporary is released before the
next is made. `postings` maps each term to its read-only slice (a view,
so `len()` is the document frequency); the index holds nothing else but
the per-document token counts.
A query concatenates its terms' slices in token order, computes every
posting's idf * tf / (tf + norm[doc]) at once, and sums per document with
`np.bincount` (eager scoring, as in BM25S, Lu 2024). bincount adds weights
in input order, so each document gets its terms in the order a loop over
query tokens and postings adds them: the scores are bit-identical to it.
`evaluate` computes this row once per query and ranks bm25 and blends
hybrid from it; `bm25_rank` is the one-call form for library callers.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .embed import EmbeddingMatrix, tokenize
from .ranking import RankedList, top_k


@dataclass
class Bm25Index:
    """Inverted index: term -> read-only (df, 2) int32 array of (doc index,
    tf) rows, each a view of one flat array, plus the per-document token
    counts. It holds nothing else."""

    postings: dict[str, np.ndarray]
    doc_lengths: np.ndarray
    avg_doc_length: float
    doc_count: int
    ids: tuple[str, ...]
    k1: float = 1.2
    b: float = 0.75


@dataclass
class HybridConfig:
    alpha: float = 0.5  # weight on BM25; 1 - alpha goes to dense

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha (--alpha) must be in [0, 1]")


class _Vocab(dict):
    """term -> id, numbered in first-appearance order on first lookup."""

    def __missing__(self, term: str) -> int:
        self[term] = term_id = len(self)
        return term_id


def bm25_build(texts: Iterable[str], ids: Sequence[str] | None = None,
               k1: float = 1.2, b: float = 0.75) -> Bm25Index:
    """Index a corpus of texts (tokenizer shared with the hash embedder).

    `texts` is read once, in order; the number read is the doc count.
    """
    vocab = _Vocab()
    term_ids = array("i")
    lengths = array("q")
    for text in texts:
        tokens = tokenize(text)
        lengths.append(len(tokens))
        term_ids.extend(map(vocab.__getitem__, tokens))
    n = len(lengths)
    if n == 0:
        raise ValueError("cannot build a BM25 index over an empty corpus")
    if not (0.0 <= k1 < math.inf and 0.0 <= b <= 1.0):
        raise ValueError("BM25 needs a finite k1 >= 0 and b in [0, 1]")
    ids = tuple(str(i) for i in range(n)) if ids is None else tuple(ids)
    if len(ids) != n:
        raise ValueError("ids and texts must have equal length")
    doc_lengths = np.array(lengths, dtype=np.int64)
    # one int64 key per token, term-major, so sorting groups each term's
    # docs; the int64 scalar keeps term_id * n from wrapping in int32
    keys = np.frombuffer(term_ids, dtype=np.intc) * np.int64(n)
    del term_ids
    keys += np.repeat(np.arange(n, dtype=np.intc), doc_lengths)
    keys.sort()
    starts = np.empty(len(keys), dtype=bool)  # first token of a (term, doc)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    token_count = len(keys)
    run_keys = keys[starts]
    del keys
    flat = np.empty((len(run_keys), 2), dtype=np.int32)
    np.remainder(run_keys, n, out=flat[:, 0])
    run_keys //= n  # now each run's term id
    df = np.bincount(run_keys, minlength=len(vocab))
    del run_keys
    first = np.flatnonzero(starts)
    del starts
    np.subtract(first[1:], first[:-1], out=flat[:-1, 1])  # tf: run lengths
    flat[-1:, 1] = token_count - first[-1:]
    flat.setflags(write=False)
    bounds = [0, *np.cumsum(df).tolist()]
    postings = {term: flat[start:end] for term, start, end
                in zip(vocab, bounds, bounds[1:])}
    return Bm25Index(postings=postings, doc_lengths=doc_lengths,
                     avg_doc_length=int(doc_lengths.sum()) / n,
                     doc_count=n, ids=ids, k1=k1, b=b)


def idf(index: Bm25Index, term: str) -> float:
    """Smoothed IDF, ln((N - df + 0.5)/(df + 0.5) + 1); never negative."""
    df = len(index.postings.get(term, ()))
    return math.log((index.doc_count - df + 0.5) / (df + 0.5) + 1.0)


def bm25_scores(index: Bm25Index, query_text: str) -> np.ndarray:
    """Raw BM25 score of every document for the query.

    Sums over query tokens as given (a repeated token counts each time).
    """
    terms = [t for t in tokenize(query_text) if t in index.postings]
    if not terms:  # also covers an all-empty corpus, whose avg length is 0
        return np.zeros(index.doc_count, dtype=np.float64)
    slices = [index.postings[t] for t in terms]
    hits = np.concatenate(slices)
    docs, tf = hits[:, 0], hits[:, 1]
    term_idf = np.repeat([idf(index, t) for t in terms],
                         [len(s) for s in slices])
    ratio = index.doc_lengths[docs] / index.avg_doc_length
    norm = index.k1 * (1.0 - index.b + index.b * ratio)
    return np.bincount(docs, term_idf * tf / (tf + norm),
                       minlength=index.doc_count)


def bm25_rank(index: Bm25Index, query_text: str, k: int) -> RankedList:
    """Top-k documents with positive BM25 score, ties by doc index."""
    scores = bm25_scores(index, query_text)
    return top_k(scores, index.ids, k, "bm25", candidates=scores > 0.0)


def dense_rank(query: np.ndarray, embeddings: EmbeddingMatrix,
               k: int) -> RankedList:
    """Top-k documents by exact cosine scan, ties by doc index."""
    return top_k(embeddings.scores(query), embeddings.ids, k, "dense")


def _min_max(values: np.ndarray) -> np.ndarray:
    lo = float(values.min())
    hi = float(values.max())
    if hi == lo:
        return np.zeros_like(values)  # constant lists carry no signal
    return (values - lo) / (hi - lo)


def hybrid_scores(bm25: np.ndarray, dense: np.ndarray,
                  config: HybridConfig) -> np.ndarray:
    """alpha * bm25 + (1 - alpha) * dense, each side min-max normalized to
    [0, 1] over the whole corpus first."""
    return config.alpha * _min_max(bm25) + (1.0 - config.alpha) * _min_max(dense)


def hybrid_rank(bm25_list: RankedList, dense_list: RankedList,
                config: HybridConfig, k: int,
                universe: Sequence[str]) -> RankedList:
    """Blend full-corpus BM25 and dense rankings with `hybrid_scores`.

    Documents missing from a list contribute raw score 0 on that side
    (BM25 omits zero-score docs). `universe` fixes the candidate id order
    used for tie-breaking; ids outside it are a mismatch error.
    """
    positions = {pid: i for i, pid in enumerate(universe)}
    if len(positions) != len(universe):
        raise ValueError("universe contains duplicate ids")
    sides = []
    for name, lst in (("bm25", bm25_list), ("dense", dense_list)):
        raw = np.zeros(len(universe), dtype=np.float64)
        for item in lst.items:
            if item.id not in positions:
                raise ValueError(
                    f"mismatched universes: {name} list has ids outside the "
                    f"candidate universe, e.g. {item.id!r}")
            raw[positions[item.id]] = item.score
        sides.append(raw)
    return top_k(hybrid_scores(sides[0], sides[1], config), universe, k,
                 "hybrid")
