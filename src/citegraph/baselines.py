"""Retrieval baselines: BM25, dense cosine scan, and their hybrid blend.

Each baseline scores every document and ranks with `ranking.top_k`.
`bm25_build` makes one pass over the texts, which may be any iterable:
each paper's tokens (the embedder's `tokenize`) become 32-bit term ids in
one flat `array('i')`, so no per-paper array or text outlives its paper.
Sorted in place as one int64 key per token (term-major), their runs are
the postings, grouped by term and ascending by doc. The index is one CSR
over them: `ptr` (int64), `docs` (int32) and `weights` (float64), each
posting's BM25 weight idf * tf / (tf + norm[doc]) computed once at build
time (eager scoring, as in BM25S, Lu 2024). `postings` slices `docs` on
lookup, so `len()` is the document frequency; no per-term array exists.
A query concatenates its terms' slices of `docs` and `weights` in token
order and sums per document with one `np.bincount`, which adds in input
order, as a loop over query tokens and postings does: the scores are
bit-identical to that loop.
`evaluate` computes this row once per query and ranks bm25 and blends
hybrid from it; `bm25_rank` is the one-call form for library callers.
"""
from __future__ import annotations

import math
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .embed import EmbeddingMatrix, tokenize
from .ranking import RankedList, top_k

_CHUNK = 8192  # postings per step of the weight computation


@dataclass
class Bm25Index:
    """CSR inverted index: term i's postings are the ascending doc indices
    `docs[ptr[i]:ptr[i + 1]]` and their BM25 weights, at i = terms[term]."""

    terms: dict[str, int]
    ptr: np.ndarray
    docs: np.ndarray
    weights: np.ndarray
    avg_doc_length: float
    doc_count: int
    ids: tuple[str, ...]

    @property
    def postings(self) -> Mapping[str, np.ndarray]:
        return _Postings(self)


@dataclass(eq=False)  # Mapping's __eq__ compares as a dict
class _Postings(Mapping):
    _index: Bm25Index

    def __getitem__(self, term: str) -> np.ndarray:
        i, ptr = self._index.terms[term], self._index.ptr
        return self._index.docs[ptr[i]:ptr[i + 1]]

    def __iter__(self):
        return iter(self._index.terms)

    def __len__(self) -> int:
        return len(self._index.terms)


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
    doc_lengths = np.frombuffer(lengths, dtype=np.int64)
    avg = int(doc_lengths.sum()) / n
    # one int64 key per token, term-major, so sorting groups each term's
    # docs; the int64 scalar keeps term_id * n from wrapping in int32
    keys = np.frombuffer(term_ids, dtype=np.intc) * np.int64(n)
    del term_ids
    keys += np.repeat(np.arange(n, dtype=np.intc), doc_lengths)
    keys.sort()
    starts = np.empty(len(keys), dtype=bool)  # first token of a (term, doc)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    run_keys = keys[starts]
    del keys
    docs = np.empty(len(run_keys), dtype=np.int32)
    np.remainder(run_keys, n, out=docs)  # cast in buffer-sized blocks
    run_keys //= n  # each run's term id
    df = np.bincount(run_keys, minlength=len(vocab))
    del run_keys
    # a run's tf is the distance from its first token to the next run's
    firsts = np.flatnonzero(starts)
    tf = np.empty(len(firsts), dtype=np.int32)
    np.subtract(firsts[1:], firsts[:-1], out=tf[:-1])
    tf[-1:] = len(starts) - firsts[-1:]
    del starts, firsts
    # idf * tf / (tf + k1 * (1 - b + b * dl / avg)) step by step, the norm
    # per doc, over fixed-size chunks of postings; no posting reads the
    # norm when every doc is empty (avg 0)
    norm = k1 * (1.0 - b + b * (doc_lengths / (avg or 1.0)))
    weights = np.repeat([math.log((n - d + 0.5) / (d + 0.5) + 1.0)
                         for d in df.tolist()], df)
    for s in range(0, len(weights), _CHUNK):
        w, t = weights[s:s + _CHUNK], tf[s:s + _CHUNK]
        den = norm[docs[s:s + _CHUNK]]
        den += t
        w *= t
        w /= den
    ptr = np.concatenate(([0], np.cumsum(df)))
    docs.setflags(write=False)  # `postings` hands out views of it
    return Bm25Index(terms=dict(vocab), ptr=ptr, docs=docs, weights=weights,
                     avg_doc_length=avg, doc_count=n, ids=ids)


def idf(index: Bm25Index, term: str) -> float:
    """Smoothed IDF, ln((N - df + 0.5)/(df + 0.5) + 1); never negative."""
    df = len(index.postings.get(term, ()))
    return math.log((index.doc_count - df + 0.5) / (df + 0.5) + 1.0)


def bm25_scores(index: Bm25Index, query_text: str) -> np.ndarray:
    """Raw BM25 score of every document for the query.

    Sums over query tokens as given (a repeated token counts each time).
    """
    rows = [index.terms[t] for t in tokenize(query_text) if t in index.terms]
    if not rows:  # also covers an all-empty corpus, which has no terms
        return np.zeros(index.doc_count, dtype=np.float64)
    spans = [(index.ptr[i], index.ptr[i + 1]) for i in rows]
    return np.bincount(np.concatenate([index.docs[s:e] for s, e in spans],
                                      dtype=np.intp),
                       np.concatenate([index.weights[s:e] for s, e in spans]),
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
