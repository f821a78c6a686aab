"""The query-relevance scorer that prunes each retrieval hop.

Relevance against a query is a single logistic unit over the
concatenated [embedding row ; query] vector, fitted on embedding rows
and scoring embedding rows. A training query is a node of the citation
graph: its vector is its embedding row, and its positives are the nodes
its out-row cites. Training is full-batch gradient descent, at a fixed
rate for a fixed number of epochs, on binary cross-entropy over
[row ; query] pairs with one sampled negative per positive; since the
query adds one constant per query to the logit, each pair row and each
query is stored once, never the pair matrix. A weights file stores the
scorer and the embedding width it was fitted at. (The module name comes
from the paper's graph attention; no attention layer is applied, since
untrained weight layers only degraded the pruning signal.)
"""
from __future__ import annotations

from dataclasses import dataclass
import json
import math
from typing import Sequence

import numpy as np

from .embed import EmbeddingMatrix
from .graph import CitationGraph

# open-interval bounds for logistic outputs: strictly inside (0, 1) even
# when the logit saturates in float64
_SCORE_LO = float(np.nextafter(0.0, 1.0))
_SCORE_HI = float(np.nextafter(1.0, 0.0))

# Training settings. On unit (or zero) rows and queries the loss gradient
# is Lipschitz with constant at most (1 + 1 + 1) / 4 = 0.75 (row, query
# and bias), so this rate, below 2 / 0.75, never raises the loss.
LEARNING_RATE = 0.5
EPOCHS = 200
NEGATIVES_PER_POSITIVE = 1


@dataclass
class ScorerParams:
    """Logistic unit over [embedding row ; query]: score = sigmoid(u.x + b)."""

    u: np.ndarray
    b: float = 0.0

    def __post_init__(self) -> None:
        self.u = np.asarray(self.u, dtype=np.float64)
        if self.u.ndim != 1 or not np.isfinite(self.u).all() \
                or not math.isfinite(self.b):
            raise ValueError("scorer parameters must be a finite vector and bias")


def _logistic(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sigmoid(z) and exp(-|z|), both from one exp, with no overflow."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e)), e


def sigmoid(z: np.ndarray) -> np.ndarray:
    return _logistic(np.asarray(z, dtype=np.float64))[0]


def relevance_scores(rows: np.ndarray, query: np.ndarray,
                     scorer: ScorerParams) -> np.ndarray:
    """Logistic relevance of every row against the query, strictly in (0, 1)."""
    H = np.asarray(rows, dtype=np.float64)
    q = np.asarray(query, dtype=np.float64)
    if H.ndim != 2 or q.ndim != 1:
        raise ValueError("rows must be 2-d and query 1-d")
    d = H.shape[1]
    if scorer.u.shape[0] != d + q.shape[0]:
        raise ValueError(
            f"scorer expects width {scorer.u.shape[0]}, "
            f"got row {d} + query {q.shape[0]}")
    z = H @ scorer.u[:d] + float(q @ scorer.u[d:]) + scorer.b
    return np.clip(sigmoid(z), _SCORE_LO, _SCORE_HI)


def loss_and_gradient(u: np.ndarray, b: float, rows: np.ndarray,
                      queries: np.ndarray, group: np.ndarray,
                      labels: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Mean binary cross-entropy of the logistic unit over the pairs
    [rows[i] ; queries[group[i]]], and its exact gradient. Splitting u at
    the row width splits each logit, so no pair is ever concatenated.

    Uses the overflow-safe form loss_i = max(z,0) - z*y + log(1 + e^-|z|).
    """
    d = rows.shape[1]
    z = rows @ u[:d] + (queries @ u[d:])[group] + b
    score, e = _logistic(z)
    loss = float(np.mean(np.maximum(z, 0.0) - z * labels + np.log1p(e)))
    residual = (score - labels) / len(labels)
    per_query = np.bincount(group, weights=residual, minlength=len(queries))
    return (loss, np.concatenate([rows.T @ residual, queries.T @ per_query]),
            float(residual.sum()))


@dataclass
class TrainResult:
    params: ScorerParams
    losses: list[float]  # length EPOCHS + 1: initial loss, then one per step


def _training_pairs(graph: CitationGraph, embeddings: EmbeddingMatrix,
                    queries: Sequence[int],
                    seed: int) -> tuple[np.ndarray, ...]:
    """The labelled pairs [R[i] ; Q[group[i]]] as pair rows R, query rows
    Q (each stored once), each pair's query position `group`, and labels y.

    Pairs go query by query. A query node contributes the nodes its
    out-row cites, in index order (label 1), then its sampled negatives
    ascending by node index (label 0). The negatives are drawn query by
    query from one generator seeded with `seed`, so the seed fixes the
    output bit for bit. A query that cites nothing raises ValueError.
    """
    if not len(queries):
        raise ValueError("no positive (node, query) pairs available for training")
    rng = np.random.default_rng(seed)
    n, indptr, cited = graph.node_count, graph.out_indptr, graph.out_indices
    nodes: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    for q in queries:
        positives = cited[indptr[q]:indptr[q + 1]]
        if not len(positives):
            raise ValueError(f"training query {graph.node_ids[q]!r} cites "
                             f"no corpus paper")
        negative = np.ones(n, dtype=bool)
        negative[positives] = False
        pool = np.flatnonzero(negative)  # never empty: q does not cite itself
        wanted = min(len(pool), NEGATIVES_PER_POSITIVE * len(positives))
        negatives = np.sort(rng.choice(pool, size=wanted, replace=False))
        nodes.append(np.concatenate([positives, negatives]))
        labels.append(np.repeat([1.0, 0.0], [len(positives), len(negatives)]))
    group = np.repeat(np.arange(len(queries)), [len(v) for v in nodes])
    return (embeddings.rows(np.concatenate(nodes)), embeddings.rows(queries),
            group, np.concatenate(labels))


def train_scorer(graph: CitationGraph, embeddings: EmbeddingMatrix,
                 queries: Sequence[int], seed: int) -> TrainResult:
    """Fit the relevance scorer on citation membership.

    Each query is a node index. Label 1 pairs its embedding row with each
    node its out-row cites; label 0 pairs it with negatives sampled
    uniformly (without replacement) from the nodes it does not cite,
    NEGATIVES_PER_POSITIVE per positive, drawn under `seed`. A query that
    cites nothing raises ValueError naming it. EPOCHS steps of full-batch
    gradient descent at LEARNING_RATE on the [row ; query] loss, computed
    from rows and queries stored once; with a fixed seed the result is
    bit-identical across runs. The returned loss
    trace holds the initial loss followed by the loss after each epoch. A
    run whose final loss is not finite, or is above the initial loss by
    more than rounding, diverged (rows or queries too long for the fixed
    rate) and raises ValueError.
    """
    if graph.node_count != embeddings.node_count:
        raise ValueError("graph and embeddings disagree on node count")
    pairs = _training_pairs(graph, embeddings, queries, seed)
    u, b = np.zeros(pairs[0].shape[1] + pairs[1].shape[1]), 0.0
    loss, grad_u, grad_b = loss_and_gradient(u, b, *pairs)
    losses = [loss]
    # a diverging run overflows; it is reported once, below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(EPOCHS):
            u = u - LEARNING_RATE * grad_u
            b = b - LEARNING_RATE * grad_b
            loss, grad_u, grad_b = loss_and_gradient(u, b, *pairs)
            losses.append(loss)
    # a run with nothing to learn stays at its first loss to rounding
    if not loss <= losses[0] * (1.0 + 1e-12):  # also true for nan
        raise ValueError(f"training diverged: loss {losses[0]:.6f} -> "
                         f"{loss:.6g}; the fixed rate {LEARNING_RATE} "
                         f"needs rows and queries of norm <= 1")
    return TrainResult(params=ScorerParams(u=u, b=b), losses=losses)


def save_weights(path: str, dim: int, scorer: ScorerParams,
                 hash_seed: int | None = None) -> None:
    """Write what `train` learns: the scorer, the embedding width and, when
    it was fitted on the hashing embedder's rows, that embedder's seed."""
    obj = {"dim": dim,
           "scorer": {"u": scorer.u.tolist(), "b": float(scorer.b)}}
    if hash_seed is not None:
        obj["embedding"] = {"provider": "hash", "dim": dim, "seed": hash_seed}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def _entry(obj, key, where: str):
    try:
        return obj[key]
    except (KeyError, IndexError, TypeError):
        raise ValueError(f"missing key {where!r}") from None


def _count(obj, key: str, low: int) -> int:
    """obj[key] as a JSON integer >= low; errors name the key."""
    value = _entry(obj, key, key)
    if type(value) is not int or value < low:
        raise ValueError(f"{key}: not an integer >= {low}")
    return value


def _numbers(obj, key, where: str) -> np.ndarray:
    """obj[key] as a finite float64 array; errors name the key path."""
    value = _entry(obj, key, where)
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        raise ValueError(f"{where}: not numeric") from None
    # a JSON true mixed with numbers promotes to a number: look at each entry
    if arr.dtype.kind not in "iuf" or any(
            type(x) is bool for x in np.asarray(value, dtype=object).flat):
        raise ValueError(f"{where}: not numeric")
    arr = arr.astype(np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{where}: non-finite value")
    return arr


def load_weights(path: str, width: int | None = None,
                 hash_seed: int | None = None) -> ScorerParams:
    """Read `save_weights` output back into the scorer.

    A bad entry fails naming its key. `dim` must equal `width` and a
    recorded hashing seed `hash_seed`, each when given, and `scorer.u` must
    hold exactly 2*dim values. Other keys, such as older files' `seed`,
    are ignored.
    """
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    dim = _count(obj, "dim", 1)
    if width is not None and dim != width:
        raise ValueError(f"weights dim {dim} does not match the embedding "
                         f"width {width}")
    if hash_seed is not None and "embedding" in obj:
        seed = _entry(obj["embedding"], "seed", "embedding.seed")
        if seed != hash_seed or type(seed) is not int:
            raise ValueError(f"embedding.seed: the scorer was fitted on hash "
                             f"embeddings at seed {seed!r}, not {hash_seed}")
    scorer = _entry(obj, "scorer", "scorer")
    u = _numbers(scorer, "u", "scorer.u")
    if u.shape != (2 * dim,):
        raise ValueError(f"scorer.u: expected {2 * dim} values for dim {dim}, "
                         f"got shape {u.shape}")
    b = _numbers(scorer, "b", "scorer.b")
    if b.ndim != 0:
        raise ValueError("scorer.b: not a number")
    return ScorerParams(u=u, b=float(b))
