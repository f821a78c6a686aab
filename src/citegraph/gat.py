"""The query-relevance scorer that prunes each retrieval hop.

Relevance against a query is a single logistic unit over the
concatenated [embedding row ; query] vector. It is fitted on embedding
rows and scores embedding rows, so training and retrieval see the same
input. Training stays analytic: full-batch gradient descent on binary
cross-entropy. A weights file stores exactly what training learns: the
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


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    exp_z = np.exp(z[~pos])
    out[~pos] = exp_z / (1.0 + exp_z)
    return out


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


def loss_and_gradient(u: np.ndarray, b: float, features: np.ndarray,
                      labels: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Mean binary cross-entropy of the logistic unit and its exact gradient.

    Uses the overflow-safe form loss_i = max(z,0) - z*y + log(1 + e^-|z|).
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    z = X @ u + b
    loss = float(np.mean(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))))
    residual = (sigmoid(z) - y) / len(y)
    return loss, X.T @ residual, float(residual.sum())


@dataclass
class TrainingQuery:
    """One supervised query: its embedding and the node indices it cites."""

    query: np.ndarray
    positives: tuple[int, ...]


@dataclass
class TrainConfig:
    learning_rate: float = 0.5
    epochs: int = 200
    negatives_per_positive: int = 1
    seed: int = 0


@dataclass
class TrainResult:
    params: ScorerParams
    losses: list[float]  # length epochs + 1: initial loss, then one per step


def _training_pairs(embeddings: EmbeddingMatrix,
                    train_queries: Sequence[TrainingQuery],
                    config: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(config.seed)
    n = embeddings.node_count
    feats: list[np.ndarray] = []
    labels: list[float] = []
    total_pos = 0
    for tq in train_queries:
        q = np.asarray(tq.query, dtype=np.float64)
        positives = [p for p in tq.positives if 0 <= p < n]
        total_pos += len(positives)
        for p in positives:
            feats.append(np.concatenate([embeddings.vectors[p], q]))
            labels.append(1.0)
        negative = np.ones(n, dtype=bool)
        negative[positives] = False
        pool = np.flatnonzero(negative)
        wanted = min(len(pool), config.negatives_per_positive * len(positives))
        if wanted > 0:
            for neg in sorted(rng.choice(pool, size=wanted, replace=False)):
                feats.append(np.concatenate([embeddings.vectors[neg], q]))
                labels.append(0.0)
    if total_pos == 0:
        raise ValueError("no positive (node, query) pairs available for training")
    return np.stack(feats), np.asarray(labels, dtype=np.float64)


def train_scorer(graph: CitationGraph, embeddings: EmbeddingMatrix,
                 train_queries: Sequence[TrainingQuery],
                 config: TrainConfig) -> TrainResult:
    """Fit the relevance scorer on citation membership.

    Label 1 pairs a query with each of its cited nodes; label 0 pairs it
    with negatives sampled uniformly (without replacement) from the rest
    of the graph, `negatives_per_positive` per positive. Full-batch
    gradient descent; with a fixed seed the result is bit-identical across
    runs. The returned loss trace holds the initial loss followed by the
    loss after each epoch.
    """
    if graph.node_count != embeddings.node_count:
        raise ValueError("graph and embeddings disagree on node count")
    X, y = _training_pairs(embeddings, train_queries, config)
    u = np.zeros(X.shape[1], dtype=np.float64)
    b = 0.0
    loss, grad_u, grad_b = loss_and_gradient(u, b, X, y)
    losses = [loss]
    for _ in range(config.epochs):
        u = u - config.learning_rate * grad_u
        b = b - config.learning_rate * grad_b
        loss, grad_u, grad_b = loss_and_gradient(u, b, X, y)
        losses.append(loss)
    return TrainResult(params=ScorerParams(u=u, b=b), losses=losses)


def save_weights(path: str, dim: int, scorer: ScorerParams) -> None:
    """Write what `train` learns: the scorer and the embedding width."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim": dim,
                   "scorer": {"u": scorer.u.tolist(), "b": float(scorer.b)}},
                  fh)
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


def load_weights(path: str, width: int | None = None) -> ScorerParams:
    """Read `save_weights` output back into the scorer.

    A bad entry fails naming its key. `dim` must equal `width` when one is
    given, and `scorer.u` must hold exactly 2*dim values. Any other key,
    such as the `seed` that older files carry, is ignored.
    """
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    dim = _count(obj, "dim", 1)
    if width is not None and dim != width:
        raise ValueError(f"weights dim {dim} does not match the embedding "
                         f"width {width}")
    scorer = _entry(obj, "scorer", "scorer")
    u = _numbers(scorer, "u", "scorer.u")
    if u.shape != (2 * dim,):
        raise ValueError(f"scorer.u: expected {2 * dim} values for dim {dim}, "
                         f"got shape {u.shape}")
    b = _numbers(scorer, "b", "scorer.b")
    if b.ndim != 0:
        raise ValueError("scorer.b: not a number")
    return ScorerParams(u=u, b=float(b))
