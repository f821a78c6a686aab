"""Graph attention layers and the query-relevance scorer.

Forward pass only: each layer projects node states, computes softmax
attention over each node's undirected neighborhood plus a self-loop, and
aggregates with an ELU activation. Relevance against a query is a single
logistic unit over the concatenated [node state ; query] vector, which
keeps training analytic: the scorer is fit by full-batch gradient descent
on binary cross-entropy with the layer weights frozen.

A layer runs on a CSR adjacency (a `CitationGraph`, or the local `Csr` of
one retrieval hop). Self-loops are merged into its sorted rows, the
logits of all edges are computed at once, and the softmax is one segment
pass over that edge list: `np.maximum.reduceat` and `np.add.reduceat` at
the row starts (the sparse form of graph attention, Velickovic et al.
2018). Only the aggregation loops over rows: row i's weights times its
neighbors' projected states.
"""
from __future__ import annotations

from dataclasses import dataclass
import json
import math
from typing import Sequence

import numpy as np

from .embed import EmbeddingMatrix
from .graph import CitationGraph, Csr, row_of

# open-interval bounds for logistic outputs: strictly inside (0, 1) even
# when the logit saturates in float64
_SCORE_LO = float(np.nextafter(0.0, 1.0))
_SCORE_HI = float(np.nextafter(1.0, 0.0))

N_LAYERS = 3


@dataclass
class GatLayer:
    """One attention layer: projection W plus the two attention vectors."""

    W: np.ndarray        # (d_in, d_out)
    a_src: np.ndarray    # (d_out,)
    a_dst: np.ndarray    # (d_out,)
    leaky_slope: float = 0.2

    def __post_init__(self) -> None:
        self.W = np.asarray(self.W, dtype=np.float64)
        self.a_src = np.asarray(self.a_src, dtype=np.float64)
        self.a_dst = np.asarray(self.a_dst, dtype=np.float64)
        if self.W.ndim != 2:
            raise ValueError("W must be a matrix")
        d_out = self.W.shape[1]
        if self.a_src.shape != (d_out,) or self.a_dst.shape != (d_out,):
            raise ValueError("attention vectors must match W's output width")
        for arr in (self.W, self.a_src, self.a_dst):
            if not np.isfinite(arr).all():
                raise ValueError("layer weights must be finite")

    @property
    def d_in(self) -> int:
        return self.W.shape[0]

    @property
    def d_out(self) -> int:
        return self.W.shape[1]


@dataclass
class GatWeights:
    """The fixed stack of three attention layers with chained widths."""

    layers: tuple[GatLayer, ...]
    dims: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        self.layers = tuple(self.layers)
        self.dims = tuple(self.dims)
        if len(self.layers) != N_LAYERS:
            raise ValueError(f"expected {N_LAYERS} layers, got {len(self.layers)}")
        if len(self.dims) != N_LAYERS + 1:
            raise ValueError("dims must list 4 widths")
        for k, layer in enumerate(self.layers):
            if layer.W.shape != (self.dims[k], self.dims[k + 1]):
                raise ValueError(
                    f"layer {k} shape {layer.W.shape} does not chain with dims")


@dataclass
class ScorerParams:
    """Logistic unit over [node state ; query]: score = sigmoid(u.x + b)."""

    u: np.ndarray
    b: float = 0.0

    def __post_init__(self) -> None:
        self.u = np.asarray(self.u, dtype=np.float64)
        if self.u.ndim != 1 or not np.isfinite(self.u).all() \
                or not math.isfinite(self.b):
            raise ValueError("scorer parameters must be a finite vector and bias")


def leaky_relu(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x > 0.0, x, slope * x)


def elu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x, np.expm1(np.minimum(x, 0.0)))


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    exp_z = np.exp(z[~pos])
    out[~pos] = exp_z / (1.0 + exp_z)
    return out


def _check_states(graph: CitationGraph | Csr, states: np.ndarray,
                  layer: GatLayer) -> np.ndarray:
    H = np.asarray(states, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != graph.node_count:
        raise ValueError(f"states must be ({graph.node_count}, d_in)")
    if H.shape[1] != layer.d_in:
        raise ValueError(f"states width {H.shape[1]} != layer d_in {layer.d_in}")
    if not np.isfinite(H).all():
        raise ValueError("node states contain non-finite values")
    return H


def _attention(graph: CitationGraph | Csr, Wh: np.ndarray,
               layer: GatLayer) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge-list softmax over neighbors plus self, as (indptr, cols, alpha)."""
    n = graph.node_count
    keys = np.concatenate([row_of(graph.indptr) * n + graph.indices,
                           np.arange(n) * (n + 1)])
    rows, cols = np.divmod(np.sort(keys), max(n, 1))
    indptr = graph.indptr + np.arange(n + 1)  # one self-loop per row
    e = leaky_relu((Wh @ layer.a_src)[rows] + (Wh @ layer.a_dst)[cols],
                   layer.leaky_slope)
    e = e - np.maximum.reduceat(e, indptr[:-1])[rows]  # max subtraction
    w = np.exp(e)
    return indptr, cols, w / np.add.reduceat(w, indptr[:-1])[rows]


def attention_coefficients(graph: CitationGraph | Csr, states: np.ndarray,
                           layer: GatLayer) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-node attention over undirected neighbors plus a self-loop.

    Returns, for each node i, the pair (neighbor indices including i,
    softmax weights). e_ij = LeakyReLU(a_src.(W h_i) + a_dst.(W h_j)),
    normalized over j; every row sums to 1.
    """
    H = _check_states(graph, states, layer)
    indptr, cols, alpha = _attention(graph, H @ layer.W, layer)
    bounds = indptr.tolist()
    return [(cols[s:e], alpha[s:e]) for s, e in zip(bounds, bounds[1:])]


def gat_layer_forward(graph: CitationGraph | Csr, states: np.ndarray,
                      layer: GatLayer) -> np.ndarray:
    """One layer: h'_i = ELU(sum_j alpha_ij W h_j), j over neighbors + self."""
    H = _check_states(graph, states, layer)
    Wh = H @ layer.W
    indptr, cols, alpha = _attention(graph, Wh, layer)
    out = np.empty((graph.node_count, layer.d_out), dtype=np.float64)
    bounds = indptr.tolist()
    for i, (s, e) in enumerate(zip(bounds, bounds[1:])):
        out[i] = alpha[s:e] @ Wh[cols[s:e]]
    return elu(out)


def relevance_scores(states: np.ndarray, query: np.ndarray,
                     scorer: ScorerParams) -> np.ndarray:
    """Logistic relevance of every node against the query, strictly in (0, 1)."""
    H = np.asarray(states, dtype=np.float64)
    q = np.asarray(query, dtype=np.float64)
    if H.ndim != 2 or q.ndim != 1:
        raise ValueError("states must be 2-d and query 1-d")
    d = H.shape[1]
    if scorer.u.shape[0] != d + q.shape[0]:
        raise ValueError(
            f"scorer expects width {scorer.u.shape[0]}, "
            f"got state {d} + query {q.shape[0]}")
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


def init_gat_weights(dim: int, seed: int = 0, leaky_slope: float = 0.2) -> GatWeights:
    """Seeded uniform init in [-1/sqrt(d_in), +1/sqrt(d_in)]; equal widths."""
    rng = np.random.default_rng(seed)
    dims = (dim, dim, dim, dim)
    layers = []
    for k in range(N_LAYERS):
        bound = 1.0 / math.sqrt(dims[k])
        layers.append(GatLayer(
            W=rng.uniform(-bound, bound, size=(dims[k], dims[k + 1])),
            a_src=rng.uniform(-bound, bound, size=dims[k + 1]),
            a_dst=rng.uniform(-bound, bound, size=dims[k + 1]),
            leaky_slope=leaky_slope,
        ))
    return GatWeights(layers=tuple(layers), dims=dims)


def init_scorer(state_dim: int, query_dim: int, seed: int = 0) -> ScorerParams:
    rng = np.random.default_rng(seed)
    width = state_dim + query_dim
    bound = 1.0 / math.sqrt(width)
    return ScorerParams(u=rng.uniform(-bound, bound, size=width), b=0.0)


def _json_pieces(value):
    """The text of `json.dumps(value)`, in pieces: dicts and lists are
    walked here, and each array or scalar inside is encoded by one C-encoder
    `json.dumps` call, so no more than one matrix is a Python list at once."""
    if isinstance(value, dict):
        yield "{"
        for i, (key, item) in enumerate(value.items()):
            yield (", " if i else "") + json.dumps(key) + ": "
            yield from _json_pieces(item)
        yield "}"
    elif isinstance(value, list):
        yield "["
        for i, item in enumerate(value):
            if i:
                yield ", "
            yield from _json_pieces(item)
        yield "]"
    elif isinstance(value, np.ndarray):
        yield json.dumps(value.tolist())
    else:
        yield json.dumps(value)


def save_weights(path: str, weights: GatWeights, scorer: ScorerParams) -> None:
    obj = {
        "dims": list(weights.dims),
        "leaky_slope": weights.layers[0].leaky_slope,
        "layers": [
            {"W": layer.W, "a_src": layer.a_src, "a_dst": layer.a_dst}
            for layer in weights.layers
        ],
        "scorer": {"u": scorer.u, "b": float(scorer.b)},
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_pieces(obj))
        fh.write("\n")


def _entry(obj, key, where: str):
    try:
        return obj[key]
    except (KeyError, IndexError, TypeError):
        raise ValueError(f"missing key {where!r}") from None


def _weight(obj, key, where: str) -> np.ndarray:
    """obj[key] as a finite float64 array; errors name the key path."""
    value = _entry(obj, key, where)
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{where}: not numeric") from None
    if not np.isfinite(arr).all():
        raise ValueError(f"{where}: non-finite value")
    return arr


def load_weights(path: str) -> tuple[GatWeights, ScorerParams]:
    """Read `save_weights` output; a bad entry fails naming its key."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    slope = float(obj.get("leaky_slope", 0.2))
    layers = tuple(
        GatLayer(*(_weight(entry, name, f"layers[{i}].{name}")
                   for name in ("W", "a_src", "a_dst")), leaky_slope=slope)
        for i, entry in enumerate(_entry(obj, "layers", "layers")))
    weights = GatWeights(layers=layers, dims=tuple(_entry(obj, "dims", "dims")))
    scorer = _entry(obj, "scorer", "scorer")
    return weights, ScorerParams(u=_weight(scorer, "u", "scorer.u"),
                                 b=float(_weight(scorer, "b", "scorer.b")))
