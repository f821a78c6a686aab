"""Node embeddings: TSV loading, deterministic hashing fallback, cosine.

Precomputed sentence embeddings are loaded from a TSV file and aligned to
the graph's node order. When no file is available, a feature-hashing
bag-of-words embedder provides a self-contained, fully deterministic
substitute so the whole pipeline runs without any external model. Rows are
L2-normalized at load time so cosine similarity reduces to a dot product.
"""
from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import PaperRecord, build_text

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

DEFAULT_DIM = 384


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumerics (shared with BM25)."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class EmbeddingMatrix:
    """Dense vectors aligned with a graph's node order.

    `ids[i]` names the paper whose vector is `vectors[i]`. Every non-zero
    row has unit L2 norm, so the dot product with a unit query is its
    cosine similarity. Zero rows (papers with no usable text) are allowed
    and score 0 against everything.
    """

    ids: tuple[str, ...]
    vectors: np.ndarray
    dim: int

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape != (len(self.ids), self.dim):
            raise ValueError(
                f"vectors must be ({len(self.ids)}, {self.dim}), "
                f"got {self.vectors.shape}")

    @property
    def node_count(self) -> int:
        return len(self.ids)

    def row(self, index: int) -> np.ndarray:
        return self.vectors[index]

    def scores(self, query: np.ndarray) -> np.ndarray:
        """Cosine similarity of `query` against every row (zero rows give 0)."""
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (self.dim,):
            raise ValueError(f"query must have dimension {self.dim}, got {q.shape}")
        qn = np.linalg.norm(q)
        if qn == 0.0:
            return np.zeros(self.node_count)
        return np.clip(self.vectors @ (q / qn), -1.0, 1.0)


def l2_normalize_rows(matrix: np.ndarray) -> np.ndarray:
    out = np.array(matrix, dtype=np.float64, copy=True)
    norms = np.linalg.norm(out, axis=1)
    nonzero = norms > 0.0
    out[nonzero] /= norms[nonzero, None]
    return out


def hash_embed(text: str, dim: int = DEFAULT_DIM, seed: int = 0) -> np.ndarray:
    """Deterministic bag-of-words embedding via signed feature hashing.

    Each token is hashed (keyed on `seed`) to a bucket and a sign in
    {-1, +1}; occurrences accumulate and the result is L2-normalized.
    Word order does not matter; empty text gives the zero vector. Stable
    across runs, platforms and thread counts.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    key = int(seed).to_bytes(8, "little", signed=True)
    vec = np.zeros(dim, dtype=np.float64)
    for token in tokenize(text):
        digest = hashlib.blake2b(token.encode("utf-8"), key=key,
                                 digest_size=9).digest()
        bucket = int.from_bytes(digest[:8], "little") % dim
        vec[bucket] += 1.0 if digest[8] & 1 else -1.0
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0.0 else vec


def embed_corpus(records: Sequence[PaperRecord], dim: int = DEFAULT_DIM,
                 seed: int = 0) -> EmbeddingMatrix:
    """Hash-embed every record's concatenated text, in corpus order."""
    vectors = np.zeros((len(records), dim), dtype=np.float64)
    for i, record in enumerate(records):
        vectors[i] = hash_embed(build_text(record), dim, seed)
    return EmbeddingMatrix(ids=tuple(r.id for r in records), vectors=vectors,
                           dim=dim)


def load_embeddings(path: str, graph) -> EmbeddingMatrix:
    """Load a TSV embedding file and align rows to the graph's node order.

    Format: header line "<count>\\t<dim>", then one "<paper_id>\\t<f1>\\t..."
    line per paper. Every graph node must have exactly one row; ids not in
    the graph are ignored. Values must be finite. Rows are L2-normalized.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if len(header) != 2:
            raise ValueError("embedding header must be '<count>\\t<dim>'")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError as exc:
            raise ValueError("embedding header must be two integers") from exc
        if dim < 1:
            raise ValueError(f"embedding dimension must be >= 1, got {dim}")
        rows: dict[str, np.ndarray] = {}
        lines = 0
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            lines += 1
            parts = line.rstrip("\n").split("\t")
            if len(parts) != dim + 1:
                raise ValueError(
                    f"line {line_no}: expected {dim} values, got {len(parts) - 1}")
            pid = parts[0]
            if pid in rows:
                raise ValueError(f"duplicate embedding row for id {pid!r}")
            row = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            if not np.isfinite(row).all():
                raise ValueError(
                    f"line {line_no}: non-finite value in row for id {pid!r}")
            rows[pid] = row
    if lines != count:
        raise ValueError(f"header declared {count} rows, file has {lines}")
    missing = [pid for pid in graph.node_ids if pid not in rows]
    if missing:
        shown = ", ".join(missing[:20])
        more = f" (+{len(missing) - 20} more)" if len(missing) > 20 else ""
        raise ValueError(f"embedding file is missing node ids: {shown}{more}")
    matrix = np.stack([rows[pid] for pid in graph.node_ids])
    return EmbeddingMatrix(ids=tuple(graph.node_ids),
                           vectors=l2_normalize_rows(matrix),
                           dim=dim)


def write_embeddings(path: str, matrix: EmbeddingMatrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{matrix.node_count}\t{matrix.dim}\n")
        for pid, row in zip(matrix.ids, matrix.vectors):
            values = "\t".join(repr(float(x)) for x in row)
            fh.write(f"{pid}\t{values}\n")


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; 0 when either vector is zero."""
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(float(a @ b) / (na * nb), -1.0, 1.0))
