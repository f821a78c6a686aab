"""Immutable homogeneous citation graph in compressed sparse row (CSR) form.

Nodes are papers, directed edges are citations whose target is also in
the corpus. String ids appear only at the boundary; all traversal works
on dense indices. An adjacency is a pair of integer arrays, `indptr` of
length n + 1 and `indices`, where row v is indices[indptr[v]:indptr[v+1]];
every row is sorted, duplicate-free and self-loop-free. The graph holds
two: the citations each paper makes (`out_indptr`/`out_indices`) and the
undirected adjacency (`indptr`/`indices`). Frontier expansion uses the
undirected one: being cited is as informative as citing when
recommending related work. The CGR1 snapshot stores exactly the
out-degrees and the flat out-adjacency, so it loads with `np.frombuffer`.
"""
from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import PaperRecord


def _from_keys(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays from ascending, unique edge keys u * n + v."""
    rows, cols = np.divmod(keys, max(n, 1))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols


def _unique(values: np.ndarray) -> np.ndarray:
    """Distinct values, ascending (numpy's hashing np.unique is slower here)."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def row_of(indptr: np.ndarray) -> np.ndarray:
    """Row index of every entry of a CSR adjacency."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def _gather_rows(indptr: np.ndarray, indices: np.ndarray,
                 rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated CSR rows: position in `rows` of every entry, and entries."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    pos = np.repeat(np.arange(len(rows)), lengths)
    first = np.cumsum(lengths) - lengths  # where each row begins in the output
    return pos, indices[starts[pos] + np.arange(len(pos)) - first[pos]]


@dataclass(frozen=True, eq=False)
class CitationGraph:
    """Directed citation graph plus its undirected view; immutable.

    out_indptr/out_indices list the papers each paper cites; indptr/indices
    list each paper's undirected neighbors (cited or citing).
    """

    node_ids: tuple[str, ...]
    index_of: dict[str, int]
    out_indptr: np.ndarray
    out_indices: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def node_count(self) -> int:
        return len(self.node_ids)

    @property
    def edge_count(self) -> int:
        return len(self.out_indices)

    def frontier(self, sources: np.ndarray, visited: np.ndarray) -> np.ndarray:
        """Undirected neighbors of `sources` not marked in `visited`, ascending."""
        _, found = _gather_rows(self.indptr, self.indices, sources)
        return _unique(found[~visited[found]])

    def edges(self, among: np.ndarray | None = None) -> list[tuple[int, int]]:
        """Directed edges (u, v) ascending by u then v; with `among`, only
        those with both endpoints in it."""
        n = self.node_count
        nodes = np.arange(n) if among is None else _unique(among)
        inside = np.zeros(n, dtype=bool)
        inside[nodes] = True
        pos, targets = _gather_rows(self.out_indptr, self.out_indices, nodes)
        keep = inside[targets]
        return list(zip(nodes[pos[keep]].tolist(), targets[keep].tolist()))


def _graph(node_ids: tuple[str, ...], index_of: dict[str, int],
           out_keys: np.ndarray) -> CitationGraph:
    """Graph from ascending, unique, self-loop-free edge keys u * n + v."""
    n = len(node_ids)
    out_indptr, out_indices = _from_keys(out_keys, n)
    reverse = out_indices * n + row_of(out_indptr)
    indptr, indices = _from_keys(_unique(np.concatenate([out_keys, reverse])), n)
    for array in (out_indptr, out_indices, indptr, indices):
        array.flags.writeable = False  # the graph is immutable
    return CitationGraph(node_ids=node_ids, index_of=index_of,
                         out_indptr=out_indptr, out_indices=out_indices,
                         indptr=indptr, indices=indices)


def build_graph(records: Sequence[PaperRecord]) -> CitationGraph:
    """Build the citation graph for a corpus split.

    One node per record in input order; one directed edge per citation
    whose target id is itself a corpus member. Citations pointing outside
    the split are kept in the records (they still define ground-truth
    relevance) but produce no edge.
    """
    node_ids = tuple(r.id for r in records)
    index_of: dict[str, int] = {}
    for i, pid in enumerate(node_ids):
        if pid in index_of:
            raise ValueError(f"duplicate paper id {pid!r}")
        index_of[pid] = i
    n = len(node_ids)
    targets = [[index_of.get(c, -1) for c in r.citations] for r in records]
    src = np.repeat(np.arange(n), np.fromiter(map(len, targets), dtype=np.int64,
                                              count=n))
    dst = np.fromiter(itertools.chain.from_iterable(targets), dtype=np.int64,
                      count=len(src))
    keep = (dst >= 0) & (dst != src)
    return _graph(node_ids, index_of, _unique(src[keep] * n + dst[keep]))


_MAGIC = b"CGR1"


def save_snapshot(graph: CitationGraph, path: str) -> None:
    """Write the binary snapshot: magic, LE64 counts, id table, adjacency."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<QQ", graph.node_count, graph.edge_count))
        for pid in graph.node_ids:
            raw = pid.encode("utf-8")
            fh.write(struct.pack("<Q", len(raw)))
            fh.write(raw)
        fh.write(np.diff(graph.out_indptr).astype("<u8").tobytes())
        fh.write(graph.out_indices.astype("<u8").tobytes())


def load_snapshot(path: str) -> CitationGraph:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        raise ValueError("not a citation-graph snapshot (bad magic)")
    try:
        n, edge_count = struct.unpack_from("<QQ", data, 4)
        offset = 20
        ids = []
        for _ in range(n):  # each length prefix locates the next id
            (length,) = struct.unpack_from("<Q", data, offset)
            ids.append(data[offset + 8:offset + 8 + length].decode("utf-8"))
            offset += 8 + length
        degrees = np.frombuffer(data, dtype="<u8", count=n, offset=offset)
        offset += 8 * n
        room = (len(data) - offset) // 8
        # bounding each degree first keeps the sum from wrapping around
        if n and (degrees.max() > room or degrees.sum() > room):
            raise ValueError("adjacency data shorter than the degrees declare")
        flat = np.frombuffer(data, dtype="<u8", count=int(degrees.sum()),
                             offset=offset)
    except (struct.error, ValueError, OverflowError, MemoryError) as exc:
        raise ValueError(f"truncated or corrupt snapshot: {exc}") from exc
    if len(flat) != edge_count:
        raise ValueError("snapshot edge count does not match adjacency data")
    index_of = {pid: i for i, pid in enumerate(ids)}
    if len(index_of) != n:
        raise ValueError("duplicate node ids")
    if len(flat) and flat.max() >= n:
        raise ValueError("edge target out of range")
    rows = np.repeat(np.arange(n), degrees.astype(np.int64))
    targets = flat.astype(np.int64)
    if (rows == targets).any():
        raise ValueError(f"self-loop at node {rows[rows == targets][0]}")
    keys = rows * n + targets
    if (np.diff(keys) <= 0).any():
        raise ValueError("snapshot adjacency rows must be sorted and duplicate-free")
    return _graph(tuple(ids), index_of, keys)


def write_edge_list(graph: CitationGraph, path: str) -> None:
    """Debug export: one 'source_id target_id' line per directed edge."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in graph.edges():
            fh.write(f"{graph.node_ids[u]} {graph.node_ids[v]}\n")
