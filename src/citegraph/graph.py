"""Immutable homogeneous citation graph in compressed sparse row (CSR) form.

Nodes are papers, directed edges are citations whose target is also in
the corpus. String ids appear only at the boundary; all traversal works
on dense indices. An adjacency is a pair of integer arrays, `indptr` of
length n + 1 and `indices`, where row v is indices[indptr[v]:indptr[v+1]];
every row is sorted, duplicate-free and self-loop-free. The graph holds
two: the citations each paper makes (`out_indptr`/`out_indices`) and the
undirected adjacency (`indptr`/`indices`). Frontier expansion uses the
undirected one: being cited is as informative as citing when
recommending related work.

The CGR2 snapshot is the magic `CGR2`, the node and edge counts n and e
as little-endian 64-bit integers, each id's UTF-8 byte length, the ids
as one UTF-8 blob, then the out-degrees and the flat out-targets, every
array little-endian 32-bit: 20 + 8n + (id bytes) + 4e bytes in all. It
loads with `np.frombuffer`, and the ids are sliced at cumulative offsets.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain, repeat
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

    def edges(self, among: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The directed edges with both endpoints in `among`, as aligned
        (sources, targets) arrays, ascending by source then target."""
        nodes = _unique(among)
        inside = np.zeros(self.node_count, dtype=bool)
        inside[nodes] = True
        pos, targets = _gather_rows(self.out_indptr, self.out_indices, nodes)
        keep = inside[targets]
        return nodes[pos[keep]], targets[keep]


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
    n = len(node_ids)
    index_of = dict(zip(node_ids, range(n)))
    if len(index_of) != n:
        seen: set[str] = set()
        for pid in node_ids:
            if pid in seen:
                raise ValueError(f"duplicate paper id {pid!r}")
            seen.add(pid)
    citations = [r.citations for r in records]
    src = np.repeat(np.arange(n), np.fromiter(map(len, citations),
                                              dtype=np.int64, count=n))
    # one flat pass; a target outside the corpus maps to -1
    dst = np.fromiter(map(index_of.get, chain.from_iterable(citations),
                          repeat(-1)), dtype=np.int64, count=len(src))
    keep = (dst >= 0) & (dst != src)
    return _graph(node_ids, index_of, _unique(src[keep] * n + dst[keep]))


_MAGIC = b"CGR2"


def save_snapshot(graph: CitationGraph, path: str) -> None:
    """Write `graph` as a CGR2 snapshot (layout in the module docstring)."""
    raw = [pid.encode("utf-8") for pid in graph.node_ids]
    lengths = np.fromiter(map(len, raw), dtype=np.int64, count=len(raw))
    if max(graph.node_count, lengths.max(initial=0)) >= 2 ** 32:
        raise ValueError("node count or id length does not fit in 32 bits")
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<QQ", graph.node_count, graph.edge_count))
        fh.write(lengths.astype("<u4").tobytes())
        fh.write(b"".join(raw))
        fh.write(np.diff(graph.out_indptr).astype("<u4").tobytes())
        fh.write(graph.out_indices.astype("<u4").tobytes())


def load_snapshot(path: str) -> CitationGraph:
    """Read a CGR2 snapshot; a malformed one raises ValueError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _MAGIC:
        raise ValueError("not a citation-graph snapshot (bad magic)")
    try:
        n, edge_count = struct.unpack_from("<QQ", data, 4)
        lengths = np.frombuffer(data, dtype="<u4", count=n, offset=20)
        start = 20 + 4 * n  # cuts: where each id starts, then the blob's end
        cuts = [start, *(start + np.cumsum(lengths, dtype=np.int64)).tolist()]
        degrees = np.frombuffer(data, dtype="<u4", count=n, offset=cuts[-1])
        flat = np.frombuffer(data, dtype="<u4", offset=cuts[-1] + 4 * n)
        ids = tuple(map(bytes.decode, map(data.__getitem__,
                                          map(slice, cuts[:-1], cuts[1:]))))
    except (struct.error, ValueError, OverflowError, MemoryError) as exc:
        raise ValueError(f"truncated or corrupt snapshot: {exc}") from exc
    if len(flat) != edge_count or degrees.sum(dtype=np.int64) != edge_count:
        raise ValueError("snapshot edge count does not match adjacency data")
    index_of = dict(zip(ids, range(n)))
    if len(index_of) != n:
        raise ValueError("duplicate node ids")
    if (flat >= n).any():
        raise ValueError("edge target out of range")
    rows = np.repeat(np.arange(n), degrees)
    if (rows == flat).any():
        raise ValueError(f"self-loop at node {rows[rows == flat][0]}")
    keys = rows * n + flat
    if (np.diff(keys) <= 0).any():
        raise ValueError("snapshot adjacency rows must be sorted and duplicate-free")
    return _graph(ids, index_of, keys)
