import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citegraph.corpus import PaperRecord
from citegraph.graph import (CitationGraph, build_graph, load_snapshot,
                             save_snapshot, write_edge_list)
from helpers import oracle_bfs_ball, random_digraph


def make_graph(adjacency):
    """adjacency: {id: [cited ids]} in insertion order."""
    return build_graph([PaperRecord(id=pid, citations=list(cited))
                        for pid, cited in adjacency.items()])


def graph_from_edges(n, edges):
    adjacency = {f"n{i}": [] for i in range(n)}
    for u, v in edges:
        adjacency[f"n{u}"].append(f"n{v}")
    return make_graph(adjacency)


def row(g, v, direction="out"):
    """v's cited papers ("out") or undirected neighbors ("both"), read
    straight from the CSR arrays."""
    indptr, indices = ((g.out_indptr, g.out_indices) if direction == "out"
                       else (g.indptr, g.indices))
    return indices[indptr[v]:indptr[v + 1]].tolist()


def test_build_drops_dangling_citations():
    g = make_graph({"p1": ["p2", "pX"], "p2": [], "p3": []})
    assert g.node_count == 3
    assert g.edge_count == 1
    assert row(g, 0) == [1]


def test_build_edgeless():
    g = make_graph({"a": [], "b": [], "c": []})
    assert g.node_count == 3
    assert g.edge_count == 0


def test_build_duplicate_ids_error():
    with pytest.raises(ValueError, match="duplicate"):
        build_graph([PaperRecord(id="p1"), PaperRecord(id="p1")])


def test_build_parallel_edges_collapse_and_no_self_loop():
    g = make_graph({"a": ["b", "b", "a"], "b": []})
    assert g.edge_count == 1
    assert row(g, 0) == [1]


def test_neighbors_directions():
    g = make_graph({"a": ["b"], "b": [], "c": [], "d": ["b"]})
    assert row(g, 2, "out") == []
    assert row(g, 2, "both") == []
    assert row(g, 1, "out") == []
    assert row(g, 1, "both") == [0, 3]
    assert row(g, 0, "both") == [1]


def test_neighbors_matches_bruteforce_scan():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n, edges = random_digraph(rng, max_nodes=15)
        g = graph_from_edges(n, edges)
        edge_set = set(edges)
        for v in range(n):
            out = sorted({t for s, t in edge_set if s == v})
            inc = sorted({s for s, t in edge_set if t == v})
            assert row(g, v, "out") == out
            assert row(g, v, "both") == sorted(set(out) | set(inc))


def test_transpose_consistency_property():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n, edges = random_digraph(rng, max_nodes=15)
        g = graph_from_edges(n, edges)
        for u in range(n):
            for v in row(g, u, "out"):
                assert u in row(g, v, "both")
                assert v in row(g, u, "both")
        for v in range(n):
            for u in row(g, v, "both"):
                assert v in row(g, u, "both")
                assert v in row(g, u, "out") or u in row(g, v, "out")


def k_hop(g, sources, k):
    """Nodes within undirected distance k of `sources`, ring by ring."""
    visited = np.zeros(g.node_count, dtype=bool)
    visited[sources] = True
    ring = np.asarray(sources)
    for _ in range(k):
        ring = g.frontier(ring, visited)
        visited[ring] = True
    return set(np.flatnonzero(visited).tolist())


def test_k_hop_zero_is_sources():
    g = make_graph({"a": ["b"], "b": ["c"], "c": []})
    assert k_hop(g, [0], 0) == {0}


def test_k_hop_path_graph():
    g = make_graph({"a": ["b"], "b": ["c"], "c": []})
    assert k_hop(g, [0], 1) == {0, 1}
    assert k_hop(g, [0], 2) == {0, 1, 2}
    # undirected expansion: c reaches b then a
    assert k_hop(g, [2], 2) == {0, 1, 2}


def test_k_hop_matches_bfs_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n, edges = random_digraph(rng, max_nodes=18)
        g = graph_from_edges(n, edges)
        sources = [int(i) for i in
                   rng.choice(n, size=min(2, n), replace=False)]
        for k in range(4):
            assert k_hop(g, sources, k) == \
                oracle_bfs_ball(n, edges, sources, k)


def test_k_hop_monotone_in_k():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n, edges = random_digraph(rng, max_nodes=18)
        g = graph_from_edges(n, edges)
        prev = k_hop(g, [0], 0)
        for k in range(1, 5):
            cur = k_hop(g, [0], k)
            assert prev <= cur
            prev = cur


def test_edges_among_keeps_inner_edges():
    g = make_graph({"a": ["b", "c"], "b": ["c"], "c": ["a"]})
    assert g.edges() == [(0, 1), (0, 2), (1, 2), (2, 0)]
    assert g.edges(np.array([2, 0])) == [(0, 2), (2, 0)]


def test_snapshot_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    n, edges = random_digraph(rng, max_nodes=20)
    g = graph_from_edges(n, edges)
    path = tmp_path / "graph.cgr"
    save_snapshot(g, str(path))
    loaded = load_snapshot(str(path))
    assert loaded.node_ids == g.node_ids
    assert loaded.index_of == g.index_of
    for name in ("out_indptr", "out_indices", "indptr", "indices"):
        assert np.array_equal(getattr(loaded, name), getattr(g, name))
    assert loaded.edge_count == g.edge_count


def test_snapshot_bad_magic(tmp_path):
    path = tmp_path / "bogus.cgr"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_snapshot(str(path))


def test_snapshot_truncated_is_value_error(tmp_path):
    g = make_graph({"a": ["b"], "b": []})
    path = tmp_path / "graph.cgr"
    save_snapshot(g, str(path))
    clipped = tmp_path / "clipped.cgr"
    clipped.write_bytes(path.read_bytes()[:-6])
    with pytest.raises(ValueError, match="truncated or corrupt"):
        load_snapshot(str(clipped))


def snapshot_bytes(ids, degrees, flat, edge_count=None):
    """CGR1 bytes written field by field, valid or not."""
    parts = [b"CGR1", struct.pack("<QQ", len(ids), sum(degrees)
                                  if edge_count is None else edge_count)]
    for pid in ids:
        parts += [struct.pack("<Q", len(pid)), pid.encode("utf-8")]
    parts.append(struct.pack(f"<{len(degrees)}Q", *degrees))
    parts.append(struct.pack(f"<{len(flat)}Q", *flat))
    return b"".join(parts)


def test_snapshot_bytes_helper_writes_loadable_layout(tmp_path):
    path = tmp_path / "ok.cgr"
    path.write_bytes(snapshot_bytes(["a", "b", "c"], [2, 0, 1], [1, 2, 0]))
    g = load_snapshot(str(path))
    assert g.edges() == [(0, 1), (0, 2), (2, 0)]
    resaved = tmp_path / "resaved.cgr"
    save_snapshot(g, str(resaved))
    assert resaved.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("degrees,flat,edge_count", [
    ([1, 0, 0], [3], None),        # target out of range
    ([1, 0, 0], [0], None),        # self-loop
    ([2, 0, 0], [1, 1], None),     # duplicate target
    ([5, 0, 0], [1], 5),           # degree sum larger than the data
], ids=["target-out-of-range", "self-loop", "duplicate-target",
        "degrees-exceed-data"])
def test_snapshot_corrupt_adjacency_is_value_error(tmp_path, degrees, flat,
                                                  edge_count):
    path = tmp_path / "corrupt.cgr"
    path.write_bytes(snapshot_bytes(["a", "b", "c"], degrees, flat, edge_count))
    with pytest.raises(ValueError):
        load_snapshot(str(path))


def test_snapshot_huge_id_length_is_value_error(tmp_path):
    data = bytearray(snapshot_bytes(["a", "b"], [1, 0], [1]))
    data[20:28] = struct.pack("<Q", 2 ** 64 - 1)  # first id's length prefix
    path = tmp_path / "huge.cgr"
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="truncated or corrupt"):
        load_snapshot(str(path))


u64 = st.integers(0, 2 ** 64 - 1) | st.integers(0, 6)


@st.composite
def snapshot_tail(draw):
    """The bytes after the magic of a CGR1 layout with any field values,
    optionally cut short."""
    ids = draw(st.lists(st.text(max_size=3), max_size=4))
    degrees = draw(st.lists(u64, min_size=len(ids), max_size=len(ids)))
    flat = draw(st.lists(u64, max_size=6))
    edge_count = draw(st.just(sum(degrees) % 2 ** 64) | u64)
    data = snapshot_bytes(ids, degrees, flat, edge_count)[4:]
    return data[:draw(st.integers(0, len(data)))] if draw(st.booleans()) \
        else data


@settings(max_examples=300, deadline=None)
@given(tail=st.binary(max_size=120) | snapshot_tail())
def test_load_snapshot_loads_or_raises_value_error(tail):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.cgr")
        with open(path, "wb") as fh:
            fh.write(b"CGR1" + tail)
        try:
            graph = load_snapshot(path)
        except ValueError:
            return
    assert isinstance(graph, CitationGraph)


def test_edge_list_export(tmp_path):
    g = make_graph({"a": ["b", "c"], "b": ["c"], "c": []})
    path = tmp_path / "edges.txt"
    write_edge_list(g, str(path))
    assert path.read_text().splitlines() == ["a b", "a c", "b c"]
