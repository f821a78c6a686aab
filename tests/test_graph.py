import os
import struct
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citegraph.corpus import PaperRecord
from citegraph.graph import (CitationGraph, build_graph, load_snapshot,
                             save_snapshot)
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


def edge_pairs(g, among):
    """`g.edges(among)` as a list of (source, target) pairs."""
    sources, targets = g.edges(among)
    assert len(sources) == len(targets)
    return list(zip(sources.tolist(), targets.tolist()))


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
    # the error names the first id that repeats an earlier one
    with pytest.raises(ValueError, match="duplicate paper id 'p2'"):
        build_graph([PaperRecord(id=pid) for pid in ("p1", "p2", "p2", "p1")])


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
    assert edge_pairs(g, np.arange(3)) == [(0, 1), (0, 2), (1, 2), (2, 0)]
    assert edge_pairs(g, np.array([2, 0])) == [(0, 2), (2, 0)]


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
    """CGR2 bytes written field by field, valid or not; an id is a `str`
    (stored as UTF-8) or raw `bytes`."""
    raw = [pid if isinstance(pid, bytes) else pid.encode("utf-8")
           for pid in ids]
    return b"".join([
        b"CGR2", struct.pack("<QQ", len(ids), sum(degrees)
                             if edge_count is None else edge_count),
        struct.pack(f"<{len(raw)}I", *map(len, raw)), *raw,
        struct.pack(f"<{len(degrees)}I", *degrees),
        struct.pack(f"<{len(flat)}I", *flat)])


def test_snapshot_bytes_helper_writes_loadable_layout(tmp_path):
    path = tmp_path / "ok.cgr"
    path.write_bytes(snapshot_bytes(["a", "b", "c"], [2, 0, 1], [1, 2, 0]))
    g = load_snapshot(str(path))
    assert edge_pairs(g, np.arange(3)) == [(0, 1), (0, 2), (2, 0)]
    resaved = tmp_path / "resaved.cgr"
    save_snapshot(g, str(resaved))
    assert resaved.read_bytes() == path.read_bytes()


def test_snapshot_size_is_exact(tmp_path):
    """20 header bytes, 8 per paper (id length and out-degree), the ids'
    UTF-8 bytes and 4 per citation."""
    g = make_graph({"a": ["b", "é"], "b": ["é"], "é": [], "\U0001F600": ["a"]})
    path = tmp_path / "graph.cgr"
    save_snapshot(g, str(path))
    id_bytes = sum(len(pid.encode("utf-8")) for pid in g.node_ids)
    assert id_bytes == 1 + 1 + 2 + 4
    assert path.stat().st_size == 20 + 8 * 4 + id_bytes + 4 * 4


def test_cgr1_snapshot_is_bad_magic(tmp_path):
    """The old layout (64-bit lengths, degrees and targets) is not read."""
    parts = [b"CGR1", struct.pack("<QQ", 2, 1)]
    for pid in (b"a", b"b"):
        parts += [struct.pack("<Q", len(pid)), pid]
    path = tmp_path / "old.cgr"
    path.write_bytes(b"".join(parts + [struct.pack("<3Q", 1, 0, 1)]))
    with pytest.raises(ValueError, match="bad magic"):
        load_snapshot(str(path))


@pytest.mark.parametrize("degrees,flat,edge_count,message", [
    ([1, 0, 0], [3], None, "target out of range"),
    ([1, 0, 0], [0], None, "self-loop at node 0"),
    ([2, 0, 0], [1, 1], None, "sorted and duplicate-free"),
    ([2, 0, 0], [2, 1], None, "sorted and duplicate-free"),
    ([5, 0, 0], [1], 5, "edge count does not match"),
    ([2, 0, 0], [1], 1, "edge count does not match"),
    ([1, 0, 0], [1, 2], 1, "edge count does not match"),
], ids=["target-out-of-range", "self-loop", "duplicate-target",
        "unsorted-row", "degrees-exceed-data", "edge-count-mismatch",
        "trailing-bytes"])
def test_snapshot_corrupt_adjacency_is_value_error(tmp_path, degrees, flat,
                                                  edge_count, message):
    path = tmp_path / "corrupt.cgr"
    path.write_bytes(snapshot_bytes(["a", "b", "c"], degrees, flat,
                                    edge_count))
    with pytest.raises(ValueError, match=message):
        load_snapshot(str(path))


@pytest.mark.parametrize("ids,message", [
    (["a", "b", "a"], "duplicate node ids"),
    (["a", b"\xff", "c"], "can't decode byte 0xff"),
    (["a", b"\xc3", b"\xa9"], "can't decode byte 0xc3"),
], ids=["duplicate-id", "invalid-utf8", "length-splits-a-character"])
def test_snapshot_corrupt_id_table_is_value_error(tmp_path, ids, message):
    path = tmp_path / "corrupt.cgr"
    path.write_bytes(snapshot_bytes(ids, [1, 0, 0], [1]))
    with pytest.raises(ValueError, match=message):
        load_snapshot(str(path))


def test_snapshot_huge_id_length_is_value_error(tmp_path):
    data = bytearray(snapshot_bytes(["a", "b"], [1, 0], [1]))
    data[20:24] = struct.pack("<I", 2 ** 32 - 1)  # first id's byte length
    path = tmp_path / "huge.cgr"
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="truncated or corrupt"):
        load_snapshot(str(path))


class _HugeBytes:
    def __len__(self):
        return 2 ** 32


class _HugeId:
    """An id whose UTF-8 form claims 2**32 bytes."""

    def encode(self, encoding):
        return _HugeBytes()


@pytest.mark.parametrize("graph", [
    SimpleNamespace(node_ids=(), node_count=2 ** 32, edge_count=0),
    SimpleNamespace(node_ids=(_HugeId(),), node_count=1, edge_count=0),
], ids=["node-count", "id-length"])
def test_save_snapshot_rejects_what_32_bits_cannot_hold(tmp_path, graph):
    path = tmp_path / "graph.cgr"
    with pytest.raises(ValueError, match="does not fit in 32 bits"):
        save_snapshot(graph, str(path))
    assert not path.exists()


# ids holding the bytes a text format would trip on
snapshot_ids = st.lists(st.text(st.characters(codec="utf-8") | st.sampled_from(
    ["\t", "\n", "\r", "\0", "\U0001F600", "\U0010FFFF"]), max_size=5),
    min_size=1, max_size=12, unique=True)


@settings(max_examples=100, deadline=None)
@given(ids=snapshot_ids, data=st.data())
def test_snapshot_round_trip_property(ids, data):
    n = len(ids)
    edges = data.draw(st.sets(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1))))
    g = build_graph([PaperRecord(id=pid, citations=[
        ids[v] for u, v in sorted(edges) if u == i and v != i])
        for i, pid in enumerate(ids)])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.cgr")
        save_snapshot(g, path)
        loaded = load_snapshot(path)
    assert loaded.node_ids == g.node_ids == tuple(ids)
    assert loaded.index_of == g.index_of
    for name in ("out_indptr", "out_indices", "indptr", "indices"):
        assert np.array_equal(getattr(loaded, name), getattr(g, name))


u32 = st.integers(0, 2 ** 32 - 1) | st.integers(0, 6)


@st.composite
def snapshot_tail(draw):
    """The bytes after the magic of a CGR2 layout with any field values,
    optionally cut short."""
    ids = draw(st.lists(st.text(max_size=3) | st.binary(max_size=3),
                        max_size=4))
    degrees = draw(st.lists(u32, min_size=len(ids), max_size=len(ids)))
    flat = draw(st.lists(u32, max_size=6))
    edge_count = draw(st.just(sum(degrees)) | st.integers(0, 2 ** 64 - 1))
    data = snapshot_bytes(ids, degrees, flat, edge_count)[4:]
    return data[:draw(st.integers(0, len(data)))] if draw(st.booleans()) \
        else data


@settings(max_examples=300, deadline=None)
@given(tail=st.binary(max_size=120) | snapshot_tail())
def test_load_snapshot_loads_or_raises_value_error(tail):
    """A file that loads is the one `save_snapshot` writes for its graph."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.cgr")
        with open(path, "wb") as fh:
            fh.write(b"CGR2" + tail)
        try:
            graph = load_snapshot(path)
        except ValueError:
            return
        assert isinstance(graph, CitationGraph)
        save_snapshot(graph, path)
        with open(path, "rb") as fh:
            assert fh.read() == b"CGR2" + tail
