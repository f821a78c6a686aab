"""Shared fixtures and independent reference implementations (oracles).

Everything here is deliberately written straight-line, from the raw edge
list and plain numpy, without calling into the package internals it is
used to check.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re

import numpy as np


# ---------------------------------------------------------------------------
# corpus fixtures
# ---------------------------------------------------------------------------

def corpus_line(pid, citations=None, **fields) -> str:
    obj = {"publication_ID": pid}
    if citations is not None:
        obj["Citations"] = citations
    obj.update(fields)
    return json.dumps(obj)


def write_jsonl(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def component_corpus(n_components: int = 20) -> list[str]:
    """Disconnected 3-paper components: a hub citing two leaves.

    Every hub's citations lie inside its own 2-hop ball, texts carry the
    paper id so hash embeddings are distinct, and leaves cite nothing.
    """
    lines = []
    for c in range(n_components):
        hub, leaf_a, leaf_b = f"p{c:02d}h", f"p{c:02d}a", f"p{c:02d}b"
        lines.append(corpus_line(
            hub, [leaf_a, leaf_b],
            title=f"survey {hub} of topic{c} methods",
            abstract=f"overview {hub} connecting strand{c} results"))
        lines.append(corpus_line(
            leaf_a, [],
            title=f"foundation {leaf_a} for topic{c}",
            abstract=f"base result {leaf_a} strand{c}"))
        lines.append(corpus_line(
            leaf_b, [],
            title=f"extension {leaf_b} of topic{c}",
            abstract=f"follow up {leaf_b} strand{c}"))
    return lines


# ---------------------------------------------------------------------------
# numeric primitives, written independently
# ---------------------------------------------------------------------------

def oracle_sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    pos = 1.0 / (1.0 + np.exp(-np.clip(z, 0.0, None)))
    ez = np.exp(np.clip(z, None, 0.0))
    return np.where(z >= 0.0, pos, ez / (1.0 + ez))


def oracle_cosine(u, v):
    """Cosine similarity as one straight-line formula; 0 when either
    vector is zero."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    norms = math.sqrt(float(u @ u)) * math.sqrt(float(v @ v))
    return float(u @ v) / norms if norms > 0.0 else 0.0


def oracle_retrieve(n, edges, vectors, query, seed, u, b, sigma, hops,
                    max_frontier=10 ** 9):
    """Straight-line expand / score / prune loop.

    Every frontier node is scored on its own embedding row. Returns kept
    order, scores and hop labels, all keyed by original node index.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    und = {i: set() for i in range(n)}
    for s, t in edges:
        und[s].add(t)
        und[t].add(s)

    kept = [seed]
    visited = {seed}
    scores = {seed: 1.0}
    hop_of = {seed: 0}
    for hop in range(1, hops + 1):
        frontier = sorted({w for x in kept for w in und[x]} - visited)
        if not frontier:
            break
        visited |= set(frontier)
        d = vectors.shape[1]
        z = vectors[frontier] @ u[:d] + float(query @ u[d:]) + b
        s = np.clip(oracle_sigmoid(z), np.nextafter(0.0, 1.0),
                    np.nextafter(1.0, 0.0))
        survivors = [(frontier[i], float(s[i])) for i in range(len(frontier))
                     if s[i] >= sigma]
        if len(survivors) > max_frontier:
            by_score = sorted(survivors, key=lambda t: (-t[1], t[0]))
            survivors = sorted(by_score[:max_frontier])
        for v, sc in survivors:
            kept.append(v)
            scores[v] = sc
            hop_of[v] = hop
    return kept, scores, hop_of


def oracle_top_k(scores, k, candidates=None):
    """The first k pool indices after a full `sorted` by (-score, index)."""
    pool = [i for i in range(len(scores))
            if candidates is None or candidates[i]]
    return sorted(pool, key=lambda i: (-scores[i], i))[:k]


def oracle_eligible_queries(records, index_of, vectors):
    """Per-record loop: a paper qualifies when one of its citations is a
    corpus id and its embedding row has a non-zero norm; the rest are
    counted as excluded."""
    eligible, excluded = [], 0
    for i, record in enumerate(records):
        has_relevant = any(c in index_of for c in record.citations)
        if has_relevant and np.linalg.norm(vectors[i]) > 0.0:
            eligible.append(i)
        else:
            excluded += 1
    return eligible, excluded


def oracle_bm25_loop(docs, query, k1=1.2, b=0.75):
    """BM25 by a straight per-posting loop over token lists.

    For each query token in order (a repeat counts again), every document
    containing it, in document order, gains idf * tf / (tf + norm) with
    the smoothed idf ln((N - df + 0.5) / (df + 0.5) + 1).
    """
    n = len(docs)
    avg = sum(len(doc) for doc in docs) / n
    scores = np.zeros(n)
    for term in query:
        posting = [(d, doc.count(term)) for d, doc in enumerate(docs)
                   if term in doc]
        if not posting:
            continue
        df = len(posting)
        term_idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
        for d, tf in posting:
            ratio = len(docs[d]) / avg if avg > 0.0 else 0.0
            scores[d] += term_idf * tf / (tf + k1 * (1.0 - b + b * ratio))
    return scores


def oracle_hash_embed(text, dim, seed):
    """Signed feature hashing by a per-occurrence loop: every token
    (lowercased alphanumeric run) is hashed with blake2b keyed on the seed,
    the first 8 digest bytes pick the bucket and the 9th byte's low bit the
    sign; the sum is divided by its L2 norm unless it is zero."""
    key = int(seed).to_bytes(8, "little", signed=True)
    vec = np.zeros(dim, dtype=np.float64)
    for token in re.findall(r"[^\W_]+", text.lower()):
        digest = hashlib.blake2b(token.encode("utf-8"), key=key,
                                 digest_size=9).digest()
        bucket = int.from_bytes(digest[:8], "little") % dim
        vec[bucket] += 1.0 if digest[8] & 1 else -1.0
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0.0 else vec


def oracle_write_embeddings(path, ids, vectors):
    """The embeddings TSV written value by value with repr(float(x))."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(ids)}\t{vectors.shape[1]}\n")
        for pid, row in zip(ids, vectors):
            values = "\t".join(repr(float(x)) for x in row)
            fh.write(f"{pid}\t{values}\n")


def oracle_bfs_ball(n, edges, sources, k):
    """Plain undirected BFS: nodes within distance k of any source."""
    und = {i: set() for i in range(n)}
    for s, t in edges:
        und[s].add(t)
        und[t].add(s)
    seen = set(sources)
    frontier = set(sources)
    for _ in range(k):
        frontier = {w for x in frontier for w in und[x]} - seen
        seen |= frontier
        if not frontier:
            break
    return seen


def random_digraph(rng, max_nodes=20, edge_prob=None):
    """Random simple directed graph (no self-loops, no parallel edges)."""
    n = int(rng.integers(2, max_nodes + 1))
    p = edge_prob if edge_prob is not None else float(rng.uniform(0.1, 0.4))
    edges = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < p]
    return n, edges


def citation_graph(n, edges):
    """Package graph from an explicit edge list (fixture builder)."""
    from citegraph.corpus import PaperRecord
    from citegraph.graph import build_graph
    adjacency = {f"n{i}": [] for i in range(n)}
    for u, v in edges:
        adjacency[f"n{u}"].append(f"n{v}")
    return build_graph([PaperRecord(id=pid, citations=cited)
                        for pid, cited in adjacency.items()])


def random_scorer(dim, seed):
    """An untrained scorer for embedding width `dim`: 2*dim weights drawn
    uniformly from +-1/sqrt(2*dim), zero bias."""
    from citegraph.gat import ScorerParams
    bound = 1.0 / math.sqrt(2 * dim)
    rng = np.random.default_rng(seed)
    return ScorerParams(u=rng.uniform(-bound, bound, size=2 * dim), b=0.0)


def train_weights(corpus_path, dim, seed=0):
    """Run `train` on the corpus at embedding width `dim` and hash seed
    `seed`, its printout discarded; returns the weights file path."""
    from citegraph import cli
    path = corpus_path.with_name(f"weights-dim{dim}-seed{seed}.json")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["train", "--corpus", str(corpus_path),
                         "--output", str(path), "--dim", str(dim),
                         "--seed", str(seed)])
    assert code == 0
    return path


def retriever_fixture(fixture_seed, max_nodes=30, state_dim=6):
    """Seeded random retrieval instance shared by tests and their oracle."""
    from citegraph.embed import EmbeddingMatrix

    rng = np.random.default_rng(1000 + fixture_seed)
    n = int(rng.integers(8, max_nodes + 1))
    edges = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < 2.5 / n]
    graph = citation_graph(n, edges)
    vectors = rng.normal(size=(n, state_dim))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    embeddings = EmbeddingMatrix(ids=graph.node_ids, vectors=vectors,
                                 dim=state_dim)
    query = rng.normal(size=state_dim)
    query /= np.linalg.norm(query)
    rng.integers(0, 2 ** 31)  # unused draw: keeps every later value the same
    scorer = random_scorer(state_dim, int(rng.integers(0, 2 ** 31)))
    return {
        "n": n,
        "edges": edges,
        "graph": graph,
        "embeddings": embeddings,
        "query": query,
        "scorer": scorer,
        "seed_node": int(rng.integers(0, n)),
        "hops": int(rng.integers(1, 5)),
        "sigma": float(rng.choice([0.3, 0.45, 0.5, 0.55, 0.7])),
    }

