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
import sys
from fractions import Fraction

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
# corpus parsing, written independently
# ---------------------------------------------------------------------------

ORACLE_MONTHS = ["january", "february", "march", "april", "may", "june",
                 "july", "august", "september", "october", "november",
                 "december"]


def _oracle_month(word):
    """The month (1-12) that `word` names, in any case, by its full English
    name or a prefix of that of at least 3 letters; None otherwise."""
    word = word.lower()
    for month, name in enumerate(ORACLE_MONTHS, start=1):
        if len(word) >= 3 and name[:len(word)] == word:
            return month
    return None


def _oracle_id(raw):
    if isinstance(raw, str):
        return raw.strip() or None
    if isinstance(raw, bool) or raw is None:
        return None
    if isinstance(raw, int):
        return str(raw)
    if isinstance(raw, float) and raw == raw and raw.is_integer():
        return str(int(raw))
    return None


def _oracle_citations(raw, pid, counts):
    items = [] if raw is None else raw if isinstance(raw, list) else [raw]
    out = []
    for item in items:
        if item is None or item == "" or (isinstance(item, float)
                                          and item != item):
            counts["citations_null_dropped"] += 1
            continue
        if isinstance(item, str):
            entry = item
        elif isinstance(item, (bool, int)):
            counts["citations_coerced_from_int"] += 1
            entry = str(item)
        elif isinstance(item, float):
            counts["citations_coerced_from_int"] += 1
            entry = str(int(item)) if item.is_integer() else repr(item)
        else:  # a list or an object
            counts["citations_null_dropped"] += 1
            continue
        if entry in out:
            counts["citations_deduped"] += 1
            continue
        out.append(entry)
    return [c for c in out if c != pid]


def _oracle_date(raw):
    """(year, month, collapsed): the first 4-digit run is the year; the
    first letter run after it names the month when `_oracle_month` reads
    one in it, and a second month there marks a collapsed range."""
    if not isinstance(raw, str):
        return None, None, False
    match = re.search(r"(?<!\d)\d{4}(?!\d)", raw)
    if not match:
        return None, None, False
    months = [_oracle_month(w)
              for w in re.findall(r"[A-Za-z]+", raw[match.end():])[:2]]
    if not months or months[0] is None:
        return int(match.group()), None, False
    return int(match.group()), months[0], len(months) > 1 and \
        months[1] is not None


def _oracle_text(raw):
    """The leaves of `raw` (nested lists flattened in order, no recursion)
    that are neither null, NaN, an object nor empty, joined by spaces."""
    parts, stack = [], [raw]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(reversed(item))
        elif item is None or isinstance(item, dict) or item != item:
            continue
        elif str(item):
            parts.append(item if isinstance(item, str) else str(item))
    return " ".join(parts) or None


def oracle_parse_records(lines):
    """Reference for `parse_records`: `json.loads` per stripped line plus
    the documented repairs, straight-line. Returns the records and the
    ingest counters as a dict.

    A byte order mark before the first line is not part of it. A line is
    dropped when it does not decode (or the decoder gives up on it),
    holds a lone surrogate UTF-8 cannot store or a value nested too deep
    to encode, is not an object, or has no usable or an already-kept id;
    a dropped line moves no other counter. A date is parsed for the
    counters only, and the fields no command reads are not parsed.
    """
    from citegraph.corpus import PaperRecord

    counts = dict.fromkeys(
        ("records_parsed", "records_dropped", "citations_coerced_from_int",
         "citations_null_dropped", "citations_deduped", "dates_partial",
         "dates_range_collapsed"), 0)
    records, kept_ids = [], set()
    for number, line in enumerate(lines):
        if number == 0 and line.startswith("\ufeff"):
            line = line[1:]
        try:
            obj = json.loads(line.strip())
            # a lone surrogate: UnicodeEncodeError, a ValueError
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        except (ValueError, RecursionError):
            obj = None
        pid = _oracle_id(obj.get("publication_ID")) \
            if isinstance(obj, dict) else None
        if pid is None or pid in kept_ids:
            counts["records_dropped"] += 1
            continue
        line_counts = dict.fromkeys(counts, 0)
        _, month, collapsed = _oracle_date(obj.get("pubDate"))
        records.append(PaperRecord(
            id=pid,
            citations=_oracle_citations(obj.get("Citations"), pid,
                                        line_counts),
            **{name: _oracle_text(obj.get(name))
               for name in ("title", "abstract", "keywords", "doi")}))
        kept_ids.add(pid)
        line_counts["records_parsed"] = 1
        line_counts["dates_partial"] = int(month is None)
        line_counts["dates_range_collapsed"] = int(collapsed)
        for key, value in line_counts.items():
            counts[key] += value
    return records, counts


# ---------------------------------------------------------------------------
# numeric primitives, written independently
# ---------------------------------------------------------------------------

def oracle_sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    pos = 1.0 / (1.0 + np.exp(-np.clip(z, 0.0, None)))
    ez = np.exp(np.clip(z, None, 0.0))
    return np.where(z >= 0.0, pos, ez / (1.0 + ez))


def oracle_loss_and_gradient(u, b, X, y):
    """Mean binary cross-entropy of sigmoid(X @ u + b) against y and its
    gradient, on the full [row ; query] pair matrix X: loss_i =
    max(z,0) - z*y + log(1 + e^-|z|), gradient X.T @ r and sum(r) for
    residuals r = (sigmoid(z) - y) / len(y)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    z = X @ u + b
    loss = float(np.mean(np.maximum(z, 0.0) - z * y
                         + np.log1p(np.exp(-np.abs(z)))))
    residual = (oracle_sigmoid(z) - y) / len(y)
    return loss, X.T @ residual, float(residual.sum())


def _peak_scaled(v):
    """`v` in float64 times 2**-e, and e: 2**e is the power of two just
    above its largest magnitude (`math.frexp`), 0 for a zero vector."""
    v = np.asarray(v, dtype=np.float64)
    e = math.frexp(float(np.abs(v).max(initial=0.0)))[1]
    return np.ldexp(v, -e), e


def oracle_cosine(u, v):
    """Cosine similarity as one straight-line formula, over the two
    vectors scaled by powers of two (no cosine changes) to a largest
    magnitude in [0.5, 1), with `math.hypot` norms: nothing underflows or
    overflows, however small or large the values. 0 when either vector is
    zero."""
    u, v = _peak_scaled(u)[0], _peak_scaled(v)[0]
    norms = math.hypot(*u) * math.hypot(*v)
    return float(u @ v) / norms if norms > 0.0 else 0.0


def oracle_scores(vectors, query):
    """Every row's cosine with `query` as one straight-line matrix-vector
    scan of the whole matrix, clipped to [-1, 1]."""
    q = np.asarray(query, dtype=np.float64)
    return np.clip(np.asarray(vectors) @ (q / np.linalg.norm(q)), -1.0, 1.0)


def oracle_unit_rows(vectors):
    """Each row divided, one row at a time, by its L2 norm, in float64 and
    rounded once; a zero row stays zero. The norm is numpy's row reduction
    `np.linalg.norm(s[None], axis=1)` of the row scaled to s = row * 2**-e,
    whose largest magnitude is in [0.5, 1), times 2**e, so no square
    underflows or overflows. Where that norm is not a normal float, each
    value is divided by it as an exact fraction, keeping its sign. For
    integer rows whose sums of squares stay below 2**53 the norm is
    exact."""
    out = np.array(vectors, dtype=np.float64)
    for row in out:
        scaled, e = _peak_scaled(row)
        norm = Fraction(np.linalg.norm(scaled[None], axis=1)[0])
        norm *= Fraction(2) ** e  # exact, whatever e is
        if 2.0 ** -1022 <= norm <= sys.float_info.max:
            row /= float(norm)
        elif norm > 0:
            row[:] = [math.copysign(float(Fraction(x) / norm), x)
                      for x in row]
    return out


def oracle_retrieve(n, edges, vectors, query, seed, u, b, sigma, hops):
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
        for v, sc in survivors:
            kept.append(v)
            scores[v] = sc
            hop_of[v] = hop
    return kept, scores, hop_of


def oracle_triplet_pairs(edges, hop_of, seed, candidates):
    """The (source, target) pairs a re-rank prompt verbalizes, by a loop:
    each distinct edge with both ends kept (the keys of `hop_of`) and an
    end at the seed or a candidate, sorted by (source hop, source,
    target)."""
    focus = {seed} | set(candidates)
    rows = sorted((hop_of[u], u, v) for u, v in set(edges)
                  if u in hop_of and v in hop_of
                  and (u in focus or v in focus))
    return [(u, v) for _, u, v in rows]


def oracle_top_k(scores, k, candidates=None):
    """The first k pool indices after a full `sorted` by (-score, index)."""
    pool = [i for i in range(len(scores))
            if candidates is None or candidates[i]]
    return sorted(pool, key=lambda i: (-scores[i], i))[:k]


def oracle_eligible_queries(records, index_of, vectors):
    """Per-record loop: a paper qualifies when one of its citations is a
    corpus id and its embedding row has a positive, finite norm
    (`math.hypot`, which neither underflows nor overflows); the rest are
    counted as excluded."""
    eligible, excluded = [], 0
    for i, record in enumerate(records):
        has_relevant = any(c in index_of for c in record.citations)
        if has_relevant and 0.0 < math.hypot(*vectors[i].tolist()) < math.inf:
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


def oracle_bm25_index(texts, k1=1.2, b=0.75):
    """The BM25 CSR `(terms, ptr, docs, weights)` built one text at a time.

    Each text's tokens (lowercased alphanumeric runs) get term ids in
    first-appearance order; one int64 key per token, term * N + doc,
    sorted, gives the postings, and each posting's weight is idf * tf /
    (tf + norm[doc]) with the smoothed idf, in the arithmetic order the
    package uses, so the arrays compare byte for byte.
    """
    terms, term_ids, lengths = {}, [], []
    for text in texts:
        tokens = re.findall(r"[^\W_]+", text.lower())
        lengths.append(len(tokens))
        term_ids.extend(terms.setdefault(t, len(terms)) for t in tokens)
    n = len(lengths)
    keys = (np.array(term_ids, dtype=np.int64) * n
            + np.repeat(np.arange(n), lengths))
    keys.sort()
    run_keys, firsts = np.unique(keys, return_index=True)
    docs = (run_keys % n).astype(np.int32)
    df = np.bincount(run_keys // n, minlength=len(terms))
    tf = np.diff(np.append(firsts, len(keys))).astype(np.int32)
    dl = np.array(lengths, dtype=np.int64)
    avg = dl.sum() / n
    norm = k1 * (1.0 - b + b * (dl / (avg or 1.0)))
    idf = np.repeat([math.log((n - d + 0.5) / (d + 0.5) + 1.0)
                     for d in df.tolist()], df)
    weights = idf * tf / (norm[docs] + tf)
    return terms, np.concatenate(([0], np.cumsum(df))), docs, weights


def oracle_hash_counts(text, dim, seed):
    """Signed feature-hash counts by a per-occurrence loop: every token
    (lowercased alphanumeric run) is hashed with blake2b keyed on the seed,
    the first 8 digest bytes pick the bucket and the 9th byte's low bit the
    sign."""
    key = int(seed).to_bytes(8, "little", signed=True)
    vec = np.zeros(dim, dtype=np.float64)
    for token in re.findall(r"[^\W_]+", text.lower()):
        digest = hashlib.blake2b(token.encode("utf-8"), key=key,
                                 digest_size=9).digest()
        bucket = int.from_bytes(digest[:8], "little") % dim
        vec[bucket] += 1.0 if digest[8] & 1 else -1.0
    return vec


def oracle_hash_embed(text, dim, seed):
    """`oracle_hash_counts` divided by its L2 norm unless it is zero."""
    vec = oracle_hash_counts(text, dim, seed)
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0.0 else vec


def oracle_write_counts(path, ids, counts):
    """The embeddings TSV written value by value with str(int(x))."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(ids)}\t{counts.shape[1]}\n")
        for pid, row in zip(ids, counts):
            values = "\t".join(str(int(x)) for x in row)
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


def random_pairs(rng, m, d, queries):
    """m training pairs at width d over `queries` queries, each query
    given at least one pair: rows R, queries Q, each pair's query index
    (ascending) and 0/1 labels, in the order `loss_and_gradient` takes."""
    group = np.sort(np.concatenate([np.arange(queries), rng.integers(
        0, queries, m - queries)]))
    return (rng.normal(size=(m, d)), rng.normal(size=(queries, d)), group,
            (rng.random(m) < 0.5).astype(float))


def oracle_training_pairs(vectors, edges, queries, negatives_per_positive,
                          seed):
    """Training pairs built one row at a time from the edge list of a
    `citation_graph(len(vectors), edges)` fixture: query node q's
    positives are the distinct targets v != q of its edges (q, v),
    ascending, its query half is vectors[q], and each pair's [row ; query]
    is concatenated on its own, then all rows stacked. The negatives are
    drawn with the same generator calls, query by query, as the scorer's
    builder, so its X and y must equal these bit for bit."""
    if not queries:
        raise ValueError("no positive (node, query) pairs available for training")
    rng = np.random.default_rng(seed)
    n = len(vectors)
    feats, labels = [], []
    for q in queries:
        positives = sorted({v for u, v in edges if u == q and v != q})
        if not positives:
            raise ValueError(f"training query 'n{q}' cites no corpus paper")
        for p in positives:
            feats.append(np.concatenate([vectors[p], vectors[q]]))
            labels.append(1.0)
        negative = np.ones(n, dtype=bool)
        negative[positives] = False
        pool = np.flatnonzero(negative)
        wanted = min(len(pool), negatives_per_positive * len(positives))
        if wanted > 0:
            for neg in sorted(rng.choice(pool, size=wanted, replace=False)):
                feats.append(np.concatenate([vectors[neg], vectors[q]]))
                labels.append(0.0)
    return np.stack(feats), np.asarray(labels, dtype=np.float64)


def evaluation_inputs(records, dim=None, seed=0):
    """The `graph`, `embeddings` and `bm25` keywords of
    `cli.evaluate_corpus`: the records' citation graph, their hash
    embeddings at width `dim` (default: the embedder's) and hash seed
    `seed`, and their BM25 index at the stock k1 and b, as `evaluate`
    builds them without --embeddings."""
    from citegraph.baselines import bm25_build
    from citegraph.corpus import build_text
    from citegraph.embed import DEFAULT_DIM, embed_corpus
    from citegraph.graph import build_graph
    return {"graph": build_graph(records),
            "embeddings": embed_corpus(records, dim=dim or DEFAULT_DIM,
                                       seed=seed),
            "bm25": bm25_build(map(build_text, records),
                               ids=[r.id for r in records])}


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

