import json
import random
import re
import string
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citegraph.corpus import PaperRecord
from citegraph.ranking import RankedItem, RankedList
from citegraph.rerank import (EndpointError, HttpChatClient, MockClient,
                              RerankRequest, Triplet, build_prompt,
                              parse_ranking, rerank, verbalize_triplets)
from citegraph.retriever import (RetrievedSubgraph, RetrieverConfig,
                                 retrieve_subgraph)
from helpers import (citation_graph, oracle_triplet_pairs, random_digraph,
                     retriever_fixture)


def subgraph_with_edges(edges, hops):
    """A subgraph keeping every node named, and the graph of `edges`."""
    nodes = sorted({u for e in edges for u in e} | set(hops))
    sub = RetrievedSubgraph(
        seed=nodes[0], nodes=np.array(nodes),
        hops=np.array([hops[v] for v in nodes]), scores=np.ones(len(nodes)))
    return sub, citation_graph(nodes[-1] + 1, edges)


def records(*titles):
    return [PaperRecord(id=f"p{i}", title=t) for i, t in enumerate(titles)]


def test_verbalize_uses_titles_then_ids():
    sub, graph = subgraph_with_edges([(0, 1)], {0: 0, 1: 1})
    recs = records("A", "B")
    assert verbalize_triplets(sub, graph, recs, [1]) == \
        [Triplet(subject="A", predicate="cites", object="B")]
    recs_untitled = [PaperRecord(id="p0"), PaperRecord(id="p1", title="B")]
    assert verbalize_triplets(sub, graph, recs_untitled, [1]) == \
        [Triplet(subject="p0", predicate="cites", object="B")]


def test_verbalize_edgeless():
    sub, graph = subgraph_with_edges([], {0: 0})
    assert verbalize_triplets(sub, graph, records("A"), []) == []


def test_verbalize_four_edges_match_edge_list():
    edges = [(0, 1), (0, 2), (2, 1), (3, 0)]
    sub, graph = subgraph_with_edges(edges, {0: 0, 1: 1, 2: 1, 3: 2})
    recs = records("A", "B", "C", "D")
    triplets = verbalize_triplets(sub, graph, recs, [1, 2, 3])
    assert len(triplets) == 4
    names = {f"p{i}": t for i, t in enumerate("ABCD")}
    seen = {(t.subject, t.object) for t in triplets}
    assert seen == {(names[f"p{u}"], names[f"p{v}"]) for u, v in edges}
    # ordered by (source hop, source, target): hop0 edges first
    assert [(t.subject, t.object) for t in triplets[:2]] == \
        [("A", "B"), ("A", "C")]
    assert triplets[-1].subject == "D"  # hop-2 source last
    # an edge stays when an end is the seed (A) or a candidate: C -> B
    # goes with candidate D alone and comes back with candidate B
    pairs = [(t.subject, t.object)
             for t in verbalize_triplets(sub, graph, recs, [3])]
    assert pairs == [("A", "B"), ("A", "C"), ("D", "A")]
    pairs = [(t.subject, t.object)
             for t in verbalize_triplets(sub, graph, recs, [1])]
    assert pairs == [("A", "B"), ("A", "C"), ("C", "B"), ("D", "A")]


def test_verbalize_covers_kept_pairs_only():
    fx = retriever_fixture(1)  # 27 kept nodes with 55 edges among them
    sub = retrieve_subgraph(
        fx["graph"], fx["embeddings"], fx["query"], fx["seed_node"],
        fx["scorer"], RetrieverConfig(hops=fx["hops"], prune_threshold=0.0))
    recs = [PaperRecord(id=pid) for pid in fx["graph"].node_ids]
    candidates = sub.nodes[1::2].tolist()
    triplets = verbalize_triplets(sub, fx["graph"], recs, candidates)
    expected = oracle_triplet_pairs(
        fx["edges"], dict(zip(sub.nodes.tolist(), sub.hops.tolist())),
        sub.seed, candidates)
    assert len(expected) < len(fx["graph"].edges(sub.nodes)[0])
    assert [(t.subject, t.object) for t in triplets] == \
        [(f"n{u}", f"n{v}") for u, v in expected]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_verbalize_matches_loop_oracle(data):
    """On random graphs, kept sets, hops and candidate lists (which may
    name nodes outside the kept set, as dense fill does): the loop
    oracle's edges, in its order, with their labels."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    n, edges = random_digraph(rng, max_nodes=25)
    seed = int(rng.integers(0, n))
    others = [v for v in range(n) if v != seed and rng.random() < 0.6]
    hop_of = {seed: 0} | {v: int(rng.integers(1, 4)) for v in others}
    order = sorted(hop_of, key=lambda v: (hop_of[v], v))
    sub = RetrievedSubgraph(
        seed=seed, nodes=np.array(order),
        hops=np.array([hop_of[v] for v in order]),
        scores=np.ones(len(order)))
    candidates = [int(v) for v in rng.permutation(n)[:rng.integers(0, n)]]
    recs = [PaperRecord(id=f"n{i}", title=f"T{i}" if i % 3 else "")
            for i in range(n)]
    triplets = verbalize_triplets(sub, citation_graph(n, edges), recs,
                                  candidates)
    label = [r.title or r.id for r in recs]
    assert triplets == [Triplet(label[u], "cites", label[v]) for u, v in
                        oracle_triplet_pairs(edges, hop_of, seed, candidates)]


def request_for(count, triplets=()):
    return RerankRequest(
        query_text="what to cite",
        candidates=[(f"p{i}", f"Title {i}") for i in range(count)],
        triplets=list(triplets))


def test_prompt_markers_and_context():
    prompt = build_prompt(request_for(2))
    assert "1. Title 0 [p0]" in prompt
    assert "2. Title 1 [p1]" in prompt
    assert "3." not in prompt
    assert "(no graph context)" in prompt
    with_ctx = build_prompt(request_for(
        2, [Triplet("A", "cites", "B")]))
    assert '"A" cites "B"' in with_ctx
    assert "(no graph context)" not in with_ctx


def test_prompt_is_deterministic():
    a = build_prompt(request_for(3, [Triplet("A", "cites", "B")]))
    b = build_prompt(request_for(3, [Triplet("A", "cites", "B")]))
    assert a == b


def test_parse_ranking_examples():
    assert parse_ranking("RANKING: 3, 1, 2", 3) == ([3, 1, 2], False)
    perm, fallback = parse_ranking("complete garbage", 3)
    assert perm == [1, 2, 3] and fallback
    assert parse_ranking("RANKING: 2, 2, 9, 1", 3) == ([2, 1, 3], False)


def test_parse_ranking_takes_first_ranking_line():
    text = "thinking...\nRANKING: 2, 1\nRANKING: 1, 2\n"
    assert parse_ranking(text, 2) == ([2, 1], False)
    # case-insensitive, ignores prose after the numbers
    assert parse_ranking("ranking: 2 then 1 because reasons", 2) == \
        ([2, 1], False)


def test_parse_ranking_line_without_valid_numbers_falls_back():
    perm, fallback = parse_ranking("RANKING: none apply", 3)
    assert perm == [1, 2, 3] and fallback


def first_ranking_line_has_number(text, count):
    """Whether the first line holding a "RANKING:" marker (any case, any
    spaces before the colon) names a number in 1..count after it."""
    for line in text.splitlines():
        marker = re.search(r"(?i)ranking\s*:", line)
        if marker:
            return any(1 <= int(t) <= count
                       for t in re.findall(r"[0-9]+", line[marker.end():]))
    return False


def test_parse_ranking_fuzz_always_permutation():
    rng = random.Random(9)
    pieces = (list(string.printable) + ["RANKING:", "ranking :", "\n"] * 8
              + [str(i) for i in range(16)] * 2)
    outcomes = set()
    for _ in range(600):
        text = "".join(rng.choice(pieces)
                       for _ in range(rng.randrange(0, 60)))
        count = rng.randrange(1, 12)
        perm, fallback = parse_ranking(text, count)
        assert sorted(perm) == list(range(1, count + 1))
        assert fallback == (not first_ranking_line_has_number(text, count))
        outcomes.add(fallback)
    assert outcomes == {True, False}


def ranked(count):
    return RankedList(items=[
        RankedItem(id=f"p{i}", score=1.0 - 0.1 * i,
                   provenance="graph" if i % 2 == 0 else "dense-fallback")
        for i in range(count)
    ])


def test_rerank_identity():
    original = ranked(3)
    client = MockClient("RANKING: 1, 2, 3")
    out = rerank(client, request_for(3), original)
    assert out.ids() == original.ids()
    assert [it.score for it in out.items] == [1.0, 0.5, pytest.approx(1 / 3)]
    assert not out.fallback


def test_rerank_reversal_preserves_provenance():
    original = ranked(3)
    client = MockClient("RANKING: 3, 2, 1")
    out = rerank(client, request_for(3), original)
    assert out.ids() == ["p2", "p1", "p0"]
    assert [it.provenance for it in out.items] == \
        ["graph", "dense-fallback", "graph"]


def test_rerank_mock_deterministic_and_id_preserving():
    original = ranked(5)
    client = MockClient("RANKING: 4, 1, 5, 2, 3")
    first = rerank(client, request_for(5), original)
    second = rerank(client, request_for(5), original)
    assert first.ids() == second.ids() == ["p3", "p0", "p4", "p1", "p2"]
    assert set(first.ids()) == set(original.ids())


def test_rerank_unparseable_reply_falls_back_to_original_order():
    original = ranked(3)
    out = rerank(MockClient("no ranking here"), request_for(3), original)
    assert out.ids() == original.ids()
    assert out.fallback


class ExplodingClient:
    def complete(self, prompt, model, temperature, max_tokens):
        raise EndpointError("boom")


def test_rerank_network_failure_returns_original_with_flag():
    original = ranked(4)
    out = rerank(ExplodingClient(), request_for(4), original)
    assert out.ids() == original.ids()
    assert [it.score for it in out.items] == \
        [it.score for it in original.items]
    assert out.fallback


def test_rerank_prompt_bug_propagates(monkeypatch):
    import citegraph.rerank as rerank_module

    def broken_prompt(request):
        raise RuntimeError("prompt bug")

    monkeypatch.setattr(rerank_module, "build_prompt", broken_prompt)
    with pytest.raises(RuntimeError, match="prompt bug"):
        rerank(MockClient(), request_for(3), ranked(3))


def test_rerank_empty_list_passthrough():
    empty = RankedList(items=[])
    assert rerank(MockClient(), RerankRequest("q", []), empty) is empty


def test_rerank_length_mismatch_errors():
    with pytest.raises(ValueError, match="differ in length"):
        rerank(MockClient(), request_for(2), ranked(3))


def test_mock_client_default_identity():
    client = MockClient()
    reply = client.complete(build_prompt(request_for(4)), "m", 0.0, 64)
    assert reply == "RANKING: 1, 2, 3, 4"


def test_http_client_requires_url(monkeypatch):
    monkeypatch.delenv("CITEGRAPH_LLM_URL", raising=False)
    with pytest.raises(EndpointError, match="CITEGRAPH_LLM_URL"):
        HttpChatClient()


class _ChatHandler(BaseHTTPRequestHandler):
    fail_times = 0
    seen: list[dict] = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen.append({"body": body,
                                "auth": self.headers.get("Authorization")})
        if type(self).fail_times > 0:
            type(self).fail_times -= 1
            self.send_response(500)
            self.end_headers()
            return
        payload = json.dumps({"choices": [{"message": {
            "content": "RANKING: 2, 1\nbecause the graph says so"}}]})
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload.encode("utf-8"))

    def log_message(self, *args):
        pass


@pytest.fixture()
def chat_server():
    server = HTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _ChatHandler.seen = []
    _ChatHandler.fail_times = 0
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def test_http_client_round_trip(chat_server):
    client = HttpChatClient(url=chat_server, token="secret", timeout=5.0)
    reply = client.complete("prompt text", model="test-model",
                            temperature=0.0, max_tokens=32)
    assert reply.startswith("RANKING: 2, 1")
    sent = _ChatHandler.seen[0]
    assert sent["auth"] == "Bearer secret"
    assert sent["body"]["model"] == "test-model"
    assert sent["body"]["temperature"] == 0.0
    assert sent["body"]["messages"][0]["content"] == "prompt text"


def test_http_client_retries_then_succeeds(chat_server):
    _ChatHandler.fail_times = 1
    client = HttpChatClient(url=chat_server, timeout=5.0, retries=2)
    reply = client.complete("p", "m", 0.0, 16)
    assert "RANKING" in reply
    assert len(_ChatHandler.seen) == 2


def test_http_client_gives_up_after_retries(chat_server):
    _ChatHandler.fail_times = 10
    client = HttpChatClient(url=chat_server, timeout=5.0, retries=1)
    with pytest.raises(EndpointError, match="after 2 attempts"):
        client.complete("p", "m", 0.0, 16)


def test_rerank_via_http_end_to_end(chat_server):
    client = HttpChatClient(url=chat_server, timeout=5.0)
    out = rerank(client, request_for(2), ranked(2))
    assert out.ids() == ["p1", "p0"]
    assert not out.fallback
