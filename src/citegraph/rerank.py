"""LLM re-ranking: triplet verbalization, prompting, and robust parsing.

The retrieved subgraph's edges that touch the seed or a candidate are
verbalized as (paper, "cites", paper) triplets and sent with the candidate
list to a chat-completion endpoint, which is asked to reply with a single
"RANKING: i1, i2, ..." line. Parsing always yields a complete
permutation, and any network or format failure degrades to the original
ranking with a fallback flag; re-ranking is an optional enhancement and
must never break the pipeline.
"""
from __future__ import annotations

import dataclasses
import json
import os
import re
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .corpus import PaperRecord
from .graph import CitationGraph
from .ranking import RankedItem, RankedList
from .retriever import RetrievedSubgraph

URL_ENV = "CITEGRAPH_LLM_URL"
TOKEN_ENV = "CITEGRAPH_LLM_TOKEN"

PREDICATE = "cites"
MAX_TOKENS = 512
TEMPERATURE = 0.0  # deterministic output is required for testing


class EndpointError(Exception):
    """The chat endpoint is unreachable, misconfigured, or kept failing."""


@dataclass(frozen=True)
class Triplet:
    subject: str
    predicate: str
    object: str


@dataclass
class RerankRequest:
    query_text: str
    candidates: list[tuple[str, str]]  # (paper id, display title)
    triplets: list[Triplet] = field(default_factory=list)
    model: str = "default"


def verbalize_triplets(subgraph: RetrievedSubgraph, graph: CitationGraph,
                       records: Sequence[PaperRecord],
                       candidates: Sequence[int]) -> list[Triplet]:
    """One triplet per directed citation edge of `graph` among the kept
    nodes with an endpoint at the seed or at one of `candidates` (the node
    indices being re-ranked); titles when present, ids otherwise.

    `records` must be aligned with the graph's node order. Triplets are
    ordered by (source hop, source index, target index), each source's hop
    read from the subgraph's aligned `nodes` and `hops` arrays.
    """
    def label(index: int) -> str:
        return records[index].title or records[index].id

    sources, targets = graph.edges(subgraph.nodes)
    focus = np.zeros(graph.node_count, dtype=bool)
    focus[[subgraph.seed, *candidates]] = True
    touch = focus[sources] | focus[targets]
    sources, targets = sources[touch], targets[touch]
    hop_of = np.empty(graph.node_count, dtype=np.int64)
    hop_of[subgraph.nodes] = subgraph.hops
    order = np.lexsort((targets, sources, hop_of[sources]))
    return [Triplet(subject=label(u), predicate=PREDICATE, object=label(v))
            for u, v in zip(sources[order].tolist(), targets[order].tolist())]


def build_prompt(request: RerankRequest) -> str:
    """Deterministic prompt with numbered candidates and a rigid output
    contract ("RANKING: ..." plus a brief rationale)."""
    lines = [
        "You are ranking candidate papers to cite for a query paper.",
        "",
        "Query:",
        request.query_text,
        "",
        "Candidates:",
    ]
    for i, (pid, title) in enumerate(request.candidates, start=1):
        lines.append(f"{i}. {title} [{pid}]")
    lines.append("")
    lines.append("Citation graph context:")
    if request.triplets:
        for t in request.triplets:
            lines.append(f'- "{t.subject}" {t.predicate} "{t.object}"')
    else:
        lines.append("(no graph context)")
    lines.append("")
    lines.append(
        "Order the candidates from most to least worth citing. Reply with "
        "a single line of the form \"RANKING: i1, i2, ...\" listing every "
        "candidate number exactly once, followed by a brief rationale.")
    return "\n".join(lines)


_RANKING_RE = re.compile(r"ranking\s*:", re.IGNORECASE)
_INT_RE = re.compile(r"\d+")


def parse_ranking(text: str, candidate_count: int) -> tuple[list[int], bool]:
    """Extract a complete permutation of 1..candidate_count from a reply.

    Takes the first line containing "RANKING:", keeps valid in-range
    numbers at first occurrence, and appends any missing numbers in
    ascending order. Returns (permutation, fallback) where fallback is
    True when no usable ranking was found (the permutation is then the
    identity).
    """
    chosen: list[int] = []
    seen: set[int] = set()
    for line in text.splitlines():
        match = _RANKING_RE.search(line)
        if match is None:
            continue
        for token in _INT_RE.findall(line[match.end():]):
            value = int(token)
            if 1 <= value <= candidate_count and value not in seen:
                seen.add(value)
                chosen.append(value)
        break
    fallback = not chosen
    chosen.extend(i for i in range(1, candidate_count + 1) if i not in seen)
    return chosen, fallback


class HttpChatClient:
    """Minimal chat-completion client over HTTP POST.

    The endpoint URL and bearer token come from the CITEGRAPH_LLM_URL and
    CITEGRAPH_LLM_TOKEN environment variables unless given explicitly.
    A missing URL is a configuration error raised before any request.
    """

    def __init__(self, url: str | None = None, token: str | None = None,
                 timeout: float = 30.0, retries: int = 2):
        self.url = url or os.environ.get(URL_ENV)
        self.token = token if token is not None else os.environ.get(TOKEN_ENV)
        self.timeout = timeout
        self.retries = retries
        if not self.url:
            raise EndpointError(
                f"no chat endpoint configured (set {URL_ENV})")

    def complete(self, prompt: str, model: str, temperature: float,
                 max_tokens: int) -> str:
        # imported here, so that commands which never call a live endpoint
        # do not load urllib.request and the http, email and ssl modules
        import urllib.error
        import urllib.request

        payload = json.dumps({
            "model": model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
            "max_tokens": max_tokens,
        }).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            try:
                req = urllib.request.Request(self.url, data=payload,
                                             headers=headers, method="POST")
                with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                    body = json.loads(resp.read().decode("utf-8"))
                content = body["choices"][0]["message"]["content"]
                if not isinstance(content, str):
                    raise TypeError(f"reply content is "
                                    f"{type(content).__name__}, not text")
                return content
            except (urllib.error.URLError, OSError, KeyError, IndexError,
                    json.JSONDecodeError, TypeError) as exc:
                if isinstance(exc, urllib.error.HTTPError):
                    exc.close()  # an HTTP error reply holds its open socket
                last_error = exc
                if attempt < self.retries:
                    time.sleep(min(2.0 ** attempt * 0.5, 4.0))
        raise EndpointError(f"chat endpoint failed after "
                            f"{self.retries + 1} attempts: {last_error}")


class MockClient:
    """Offline stand-in for the chat endpoint.

    `respond` may be a fixed reply string or a callable over the prompt;
    the default echoes the identity ranking for however many candidates
    the prompt lists.
    """

    def __init__(self, respond: str | Callable[[str], str] | None = None):
        self.respond = respond
        self.calls: list[str] = []

    def complete(self, prompt: str, model: str, temperature: float,
                 max_tokens: int) -> str:
        self.calls.append(prompt)
        if callable(self.respond):
            return self.respond(prompt)
        if self.respond is not None:
            return self.respond
        count = len(re.findall(r"(?m)^\d+\. ", prompt))
        return "RANKING: " + ", ".join(str(i) for i in range(1, count + 1))


def rerank(client, request: RerankRequest, original: RankedList) -> RankedList:
    """Apply the endpoint's permutation to the original ranked list.

    Re-ranked scores are ordinal (1/position); per-item provenance is
    preserved and the output is always a permutation of the input ids.
    Any client failure or unparseable reply returns the original order
    with the fallback flag set.
    """
    if len(request.candidates) != len(original.items):
        raise ValueError("request candidates and ranked list differ in length")
    if not original.items:
        return original
    prompt = build_prompt(request)
    try:
        reply = client.complete(prompt, request.model, TEMPERATURE,
                                MAX_TOKENS)
    except Exception:
        return dataclasses.replace(original, fallback=True)
    permutation, parse_fallback = parse_ranking(reply, len(original.items))
    items = [
        RankedItem(id=original.items[pos - 1].id, score=1.0 / rank,
                   provenance=original.items[pos - 1].provenance)
        for rank, pos in enumerate(permutation, start=1)
    ]
    return RankedList(items=items, fallback=parse_fallback)
