"""Seeded synthetic citation corpora for the benchmark.

One call of `generate(shape, papers, seed)` gives a JSONL corpus in the
program's input format plus the generator's own tally: the citation edges
it meant to create, the token ids of every surviving paper, and how many
of each input defect it injected. Nothing here imports the program, so
the tally is an independent account of what `build` must report.

Shapes:
  dense   every citation points inside the corpus (Poisson(5) per paper,
          70% within the paper's topic).
  sparse  the same citation count, but only the share of in-corpus
          targets seen in the released training split (41,831 nodes,
          3,401 edges); the rest cite papers outside the corpus.

Run `python3 perfbench/gen.py --shape dense --papers 2000 --seed 1
--out corpus.jsonl` to write one corpus and print its tally.
"""
from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field

import numpy as np

VOCAB = 20000
TOPICS = 200
ZIPF_EXPONENT = 1.07
TOPIC_TOKEN_SHARE = 0.5
TITLE_TOKENS = 8
KEYWORD_TOKENS = 6
ABSTRACT_TOKENS = (60, 150)  # inclusive range; ~120 tokens per paper overall
MEAN_CITATIONS = 5.0
WITHIN_TOPIC = 0.7
SHAPES = {"dense": 1.0, "sparse": 3401 / (41831 * MEAN_CITATIONS)}

# defect rates; every injected defect is counted in the tally
INT_CITATION = 0.10      # per citation entry, written as a JSON integer
DUP_CITATION = 0.05      # per paper, one entry repeated
NULL_CITATION = 0.03     # per paper, one null entry
SELF_CITATION = 0.02     # per paper, cites its own id
BAD_LINE = 0.005         # per paper, an unparseable line follows it
REPEATED_ID = 0.005      # per paper, a later line reuses an earlier id
DATE_FULL, DATE_YEAR, DATE_RANGE = 0.6, 0.2, 0.1  # rest: no pubDate

ID_BASE = 10_000_000
EXTERNAL_BASE = 90_000_000
MONTHS = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
          "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]
_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]


def word(i: int) -> str:
    """Distinct lowercase alphabetic pseudo-word for vocabulary index i."""
    n = i + len(_SYLLABLES)  # at least two syllables
    parts = []
    while n:
        n, r = divmod(n, len(_SYLLABLES))
        parts.append(_SYLLABLES[r])
    return "".join(reversed(parts))


WORDS = [word(i) for i in range(VOCAB)]


@dataclass
class Corpus:
    """A generated corpus and the generator's account of it.

    Paper i (in corpus order) has id `ids[i]`, text tokens
    `tokens[offsets[i]:offsets[i + 1]]` (title, abstract, keywords in that
    order) and in-corpus citation targets `targets[i]` (sorted indices,
    no self, no duplicates).
    """

    lines: list[str]
    ids: list[str]
    tokens: np.ndarray
    offsets: np.ndarray
    targets: list[list[int]]
    tally: dict[str, int] = field(default_factory=dict)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.lines))
            fh.write("\n")

    def doc_tokens(self, i: int) -> np.ndarray:
        return self.tokens[self.offsets[i]:self.offsets[i + 1]]


def _zipf_cdf(n: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** ZIPF_EXPONENT
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def _sample_tokens(rng: np.random.Generator, topics: np.ndarray,
                   lengths: np.ndarray) -> np.ndarray:
    cdf = _zipf_cdf(VOCAB)
    total = int(lengths.sum())
    ranks = np.minimum(np.searchsorted(cdf, rng.random(total)), VOCAB - 1)
    topic_of_token = np.repeat(topics, lengths)
    from_topic = rng.random(total) < TOPIC_TOKEN_SHARE
    # a topic reorders the vocabulary by a fixed bijection of the rank
    topic_words = (ranks * 7919 + topic_of_token * 1013) % VOCAB
    return np.where(from_topic, topic_words, ranks).astype(np.int64)


def _citation_targets(rng, i, topic_members, topic, papers, in_share):
    """Distinct citation targets of paper i: corpus indices or external ids."""
    internal: list[int] = []
    external: list[int] = []
    for _ in range(rng.poisson(MEAN_CITATIONS)):
        if rng.random() < in_share:
            if rng.random() < WITHIN_TOPIC and len(topic_members[topic]) > 1:
                members = topic_members[topic]
                j = int(members[rng.integers(len(members))])
            else:
                j = int(rng.integers(papers))
            if j != i and j not in internal:
                internal.append(j)
        else:
            ext = EXTERNAL_BASE + int(rng.integers(10_000_000))
            if ext not in external:
                external.append(ext)
    return internal, external


def _date(rng, tally) -> str | None:
    r = rng.random()
    year = int(rng.integers(1990, 2024))
    month = int(rng.integers(12))
    if r < DATE_FULL:
        return f"{year} {MONTHS[month]}"
    if r < DATE_FULL + DATE_YEAR:
        tally["dates_partial"] += 1
        return str(year)
    if r < DATE_FULL + DATE_YEAR + DATE_RANGE:
        tally["dates_range_collapsed"] += 1
        return f"{year} {MONTHS[month]}-{MONTHS[min(month + 1, 11)]}"
    tally["dates_partial"] += 1
    return None


def _citation_field(rng, own_id, internal_ids, external_ids, tally):
    entries: list = []
    for pid in internal_ids + external_ids:
        if rng.random() < INT_CITATION:
            entries.append(int(pid))
            tally["citations_coerced_from_int"] += 1
        else:
            entries.append(pid)
    rng.shuffle(entries)
    if entries and rng.random() < DUP_CITATION:
        entries.append(str(entries[int(rng.integers(len(entries)))]))
        tally["citations_deduped"] += 1
    if rng.random() < NULL_CITATION:
        entries.insert(int(rng.integers(len(entries) + 1)), None)
        tally["citations_null_dropped"] += 1
    if rng.random() < SELF_CITATION:
        entries.insert(int(rng.integers(len(entries) + 1)), own_id)
        tally["self_citations"] += 1
    return entries


def _text(tokens: np.ndarray) -> tuple[str, str, str]:
    words = [WORDS[t] for t in tokens.tolist()]
    title = words[:TITLE_TOKENS]
    title[0] = title[0].capitalize()
    abstract = words[TITLE_TOKENS:-KEYWORD_TOKENS]
    return (" ".join(title), " ".join(abstract) + ".",
            "; ".join(words[-KEYWORD_TOKENS:]))


def generate(shape: str, papers: int, seed: int) -> Corpus:
    """Generate `papers` surviving records of the given shape from `seed`."""
    if shape not in SHAPES:
        raise ValueError(f"unknown shape {shape!r}")
    rng = np.random.default_rng([seed, papers, list(SHAPES).index(shape)])
    in_share = SHAPES[shape]
    tally = {key: 0 for key in (
        "records_parsed", "records_dropped", "citations_coerced_from_int",
        "citations_null_dropped", "citations_deduped", "dates_partial",
        "dates_range_collapsed", "self_citations", "bad_lines",
        "repeated_ids")}

    topics = rng.integers(TOPICS, size=papers)
    abstract_len = rng.integers(ABSTRACT_TOKENS[0], ABSTRACT_TOKENS[1] + 1,
                                size=papers)
    lengths = TITLE_TOKENS + abstract_len + KEYWORD_TOKENS
    tokens = _sample_tokens(rng, topics, lengths)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    topic_members = [np.flatnonzero(topics == t) for t in range(TOPICS)]
    ids = [str(ID_BASE + i) for i in range(papers)]

    lines: list[str] = []
    targets: list[list[int]] = []
    for i in range(papers):
        internal, external = _citation_targets(
            rng, i, topic_members, int(topics[i]), papers, in_share)
        targets.append(sorted(internal))
        title, abstract, keywords = _text(tokens[offsets[i]:offsets[i + 1]])
        obj = {
            "publication_ID": ids[i],
            "Citations": _citation_field(
                rng, ids[i], [ids[j] for j in internal],
                [str(e) for e in external], tally),
        }
        date = _date(rng, tally)
        if date is not None:
            obj["pubDate"] = date
        obj.update({
            "language": "en",
            "title": title,
            "journal": f"Journal of {WORDS[int(topics[i])].capitalize()}",
            "abstract": abstract,
            "keywords": keywords,
            "authors": [{"name": f"{int(a):016x}", "id": f"a{int(a) % 99991}",
                         "org": f"Institute {int(a) % 97}"}
                        for a in rng.integers(1 << 62,
                                              size=int(rng.integers(1, 4)))],
            "venue": {"name": f"Venue {int(topics[i]) % 40}",
                      "id": f"v{int(topics[i]) % 40}"},
        })
        lines.append(json.dumps(obj, ensure_ascii=False))
        if rng.random() < BAD_LINE:
            lines.append(lines[-1][: len(lines[-1]) // 2])  # truncated JSON
            tally["bad_lines"] += 1
        if rng.random() < REPEATED_ID:
            j = int(rng.integers(i + 1))
            lines.append(json.dumps({"publication_ID": ids[j],
                                     "Citations": [], "title": "repeat"}))
            tally["repeated_ids"] += 1

    tally["records_parsed"] = papers
    tally["records_dropped"] = tally["bad_lines"] + tally["repeated_ids"]
    tally["nodes"] = papers
    tally["edges"] = sum(len(t) for t in targets)
    tally["eligible"] = sum(1 for t in targets if t)
    return Corpus(lines=lines, ids=ids, tokens=tokens, offsets=offsets,
                  targets=targets, tally=tally)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), required=True)
    parser.add_argument("--papers", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    corpus = generate(args.shape, args.papers, args.seed)
    corpus.write(args.out)
    print(json.dumps(corpus.tally, sort_keys=True))


if __name__ == "__main__":
    main()
