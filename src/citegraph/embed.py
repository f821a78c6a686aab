r"""Node embeddings: TSV loading and a deterministic hashing fallback.

Precomputed sentence embeddings are loaded from a TSV file and aligned to
the graph's node order. When no file is available, a feature-hashing
bag-of-words embedder provides a self-contained, fully deterministic
substitute so the whole pipeline runs without any external model. Rows are
L2-normalized at load time so cosine similarity reduces to a dot product.

`tokenize` (shared with BM25) keeps the maximal runs of `[^\W_]`. For
ASCII text it lowercases, maps every ASCII non-alphanumeric character to
a space with one `str.translate` and calls `str.split()`. That is exact:
over ASCII, `[^\W_]` is `[A-Za-z0-9]`, and every ASCII whitespace
character is non-alphanumeric, so the split returns exactly the runs the
regex finds. Other text goes through the regex.

The hashing embedder hashes each distinct token once per call and counts
rows in blocks of at most 256: a block's token codes form one flat array,
each keyed `row * 2*dim + code`, and one `np.bincount` reshaped to
(rows, dim, 2) gives every row's positive and negative counts. A
single-text `hash_embed` is a one-row block. Every count is a small
integer, so the row, its norm and the normalized vector are exact
whatever the summation order. The TSV is parsed in one `np.loadtxt` pass
over the checked lines. It is written in blocks of rows: a hash-embedded
row holds only a few distinct values, so each block calls `repr` once per
distinct bit pattern (0.0 and -0.0 keep their own text) and gathers the
strings by index, giving the same bytes as `repr(float(x))` for every
entry.
"""
from __future__ import annotations

import hashlib
import itertools
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import PaperRecord, build_text
from .graph import _unique

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_ASCII_SPLIT = str.maketrans({c: " " for c in map(chr, range(128))
                              if not c.isalnum()})
_BLOCK = 256  # rows per counting block

DEFAULT_DIM = 384


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumerics (shared with BM25)."""
    if text.isascii():
        return text.lower().translate(_ASCII_SPLIT).split()
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
        """Cosine similarity of `query` against every row (zero rows give 0).

        An all-zero query has no meaningful similarity and is rejected.
        """
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (self.dim,):
            raise ValueError(f"query must have dimension {self.dim}, got {q.shape}")
        qn = np.linalg.norm(q)
        if qn == 0.0:
            raise ValueError("degenerate query: zero vector")
        return np.clip(self.vectors @ (q / qn), -1.0, 1.0)


def _normalize_in_place(out: np.ndarray) -> np.ndarray:
    """Divide every non-zero row of `out` by its L2 norm, in place.

    Rows go in blocks of 1024 so the squares `np.linalg.norm` forms never
    take a full copy of the matrix; a row's norm does not depend on the
    block.
    """
    for start in range(0, len(out), 1024):
        rows = out[start:start + 1024]
        norms = np.linalg.norm(rows, axis=1)
        rows /= np.where(norms > 0.0, norms, 1.0)[:, None]
    return out


class _TokenCodes(dict):
    """token -> 2*bucket + (1 if the sign is +1 else 0), hashed on first use.

    One instance serves one call, so nothing is shared between callers.
    """

    def __init__(self, dim: int, seed: int) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        super().__init__()
        self.dim = dim
        self.key = int(seed).to_bytes(8, "little", signed=True)

    def __missing__(self, token: str) -> int:
        digest = hashlib.blake2b(token.encode("utf-8"), key=self.key,
                                 digest_size=9).digest()
        code = 2 * (int.from_bytes(digest[:8], "little") % self.dim) \
            + (digest[8] & 1)
        self[token] = code
        return code

    def counts(self, texts: Sequence[str]) -> np.ndarray:
        """Signed token counts per bucket, one integer row of length dim
        per text; at most `_BLOCK` texts keep the count array small."""
        tokens = [tokenize(text) for text in texts]
        lengths = [len(t) for t in tokens]
        flat = itertools.chain.from_iterable(tokens)
        codes = np.fromiter(map(self.__getitem__, flat), dtype=np.intp,
                            count=sum(lengths))
        rows, width = len(texts), 2 * self.dim
        codes += np.repeat(np.arange(0, rows * width, width), lengths)
        pairs = np.bincount(codes, minlength=rows * width)
        pairs = pairs.reshape(rows, self.dim, 2)
        return pairs[:, :, 1] - pairs[:, :, 0]


def hash_embed(text: str, dim: int = DEFAULT_DIM, seed: int = 0) -> np.ndarray:
    """Deterministic bag-of-words embedding via signed feature hashing.

    Each token is hashed (keyed on `seed`) to a bucket and a sign in
    {-1, +1}; occurrences accumulate and the result is L2-normalized.
    Word order does not matter; empty text gives the zero vector. Stable
    across runs, platforms and thread counts.
    """
    return _normalize_in_place(
        _TokenCodes(dim, seed).counts([text]).astype(np.float64))[0]


def embed_corpus(records: Sequence[PaperRecord], dim: int = DEFAULT_DIM,
                 seed: int = 0) -> EmbeddingMatrix:
    """Hash-embed every record's concatenated text, in corpus order."""
    codes = _TokenCodes(dim, seed)
    vectors = np.empty((len(records), dim), dtype=np.float64)
    for start in range(0, len(records), _BLOCK):
        vectors[start:start + _BLOCK] = codes.counts(
            [build_text(r) for r in records[start:start + _BLOCK]])
    return EmbeddingMatrix(ids=tuple(r.id for r in records),
                           vectors=_normalize_in_place(vectors), dim=dim)


def _data_lines(fh, dim: int, index: dict[str, int], line_nos: list[int]):
    """Yield the non-blank data lines of an embedding TSV, checked for
    their field count and a unique id; records each row's id in `index`
    (id -> row) and its file line number in `line_nos`."""
    for line_no, line in enumerate(fh, start=2):
        if not line.strip():
            continue
        text = line.rstrip("\n")
        pid = text.partition("\t")[0]
        values = text.count("\t")
        if values != dim:
            raise ValueError(f"line {line_no}: expected {dim} values, got "
                             f"{values} in row for id {pid!r}")
        if pid in index:
            raise ValueError(
                f"line {line_no}: duplicate embedding row for id {pid!r}")
        index[pid] = len(index)
        line_nos.append(line_no)
        yield text


def _parse_values(lines, dim: int) -> np.ndarray:
    # comments=None: an id may contain '#'
    return np.loadtxt(lines, dtype=np.float64, delimiter="\t",
                      usecols=range(1, dim + 1), comments=None, ndmin=2)


def _raise_first_bad_line(path: str, dim: int) -> None:
    """Re-scan the file line by line and raise on the first line that
    fails, naming it and its id; used only once a bulk parse failed."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        index: dict[str, int] = {}
        line_nos: list[int] = []
        for text in _data_lines(fh, dim, index, line_nos):
            try:
                _parse_values([text], dim)
            except ValueError:
                pid = text.partition("\t")[0]
                raise ValueError(f"line {line_nos[-1]}: non-numeric value "
                                 f"in row for id {pid!r}") from None


def load_embeddings(path: str, graph) -> EmbeddingMatrix:
    """Load a TSV embedding file and align rows to the graph's node order.

    Format: header line "<count>\\t<dim>", then one "<paper_id>\\t<f1>\\t..."
    line per paper, in any order; blank lines are skipped. Every graph
    node must have exactly one row; ids not in the graph are ignored.
    Values must be finite numbers; an error names the file line and the
    paper id. Rows are L2-normalized.
    """
    index: dict[str, int] = {}
    line_nos: list[int] = []
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
        lines = _data_lines(fh, dim, index, line_nos)
        first = next(lines, None)
        if first is None:  # loadtxt warns on empty input
            values = np.empty((0, dim), dtype=np.float64)
        else:
            try:
                values = _parse_values(itertools.chain([first], lines), dim)
            except ValueError:
                _raise_first_bad_line(path, dim)
                raise
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        pid = next(itertools.islice(index, row, None))
        raise ValueError(
            f"line {line_nos[row]}: non-finite value in row for id {pid!r}")
    if len(line_nos) != count:
        raise ValueError(f"header declared {count} rows, file has {len(line_nos)}")
    missing = [pid for pid in graph.node_ids if pid not in index]
    if missing:
        shown = ", ".join(missing[:20])
        more = f" (+{len(missing) - 20} more)" if len(missing) > 20 else ""
        raise ValueError(f"embedding file is missing node ids: {shown}{more}")
    if list(index) != list(graph.node_ids):
        values = values[[index[pid] for pid in graph.node_ids]]
    return EmbeddingMatrix(ids=tuple(graph.node_ids),
                           vectors=_normalize_in_place(values), dim=dim)


def write_embeddings(path: str, matrix: EmbeddingMatrix) -> None:
    """Write the TSV that `load_embeddings` reads, each value as
    `repr(float(x))`, in blocks of 256 rows.

    An id holding a tab, CR or LF would split its line, so it is rejected
    before the file is opened.
    """
    for pid in matrix.ids:
        if "\t" in pid or "\n" in pid or "\r" in pid:
            raise ValueError(f"paper id {pid!r} holds a tab or line break; "
                             "the embeddings TSV cannot store it")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{matrix.node_count}\t{matrix.dim}\n")
        for start in range(0, matrix.node_count, 256):
            block = matrix.vectors[start:start + 256]
            # keyed on bits, not values: 0.0 == -0.0 but their texts differ
            bits = block.view(np.int64)
            distinct = _unique(bits.ravel())
            texts = np.array(list(map(repr, distinct.view(np.float64).tolist())),
                             dtype=object)
            rows = texts[np.searchsorted(distinct, bits)].tolist()
            ids = matrix.ids[start:start + 256]
            fh.write("".join(pid + "\t" + "\t".join(row) + "\n"
                             for pid, row in zip(ids, rows)))

