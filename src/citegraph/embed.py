r"""Node embeddings: TSV loading and a deterministic hashing fallback.

Precomputed sentence embeddings are loaded from a TSV file and aligned to
the graph's node order. When no file is available, a feature-hashing
bag-of-words embedder provides a self-contained, fully deterministic
substitute so the whole pipeline runs without any external model. Rows are
kept as stored and divided by their L2 norm where they are read, so cosine
similarity reduces to a dot product.

`_tokens`, the package's one tokenizer (hashing, BM25 and queries), keeps
the maximal runs of `[^\W_]` of the lowercased text as UTF-8 bytes. It
reads a block of texts in one pass, each lowercased alone (a capital
sigma's lowercase depends on the letters around it) and joined around
the sentinel token `Q`, which no lowercased text holds. An ASCII block
is split as bytes, one `bytes.translate` of every non-alphanumeric byte
to a space and `bytes.split()`: exact, as over ASCII `[^\W_]` is
`[A-Za-z0-9]` and every whitespace byte is non-alphanumeric. Any other
block goes through the regex, each token then encoded (no run of
`[^\W_]` holds a lone surrogate). `tokenize` is the one-text case, as `str`.

The hashing embedder counts rows in blocks of at most 256 texts. A table
keyed by token bytes hashes each distinct token on first use, from a copy
of one blake2b state that has already taken the key, and codes the
sentinel to -1. A token's row is the number of sentinels before it; it
is keyed `row * 2*dim + code`, and one `np.bincount` reshaped to (rows,
dim, 2) gives every row's positive and negative counts.
`hash_counts` fills an int8 matrix, an eighth of float64's size, that a
block holding a larger count widens once to int16 or int32. A
single-text `hash_embed` is a one-row block. Every count is a small
integer, so the row, its norm and the normalized vector are exact
whatever the summation order.

`embed` writes those counts, not the normalized rows: each value is the
text of an integer (`0`, `-2`). When a 256-row block's values span at
most 64 integers, as hash counts do (32-45), the text `"a\tb"` of every
pair of integers in that span is formatted once into a table (4,096
texts at most) indexed by `(left - least) * span + (right - least)`, so
a row is joined from half as many texts; an odd width's last column
looks up the text of its single value. A wider block looks its values
up among its distinct ones by binary search. The loader keeps the counts,
so a loaded count file is bit-equal to `embed_corpus` at the same dim and
seed, and the file is a fraction of the size of 17-digit floats.

The loader reads the TSV's non-blank lines in blocks of 1024, keeping no
line numbers, into one (nodes, dim) matrix allocated once the first block
has parsed, of the smallest of int8, int16 and int32 that holds its counts
(float64 for floats); each row goes straight to its graph node's row, and
a block that needs more widens the matrix once.
A block's value texts (the id cut off at the first tab) are parsed first
as int32, the format `embed` writes, in one `np.loadtxt` call, then as
float64 on the first token that is not such an integer, so float TSVs
(such as precomputed sentence embeddings) load too. An integer text
holds a `-` only as the sign of a negative value or of a zero (`-0`), so
a block whose texts hold more `-` characters than it has negative values
holds a `-0`-like token and is parsed again as float64, which keeps the
sign of zero; every other int32 is exact in float64, so a block's unit
rows are the same bits whichever parse reads it. A block that fails to
parse, repeats an id or holds a non-finite value rejects the file, which
is then read again from the start, one line at a time, to name the first
bad line and its id.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import PaperRecord, build_text
from .graph import _unique

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# every byte but an ASCII letter or digit to a space
_BYTES_SPLIT = bytes(c if chr(c).isalnum() and c < 128 else 32
                     for c in range(256))
_BLOCK = 256  # rows per counting block
_ROWS = 1024  # rows per parsing block of the TSV loader
_SLICE = 512  # matrix rows per cosine slice: 1.5 MB at dim 384, within L2
_PAIRED = 64  # widest value span the writer formats from a two-value table

_SENTINEL = b"Q"  # parts a block's texts: lower() leaves no text an upper Q

DEFAULT_DIM = 384


def _tokens(texts: Sequence[str]) -> list[bytes]:
    """Every text's tokens in order as UTF-8 bytes, the sentinel between."""
    joined = " Q ".join([text.lower() for text in texts])  # Q: _SENTINEL
    if joined.isascii():
        return joined.encode().translate(_BYTES_SPLIT).split()
    return [token.encode() for token in _TOKEN_RE.findall(joined)]


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumerics: `_tokens` of one text."""
    return list(map(bytes.decode, _tokens([text])))


@dataclass
class EmbeddingMatrix:
    """Embedding rows aligned with a graph's node order, kept as stored.

    `ids[i]` names the paper whose row is `vectors[i]`: integer rows (hash
    counts) stay integers and other rows are float64. `norms[i]` is row
    i's L2 norm; `row`, `rows` and `scores` divide each row they read by
    it, so a row's dot product with a unit query is its cosine. Zero rows
    (papers with no usable text) stay zero and score 0 against everything.
    """

    ids: tuple[str, ...]
    vectors: np.ndarray
    dim: int
    norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.vectors)
        self.vectors = v if v.dtype.kind in "iu" else v.astype(np.float64, copy=False)
        if self.vectors.ndim != 2 or self.vectors.shape != (len(self.ids), self.dim):
            raise ValueError(
                f"vectors must be ({len(self.ids)}, {self.dim}), "
                f"got {self.vectors.shape}")
        # in blocks, so the float64 squares stay a small copy of the matrix
        self.norms = np.empty(len(self.ids))
        for start in range(0, len(self.ids), _BLOCK):
            self.norms[start:start + _BLOCK] = np.linalg.norm(
                self.vectors[start:start + _BLOCK], axis=1)

    @property
    def node_count(self) -> int:
        return len(self.ids)

    def row(self, index: int) -> np.ndarray:
        return _unit(self.vectors[index], self.norms[index])

    def rows(self, indices) -> np.ndarray:
        """The unit rows of the nodes `indices` (float64, divided in place)."""
        rows = self.vectors.take(indices, axis=0).astype(np.float64, copy=False)
        return _unit(rows, self.norms[indices], rows)

    def scores(self, query: np.ndarray) -> np.ndarray:
        """Cosine similarity of `query` against every row (zero rows give 0).

        `query` is one (dim,) vector, giving an (n,) row, or an (m, dim)
        stack, giving one row per query; an all-zero query is rejected.
        The matrix is read in slices of `_SLICE` rows, each divided by its
        norms into one reused float64 buffer and scored against every query
        while it is in cache, so a stack reads it once. Under one BLAS
        thread each cosine keeps the bytes of a lone `rows(all) @ (q /
        norm(q))` scan: each query is normalized alone, and slices start
        at multiples of 16 rows, so each row meets the same kernel.
        """
        q = np.asarray(query, dtype=np.float64)
        if q.ndim not in (1, 2) or q.shape[-1] != self.dim:
            raise ValueError(f"query must have dimension {self.dim}, got {q.shape}")
        norms = [np.linalg.norm(v) for v in q.reshape(-1, self.dim)]
        if 0.0 in norms:
            raise ValueError("degenerate query: zero vector")
        units = [v / qn for v, qn in zip(q.reshape(-1, self.dim), norms)]
        n = self.node_count
        out = np.empty((len(units), n))
        # numpy scores a one-row slice as a vector dot product, not with the
        # matrix-vector kernel, so a one-row tail joins the slice before it
        bounds = [0, *range(_SLICE, n - 1, _SLICE), n]
        buffer = np.empty((min(n, _SLICE + 1), self.dim))
        for start, stop in zip(bounds, bounds[1:]):
            unit_rows = _unit(self.vectors[start:stop], self.norms[start:stop],
                              buffer[:stop - start])
            for unit, row in zip(units, out):
                np.matmul(unit_rows, unit, out=row[start:stop])
        np.clip(out, -1.0, 1.0, out=out)
        return out if q.ndim == 2 else out[0]


def _unit(rows: np.ndarray, norms: np.ndarray, out=None) -> np.ndarray:
    """`rows` divided in float64 by their `norms`; a zero row stays zero."""
    return np.divide(rows, np.where(norms > 0.0, norms, 1.0)[..., None], out=out)


def _fitting(block: np.ndarray) -> np.dtype:
    """The smallest of int8, int16 and int32 (int64 past it) that holds
    every value of a non-empty integer block; float64 for a float block."""
    if block.dtype.kind == "f":
        return np.dtype(np.float64)
    lo, hi = int(block.min()), int(block.max())
    return next(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64)
                if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max)


def _widened(matrix: np.ndarray, block: np.ndarray) -> np.ndarray:
    """`matrix`, or a copy widened once to hold the values of `block` too."""
    wanted = np.promote_types(matrix.dtype, _fitting(block))
    return matrix if wanted == matrix.dtype else matrix.astype(wanted)


class _TokenCodes(dict):
    """token bytes -> 2*bucket + (1 if the sign is +1 else 0), hashed on
    first use; the sentinel token that parts a block's texts codes to -1.
    One instance serves one call, so nothing is shared between callers.
    """

    def __init__(self, dim: int, seed: int) -> None:
        if dim < 1:
            raise ValueError("dim must be >= 1")
        import hashlib  # here, so commands that do not hash skip OpenSSL
        super().__init__({_SENTINEL: -1})
        self.dim = dim
        # the keyed state, copied for each new token: the key is hashed once
        self.keyed = hashlib.blake2b(
            key=int(seed).to_bytes(8, "little", signed=True), digest_size=9)

    def __missing__(self, token: bytes) -> int:
        state = self.keyed.copy()
        state.update(token)
        digest = state.digest()
        code = 2 * (int.from_bytes(digest[:8], "little") % self.dim) \
            + (digest[8] & 1)
        self[token] = code
        return code

    def counts(self, texts: Sequence[str]) -> np.ndarray:
        """Signed token counts per bucket, one integer row of length dim
        per text; at most `_BLOCK` texts keep the count array small."""
        tokens = _tokens(texts)
        codes = np.fromiter(map(self.__getitem__, tokens), dtype=np.intp,
                            count=len(tokens))
        rows, width = len(texts), 2 * self.dim
        cuts = codes < 0
        keys = np.cumsum(cuts) * width + codes
        pairs = np.bincount(keys[~cuts], minlength=rows * width)
        pairs = pairs.reshape(rows, self.dim, 2)
        return pairs[:, :, 1] - pairs[:, :, 0]


def hash_embed(text: str, dim: int = DEFAULT_DIM, seed: int = 0) -> np.ndarray:
    """Deterministic bag-of-words embedding via signed feature hashing.

    Each token is hashed (keyed on `seed`) to a bucket and a sign in
    {-1, +1}; occurrences accumulate and the result is L2-normalized.
    Word order does not matter; empty text gives the zero vector. Stable
    across runs, platforms and thread counts.
    """
    counts = _TokenCodes(dim, seed).counts([text])
    return _unit(counts[0], np.linalg.norm(counts, axis=1)[0])


def hash_counts(records: Sequence[PaperRecord], dim: int,
                seed: int) -> np.ndarray:
    """Signed token counts of every record's concatenated text, in corpus
    order: an (n, dim) array of the smallest of int8, int16 and int32 that
    holds them, filled one `_BLOCK`-row block at a time, holding the rows
    `embed_corpus` wraps and `embed` writes."""
    codes = _TokenCodes(dim, seed)
    counts = np.empty((len(records), dim), dtype=np.int8)
    for start in range(0, len(records), _BLOCK):
        block = codes.counts(
            [build_text(r) for r in records[start:start + _BLOCK]])
        counts = _widened(counts, block)
        counts[start:start + _BLOCK] = block
    return counts


def embed_corpus(records: Sequence[PaperRecord], dim: int = DEFAULT_DIM,
                 seed: int = 0) -> EmbeddingMatrix:
    """Hash-embed every record's concatenated text, in corpus order; the
    matrix keeps the counts and normalizes each row where it is read."""
    return EmbeddingMatrix(ids=tuple(r.id for r in records),
                           vectors=hash_counts(records, dim, seed), dim=dim)


def _parse_block(tails: list[str], dim: int) -> np.ndarray | None:
    """The values of a block's rows: int32 when every token parses as an
    integer, float64 otherwise, None when a row has the wrong field count
    or a token is not a number.

    A `-0` token would lose its sign as an integer, so a block is parsed
    again as float64 when its texts hold more `-` characters than it has
    negative values. `np.loadtxt` would skip an empty value text as a
    blank line, so such a block is not parsed at all.
    """
    if "\n" in tails or "" in tails:
        return None
    for dtype in (np.int32, np.float64):
        try:
            # comments=None: a value text holding '#' is not a number
            block = np.loadtxt(tails, dtype=dtype, delimiter="\t",
                               comments=None, ndmin=2)
        except ValueError:
            continue
        if dtype is np.int32 and (sum(text.count("-") for text in tails)
                                  != np.count_nonzero(block < 0)):
            continue  # a `-0`: its sign needs the float64 parse
        if block.shape == (len(tails), dim):
            return block
    return None


def load_embeddings(path: str, graph) -> EmbeddingMatrix:
    """Load a TSV embedding file and align rows to the graph's node order.

    Format: header line "<count>\\t<dim>", then one "<paper_id>\\t<f1>\\t..."
    line per paper, in any order; blank lines are skipped. Every graph
    node must have exactly one row; ids not in the graph are ignored.
    Values must be finite numbers; an error names the first bad line in
    file order and its paper id. Integer rows are kept as the smallest
    integer type that holds them, and float rows as float64.
    """
    node_ids, index_of = graph.node_ids, graph.index_of
    seen: set[str] = set()
    rows = placed = 0
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
        values = None  # allocated once a parsed block has shown dim is real
        lines = itertools.filterfalse(str.isspace, fh)
        # a line with no tab has an empty value text, which _parse_block rejects
        while split := [line.partition("\t")
                        for line in itertools.islice(lines, _ROWS)]:
            ids, _, tails = zip(*split)
            seen.update(ids)
            rows += len(ids)
            block = _parse_block(tails, dim)
            if (block is None or len(seen) != rows
                    or block.dtype.kind == "f" and not np.isfinite(block).all()):
                raise ValueError(_first_bad_line(path, dim))
            values = (np.empty((len(node_ids), dim), dtype=_fitting(block))
                      if values is None else _widened(values, block))
            at = np.fromiter(map(index_of.get, ids, itertools.repeat(-1)),
                             dtype=np.intp, count=len(ids))
            kept = at >= 0
            if kept.all():
                values[at] = block
            else:
                values[at[kept]] = block[kept]
            placed += int(kept.sum())
            del split, ids, tails, block  # one block of text at a time
    if rows != count:
        raise ValueError(f"header declared {count} rows, file has {rows}")
    if placed != len(node_ids):
        missing = [pid for pid in node_ids if pid not in seen]
        shown = ", ".join(missing[:20])
        more = f" (+{len(missing) - 20} more)" if len(missing) > 20 else ""
        raise ValueError(f"embedding file is missing node ids: {shown}{more}")
    if values is None:  # no rows and no nodes
        values = np.empty((0, dim), dtype=np.int8)
    return EmbeddingMatrix(ids=tuple(node_ids), vectors=values, dim=dim)


def _first_bad_line(path: str, dim: int) -> str:
    """The error for the first bad data line of an embedding TSV whose
    header is valid, read again from the start of the file.

    Each non-blank line is checked alone, in this order: its field count,
    its id against the earlier lines', its values as float64 (the whole
    line through `np.loadtxt`, the id column skipped, so an empty value is
    non-numeric), and that they are finite. Every file `load_embeddings`
    rejects has such a line.
    """
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        for line_no, line in enumerate(fh, start=2):
            if line.isspace():
                continue
            text = line.rstrip("\n")
            pid = text.partition("\t")[0]
            got = text.count("\t")
            if got != dim:
                return (f"line {line_no}: expected {dim} values, got {got} "
                        f"in row for id {pid!r}")
            if pid in seen:
                return f"line {line_no}: duplicate embedding row for id {pid!r}"
            seen.add(pid)
            try:
                parsed = np.loadtxt([line], dtype=np.float64, delimiter="\t",
                                    comments=None, usecols=range(1, dim + 1))
            except ValueError:
                return (f"line {line_no}: non-numeric value in row for id "
                        f"{pid!r}")
            if not np.isfinite(parsed).all():
                return (f"line {line_no}: non-finite value in row for id "
                        f"{pid!r}")


def _value_texts(block: np.ndarray) -> list[list[str]]:
    """Each row of a block of integers as the texts of its values,
    `str(int(x))`, two values to a text joined by a tab.

    When the block's values span at most `_PAIRED` integers (hash counts
    span 32-45), a table holds the text `"a\\tb"` of every pair of
    integers in that span, indexed by `(left - least) * span + (right -
    least)`, and the text of every single integer after it, which an odd
    width's last column looks up alone. A wider block, such as one
    holding both -2**31 and 2**31, whose table would hold billions of
    strings, looks its values up among its distinct ones by binary search.
    """
    if block.size:
        least = int(block.min())
        span = int(block.max()) - least + 1
        if span <= _PAIRED:
            singles = [str(v) for v in range(least, least + span)]
            table = np.array([a + "\t" + b for a in singles for b in singles]
                             + singles, dtype=object)
            at = (block - least).astype(np.intp, copy=False)
            half, odd = divmod(block.shape[1], 2)
            pairs = at[:, 0:2 * half:2] * span + at[:, 1::2]
            if odd:
                pairs = np.column_stack([pairs, span * span + at[:, -1]])
            return table[pairs].tolist()
    values = _unique(block.ravel())
    texts = np.array([str(x) for x in values.tolist()], dtype=object)
    return texts[np.searchsorted(values, block)].tolist()


def write_embeddings(path: str, ids: Sequence[str],
                     counts: np.ndarray) -> None:
    """Write the TSV that `load_embeddings` reads, one row of `counts`
    per id, each value as `str(int(x))`, in blocks of 256 rows.

    `counts` must be an integer array, such as `hash_counts` gives; a
    float array raises ValueError, whatever values it holds. So does an
    id holding a tab, CR or LF, which would split its line. Both are
    checked before the file is opened.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2 or len(counts) != len(ids):
        raise ValueError(f"counts must have one row per id ({len(ids)}), "
                         f"got shape {counts.shape}")
    if counts.dtype.kind not in "iu":
        raise ValueError("embedding counts must be an integer array, "
                         f"not {counts.dtype}")
    for pid in ids:
        if "\t" in pid or "\n" in pid or "\r" in pid:
            raise ValueError(f"paper id {pid!r} holds a tab or line break; "
                             "the embeddings TSV cannot store it")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(ids)}\t{counts.shape[1]}\n")
        for start in range(0, len(ids), _BLOCK):
            rows = _value_texts(counts[start:start + _BLOCK])
            fh.write("".join(pid + "\t" + "\t".join(row) + "\n"
                             for pid, row in zip(ids[start:start + _BLOCK],
                                                 rows)))
