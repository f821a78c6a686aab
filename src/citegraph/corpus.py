"""Corpus ingestion: JSONL parsing and field repair into PaperRecords.

The raw corpus is JSON Lines, one publication object per line, with the
field names publication_ID, Citations, pubDate, language, title, journal,
abstract, keywords, authors, venue, doi. The content is messy in known
ways: citation lists mix strings, integers and nulls and may repeat ids;
dates are partial ("2008 Sep") or month ranges ("2007 Mar-Apr"). Parsing
repairs what it can, counts every repair in an IngestReport, and never
aborts on a bad line. A record keeps only what a command reads: the id,
the citations and the text fields that `build_text` joins. Dates are
parsed for the IngestReport's counters and not kept; language, journal,
authors and venue are not read.

Each line is stripped and decoded by the bound `scan_once` of one
`JSONDecoder`, the scanner `raw_decode` calls, without the wrapper that
turns its StopIteration into a ValueError; a decode that stops short of
the end of the stripped line is trailing data, dropped as `json.loads`
would reject it (`str.strip` removes every JSON whitespace character, so
the check is exact). A UTF-8 byte order mark before the first line is
not part of the record. A line the decoder cannot handle (nesting
deeper than the recursion limit, an integer too long to convert) is
dropped, and so is a line holding a lone surrogate (`"\\ud800"`) in any
key or string: UTF-8 cannot encode it, and `embed` hashes each token's
UTF-8 bytes while the embeddings TSV and the graph snapshot store ids as
UTF-8. The commands read the corpus with `errors="surrogateescape"`, so
a line that is not valid UTF-8 holds a lone surrogate for each bad byte
and is skipped and counted the same way. A list of distinct non-empty
strings, the usual `Citations` value, is copied as it is; other values
go entry by entry through the repairs.
"""
from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Optional


@dataclass(slots=True)
class PaperRecord:
    """One cleaned publication: its id, citations and text fields.

    `citations` is duplicate-free, contains no empty strings and never the
    record's own id. The text fields are what `build_text` joins for BM25,
    the hash embedding and the LLM prompt; the title also names a
    candidate in the prompt.
    """

    id: str
    citations: list[str] = field(default_factory=list)
    title: Optional[str] = None
    abstract: Optional[str] = None
    keywords: Optional[str] = None
    doi: Optional[str] = None


@dataclass
class IngestReport:
    """Counters describing what parsing saw and repaired.

    records_parsed + records_dropped equals the number of input lines.
    dates_partial counts records whose date lacks a resolved month
    (year-only or fully unknown); dates_range_collapsed counts month
    ranges reduced to their start month.
    """

    records_parsed: int = 0
    records_dropped: int = 0
    citations_coerced_from_int: int = 0
    citations_null_dropped: int = 0
    citations_deduped: int = 0
    dates_partial: int = 0
    dates_range_collapsed: int = 0

    def to_dict(self) -> dict[str, int]:
        return asdict(self)


_MONTHS = frozenset(m[:i] for m in "january february march april may june "
                    "july august september october november december".split()
                    for i in range(3, len(m) + 1))  # "sep", "sept", ...
_YEAR_RE = re.compile(r"(?<!\d)\d{4}(?!\d)")
_WORD_RE = re.compile(r"[A-Za-z]+")
_STR = {str}
_TEXT_FIELDS = ("title", "abstract", "keywords", "doi")
# the escape of a lone surrogate, searched for only in a line holding
# `"\\u"`, which is scanned for a backslash first (at memchr speed; most
# lines hold no escape); a hit is confirmed on the decoded line, since an
# escaped surrogate pair is one character. A raw lone surrogate, which a
# byte that is not UTF-8 becomes under `surrogateescape`, can only be in
# a non-ASCII line, and one `str.encode` of the line finds it
_SURROGATE = re.compile(r"\\u[dD][89a-fA-F]")
_ENCODE = json.JSONEncoder(ensure_ascii=False).encode  # as json.dumps


def _date_flags(raw: str | None) -> tuple[bool, bool]:
    """(partial, collapsed) for a raw pubDate; never raises.

    The first 4-digit run is the year, which only anchors the month
    search: the date is partial unless the first letter run after the
    year is a month or its 3+ letter prefix ("2008 Sep", "2008-Sept", not
    "2008 Marketing"), and a second month after it is a collapsed range
    ("2007 Mar-Apr"). No date (None), or one without a year, is partial.
    """
    match = None if raw is None else _YEAR_RE.search(raw)
    if match is None:
        return True, False
    words = [w.lower() for w in _WORD_RE.findall(raw, match.end())]
    if not words or words[0] not in _MONTHS:
        return True, False
    return False, len(words) > 1 and words[1] in _MONTHS


def normalize_citations(raw: Any, report: IngestReport | None = None) -> list[str]:
    """Clean a raw Citations value into a duplicate-free list of id strings.

    Accepts a list, a scalar (treated as a single-element list) or null.
    Integers are rendered in canonical decimal; nulls, NaNs and empty
    strings are dropped; first-occurrence order is preserved. Counters are
    updated on `report` when one is given.
    """
    if type(raw) is list and set(map(type, raw)) <= _STR:
        distinct = set(raw)
        if len(distinct) == len(raw) and "" not in distinct:
            return list(raw)  # the common case: nothing to repair
    if report is None:
        report = IngestReport()
    if raw is None:
        return []
    values = raw if isinstance(raw, list) else [raw]
    cleaned: list[str] = []
    seen: set[str] = set()
    for value in values:
        entry = _clean_citation_entry(value, report)
        if entry is None:
            continue
        if entry in seen:
            report.citations_deduped += 1
            continue
        seen.add(entry)
        cleaned.append(entry)
    return cleaned


def _clean_citation_entry(value: Any, report: IngestReport) -> Optional[str]:
    if type(value) is str:  # the common case, tested first
        if value:
            return value
        report.citations_null_dropped += 1
        return None
    if value is None:
        report.citations_null_dropped += 1
        return None
    if isinstance(value, int):  # bool included: True -> "True"
        report.citations_coerced_from_int += 1
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            report.citations_null_dropped += 1
            return None
        report.citations_coerced_from_int += 1
        return str(int(value)) if value.is_integer() else repr(value)
    if isinstance(value, str):  # a str subclass
        return _clean_citation_entry(str(value), report)
    # nested lists/objects carry no usable id
    report.citations_null_dropped += 1
    return None


def _clean_id(value: Any) -> Optional[str]:
    if isinstance(value, str):
        return value.strip() or None
    if isinstance(value, bool) or value is None:
        return None
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value) or not value.is_integer():
            return None
        return str(int(value))
    return None


def _clean_text(value: Any) -> Optional[str]:
    """A text field as a string, or None; the non-empty leaves of nested
    lists are joined with single spaces, walked without recursion."""
    if type(value) is str:  # the common case, tested first
        return value or None
    if not isinstance(value, list):
        return _leaf_text(value)
    parts: list[str] = []
    stack = [iter(value)]
    while stack:
        for item in stack[-1]:
            if isinstance(item, list):
                stack.append(iter(item))
                break
            text = _leaf_text(item)
            if text:
                parts.append(text)
        else:
            stack.pop()
    return " ".join(parts) or None


def _leaf_text(value: Any) -> Optional[str]:
    if value is None or isinstance(value, dict):
        return None
    if isinstance(value, float) and math.isnan(value):
        return None
    text = value if isinstance(value, str) else str(value)
    return text or None


def _record(obj: dict, pid: str, report: IngestReport,
            normalize=normalize_citations) -> PaperRecord:
    """The record of a decoded line whose id is `pid`. `normalize` is
    bound here, so a profiler's wrapper on `normalize_citations` does not
    run once per record."""
    title, abstract, keywords, doi = map(_clean_text,
                                         map(obj.get, _TEXT_FIELDS))
    citations = normalize(obj.get("Citations"), report)
    if pid in citations:  # at most once: the list is duplicate-free
        citations.remove(pid)
    return PaperRecord(pid, citations, title, abstract, keywords, doi)


def _storable(value: str | dict) -> bool:
    """False when a line, or the object decoded from it, holds a lone
    surrogate in a key or string, which UTF-8 cannot encode, or a value
    nested too deep to encode."""
    try:
        (value if type(value) is str else _ENCODE(value)).encode()
    except (UnicodeEncodeError, RecursionError):
        return False
    return True


def parse_records(lines: Iterable[str]) -> tuple[list[PaperRecord], IngestReport]:
    """Parse a JSONL stream into cleaned records plus an IngestReport.

    Lines that are not valid JSON objects, lack a usable publication_ID,
    repeat an already-seen id, are beyond the decoder's limits or hold a
    lone surrogate are counted as dropped and skipped; parsing continues.
    Input order is preserved.
    """
    report = IngestReport()
    records: list[PaperRecord] = []
    seen_ids: set[str] = set()
    dates: dict[str | None, tuple[bool, bool]] = {}  # parsed once
    decode = json.JSONDecoder().scan_once
    dropped = partial = collapsed_ranges = 0
    lines = iter(lines)
    first = next(lines, None)
    if first is not None:  # a byte order mark is not part of the record
        lines = itertools.chain([first.removeprefix("\ufeff")], lines)
    for line in lines:
        stripped = line.strip()
        try:
            obj, end = decode(stripped, 0)
        except (StopIteration, ValueError, RecursionError):
            obj = end = None
        if end != len(stripped) or type(obj) is not dict:
            dropped += 1
            continue
        pid = _clean_id(obj.get("publication_ID"))
        if pid is None or pid in seen_ids:
            dropped += 1
            continue
        raw_date = obj.get("pubDate")
        if type(raw_date) is not str:  # parses as the unknown date
            raw_date = None
        flags = dates.get(raw_date)
        if flags is None:
            flags = dates[raw_date] = _date_flags(raw_date)
        if (("\\" in stripped and "\\u" in stripped
             and _SURROGATE.search(stripped)
             or not stripped.isascii() and not _storable(stripped))
                and not _storable(obj)):
            dropped += 1
            continue
        records.append(_record(obj, pid, report))
        seen_ids.add(pid)
        partial += flags[0]
        collapsed_ranges += flags[1]
    report.records_parsed = len(records)
    report.records_dropped = dropped
    report.dates_partial = partial
    report.dates_range_collapsed = collapsed_ranges
    return records, report


def build_text(record: PaperRecord) -> str:
    """Concatenate title, abstract, keywords and doi with single spaces.

    Absent fields contribute nothing; the result may be empty.
    """
    parts = [f for f in (record.title, record.abstract, record.keywords,
                         record.doi) if f]
    return " ".join(parts)
