"""Corpus ingestion: JSONL parsing, field repair, and cleaned-record export.

The raw corpus is JSON Lines, one publication object per line, with the
field names publication_ID, Citations, pubDate, language, title, journal,
abstract, keywords, authors, venue, doi. The content is messy in known
ways: citation lists mix strings, integers and nulls and may repeat ids;
dates are partial ("2008 Sep") or month ranges ("2007 Mar-Apr"); author
names may be hashes. Parsing repairs what it can, counts every repair in
an IngestReport, and never aborts on a bad line.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Optional


@dataclass(frozen=True)
class PartialDate:
    """Publication date with optional precision: year only, or year+month.

    Both fields are None when the raw value carried no recognizable year.
    A month is never present without a year.
    """

    year: Optional[int] = None
    month: Optional[int] = None


@dataclass(frozen=True)
class AuthorRef:
    name: Optional[str] = None
    id: Optional[str] = None
    org: Optional[str] = None


@dataclass(frozen=True)
class VenueRef:
    name: Optional[str] = None
    id: Optional[str] = None


@dataclass
class PaperRecord:
    """One cleaned publication.

    `citations` is duplicate-free, contains no empty strings and never the
    record's own id. Author names are passed through verbatim, hashed or
    not; no entity resolution is attempted.
    """

    id: str
    citations: list[str] = field(default_factory=list)
    pub_date: PartialDate = field(default_factory=PartialDate)
    language: Optional[str] = None
    title: Optional[str] = None
    journal: Optional[str] = None
    abstract: Optional[str] = None
    keywords: Optional[str] = None
    doi: Optional[str] = None
    authors: list[AuthorRef] = field(default_factory=list)
    venue: VenueRef = field(default_factory=VenueRef)


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


_MONTHS = {
    "jan": 1, "feb": 2, "mar": 3, "apr": 4, "may": 5, "jun": 6,
    "jul": 7, "aug": 8, "sep": 9, "oct": 10, "nov": 11, "dec": 12,
}
_MONTH_ABBR = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
               "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]
_YEAR_RE = re.compile(r"(?<!\d)(\d{4})(?!\d)")
_WORD_RE = re.compile(r"[A-Za-z]+")


def parse_pub_date(raw: Any) -> PartialDate:
    """Parse a raw date string into a PartialDate; never raises.

    Recognized shapes: "2008", "2008 Sep", "2008-Sep", "2007 Mar-Apr"
    (a month range collapses to its start). Anything else yields a
    year-only date when a 4-digit year is present, otherwise the unknown
    date (None, None).
    """
    date, _ = _parse_pub_date(raw)
    return date


def _parse_pub_date(raw: Any) -> tuple[PartialDate, bool]:
    if not isinstance(raw, str):
        return PartialDate(), False
    match = _YEAR_RE.search(raw)
    if match is None:
        return PartialDate(), False
    year = int(match.group(1))
    words = _WORD_RE.findall(raw[match.end():])
    if not words:
        return PartialDate(year), False
    first = words[0][:3].lower()
    if first not in _MONTHS:
        return PartialDate(year), False
    collapsed = len(words) > 1 and words[1][:3].lower() in _MONTHS
    return PartialDate(year, _MONTHS[first]), collapsed


def normalize_citations(raw: Any, report: IngestReport | None = None) -> list[str]:
    """Clean a raw Citations value into a duplicate-free list of id strings.

    Accepts a list, a scalar (treated as a single-element list) or null.
    Integers are rendered in canonical decimal; nulls, NaNs and empty
    strings are dropped; first-occurrence order is preserved. Counters are
    updated on `report` when one is given.
    """
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
    if isinstance(value, bool):
        report.citations_coerced_from_int += 1
        return str(value)
    if isinstance(value, int):
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
    if isinstance(value, bool) or value is None:
        return None
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value) or not value.is_integer():
            return None
        return str(int(value))
    if isinstance(value, str):
        stripped = value.strip()
        return stripped or None
    return None


def _clean_text(value: Any) -> Optional[str]:
    if type(value) is str:  # the common case, tested first
        return value or None
    if value is None or isinstance(value, (dict,)):
        return None
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, list):
        parts = [p for p in (_clean_text(v) for v in value) if p]
        return " ".join(parts) or None
    text = value if isinstance(value, str) else str(value)
    return text or None


def _opt_str(value: Any) -> Optional[str]:
    if type(value) is str:  # the common case, tested first
        return value
    if value is None:
        return None
    if isinstance(value, float) and math.isnan(value):
        return None
    return value if isinstance(value, str) else str(value)


def _parse_authors(raw: Any) -> list[AuthorRef]:
    if isinstance(raw, dict):
        raw = [raw]
    if not isinstance(raw, list):
        return []
    return [
        AuthorRef(name=_opt_str(d.get("name")), id=_opt_str(d.get("id")),
                  org=_opt_str(d.get("org")))
        for d in raw if isinstance(d, dict)
    ]


def _parse_venue(raw: Any) -> VenueRef:
    if not isinstance(raw, dict):
        return VenueRef()
    return VenueRef(name=_opt_str(raw.get("name")), id=_opt_str(raw.get("id")))


def parse_records(lines: Iterable[str]) -> tuple[list[PaperRecord], IngestReport]:
    """Parse a JSONL stream into cleaned records plus an IngestReport.

    Lines that are not valid JSON objects, lack a usable publication_ID,
    or repeat an already-seen id are counted as dropped and skipped;
    parsing continues. Input order is preserved.
    """
    report = IngestReport()
    records: list[PaperRecord] = []
    seen_ids: set[str] = set()
    dates: dict[str | None, tuple[PartialDate, bool]] = {}  # parsed once
    for line in lines:
        stripped = line.strip()
        obj: Any = None
        if stripped:
            try:
                obj = json.loads(stripped)
            except json.JSONDecodeError:
                obj = None
        if not isinstance(obj, dict):
            report.records_dropped += 1
            continue
        pid = _clean_id(obj.get("publication_ID"))
        if pid is None or pid in seen_ids:
            report.records_dropped += 1
            continue
        citations = normalize_citations(obj.get("Citations"), report)
        citations = [c for c in citations if c != pid]
        raw_date = obj.get("pubDate")
        if type(raw_date) is not str:  # parses as the unknown date
            raw_date = None
        parsed = dates.get(raw_date)
        if parsed is None:
            parsed = dates[raw_date] = _parse_pub_date(raw_date)
        pub_date, collapsed = parsed
        if collapsed:
            report.dates_range_collapsed += 1
        if pub_date.month is None:
            report.dates_partial += 1
        records.append(PaperRecord(
            id=pid,
            citations=citations,
            pub_date=pub_date,
            language=_clean_text(obj.get("language")),
            title=_clean_text(obj.get("title")),
            journal=_clean_text(obj.get("journal")),
            abstract=_clean_text(obj.get("abstract")),
            keywords=_clean_text(obj.get("keywords")),
            doi=_clean_text(obj.get("doi")),
            authors=_parse_authors(obj.get("authors")),
            venue=_parse_venue(obj.get("venue")),
        ))
        seen_ids.add(pid)
        report.records_parsed += 1
    return records, report


def build_text(record: PaperRecord) -> str:
    """Concatenate title, abstract, keywords and doi with single spaces.

    Absent fields contribute nothing; the result may be empty.
    """
    parts = [f for f in (record.title, record.abstract, record.keywords,
                         record.doi) if f]
    return " ".join(parts)


def format_pub_date(date: PartialDate) -> Optional[str]:
    if date.year is None:
        return None
    if date.month is None:
        return str(date.year)
    return f"{date.year} {_MONTH_ABBR[date.month - 1]}"


def record_to_obj(record: PaperRecord) -> dict[str, Any]:
    """Serialize a record to a JSON object in canonical field order."""
    obj: dict[str, Any] = {
        "publication_ID": record.id,
        "Citations": list(record.citations),
    }
    date = format_pub_date(record.pub_date)
    if date is not None:
        obj["pubDate"] = date
    for name in ("language", "title", "journal", "abstract", "keywords"):
        value = getattr(record, name)
        if value is not None:
            obj[name] = value
    if record.authors:
        obj["authors"] = [
            {k: v for k, v in (("name", a.name), ("id", a.id), ("org", a.org))
             if v is not None}
            for a in record.authors
        ]
    if record.venue.name is not None or record.venue.id is not None:
        obj["venue"] = {k: v for k, v in (("name", record.venue.name),
                                          ("id", record.venue.id))
                        if v is not None}
    if record.doi is not None:
        obj["doi"] = record.doi
    return obj


def write_cleaned_corpus(path: str, records: Iterable[PaperRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record_to_obj(record), ensure_ascii=False))
            fh.write("\n")


def write_ingest_report(path: str, report: IngestReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
