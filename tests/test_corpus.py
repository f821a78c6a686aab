import json
import random
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from citegraph.corpus import (IngestReport, build_text, normalize_citations,
                              parse_records)
from helpers import corpus_line, oracle_parse_records


def parse_lines(lines):
    return parse_records(iter(lines))


def test_parse_repairs_citation_list():
    records, report = parse_lines([
        corpus_line("p1", ["p2", "p2", 7, None], title="t"),
    ])
    assert [r.id for r in records] == ["p1"]
    assert records[0].citations == ["p2", "7"]
    assert report.citations_deduped == 1
    assert report.citations_coerced_from_int == 1
    assert report.citations_null_dropped == 1


def test_empty_stream():
    records, report = parse_lines([])
    assert records == []
    assert all(v == 0 for v in report.to_dict().values())


def test_missing_optional_field_still_parses():
    records, report = parse_lines([corpus_line("p1", [], title="only title")])
    assert report.records_parsed == 1
    assert records[0].abstract is None
    assert records[0].title == "only title"


def test_malformed_line_counted_not_fatal():
    records, report = parse_lines([
        "{this is not json",
        corpus_line("p1", []),
        "",
    ])
    assert report.records_parsed == 1
    assert report.records_dropped == 2
    assert report.records_parsed + report.records_dropped == 3


def test_duplicate_ids_keep_first():
    records, report = parse_lines([
        corpus_line("p1", [], title="first"),
        corpus_line("p1", [], title="second"),
    ])
    assert len(records) == 1
    assert records[0].title == "first"
    assert report.records_dropped == 1


def test_self_citation_removed():
    records, _ = parse_lines([corpus_line("p1", ["p1", "p2"])])
    assert records[0].citations == ["p2"]


def test_integer_id_coerced():
    records, _ = parse_lines([corpus_line(12345, ["1"])])
    assert records[0].id == "12345"


def test_normalize_citations_examples():
    assert normalize_citations(["a", "b", "a"]) == ["a", "b"]
    assert normalize_citations(None) == []
    assert normalize_citations(42) == ["42"]


def test_normalize_citations_against_coercion_oracle():
    # 20 raw values covering the malformed shapes seen in the wild
    fixture = [
        ["a", "b", "a"], None, 42, "x", ["7", 7], [None, None], [],
        [1, 2, 3], ["a", None, "b"], [""], [3.0], [float("nan")],
        ["dup", "dup", "dup"], [True], [0], ["a", "A"], [10 ** 12],
        ["x", 5, "x", 5], [2.5], [[1, 2], "ok"],
    ]

    def oracle(raw):
        # independent re-statement of the cleaning rules
        if raw is None:
            items = []
        elif isinstance(raw, list):
            items = raw
        else:
            items = [raw]
        out, seen = [], set()
        for it in items:
            if it is None:
                continue
            if isinstance(it, bool):
                s = str(it)
            elif isinstance(it, int):
                s = str(it)
            elif isinstance(it, float):
                if it != it:  # NaN
                    continue
                s = str(int(it)) if it == int(it) else repr(it)
            elif isinstance(it, str):
                if it == "":
                    continue
                s = it
            else:
                continue
            if s not in seen:
                seen.add(s)
                out.append(s)
        return out

    for raw in fixture:
        assert normalize_citations(raw) == oracle(raw), raw


def test_normalize_citations_order_and_dedupe_property():
    rng = random.Random(7)
    pool = ["a", "b", "c", 1, 2, None, "", 3.5, "a"]
    for _ in range(200):
        raw = [rng.choice(pool) for _ in range(rng.randrange(0, 12))]
        out = normalize_citations(list(raw))
        assert len(out) == len(set(out))
        # first-occurrence order: output is a subsequence of the cleaned stream
        cleaned = normalize_citations(list(raw))
        assert out == cleaned


ODD_IDS = st.one_of(
    st.sampled_from(["p1", "p2", " p1 ", "", " ", "7", "東京"]),
    st.integers(-3, 9), st.floats(), st.booleans(), st.none(),
    st.lists(st.integers(0, 3), max_size=2))


@st.composite
def record_lines(draw):
    """A JSON object line with an odd id and messy citations, which may
    repeat an entry or cite the record's own id."""
    pid = draw(ODD_IDS)
    entry = ODD_IDS | st.just(pid)
    obj = {"publication_ID": pid,
           "Citations": draw(st.lists(entry, max_size=6) | entry)}
    line = json.dumps(obj)
    if draw(st.integers(0, 3)) == 0:  # truncated, as after a cut-off write
        line = line[:draw(st.integers(1, len(line)))]
    return line


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(record_lines() | st.text(max_size=20), max_size=12))
def test_parse_records_property(lines):
    records, report = parse_lines(lines)
    assert report.records_parsed + report.records_dropped == len(lines)
    assert report.records_parsed == len(records)
    assert len({r.id for r in records}) == len(records)
    for record in records:
        assert isinstance(record.id, str) and record.id
        assert all(isinstance(c, str) and c for c in record.citations)
        assert len(set(record.citations)) == len(record.citations)
        assert record.id not in record.citations


def test_normalize_counters_sum():
    report = IngestReport()
    normalize_citations(["a", "a", None, 9, "", float("nan")], report)
    assert report.citations_deduped == 1
    assert report.citations_coerced_from_int == 1
    assert report.citations_null_dropped == 3  # null, empty string, NaN


def date_counters(raw_dates):
    """The two date counters of parsing one record per raw pubDate, and
    the oracle's."""
    lines = [corpus_line(f"p{i}", [], pubDate=raw)
             for i, raw in enumerate(raw_dates)]
    records, report = parse_lines(lines)
    _, expected = oracle_parse_records(lines)
    assert len(records) == len(raw_dates)
    got = (report.dates_partial, report.dates_range_collapsed)
    assert got == (expected["dates_partial"],
                   expected["dates_range_collapsed"])
    return got


def test_parse_pub_date_examples():
    # (partial, collapsed) of each date alone. A month is its name or a
    # prefix of it of 3 letters or more: "maybe", "Marketing", "Junk" and
    # "Marsh" only open with a month's first letters, so they name none
    examples = {"2008 Sep": (0, 0), "2007 Mar-Apr": (0, 1), "2010": (1, 0),
                "2008-Sep": (0, 0), "no year here": (1, 0),
                "published 1999 Dec maybe": (0, 0), "1999 Dec maybe": (0, 0),
                "2008 Marketing": (1, 0), "2010 Junk-Marsh": (1, 0),
                "2008 Sept": (0, 0), "2008 September": (0, 0),
                "2008 sept-OCTOBER": (0, 1), "2008 Se": (1, 0),
                "2008 Septembers": (1, 0)}
    for raw, counters in examples.items():
        assert date_counters([raw]) == counters, raw
    assert date_counters(list(examples)) == (6, 2)


def test_parse_pub_date_never_raises_fuzz():
    rng = random.Random(11)
    alphabet = string.printable
    raw_dates = ["".join(rng.choice(alphabet)
                         for _ in range(rng.randrange(0, 30)))
                 for _ in range(500)]
    partial, collapsed = date_counters(raw_dates)
    assert collapsed <= 500 - partial


def test_range_collapse_counted():
    _, report = parse_lines([corpus_line("p1", [], pubDate="2007 Mar-Apr")])
    assert report.dates_range_collapsed == 1
    assert report.dates_partial == 0


def test_build_text_order_and_absent_fields():
    records, _ = parse_lines([corpus_line(
        "p1", [], title="A", abstract="B", keywords="C", doi="D")])
    assert build_text(records[0]) == "A B C D"
    records, _ = parse_lines([corpus_line("p1", [])])
    assert build_text(records[0]) == ""
    records, _ = parse_lines([corpus_line("p1", [], title="A")])
    assert build_text(records[0]) == "A"


def is_subsequence(small, big):
    it = iter(big)
    return all(ch in it for ch in small)


def test_build_text_subsequence_property():
    records, _ = parse_lines([corpus_line(
        "p1", [], title="alpha beta", abstract="gamma", keywords="k1 k2",
        doi="10.1/x")])
    full = build_text(records[0])
    for field in ("title", "abstract", "keywords", "doi"):
        clone = parse_lines([corpus_line(
            "p1", [], **{f: getattr(records[0], f)
                         for f in ("title", "abstract", "keywords", "doi")
                         if f != field and getattr(records[0], f)})])[0][0]
        assert is_subsequence(build_text(clone), full)


def test_unreadable_stream_raises_io_error():
    def broken_stream():
        yield corpus_line("p1", [])
        raise OSError("disk went away")

    with pytest.raises(OSError, match="disk went away"):
        parse_records(broken_stream())


# ---------------------------------------------------------------------------
# differential test against the straight-line oracle
# ---------------------------------------------------------------------------

DEEP_ARRAY = "[" * 200_000
DEEP_TITLE = corpus_line("deep", ["p1"])[:-1] + ', "title": ' \
    + "[" * 500 + '"x"' + "]" * 500 + "}"
LONE_SURROGATE = corpus_line("sur", ["p1"], title="bad \ud800 title")
LONG_INT = corpus_line("long", ["p1"])[:-1] + ', "n": ' + "1" * 5000 + "}"

# ids and text: lone surrogates; a surrogate pair, which is one character
# once escaped and decoded and two lone surrogates when written raw;
# non-ASCII letters and Unicode space
ODD_TEXT = st.sampled_from(
    ["", " ", "p1", " p1 ", "p2", "7", "東京", "a\u3000b", "x\ud800",
     "\udc00", "\ud83d\ude00", "\U0001F600"])
SCALARS = st.one_of(ODD_TEXT, st.integers(-3, 12), st.floats(),
                    st.sampled_from([1.0, 2.5, -0.0, 1e300]), st.booleans(),
                    st.none())
VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["name", "id", "org", "x"]), inner,
                      max_size=3), max_leaves=4)
DATES = st.sampled_from(["2008 Sep", "2007 Mar-Apr", "1999", "junk",
                         "2001-dec", "published 1999 Dec maybe", ""])


@st.composite
def messy_objects(draw):
    pid = draw(st.sampled_from(["p1", "p2", " p3 ", 4, 5.0]) | VALUES)
    citation = st.just(pid) | st.sampled_from(["p1", "p2", ""]) | VALUES
    author = st.fixed_dictionaries(
        {}, optional={key: VALUES for key in ("name", "id", "org")})
    fields = {
        "Citations": st.lists(citation, max_size=6) | citation,
        "pubDate": DATES | VALUES,
        "authors": st.lists(author | VALUES, max_size=3) | author | VALUES,
        "venue": st.fixed_dictionaries(
            {}, optional={"name": VALUES, "id": VALUES}) | VALUES,
        **{name: VALUES for name in ("language", "title", "journal",
                                     "abstract", "keywords", "doi")},
    }
    return {"publication_ID": pid,
            **draw(st.fixed_dictionaries({}, optional=fields))}


@st.composite
def messy_lines(draw):
    """A JSON object line (NaN/Infinity literals, escaped or raw
    non-ASCII) that may be cut short, carry trailing data or Unicode
    whitespace around it; or a non-object line or a line past the
    decoder's limits."""
    special = st.sampled_from(["[1]", "3", "null", '"s"', "NaN", "true", "",
                               "\ufeff{}", DEEP_ARRAY, DEEP_TITLE,
                               LONE_SURROGATE, LONG_INT])
    if draw(st.integers(0, 5)) == 0:
        return draw(special)
    line = json.dumps(draw(messy_objects()), ensure_ascii=draw(st.booleans()))
    shape = draw(st.integers(0, 5))
    if shape == 0:
        line = line[:draw(st.integers(0, len(line)))]
    elif shape == 1:
        line += draw(st.sampled_from([" x", "{}", " 1", "]"]))
    elif shape == 2:
        space = st.sampled_from(["", " \t", "\u3000", "\x85", "\x1c", "\n"])
        line = draw(space) + line + draw(space)
    return line


def check_against_oracle(lines):
    records, report = parse_records(iter(lines))
    expected, counts = oracle_parse_records(lines)
    assert records == expected
    assert report.to_dict() == counts


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(messy_lines(), max_size=6),
       bom=st.booleans())
@example(lines=[corpus_line("p1", ["p2"]), corpus_line("p2", [])], bom=True)
@example(lines=[DEEP_ARRAY, DEEP_TITLE, LONE_SURROGATE, LONG_INT,
                corpus_line("sur", ["p1", 2, 2.0, None, float("nan")])],
         bom=False)
@example(lines=['{"publication_ID": "p1", "title": "\\ud83d\\ude00"}',
                '{"publication_ID": "p2", "title": "\\\\ud800"}',
                '{"publication_ID": "p3", "\\udc00": 1}'], bom=False)
@example(lines=['{"publication_ID": "e1", "title": "say \\"hi\\""}',
                '{"publication_ID": "e2", "title": "a\\\\b", "doi": "\\u00e9"}',
                '{"publication_ID": "e3", "title": "\\"x\\" \\ud800"}'],
         bom=False)
def test_parse_records_equals_oracle(lines, bom):
    if bom and lines:
        lines = ["\ufeff" + lines[0]] + lines[1:]
    check_against_oracle(lines)


def test_utf8_bom_on_first_line_is_not_part_of_the_record():
    records, report = parse_lines(["\ufeff" + corpus_line("p1", ["p2"]),
                                   corpus_line("p2", [])])
    assert [r.id for r in records] == ["p1", "p2"]
    assert records[0].citations == ["p2"]
    assert (report.records_parsed, report.records_dropped) == (2, 0)
    # only the first line may carry one
    _, report = parse_lines([corpus_line("p1", []),
                             "\ufeff" + corpus_line("p2", [])])
    assert (report.records_parsed, report.records_dropped) == (1, 1)


def test_lines_past_the_decoder_are_dropped():
    records, report = parse_lines([corpus_line("p1", []), DEEP_ARRAY,
                                   LONG_INT, corpus_line("p2", [])])
    assert [r.id for r in records] == ["p1", "p2"]
    assert report.records_dropped == 2


def test_deeply_nested_title_flattens_without_recursion():
    records, report = parse_lines([DEEP_TITLE])
    assert records[0].title == "x"
    assert report.records_parsed == 1
    records, _ = parse_lines([corpus_line(
        "p1", [], title=["a", ["", ["b", None, {"k": 1}], 2.5], [], True])])
    assert records[0].title == "a b 2.5 True"


def test_lone_surrogate_drops_the_line_and_moves_no_counter():
    records, report = parse_lines([LONE_SURROGATE,
                                   corpus_line("sur", [], title="kept")])
    assert [r.title for r in records] == ["kept"]
    assert report.records_dropped == 1
    assert report.citations_null_dropped == 0
    # in a key no field reads, too
    _, report = parse_lines(['{"publication_ID": "p", "\\udc00": 1}'])
    assert report.records_dropped == 1
    # an escaped surrogate pair is one valid character
    records, _ = parse_lines(['{"publication_ID": "p", "title": "\\ud83d\\ude00"}'])
    assert records[0].title == "\U0001F600"
