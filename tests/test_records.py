import csv
import dataclasses
import gc
import json
import math
import pickle
import random
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from citemetrics import (CitationEvent, CitationRecord, FidelityError,
                         IndexConfig, Publication, RecordParseError,
                         RecordValidationError, citation_vector,
                         filter_self_citations, parse_record, record_from_dict,
                         record_to_dict, resolve_now_year, totals,
                         validate_record, write_record)
from citemetrics import core, records
from datagen import AUTHOR_NAMES, event_publications, event_record
from vector_oracles import oracle_kept_events


def _rec(*pubs, entity="X", owner=None):
    return CitationRecord(entity=entity, owner_name=owner, publications=tuple(pubs))


# ---------------------------------------------------------------------------
# Parsing

def test_parse_fixture_scientist_a(equal_h_paths):
    record = parse_record(equal_h_paths["A"])
    assert record.entity == "A"
    assert record.kind == "researcher"
    assert len(record.publications) == 10
    assert citation_vector(record).counts == (35, 34, 33, 32, 31, 30, 29, 28, 28, 10)


def test_parse_empty_publication_list(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"entity": "E", "kind": "researcher",
                                "publications": []}))
    record = parse_record(path)
    assert record.publications == ()
    from citemetrics import h_index
    assert h_index(citation_vector(record)) == 0


def test_event_count_mismatch_is_validation_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "entity": "E", "kind": "researcher",
        "publications": [{
            "id": "p1", "year": 2000, "citation_count": 4,
            "citation_events": [{"year": 2001}] * 5,
        }]}))
    with pytest.raises(RecordValidationError, match="p1"):
        parse_record(path)


def test_parse_error_names_line_for_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"entity": "E",\n  "publications": [,]}')
    with pytest.raises(RecordParseError, match="line 2"):
        parse_record(path)


def test_parse_error_names_field(tmp_path):
    path = tmp_path / "bad_field.json"
    path.write_text(json.dumps({"entity": "E", "publications": [
        {"id": "p1", "year": "nope", "citation_count": 1}]}))
    with pytest.raises(RecordParseError, match="year"):
        parse_record(path)


def test_parse_rejects_unknown_fields(tmp_path):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps({"entity": "E", "publications": [], "spurious": 1}))
    with pytest.raises(RecordParseError, match="spurious"):
        parse_record(path)


@pytest.mark.parametrize("name", ["a\x00.json", "a\x00.csv"])
def test_a_path_error_is_raised_as_itself(name):
    with pytest.raises(ValueError, match="embedded null byte"):
        parse_record(name)


@pytest.mark.parametrize("window", [7, records._WINDOW])
def test_text_that_is_not_utf8_past_the_first_window_is_named(tmp_path, monkeypatch, window):
    monkeypatch.setattr(records, "_WINDOW", window)
    data = json.dumps({"entity": "E", "publications": [
        {"id": f"p{i}", "year": 2000, "authors": ["M\xfcller" if i == 1999 else "Ann"],
         "citation_count": 1} for i in range(2000)]}, ensure_ascii=False)
    raw = data.encode("latin-1")
    assert raw.index(b"\xfc") > window
    path = tmp_path / "latin1.json"
    path.write_bytes(raw)
    with pytest.raises(UnicodeDecodeError) as exc:
        raw.decode("utf-8")
    with pytest.raises(RecordParseError) as parse_exc:
        parse_record(path)
    assert str(parse_exc.value) == f"{path}: not UTF-8 text ({exc.value.reason})"


def test_parse_counts_csv(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("id,year,author_count,citation_count\n"
                    "p1,2001,2,7\n"
                    "p2,2002,,3\n")
    record = parse_record(path)
    assert record.entity == "rec"
    assert record.publications[0].author_count == 2
    assert record.publications[1].author_count is None
    assert citation_vector(record).counts == (7, 3)


def test_parse_events_csv(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("pub_id,pub_year,author_count,cite_year,citing_authors\n"
                    "p1,2000,2,2001,Ann Author;Bob Author\n"
                    "p1,2000,2,2002,\n"
                    "p2,2003,1,,\n")
    record = parse_record(path)
    p1, p2 = record.publications
    assert p1.citations() == 2
    assert p1.citation_events[0].citing_authors == ("Ann Author", "Bob Author")
    assert p2.citations() == 0
    assert p2.citation_events == ()


def test_events_csv_inconsistent_pub_year(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("pub_id,pub_year,author_count,cite_year,citing_authors\n"
                    "p1,2000,2,2001,\n"
                    "p1,1999,2,2002,\n")
    with pytest.raises(RecordParseError, match="line 3"):
        parse_record(path)


def test_unrecognized_csv_header(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text("foo,bar\n1,2\n")
    with pytest.raises(RecordParseError, match="header"):
        parse_record(path)


def test_round_trip_json(tmp_path):
    record = _rec(
        Publication(id="p1", year=2000, authors=("X", "Y"), citation_count=2,
                    event_years=(2001, 2002), event_citers=(("Z",), ())),
        Publication(id="p2", year=2001, author_count=3, citation_count=0),
        owner="X")
    path = tmp_path / "rt.json"
    write_record(record, path)
    assert parse_record(path) == record


# ---------------------------------------------------------------------------
# Validation

def test_duplicate_ids_rejected():
    with pytest.raises(RecordValidationError, match="duplicate"):
        validate_record(_rec(Publication(id="p", year=2000, citation_count=1),
                             Publication(id="p", year=2001, citation_count=2)))


def test_event_before_publication_rejected():
    with pytest.raises(RecordValidationError, match="precedes"):
        validate_record(_rec(Publication(
            id="p", year=2005, event_years=(2004,), event_citers=((),))))


def test_publication_without_citation_data_rejected():
    with pytest.raises(RecordValidationError, match="p1"):
        validate_record(_rec(Publication(id="p1", year=2000)))


# ---------------------------------------------------------------------------
# Vector derivation

def test_citation_vector_scientist_d(equal_h_records):
    v = citation_vector(equal_h_records["D"])
    assert v.counts == (200, 20, 20, 19, 17, 16, 14, 14, 10, 10)


def test_tie_break_is_deterministic():
    record = _rec(Publication(id="later", year=2005, citation_count=5),
                  Publication(id="early", year=2001, citation_count=5))
    v = citation_vector(record)
    assert v.counts == (5, 5)
    assert v.publication_ids == ("early", "later")


def test_tie_break_same_year_uses_id():
    record = _rec(Publication(id="b", year=2001, citation_count=5),
                  Publication(id="a", year=2001, citation_count=5))
    assert citation_vector(record).publication_ids == ("a", "b")


@given(st.lists(st.integers(min_value=0, max_value=50), max_size=20))
def test_vector_permutation_invariant(counts):
    pubs = [Publication(id=f"p{i}", year=2000 + (i % 5), citation_count=c)
            for i, c in enumerate(counts)]
    base = citation_vector(_rec(*pubs))
    shuffled = list(pubs)
    random.Random(7).shuffle(shuffled)
    assert citation_vector(_rec(*shuffled)).counts == base.counts


def test_vector_applies_self_citation_filter():
    owner = "Olive Owner"
    record = _rec(Publication(id="p", year=2000, event_years=(2001,) * 7,
                              event_citers=((owner,),) * 2 + (("Someone Else",),) * 5),
                  owner=owner)
    config = IndexConfig(self_citation_mode="exclude_own")
    assert citation_vector(record, config).counts == (5,)
    assert citation_vector(record).counts == (7,)


# ---------------------------------------------------------------------------
# Self-citation filtering

def _xy_paper_record(owner=None):
    return _rec(Publication(id="p", year=2000, authors=("X", "Y"), event_years=(2001,) * 3,
                            event_citers=(("X",), ("Z",), ("Y",))), owner=owner)


def test_filter_include_is_identity():
    record = _xy_paper_record()
    assert filter_self_citations(record, "include") is record


def test_filter_exclude_coauthor():
    filtered = filter_self_citations(_xy_paper_record(), "exclude_coauthor")
    assert filtered.publications[0].citations() == 1


def test_filter_exclude_own():
    filtered = filter_self_citations(_xy_paper_record(owner="X"), "exclude_own")
    assert filtered.publications[0].citations() == 2


def test_filter_matching_ignores_case_and_whitespace():
    record = _rec(Publication(id="p", year=2000, event_years=(2001,),
                              event_citers=(("  olive OWNER ",),)),
                  owner="Olive Owner")
    filtered = filter_self_citations(record, "exclude_own")
    assert filtered.publications[0].citations() == 0


def test_filter_counts_only_is_fidelity_error():
    record = _rec(Publication(id="p", year=2000, citation_count=3), owner="X")
    with pytest.raises(FidelityError):
        filter_self_citations(record, "exclude_own")


def test_exclude_own_requires_owner():
    with pytest.raises(FidelityError, match="owner_name"):
        filter_self_citations(_xy_paper_record(), "exclude_own")


@given(st.lists(st.lists(st.sampled_from(["X", "Y", "Z", "W"]), max_size=3),
                max_size=15))
def test_exclude_coauthor_removes_superset_of_exclude_own(citing_lists):
    record = _rec(Publication(id="p", year=2000, authors=("X", "Y"),
                              event_years=(2001,) * len(citing_lists),
                              event_citers=tuple(map(tuple, citing_lists))), owner="X")
    n_inc = filter_self_citations(record, "include").publications[0].citations()
    n_own = filter_self_citations(record, "exclude_own").publications[0].citations()
    n_co = filter_self_citations(record, "exclude_coauthor").publications[0].citations()
    assert n_co <= n_own <= n_inc


@given(st.none() | st.sampled_from(AUTHOR_NAMES), event_publications(),
       st.sampled_from(["exclude_own", "exclude_coauthor"]))
# no owner under exclude_coauthor, and each citer an author of the other
# publication only: every citation is kept
@example(None, [(2000, ("Ann Lee",), [(2001, ("BO CHEN",))]),
                (2000, ("Bo Chen",), [(2002, (" ann lee", "Cy Diaz"))])], "exclude_coauthor")
# the owner cites under a spelling equal to theirs after case-folding alone
@example("JO STRASSE ", [(2000, (), [(2001, ("Jo Straße",)), (2001, ("Cy Diaz",))])],
         "exclude_own")
def test_filter_matches_oracle(owner, pubs, mode):
    record = event_record(owner, pubs)
    if mode == "exclude_own" and owner is None:
        with pytest.raises(FidelityError, match="owner_name"):
            filter_self_citations(record, mode)
        return
    filtered = filter_self_citations(record, mode)
    assert [[(e.year, e.citing_authors) for e in pub.citation_events]
            for pub in filtered.publications] == [
        oracle_kept_events(authors, events, owner, mode) for _, authors, events in pubs]
    assert [(p.id, p.year, p.authors) for p in filtered.publications] == [
        (p.id, p.year, p.authors) for p in record.publications]


# ---------------------------------------------------------------------------
# Totals / now_year

def test_totals_classified_ace(classified_records):
    assert totals(classified_records["ACE"]) == (20, 200)


def test_totals_empty():
    assert totals(_rec()) == (0, 0)


def test_totals_scientist_g(equal_h_records):
    assert totals(equal_h_records["G"]) == (10, 185)


def test_now_year_defaults_to_latest_anywhere():
    record = _rec(Publication(id="p", year=2000, event_years=(2009,), event_citers=((),)))
    assert resolve_now_year(record) == 2009
    assert resolve_now_year(record, IndexConfig(now_year=2012)) == 2012


def test_now_year_before_publication_is_domain_error():
    from citemetrics import DomainError
    record = _rec(Publication(id="p", year=2005, citation_count=0))
    with pytest.raises(DomainError):
        resolve_now_year(record, IndexConfig(now_year=2004))


# ---------------------------------------------------------------------------
# Round trip property

records_strategy = st.builds(
    lambda pubs, owner: CitationRecord(
        entity="E", kind="researcher", owner_name=owner,
        publications=tuple(
            Publication(id=f"p{i}", year=2000,
                        authors=tuple(authors),
                        author_count=(len(authors) + extra) if (authors or extra) else None,
                        citation_count=len(events) if with_count else None,
                        event_years=tuple(2000 + o for o, _ in events),
                        event_citers=tuple(tuple(cits) for _, cits in events))
            for i, (authors, extra, with_count, events) in enumerate(pubs))),
    st.lists(st.tuples(st.lists(st.sampled_from(["A", "B"]), max_size=2),
                       st.integers(min_value=0, max_value=2),
                       st.booleans(),
                       st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                                          st.lists(st.sampled_from(["C", "D"]),
                                                   max_size=2)),
                                max_size=4)),
             max_size=5),
    st.sampled_from([None, "A"]))


@given(records_strategy)
def test_serialize_parse_round_trip(record):
    validate_record(record)
    assert record_from_dict(record_to_dict(record)) == record


# ---------------------------------------------------------------------------
# Parser messages, round trips and the slotted record model

_EVENTS_HEADER = "pub_id,pub_year,author_count,cite_year,citing_authors\n"
_COUNTS_HEADER = "id,year,author_count,citation_count\n"


@pytest.mark.parametrize("body, line, message", [
    (_EVENTS_HEADER + "p1,2000,2,2001\n", 2, "wrong number of columns"),
    (_EVENTS_HEADER + "p1,2000,2,2001,A,extra\n", 2, "wrong number of columns"),
    (_EVENTS_HEADER + "p1,2000,2,2001,\n\n\np1,2000,2,x,\n", 3,
     "field 'cite_year' is not an integer: 'x'"),
    (_EVENTS_HEADER + "p1,2000,2,2001,\np1, 2000 ,2,2002,\np1,1999,2,2002,\n", 4,
     "publication 'p1' repeats with different pub_year/author_count"),
    (_EVENTS_HEADER + "p1,2000,2,2001,\np1,2000,3,2002,\n", 3,
     "publication 'p1' repeats with different pub_year/author_count"),
    (_EVENTS_HEADER + "p1,2000,2,2001,\np1,20x0,2,2002,\n", 3,
     "field 'pub_year' is not an integer: '20x0'"),
    (_EVENTS_HEADER + "p1,2000,2,20x1,\n", 2, "field 'cite_year' is not an integer: '20x1'"),
    (_EVENTS_HEADER + "p1, ,2,2001,\n", 2, "missing value for 'pub_year'"),
    (_COUNTS_HEADER + "p1,2000,1\n", 2, "wrong number of columns"),
    (_COUNTS_HEADER + "p1,2000,1,3\n\np2,2000,1,\n", 3, "missing value for 'citation_count'"),
    ("", 1, "unrecognized CSV header None"),
    ("\ufeff" + _COUNTS_HEADER + "p1,2000,1,3\n", 1,
     "unrecognized CSV header ['\\ufeffid', 'year', 'author_count', 'citation_count']"),
    ("entity,n_p,h\na,10,3\n", 1, "unrecognized CSV header ['entity', 'n_p', 'h']"),
], ids=["short-row", "long-row", "blank-line-before-bad-row", "repeated-pub-year",
        "repeated-author-count", "repeated-bad-pub-year", "bad-cite-year", "blank-pub-year",
        "counts-short-row", "counts-blank-line", "empty-file", "bom-header", "cohort-header"])
def test_csv_parse_messages_are_pinned(tmp_path, body, line, message):
    path = tmp_path / "rec.csv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(RecordParseError) as exc:
        parse_record(path)
    assert str(exc.value) == f"{path}: line {line}: {message}"


def test_events_csv_repeats_compare_parsed_values(tmp_path):
    path = tmp_path / "rec.csv"
    path.write_text(_EVENTS_HEADER + "p1,2000,2,2001, A ;;B\n p1 , 2000,02, 2002 ,\n"
                    "p2,2001,,,\n")
    p1, p2 = parse_record(path).publications
    assert p1 == Publication(id="p1", year=2000, author_count=2, event_years=(2001, 2002),
                             event_citers=(("A", "B"), ()))
    assert p2 == Publication(id="p2", year=2001, event_years=(), event_citers=())


@pytest.mark.parametrize("event, message", [
    (5, "must be an object"),
    ({"year": 2001, "when": 1}, "unknown field 'when'"),
    ({"year": 2001, "citing_authors": ["A"], "when": 1}, "unknown field 'when'"),
    ({"year": True}, "field 'year' must be an integer"),
    ({"citing_authors": []}, "field 'year' must be an integer"),
    ({"year": 2001, "citing_authors": "A"}, "field 'citing_authors' must be a list of strings"),
    ({"year": 2001, "citing_authors": ["A", 1]},
     "field 'citing_authors' must be a list of strings"),
    ({"year": 2001, "citing_authors": None}, "field 'citing_authors' must be a list of strings"),
], ids=["not-object", "unknown-field", "unknown-third-field", "bool-year", "no-year", "authors-string",
        "authors-mixed", "authors-null"])
def test_json_event_messages_are_pinned(tmp_path, event, message):
    path = tmp_path / "rec.json"
    path.write_text(json.dumps({"entity": "E", "publications": [
        {"id": "p", "year": 2000, "citation_events": [{"year": 2000}, event]}]}))
    with pytest.raises(RecordParseError) as exc:
        parse_record(path)
    assert str(exc.value) == f"{path}: publications[0].citation_events[1]: {message}"


def test_json_events_accept_subclasses_in_memory():
    class Name(str):
        pass

    class Event(dict):
        pass

    data = {"entity": "E", "publications": [{"id": "p", "year": 2000, "citation_events": [
        Event(year=2001), {"year": 2002, "citing_authors": [Name("A")]}]}]}
    (pub,) = record_from_dict(data).publications
    assert pub.citation_events == (CitationEvent(2001), CitationEvent(2002, ("A",)))


@pytest.mark.parametrize("years, message", [
    ((2001, 1999, 2 ** 63), "citation event year 1999 precedes publication year 2000"),
    ((2001, 2 ** 63, 1999), "citation event year does not fit in a signed 64-bit integer"),
])
def test_first_failing_event_is_named(years, message):
    pub = Publication(id="p", year=2000, event_years=years, event_citers=((),) * len(years))
    with pytest.raises(RecordValidationError) as exc:
        validate_record(_rec(pub))
    assert str(exc.value) == f"publication 'p': {message}"


def test_event_columns_of_different_lengths_are_rejected():
    pub = Publication(id="p", year=2000, event_years=(2001, 2002), event_citers=((),))
    with pytest.raises(RecordValidationError) as exc:
        validate_record(_rec(pub))
    assert str(exc.value) == "publication 'p': 2 event years but 1 citing-author lists"


def test_event_years_without_event_citers_are_rejected():
    pub = Publication(id="p", year=2000, event_years=(2001, 2002))
    with pytest.raises(RecordValidationError) as exc:
        validate_record(_rec(pub))
    assert str(exc.value) == "publication 'p': 2 event years but no citing-author lists"


@pytest.mark.parametrize("now_year", [2010.5, "2010", True, 2 ** 63, -2 ** 63 - 1],
                         ids=["float", "str", "bool", "above-int64", "below-int64"])
def test_now_year_must_be_a_plain_int64(now_year):
    with pytest.raises(ValueError, match="^now_year must be a signed 64-bit integer$"):
        IndexConfig(now_year=now_year)


def test_now_year_is_stored_as_a_plain_int():
    import numpy as np
    from citemetrics.report import compute_report, render_json, report_to_jsonable
    config = IndexConfig(now_year=np.int64(2010))
    assert type(config.now_year) is int and config.now_year == 2010
    report = compute_report(_rec(Publication(id="p", year=2000, citation_count=3)), config,
                            indices=["h"])
    assert json.loads(render_json(report_to_jsonable(report)))["config"]["now_year"] == 2010
    for edge in (-2 ** 63, 2 ** 63 - 1):
        assert IndexConfig(now_year=edge).now_year == edge


@pytest.mark.parametrize("call, message", [
    (lambda: IndexConfig(self_citation_mode="exclude_all"),
     "unknown self_citation_mode 'exclude_all'"),
    (lambda: filter_self_citations(_rec(), "exclude_all"),
     "unknown self_citation_mode 'exclude_all'"),
    (lambda: core.g_index([3, 1], "other"), "unknown g convention 'other'"),
], ids=["config-mode", "filter-mode", "g-convention"])
def test_an_unknown_mode_or_convention_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


_CSV_TEXT = st.text(alphabet='Ab,"x. ', min_size=1, max_size=5).map(str.strip).filter(bool)

_round_trip_pubs = st.lists(
    st.tuples(st.integers(min_value=1990, max_value=2000),
              st.lists(st.text(alphabet="ABx. ", min_size=1, max_size=4)
                       .map(str.strip).filter(bool), max_size=3),
              st.one_of(st.none(), st.integers(min_value=0, max_value=2)),
              st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                                 st.lists(_CSV_TEXT.filter(lambda a: ";" not in a),
                                          max_size=3)),
                       max_size=4)),
    max_size=6)


@given(ids=st.lists(_CSV_TEXT, unique=True, min_size=6, max_size=6), pubs=_round_trip_pubs,
       owner=st.sampled_from([None, "A"]))
def test_write_parse_round_trips_in_every_layout(tmp_path_factory, ids, pubs, owner):
    pubs = [(pid, year, tuple(authors),
             None if extra is None else len(authors) + max(extra, 1 - len(authors)),
             tuple(year + offset for offset, _ in events),
             tuple(tuple(citing) for _, citing in events))
            for pid, (year, authors, extra, events) in zip(ids, pubs)]
    out = tmp_path_factory.mktemp("round_trip")

    record = CitationRecord(entity="E", kind="journal", owner_name=owner, publications=tuple(
        Publication(id=pid, year=year, authors=authors, author_count=count,
                    citation_count=len(years) if count else None, event_years=years,
                    event_citers=citers)
        for pid, year, authors, count, years, citers in pubs))
    write_record(record, out / "E.json")
    assert parse_record(out / "E.json") == record

    with open(out / "events.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_EVENTS_HEADER.strip().split(","))
        for pid, year, _, count, years, citers in pubs:
            writer.writerows([pid, year, count, cite_year, ";".join(citing)]
                             for cite_year, citing in zip(years, citers))
            if not years:
                writer.writerow([pid, year, count, "", ""])
    assert parse_record(out / "events.csv") == _rec(*(
        Publication(id=pid, year=year, author_count=count, event_years=years,
                    event_citers=citers)
        for pid, year, _, count, years, citers in pubs), entity="events")

    with open(out / "counts.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_COUNTS_HEADER.strip().split(","))
        writer.writerows([pid, year, count, len(years)] for pid, year, _, count, years, _ in pubs)
    assert parse_record(out / "counts.csv") == _rec(*(
        Publication(id=pid, year=year, author_count=count, citation_count=len(years))
        for pid, year, _, count, years, _ in pubs), entity="counts")


def test_record_model_is_slotted_and_frozen():
    event = CitationEvent(2001, ("A",))
    pub = Publication(id="p", year=2000, authors=("A",), event_years=(2001,),
                      event_citers=(("A",),))
    for obj, twin in ((event, CitationEvent(2001, ("A",))),
                      (pub, Publication(id="p", year=2000, authors=("A",), event_years=(2001,),
                                        event_citers=(("A",),)))):
        assert not hasattr(obj, "__dict__")
        assert obj == twin and hash(obj) == hash(twin) and len({obj, twin}) == 1
        assert pickle.loads(pickle.dumps(obj)) == obj
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.year = 1999
        # A name that is not a field has no slot; the frozen __setattr__
        # refuses it with TypeError on some Python versions.
        with pytest.raises((AttributeError, TypeError)):
            obj.note = "x"
    assert dataclasses.replace(event, year=2002) == CitationEvent(2002, ("A",))
    moved = dataclasses.replace(pub, year=1999)
    assert (moved.year, moved.event_years, moved.event_citers, pub.year) == (
        1999, (2001,), (("A",),), 2000)
    assert moved.citation_events == (event,)
    assert CitationEvent(2001, ("A",)) != CitationEvent(2001)


def test_publication_is_built_by_its_fields_alone():
    assert [f.name for f in dataclasses.fields(Publication)] == [
        "id", "year", "authors", "author_count", "citation_count", "event_years",
        "event_citers"]
    pub = Publication("p", 2000, ("A",), 2, 1, (2001,), (("B",),))
    assert pub == Publication(id="p", year=2000, authors=("A",), author_count=2,
                              citation_count=1, event_years=(2001,), event_citers=(("B",),))
    assert pub.citation_events == (CitationEvent(2001, ("B",)),)
    with pytest.raises(TypeError):
        Publication(id="p", year=2000, citation_events=(CitationEvent(2001),))
    with pytest.raises(TypeError):
        dataclasses.replace(pub, citation_events=())


@given(st.none() | st.sampled_from(AUTHOR_NAMES), event_publications())
def test_columnar_publications_behave_like_event_lists(owner, pubs):
    record = event_record(owner, pubs)
    for pub, (_, _, events) in zip(record.publications, pubs):
        assert pub.citation_events == tuple(CitationEvent(*event) for event in events)
        assert pub.event_years == tuple(year for year, _ in events)
        assert pub.event_citers == tuple(citing for _, citing in events)
    parsed = record_from_dict(record_to_dict(record))
    assert parsed == record and hash(parsed) == hash(record)
    for pub in parsed.publications:
        assert pickle.loads(pickle.dumps(pub)) == pub
        moved = dataclasses.replace(pub, year=pub.year - 1)
        assert (moved.year, moved.event_years, moved.event_citers) == (
            pub.year - 1, pub.event_years, pub.event_citers)
        first = dataclasses.replace(pub, event_years=pub.event_years[:1],
                                    event_citers=pub.event_citers[:1])
        assert first.citation_events == pub.citation_events[:1]
    for mode in ("exclude_own", "exclude_coauthor")[owner is None:]:
        filtered = filter_self_citations(parsed, mode)
        kept = [oracle_kept_events(authors, events, owner, mode)
                for _, authors, events in pubs]
        assert [list(zip(p.event_years, p.event_citers))
                for p in filtered.publications] == kept
        # a publication that loses no event is the parsed one itself
        assert [p is q for p, q in zip(filtered.publications, parsed.publications)] == [
            len(k) == len(events) for k, (_, _, events) in zip(kept, pubs)]


def test_parsed_objects_skip_the_young_generations(tmp_path):
    write_record(_rec(*(Publication(id=f"p{i}", year=2000, event_years=(2001,),
                                    event_citers=(("A",),)) for i in range(50))),
                 tmp_path / "r.json")
    record = parse_record(tmp_path / "r.json")
    young = {id(obj) for generation in (0, 1) for obj in gc.get_objects(generation)}
    assert not any(id(pub) in young for pub in record.publications)


def test_parse_record_keeps_a_callers_frozen_objects_frozen(equal_h_paths):
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        parse_record(equal_h_paths["A"])
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


def test_parse_record_pauses_gc_and_restores_it(tmp_path, monkeypatch, equal_h_paths):
    states = []

    def spy(record):
        states.append(gc.isenabled())
        return validate_record(record)

    monkeypatch.setattr(records, "validate_record", spy)
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            parse_record(equal_h_paths["A"])
            assert gc.isenabled() is enabled
            with pytest.raises(RecordParseError):
                parse_record(bad)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert states == [False, False]


def _event_record_text(n_pubs, seed):
    """A seeded event-level JSON record: co-authored publications with about
    seven citation events each, most naming two citing authors."""
    rnd = random.Random(seed)
    pubs = []
    for i in range(n_pubs):
        year = rnd.randint(1990, 2010)
        pubs.append({"id": f"p{i:05d}", "year": year,
                     "authors": ["Owner"] + [f"Coauthor {rnd.randrange(300):03d}"
                                             for _ in range(rnd.randint(0, 3))],
                     "citation_events": [
                         {"year": rnd.randint(year, 2012),
                          "citing_authors": [f"Reader {rnd.randrange(5000):04d}"
                                             for _ in range(rnd.randint(1, 3))]}
                         for _ in range(rnd.randint(0, 14))]})
    return json.dumps({"entity": "Owner", "owner_name": "Owner", "publications": pubs})


def test_json_parse_peak_is_the_text_plus_the_record(tmp_path):
    # A JSON record is decoded one publication at a time, so parsing holds
    # the file text and the record it builds, never the whole JSON tree.
    path = tmp_path / "large.json"
    path.write_text(_event_record_text(1000, seed=7), encoding="utf-8")
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        record = parse_record(path)
        held, peak = (size - start for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(record.publications) == 1000
    text_size = path.stat().st_size
    assert peak < text_size + 1.5 * held, (text_size, held, peak)


def test_json_parse_peak_does_not_grow_with_the_text(tmp_path):
    # The text is walked through a window, so the same record written with
    # deep indentation peaks within two windows of its compact form: the
    # text is ASCII, one byte a character.  A first, untraced parse fills
    # the interpreter's free lists, as a parse leaves them, for both.
    data = json.loads(_event_record_text(1000, seed=7))
    sizes, peaks = [], []
    for indent in (None, 8):
        path = tmp_path / f"indent-{indent}.json"
        path.write_text(json.dumps(data, indent=indent), encoding="utf-8")
        sizes.append(path.stat().st_size)
        parse_record(path)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            record = parse_record(path)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert len(record.publications) == 1000
        del record
    assert sizes[1] - sizes[0] > 8 * records._WINDOW, sizes
    assert abs(peaks[1] - peaks[0]) < 2 * records._WINDOW, (sizes, peaks)


def test_a_huge_value_takes_logarithmically_many_reads():
    entity = "e" * (4 << 20)
    text = json.dumps({"entity": entity, "publications": []})
    reads, position = [], 0

    def read(size):
        nonlocal position
        reads.append(size)
        position += size
        return text[position - size:position]

    record = records._decode_record(read, "<text>")
    assert record == CitationRecord(entity=entity)
    assert len(reads) <= math.log2(len(text) / records._WINDOW) + 3, reads
