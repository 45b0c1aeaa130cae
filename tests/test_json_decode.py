"""Differential test of the JSON record read: parse_record, which decodes a
record one publication at a time, against the whole-tree read
record_from_dict(json.loads(text)) that it falls back to.  Both must give
an equal record, or the same exception type and message, on re-serialized
records and on texts that probe each branch of the one-at-a-time decoder:
repeated keys, stray separators, whitespace JSON does not allow,
trailing data, a BOM, deep nesting, overlong integers, NaN and a bad
publication after good ones.  The read walks a window of the file's text, so
the same must hold with the window cut to a few characters, wherever its
ends fall."""

import io
import json
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from citemetrics import (CitemetricsError, RecordParseError, parse_record, record_to_dict,
                         records)
from datagen import AUTHOR_NAMES, event_publications, event_record

# Values no record field accepts, as JSON text.
_ODD_VALUES = ("[" * 5000 + "]" * 5000, "[" * 20 + "]" * 20, "9" * 5000, "NaN",
               "-Infinity", "2001.0", "true", "null", '"2001"', '"planet"', "{}", "[]")
# Publications that fail a check, from the JSON layer to validation.
_BAD_PUBLICATIONS = (
    '{"id": "bad", "year": %s, "citation_count": 1}',
    '{"id": "bad", "year": 2000, "citation_events": [{"year": 2001}, {"year": %s}]}',
    '{"id": "bad", "year": 2000, "authors": %s, "citation_count": 1}',
    '{"id": "p0", "year": 2000, "citation_count": 1%.0s}',  # a repeated id
    '{"id": "bad", "year": 2000, "citation_count": -1%.0s}',
    "%s",
)
_SPACE = st.text(" \t\n\r", max_size=3)
_MUTATIONS = ("none", "repeated-key", "odd-field", "unknown-field", "bad-publication",
              "empty-publication", "odd-publications", "odd-space", "trailing-data", "bom",
              "truncated")


def _whole_tree_read(path):
    """parse_record as it reads a file when the one-at-a-time decoder
    declines it: record_from_dict(json.loads(text))."""
    with mock.patch.object(records, "_decode_record", lambda read, source: None):
        return parse_record(path)


def _outcome(read, path):
    try:
        return read(path)
    except CitemetricsError as exc:
        return type(exc), str(exc)


@st.composite
def _record_texts(draw):
    """(mutation, JSON text) of a record re-serialized with random
    whitespace, separators and key order, then perhaps broken."""
    data = record_to_dict(event_record(draw(st.none() | st.sampled_from(AUTHOR_NAMES)),
                                       draw(event_publications())))
    data["kind"] = draw(st.sampled_from(records.KINDS))
    indent = draw(st.sampled_from([None, 0, 1, 2, "\t"]))
    item_sep, key_sep = draw(st.sampled_from([(", ", ": "), (",", ":"), (" ,\r\n", " :\t")]))

    def dump(value):
        return json.dumps(value, indent=indent, separators=(item_sep, key_sep))

    pubs = [dump(pub) for pub in data.pop("publications")]
    pairs = draw(st.permutations([(key, dump(value)) for key, value in data.items()]))
    pairs.insert(draw(st.sampled_from([0, len(pairs), draw(st.integers(0, len(pairs)))])),
                 ("publications", None))
    mutation = draw(st.sampled_from(_MUTATIONS))
    odd = draw(st.sampled_from(_ODD_VALUES))
    if mutation == "repeated-key":
        key = draw(st.sampled_from(["publications", "entity", "kind", "owner_name"]))
        value = None if key == "publications" else draw(st.sampled_from(['"E"', "null", odd]))
        pairs.insert(draw(st.integers(0, len(pairs))), (key, value))
    elif mutation == "odd-field":
        index = draw(st.integers(0, len(pairs) - 1))
        pairs[index] = (pairs[index][0], odd)
    elif mutation == "unknown-field":
        pairs.insert(draw(st.integers(0, len(pairs))), ("venue", odd))
    elif mutation == "bad-publication":
        bad = draw(st.sampled_from(_BAD_PUBLICATIONS)) % odd
        pubs.insert(draw(st.sampled_from([len(pubs), draw(st.integers(0, len(pubs)))])), bad)
    elif mutation == "empty-publication":  # a stray separator
        pubs.insert(draw(st.sampled_from([len(pubs), draw(st.integers(0, len(pubs)))])), "")

    gap = draw(st.sampled_from(["\x0c", "\xa0"])) if mutation == "odd-space" else draw(_SPACE)
    array = "[" + gap + (item_sep + gap).join(pubs) + draw(_SPACE) + "]"
    if mutation == "odd-publications":
        array = odd
    text = draw(_SPACE) + "{" + gap + (item_sep + gap).join(
        json.dumps(key) + key_sep + (array if value is None else value)
        for key, value in pairs) + draw(_SPACE) + "}" + draw(_SPACE)
    if mutation == "trailing-data":
        text += draw(st.sampled_from(["x", "{}", "]", "0", ",", "\x00", "\x0c"]))
    elif mutation == "bom":
        text = "\ufeff" + text
    elif mutation == "truncated":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return mutation, text


@given(_record_texts())
def test_json_read_matches_the_whole_tree_read(tmp_path_factory, case):
    mutation, text = case
    path = tmp_path_factory.mktemp("decode") / "record.json"
    path.write_text(text, encoding="utf-8")
    outcome = _outcome(parse_record, path)
    assert outcome == _outcome(_whole_tree_read, path)
    if mutation == "none":  # a well-formed record takes the one-at-a-time path
        assert records._decode_record(io.StringIO(text).read, str(path)) == outcome


@given(_record_texts(), st.sampled_from((1, 2, 3, 7)))
def test_json_read_through_a_small_window_matches_the_whole_tree_read(
        tmp_path_factory, case, window):
    mutation, text = case
    path = tmp_path_factory.mktemp("decode") / "record.json"
    path.write_text(text, encoding="utf-8")
    with mock.patch.object(records, "_WINDOW", window):
        outcome = _outcome(parse_record, path)
        assert outcome == _outcome(_whole_tree_read, path)
        if mutation == "none":
            assert records._decode_record(io.StringIO(text).read, str(path)) == outcome


_PUB_TEXT = '{"id": "%s", "year": 2000, "citation_count": 1}'


@pytest.mark.parametrize("publications, message", [
    ("{}", "{path}: field 'publications' must be a list"),
    ("5", "{path}: field 'publications' must be a list"),
    ("[" + _PUB_TEXT % "a" + " " + _PUB_TEXT % "b" + "]",
     "{path}: line 1: Expecting ',' delimiter"),
], ids=["object", "number", "missing-comma"])
def test_the_json_read_gives_the_whole_tree_message(tmp_path, publications, message):
    path = tmp_path / "record.json"
    path.write_text('{"entity": "E", "publications": %s}' % publications, encoding="utf-8")
    assert _outcome(parse_record, path) == _outcome(_whole_tree_read, path) == (
        RecordParseError, message.format(path=path))


def test_a_repeated_key_keeps_its_last_value():
    text = ('{"entity": "A", "publications": [], "entity": "B", "publications": ['
            + _PUB_TEXT % "a" + "]}")
    walked = records._decode_record(io.StringIO(text).read, "<text>")
    assert walked is not None  # the one-at-a-time path reads this text
    assert walked == records.record_from_dict(json.loads(text))
    assert walked.entity == "B" and len(walked.publications) == 1


def test_equal_years_and_author_names_are_stored_once_per_record(tmp_path):
    # Every publication year, event year and author name of a record read
    # from JSON is one shared object per distinct value, on both read paths
    # and in record_from_dict.  Citing-author names are not shared.
    data = {"entity": "E", "owner_name": "Ann", "publications": [
        {"id": f"p{i}", "year": 2000 + i % 3, "authors": ["Ann", f"Bo {i % 2}"],
         "citation_events": [{"year": 2003 + j % 4, "citing_authors": [f"Cy {j % 2}"]}
                             for j in range(5)]}
        for i in range(6)]}
    text = json.dumps(data)
    path = tmp_path / "record.json"
    path.write_text(text, encoding="utf-8")
    walked = records._decode_record(io.StringIO(text).read, str(path))
    assert walked is not None  # the one-at-a-time path reads this text
    for record in (walked, _whole_tree_read(path), records.record_from_dict(data)):
        assert record == walked
        pubs = record.publications
        years = [p.year for p in pubs] + [y for p in pubs for y in p.event_years]
        names = [a for p in pubs for a in p.authors]
        assert len({id(v) for v in years}) == len(set(years)) == 7
        assert len({id(v) for v in names}) == len(set(names)) == 3


def _walked(path):
    """parse_record(path), failing if the window walk declines the file."""
    with mock.patch.object(records, "record_from_dict", side_effect=AssertionError("declined")):
        return parse_record(path)


_PUB = ('{"id": "p1", "year": 2001, "authors": ["Ann"], "author_count": 12345, '
        '"citation_events": [{"year": 2003, "citing_authors": ["Bo"]}, {"year": 2004}]}')
# Puts the "é" after it across the end of the text layer's first 8 KiB read.
_LONG = "x" * (8192 - len('{"entity": "') - 1)


@pytest.mark.parametrize("text, windows", [
    # numbers in a publication, and a top-level number that a later key replaces
    ('{"entity": 1234567, "publications": [%s], "entity": "E"}' % _PUB, None),
    ('{"entity": "Caf\\u00e9 \\"q\\" \\ud83d\\ude00 \\\\", "owner_name": "Ann é € '
     '\U0001f600", "publications": [%s]}' % _PUB, None),
    ('{"entity": "E", "owner_name": null, "publications": [%s, %s]}'
     % (_PUB, _PUB.replace('"p1"', '"p2"')), None),
    (json.dumps({"entity": "E", "publications": [json.loads(_PUB)]},
                indent=1).replace("\n", "\r\n"), None),
    ('{"entity": "E", "publications": [%s]} \r\n\t \n  ' % _PUB, None),
    ('{"entity": "%sé€\U0001f600", "publications": []}' % _LONG, (1, 7, 8190, 8191)),
], ids=["number", "escapes-and-multibyte", "null", "crlf", "trailing-space",
        "multibyte-across-file-reads"])
def test_a_value_split_between_reads_is_read_whole(tmp_path, text, windows):
    # Every window size up to the text's length puts a window end at every
    # character of it; each read must still take the walk and give the record.
    path = tmp_path / "record.json"
    path.write_bytes(text.encode("utf-8"))
    expected = records.record_from_dict(json.loads(text), str(path))
    for window in windows or range(1, len(text) + 2):
        with mock.patch.object(records, "_WINDOW", window):
            assert _walked(path) == expected, window
            assert records._decode_record(io.StringIO(text).read, str(path)) == expected


@pytest.mark.parametrize("text", [
    '{"entity": "E", "kind": true, "publications": []}',
    '{"entity": 1234567, "publications": []}',
    '{"entity": "E", "publications": [%s, 123]}' % _PUB,
    '{"entity": "E", "publications": []} \r\n x',
    '{"entity": "E", "publications": [%s]' % _PUB,
    '{}',
    '{"entity" "E", "publications": []}',
    '{"entity": "E", "publications": [],}',
], ids=["true", "number", "number-publication", "trailing-data", "truncated", "no-field",
        "no-colon", "trailing-comma"])
def test_a_declined_text_split_between_reads_gets_the_whole_tree_message(tmp_path, text):
    path = tmp_path / "record.json"
    path.write_bytes(text.encode("utf-8"))
    expected = _outcome(_whole_tree_read, path)
    assert expected[0] is RecordParseError
    for window in range(1, len(text) + 2):
        with mock.patch.object(records, "_WINDOW", window):
            assert _outcome(parse_record, path) == expected, window
