"""Parse parity golden: a seeded set of valid and malformed record files,
each pinned to what parse_record makes of it.  A file that parses is pinned
by a digest of record_to_dict; one that does not, by its exception type and
message (with the file's path written as <file>).  The cases stress the
event layer: bad event types and keys, bad citing_authors, event years
before the publication or past 2**63 - 1, first failures mid-list, short and
long CSV rows and publications repeated with a different pub_year.

Regenerate the golden only on purpose, with
``PYTHONPATH=src python tests/test_parse_parity.py``."""

import hashlib
import json
import random
from pathlib import Path

from citemetrics import CitemetricsError, parse_record, record_to_dict

GOLDEN = Path(__file__).resolve().parent / "golden" / "parse_parity.json"

_NAMES = ("Ann Lee", " ann lee", "Bo Chen", "BO CHEN", "Cy Diaz", "", "  ", "Dee;Ed")
_BIG = 2 ** 63

# Corrupt or out-of-range citation events, as they appear in a JSON file.
_BAD_EVENTS = (
    5, "2001", None, [2001], {"year": 2001, "when": 1}, {"who": []},
    {"year": 2001, "citing_authors": ["A"], "x": 1}, {"year": True}, {"year": 2001.0},
    {"year": "2001"}, {"year": None}, {}, {"citing_authors": ["A"]},
    {"year": 2001, "citing_authors": "A"}, {"year": 2001, "citing_authors": ["A", 1]},
    {"year": 2001, "citing_authors": None}, {"year": 2001, "citing_authors": {"A": 1}},
    {"year": 2001, "citing_authors": [["A"]]}, {"year": 1990}, {"year": _BIG},
    {"year": _BIG + 5}, {"year": -_BIG},
)


def _citers(rnd):
    return [rnd.choice(_NAMES) for _ in range(rnd.randint(0, 3))]


def _event(rnd, year):
    event = {"year": rnd.randint(year, year + 6)}
    if rnd.random() < 0.7:
        event["citing_authors"] = _citers(rnd)
    return event


def _publication(rnd, i):
    year = rnd.randint(1995, 2005)
    pub = {"id": f"p{i}", "year": year}
    if rnd.random() < 0.6:
        pub["authors"] = [rnd.choice(_NAMES[:5]) for _ in range(rnd.randint(1, 3))]
    if rnd.random() < 0.4:
        pub["author_count"] = len(pub.get("authors", ())) + rnd.randint(0, 2) or 1
    shape = rnd.randrange(3)
    if shape == 0:
        pub["citation_count"] = rnd.randint(0, 9)
    else:
        pub["citation_events"] = [_event(rnd, year) for _ in range(rnd.randint(0, 8))]
        if shape == 2:
            pub["citation_count"] = len(pub["citation_events"])
    return pub


def _record(rnd):
    record = {"entity": f"E{rnd.randint(0, 99)}",
              "publications": [_publication(rnd, i) for i in range(rnd.randint(1, 6))]}
    if rnd.random() < 0.5:
        record["owner_name"] = rnd.choice(_NAMES[:5])
    if rnd.random() < 0.3:
        record["kind"] = rnd.choice(["journal", "topic", "journal", "nation"])
    return record


def _event_pubs(record):
    return [p for p in record["publications"] if p.get("citation_events")]


def _json_cases(rnd):
    for k in range(70):
        yield f"valid_{k:03d}.json", _record(rnd)
    for k, bad in enumerate(_BAD_EVENTS * 5):
        record = _record(rnd)
        pubs = _event_pubs(record)
        if not pubs:
            record["publications"][0] = pub = {"id": "p0", "year": 2000}
            pub["citation_events"] = [{"year": 2001}, {"year": 2002}]
            pubs = [pub]
        events = rnd.choice(pubs)["citation_events"]
        events.insert(rnd.randint(0, len(events)), bad)
        if k >= len(_BAD_EVENTS):  # a second failure further on
            events.insert(rnd.randint(len(events) - 1, len(events)),
                          rnd.choice(_BAD_EVENTS))
        yield f"bad_event_{k:03d}.json", record
    for k, (field, value) in enumerate([
            ("citation_events", {"year": 2001}), ("citation_events", None),
            ("citation_count", -1), ("citation_count", True), ("year", _BIG),
            ("author_count", 0), ("authors", ["A", 2]), ("id", " "), ("extra", 1),
            ("citation_count", 99)] * 2):
        record = _record(rnd)
        rnd.choice(record["publications"])[field] = value
        yield f"bad_pub_{k:03d}.json", record


def _csv_row(values):
    return ",".join(str(v) for v in values)


def _events_rows(rnd, pub_id, year, author_count):
    rows = [[pub_id, year, author_count, rnd.randint(year, year + 6),
             ";".join(_citers(rnd))] for _ in range(rnd.randint(0, 6))]
    return rows or [[pub_id, year, author_count, "", ""]]


def _events_csv(rnd, breakage):
    rows = []
    for i in range(rnd.randint(1, 5)):
        year = rnd.randint(1995, 2005)
        author_count = rnd.choice(["", 1, 2, 3])
        rows += _events_rows(rnd, f"p{i}", year, author_count)
    rnd.shuffle(rows)
    at = rnd.randrange(len(rows))
    row = list(rows[at])
    if breakage == "short":
        rows[at] = row[:rnd.randint(1, 4)]
    elif breakage == "long":
        rows[at] = row + ["x"] * rnd.randint(1, 2)
    elif breakage == "repeat_year":
        rows.insert(at + 1, [row[0], int(row[1]) + rnd.choice([-1, 1]), *row[2:]])
    elif breakage == "repeat_spaced":
        rows.insert(at + 1, [f" {row[0]} ", f" {row[1]}", *row[2:]])
    elif breakage == "early_cite":
        rows.insert(at, [row[0], row[1], row[2], int(row[1]) - 1, "A"])
    elif breakage == "big_cite":
        rows.insert(at, [row[0], row[1], row[2], _BIG, ""])
    elif breakage == "bad_cite":
        rows.insert(at, [row[0], row[1], row[2], rnd.choice(["x", "20 01", "2001.0"]), ""])
    elif breakage == "blank":
        rows.insert(at, [])
    header = "pub_id,pub_year,author_count,cite_year,citing_authors"
    return "\n".join([header] + [_csv_row(r) for r in rows]) + "\n"


def _counts_csv(rnd, breakage):
    rows = [[f"p{i}", rnd.randint(1995, 2005), rnd.choice(["", 1, 2]), rnd.randint(0, 9)]
            for i in range(rnd.randint(1, 5))]
    at = rnd.randrange(len(rows))
    if breakage == "short":
        rows[at] = rows[at][:rnd.randint(1, 3)]
    elif breakage == "long":
        rows[at] = rows[at] + [1]
    elif breakage == "negative":
        rows[at][3] = -1
    elif breakage == "duplicate":
        rows.append(list(rows[at]))
    header = "id,year,author_count,citation_count"
    return "\n".join([header] + [_csv_row(r) for r in rows]) + "\n"


def cases():
    """(file name, file text) for every case, in a fixed order."""
    rnd = random.Random(20_081)
    out = [(name, json.dumps(record)) for name, record in _json_cases(rnd)]
    for breakage in ("none", "short", "long", "repeat_year", "repeat_spaced",
                     "early_cite", "big_cite", "bad_cite", "blank"):
        out += [(f"events_{breakage}_{k}.csv", _events_csv(rnd, breakage)) for k in range(8)]
    for breakage in ("none", "short", "long", "negative", "duplicate"):
        out += [(f"counts_{breakage}_{k}.csv", _counts_csv(rnd, breakage)) for k in range(5)]
    return out


def outcome(path):
    """What parse_record makes of the file at path, as one line."""
    try:
        record = parse_record(path)
    except CitemetricsError as exc:
        return f"{type(exc).__name__}: {str(exc).replace(str(path), '<file>')}"
    text = json.dumps(record_to_dict(record), sort_keys=True)
    return "ok " + hashlib.sha256(text.encode()).hexdigest()[:16]


def outcomes(directory):
    result = {}
    for name, text in cases():
        path = Path(directory) / name
        path.write_text(text, encoding="utf-8")
        result[name] = outcome(path)
    return result


def test_every_case_parses_as_pinned(tmp_path):
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert outcomes(tmp_path) == pinned


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        GOLDEN.write_text(json.dumps(outcomes(directory), indent=1) + "\n", encoding="utf-8")
