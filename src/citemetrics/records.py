"""Citation-record data model.

Defines the record/publication/event types, file ingestion (JSON and three
CSV layouts: counts and events for records, entity,n_p,h for cohorts, read by
one set of rules), validation, self-citation filtering and the prepared view:
a record filtered, ranked and dated once, whose citation and authored vectors
every index module consumes.  Records are immutable after parsing;
everything here is a pure function of its inputs.

Two data fidelities exist side by side: counts-only records (enough for the
order-statistic indices) and event-level records (required for trend scoring,
per-year windows and self-citation filtering).  Operations that need events
fail loudly with FidelityError instead of silently approximating.
"""

from __future__ import annotations

import csv
import gc
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from pathlib import Path

from .errors import (DomainError, FidelityError, RecordParseError,
                     RecordValidationError, UndefinedInputError)

KINDS = ("researcher", "journal", "institution", "topic")
SELF_CITATION_MODES = ("include", "exclude_own", "exclude_coauthor")
G_CONVENTIONS = ("bounded", "unbounded")
# The documented reasons an index is unavailable for a record.
UNAVAILABLE_ERRORS = (FidelityError, UndefinedInputError, DomainError)

# Every integer a record or config carries must fit a signed 64-bit word;
# larger ones would overflow the float arithmetic of the indices.
INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1


def _plain_count(value, low=0, name="citation count", high=INT64_MAX):
    """value as an int, when it is a plain count: an int or another
    operator.index type but not a bool, from low to high (INT64_MAX unless
    the caller's own arithmetic bounds it).  Anything else is a ValueError
    naming the value.  This is the one rule for the counts and pairs a
    caller hands an index function directly."""
    if isinstance(value, bool):
        raise ValueError(f"{name} {value!r} is a bool, not an integer")
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} {value!r} is not an integer") from None
    if value < low:
        raise ValueError(f"{name} {value} is below {low}")
    if value > high:
        raise ValueError(f"{name} {value} does not fit in a signed 64-bit integer")
    return value


def _finite(compute, what):
    """compute() as a finite float.  Arithmetic that overflows, divides by a
    power that underflowed to zero, or ends in inf/NaN is a DomainError."""
    try:
        value = float(compute())
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"{what} is out of floating-point range") from None
    if not math.isfinite(value):
        raise DomainError(f"{what} is not finite ({value:g})")
    return value


def normalize_author(name):
    """Author identity is exact string equality after trimming and case-folding."""
    return name.strip().casefold()


@dataclass(frozen=True, slots=True)
class CitationEvent:
    """One citation: the year it was made and, optionally, who made it."""

    year: int
    citing_authors: tuple = ()


@dataclass(frozen=True, slots=True)
class Publication:
    """One publication.  Its citation events are stored as two parallel
    columns, event_years (ints) and event_citers (one tuple of citing-author
    names per event), both None for a counts-only publication.  The
    citation_events property builds CitationEvents from the columns on each
    access."""

    id: str
    year: int
    authors: tuple = ()
    author_count: int | None = None
    citation_count: int | None = None
    event_years: tuple | None = None
    event_citers: tuple | None = None

    @property
    def citation_events(self):
        if self.event_years is None:
            return None
        return tuple(map(CitationEvent, self.event_years, self.event_citers))

    @property
    def has_events(self):
        return self.event_years is not None

    def effective_author_count(self):
        if self.author_count is not None:
            return self.author_count
        if self.authors:
            return len(self.authors)
        return None

    def citations(self):
        """Total recorded citations; the event list wins when present."""
        if self.event_years is not None:
            return len(self.event_years)
        if self.citation_count is None:
            raise RecordValidationError(f"publication {self.id!r} carries no citation data")
        return self.citation_count


@dataclass(frozen=True)
class CitationRecord:
    """One evaluated entity (researcher, journal, institution or topic)."""

    entity: str
    kind: str = "researcher"
    owner_name: str | None = None
    publications: tuple = ()


@dataclass(frozen=True)
class IndexConfig:
    """Knobs shared by the index computations.

    now_year defaults to the latest year appearing anywhere in the record as
    read, before any self-citation filtering, which keeps fixture files
    self-contained and gives every index of a report one year.  delta may be
    zero (no ageing), which is what makes the decayed indices collapse onto
    the plain h-index.
    """

    now_year: int | None = None
    gamma: float = 4.0
    delta: float = 1.0
    g_convention: str = "bounded"
    self_citation_mode: str = "include"
    alpha_predictive: float = -0.1
    beta_molinari: float = 0.4

    def __post_init__(self):
        if self.g_convention not in G_CONVENTIONS:
            raise ValueError(f"unknown g_convention {self.g_convention!r}")
        if self.self_citation_mode not in SELF_CITATION_MODES:
            raise ValueError(f"unknown self_citation_mode {self.self_citation_mode!r}")
        if not 0 < self.gamma < float("inf"):  # also rejects NaN
            raise ValueError("gamma must be positive and finite")
        if not 0 <= self.delta < float("inf"):
            raise ValueError("delta must be non-negative and finite")
        for name in ("alpha_predictive", "beta_molinari"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.now_year is not None:
            try:
                now_year = _plain_count(self.now_year, INT64_MIN, "now_year")
            except ValueError:
                raise ValueError("now_year must be a signed 64-bit integer") from None
            object.__setattr__(self, "now_year", now_year)  # a plain int; the class is frozen


@dataclass(frozen=True)
class CitationVector:
    """Citation counts sorted descending, with the source publication ids
    retained rank by rank."""

    counts: tuple
    publication_ids: tuple


@dataclass(frozen=True)
class AuthoredVector:
    """(citation count, author count) integer pairs, citations descending."""

    entries: tuple


def validate_record(record):
    """Check every record invariant; raise RecordValidationError naming the
    offending publication."""
    if record.kind not in KINDS:
        raise RecordValidationError(
            f"record {record.entity!r}: unknown kind {record.kind!r}")
    seen = set()
    for pub in record.publications:
        if not pub.id.strip():
            raise RecordValidationError(f"publication id {pub.id!r} is blank")
        if pub.id in seen:
            raise RecordValidationError(f"duplicate publication id {pub.id!r}")
        seen.add(pub.id)
        for name in ("year", "author_count", "citation_count"):
            value = getattr(pub, name)
            if value is not None and not INT64_MIN <= value <= INT64_MAX:
                raise RecordValidationError(
                    f"publication {pub.id!r}: {name} does not fit in a signed 64-bit integer")
        years = pub.event_years
        if pub.citation_count is None and years is None:
            raise RecordValidationError(
                f"publication {pub.id!r}: needs citation_count or citation_events")
        if pub.citation_count is not None and pub.citation_count < 0:
            raise RecordValidationError(
                f"publication {pub.id!r}: citation_count must be non-negative")
        if years is not None:
            if pub.event_citers is None:
                raise RecordValidationError(
                    f"publication {pub.id!r}: {len(years)} event years but no "
                    "citing-author lists")
            if len(pub.event_citers) != len(years):
                raise RecordValidationError(
                    f"publication {pub.id!r}: {len(years)} event years but "
                    f"{len(pub.event_citers)} citing-author lists")
            if pub.citation_count is not None and pub.citation_count != len(years):
                raise RecordValidationError(
                    f"publication {pub.id!r}: citation_count {pub.citation_count} "
                    f"does not match {len(years)} citation events")
            if years and (min(years) < pub.year or max(years) > INT64_MAX):
                for year in years:  # in order, so the first failing event is named
                    if year > INT64_MAX:  # the year check below bounds it from below
                        raise RecordValidationError(
                            f"publication {pub.id!r}: citation event year does not "
                            "fit in a signed 64-bit integer")
                    if year < pub.year:
                        raise RecordValidationError(
                            f"publication {pub.id!r}: citation event year {year} "
                            f"precedes publication year {pub.year}")
        if pub.author_count is not None and pub.author_count < 1:
            raise RecordValidationError(
                f"publication {pub.id!r}: author_count must be at least 1")
        if pub.authors and pub.author_count is not None and pub.author_count < len(pub.authors):
            raise RecordValidationError(
                f"publication {pub.id!r}: author_count smaller than the author list")
    return record


def resolve_now_year(record, config=None):
    """Observation year actually used: the configured one, or the latest year
    anywhere in the record.  Returns None for a record with no years at all."""
    config = config or IndexConfig()
    pub_years = [p.year for p in record.publications]
    if config.now_year is None:
        return max(pub_years + [max(p.event_years) for p in record.publications
                                if p.event_years], default=None)
    if pub_years and config.now_year < max(pub_years):
        raise DomainError(
            f"now_year {config.now_year} precedes publication year {max(pub_years)}")
    return config.now_year


def require_events(pub, purpose):
    """The publication's citation-event years; FidelityError naming purpose
    when the publication has counts only."""
    if pub.event_years is None:
        raise FidelityError(f"publication {pub.id!r} has no citation events; "
                            f"{purpose} needs event-level data")
    return pub.event_years


def filter_self_citations(record, mode="include"):
    """Drop self-citations and recompute counts.

    exclude_own removes events whose citing authors include the record owner;
    exclude_coauthor removes events whose citing authors intersect the cited
    publication's author list (plus the owner when set, so it always removes
    a superset of exclude_own).
    """
    if mode not in SELF_CITATION_MODES:
        raise ValueError(f"unknown self_citation_mode {mode!r}")
    if mode == "include":
        return record
    owner = normalize_author(record.owner_name) if record.owner_name else None
    if mode == "exclude_own" and owner is None:
        raise FidelityError(
            f"record {record.entity!r}: exclude_own needs owner_name to be set")
    pubs = record.publications
    for pub in pubs:
        require_events(pub, "self-citation filtering")
    # Each publication is decided on its own: an event is a self-citation
    # when one of its citing names normalizes to an identity blocked for
    # this publication.
    new_pubs = []
    for pub in pubs:
        blocked = {owner} if mode == "exclude_own" else {
            owner, *map(normalize_author, pub.authors)}
        keep = [blocked.isdisjoint(map(normalize_author, citers)) for citers in pub.event_citers]
        if all(keep):
            new_pubs.append(pub)
            continue
        years = tuple(compress(pub.event_years, keep))
        new_pubs.append(Publication(
            id=pub.id, year=pub.year, authors=pub.authors, author_count=pub.author_count,
            citation_count=None if pub.citation_count is None else len(years),
            event_years=years, event_citers=tuple(compress(pub.event_citers, keep))))
    return CitationRecord(entity=record.entity, kind=record.kind,
                          owner_name=record.owner_name,
                          publications=tuple(new_pubs))


def citation_vector(record, config=None):
    """Descending citation counts with a fixed tie order (year asc, id asc)
    so reports are reproducible.  Self-citation filtering is applied first,
    when a config is given."""
    return prepare(record, config).vector


def totals(record):
    """(N_p, N_c): publication count and total citations as recorded."""
    n_p = len(record.publications)
    n_c = sum(p.citations() for p in record.publications)
    return n_p, n_c


# ---------------------------------------------------------------------------
# The prepared view

class PreparedRecord:
    """A record with the parts the indices read, each built once, when an
    index first reads it.  A part whose builder raises is not kept: the next
    index that reads it builds it again and gets the same error, so each
    index reports what it would report on its own."""

    def __init__(self, record, config):
        self.record = record
        self.config = config

    @cached_property
    def filtered(self):
        return filter_self_citations(self.record, self.config.self_citation_mode)

    @cached_property
    def ranked(self):
        # The one tie rule every ranking follows: citations descending, then
        # year and id ascending.
        return sorted(self.filtered.publications, key=lambda p: (-p.citations(), p.year, p.id))

    @cached_property
    def vector(self):
        return CitationVector(counts=tuple(p.citations() for p in self.ranked),
                              publication_ids=tuple(p.id for p in self.ranked))

    @cached_property
    def authored(self):
        entries = []
        for pub in self.ranked:
            n_authors = pub.effective_author_count()
            if n_authors is None or n_authors < 1:
                raise FidelityError(
                    f"publication {pub.id!r} has no author count; "
                    "co-authorship indices need one")
            entries.append((int(pub.citations()), int(n_authors)))
        return AuthoredVector(tuple(entries))

    @cached_property
    def now_year(self):
        # One observation year per record, whatever the self-citation mode.
        return resolve_now_year(self.record, self.config)


def prepare(record, config=None):
    """The view every report index reads: the record with self-citations
    filtered, publications ranked and now_year resolved (on the record as
    read), each at most once."""
    return PreparedRecord(record, config if config is not None else IndexConfig())


# ---------------------------------------------------------------------------
# Ingestion / serialization

_RECORD_KEYS = {"entity", "kind", "owner_name", "publications"}
_PUB_KEYS = {"id", "year", "authors", "author_count", "citation_count", "citation_events"}
_EVENT_KEYS = {"year", "citing_authors"}
_OPTIONAL_INT = (int, type(None))


def _require(condition, message):
    if not condition:
        raise RecordParseError(message)


def _all_str(items):
    """Whether every item is a str (or a subclass); join makes the cheapest
    such test."""
    try:
        "".join(items)
    except TypeError:
        return False
    return True


def _event_columns(raw_events, source, i, share):
    """The event_years and event_citers columns of the citation-event list
    of publication i, read in one checked loop that names the first bad
    event.  Each year is the record's shared object for its value."""
    years, citers = [], []
    for j, raw_event in enumerate(raw_events):
        if not isinstance(raw_event, dict):
            problem = "must be an object"
        elif not _EVENT_KEYS.issuperset(raw_event):
            problem = f"unknown field {sorted(set(raw_event) - _EVENT_KEYS)[0]!r}"
        elif type(raw_event.get("year")) is not int:
            problem = "field 'year' must be an integer"
        else:
            citing = raw_event.get("citing_authors", [])
            if isinstance(citing, list) and _all_str(citing):
                years.append(raw_event["year"])
                citers.append(tuple(citing))
                continue
            problem = "field 'citing_authors' must be a list of strings"
        raise RecordParseError(f"{source}: publications[{i}].citation_events[{j}]: {problem}")
    return tuple(map(share, years, years)), tuple(citers)


def _publication(raw, source, i, share):
    """The Publication of raw, element i of a record's publications list,
    after every check record_from_dict makes on it.  share is the record's
    table of shared values (a dict's setdefault): the year and each author
    name are stored as the first equal object the record met, so a record
    holds one object per distinct year and name."""
    # A check builds its message only when it fails.
    if not isinstance(raw, dict):
        problem = "must be an object"
    elif not _PUB_KEYS.issuperset(raw):
        problem = f"unknown field {sorted(set(raw) - _PUB_KEYS)[0]!r}"
    elif not isinstance(raw.get("id"), str):
        problem = "field 'id' must be a string"
    # type() is int, not isinstance(): JSON true/false are bools, an int subclass
    elif type(raw.get("year")) is not int:
        problem = "field 'year' must be an integer"
    elif not (isinstance(authors := raw.get("authors", []), list) and _all_str(authors)):
        problem = "field 'authors' must be a list of strings"
    elif type(raw.get("author_count")) not in _OPTIONAL_INT:
        problem = "field 'author_count' must be an integer"
    elif type(raw.get("citation_count")) not in _OPTIONAL_INT:
        problem = "field 'citation_count' must be an integer"
    elif not isinstance(raw.get("citation_events", []), list):
        problem = "field 'citation_events' must be a list"
    else:
        years = citers = None
        if "citation_events" in raw:
            years, citers = _event_columns(raw["citation_events"], source, i, share)
        year = raw["year"]
        return Publication(raw["id"], share(year, year), tuple(map(share, authors, authors)),
                           raw.get("author_count"), raw.get("citation_count"), years, citers)
    raise RecordParseError(f"{source}: publications[{i}]: {problem}")


def _check_record_fields(data, source):
    """The record-level checks of record_from_dict: every field of data but
    the elements of its publications list."""
    _require(isinstance(data, dict), f"{source}: record must be a JSON object")
    unknown = set(data) - _RECORD_KEYS
    if unknown:
        raise RecordParseError(f"{source}: unknown record field {sorted(unknown)[0]!r}")
    _require(isinstance(data.get("entity"), str), f"{source}: field 'entity' must be a string")
    _require(isinstance(data.get("kind", "researcher"), str),
             f"{source}: field 'kind' must be a string")
    owner = data.get("owner_name")
    _require(owner is None or isinstance(owner, str),
             f"{source}: field 'owner_name' must be a string")
    _require(isinstance(data.get("publications"), list),
             f"{source}: field 'publications' must be a list")


def _record(data, pubs):
    """The validated CitationRecord of checked record fields and publications."""
    return validate_record(CitationRecord(
        entity=data["entity"], kind=data.get("kind", "researcher"),
        owner_name=data.get("owner_name"), publications=tuple(pubs)))


def record_from_dict(data, source="<memory>"):
    """Build and validate a CitationRecord from the JSON-shaped dict."""
    _check_record_fields(data, source)
    share = {}.setdefault
    return _record(data, [_publication(raw, source, i, share)
                          for i, raw in enumerate(data["publications"])])


_scan_json = json.JSONDecoder().scan_once  # the C scanner json.loads decodes with
_json_space = json.decoder.WHITESPACE.match  # the whitespace json.loads skips
_WINDOW = 1 << 16  # characters of a JSON record file read at a time


def _decode_record(read, source):
    """The CitationRecord of the JSON record text that read(size) returns
    piece by piece, as a text file's read does.  The text is walked through
    a window, one top-level value and one element of a publications array at
    a time, so that the window holds only the part of the text being walked
    and each publication's JSON tree is dropped before the next is decoded.
    A step that runs off the end of the window is walked again on its part
    of the window with at least as much text again read after it, so a value
    of any size takes a number of reads logarithmic in its size; a value
    counts only when a non-space character follows it inside the window, so
    a number split between reads is never read short.  A repeated key keeps
    its last value, as in json.loads.  None when the text is malformed JSON,
    is anything but one object, or fails a check: the caller then reads it
    whole as record_from_dict(json.loads(text)) does, with the same
    messages."""
    data = {}
    share = {}.setdefault
    text = read(_WINDOW)
    i = 0  # where, in the window, the step being walked starts
    # That step: "{" the record's opening brace, '"' a field, "[" the next
    # element of the publications array, "," what follows a field's value.
    step = "{"
    while True:
        try:
            if step == "[":
                while True:
                    raw, j = _scan_json(text, _json_space(text, i).end())
                    j = _json_space(text, j).end()
                    sep = text[j]
                    pubs.append(_publication(raw, source, len(pubs), share))
                    i = j + 1
                    if sep != ",":
                        break
                if sep != "]":
                    return None
                step = ","
            j = _json_space(text, i).end()
            if step == '"':
                if text[j] != '"':
                    return None
                key, j = _scan_json(text, j)
                j = _json_space(text, j).end()
                if text[j] != ":":
                    return None
                j = _json_space(text, j + 1).end()
                if key == "publications" and text[j] == "[":
                    j = _json_space(text, j + 1).end()
                    data[key] = pubs = []
                    i, step = (j + 1, ",") if text[j] == "]" else (j, "[")
                else:
                    value, j = _scan_json(text, j)
                    # An IndexError when only space follows the value in the
                    # window: the value may go on in the next read.
                    text[_json_space(text, j).end()]
                    data[key], i, step = value, j, ","
            elif text[j] == step:  # "{" before the first field, "," before the others
                i, step = j + 1, '"'
            elif step == "," and text[j] == "}":
                i = j + 1
                break
            else:
                return None
        # The scanner raises StopIteration on malformed JSON, ValueError on a
        # bad string or an overlong integer, and RecursionError on deep
        # nesting; any of them, like an IndexError, may mean only that the
        # step runs on past the window.
        except (IndexError, StopIteration, ValueError, RecursionError):
            more = read(max(_WINDOW, len(text) - i))
            if not more:
                return None
            text = text[i:] + more
            i = 0
        except RecordParseError:
            return None
    while text:  # only whitespace may follow the record
        if _json_space(text, i).end() != len(text):
            return None
        text, i = read(_WINDOW), 0
    try:
        _check_record_fields(data, source)
    except RecordParseError:
        return None
    return _record(data, data["publications"])


def record_to_dict(record):
    """Inverse of record_from_dict; parse(serialize(r)) == r, field for field."""
    out = {"entity": record.entity, "kind": record.kind}
    if record.owner_name is not None:
        out["owner_name"] = record.owner_name
    pubs = []
    for pub in record.publications:
        item = {"id": pub.id, "year": pub.year}
        if pub.authors:
            item["authors"] = list(pub.authors)
        if pub.author_count is not None:
            item["author_count"] = pub.author_count
        if pub.citation_count is not None:
            item["citation_count"] = pub.citation_count
        if pub.event_years is not None:
            item["citation_events"] = [
                {"year": year, "citing_authors": list(citing)} if citing else {"year": year}
                for year, citing in zip(pub.event_years, pub.event_citers)]
        pubs.append(item)
    out["publications"] = pubs
    return out


def write_record(record, path):
    Path(path).write_text(json.dumps(record_to_dict(record), indent=2) + "\n",
                          encoding="utf-8")


def _csv_int(text):
    """The int a CSV integer field spells: an optional sign and ASCII digits,
    after surrounding whitespace is stripped.  Anything else, including the
    other spellings int() reads ('1_000', fullwidth digits), is a ValueError."""
    text = text.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _parse_int(value, path, lineno, field, required=True):
    """The int of a CSV integer field, None for an empty optional one; a
    RecordParseError naming the file's line otherwise."""
    text = (value or "").strip()
    if not text:
        if required:
            raise RecordParseError(f"{path}: line {lineno}: missing value for {field!r}")
        return None
    try:
        return _csv_int(text)
    except ValueError:
        raise RecordParseError(
            f"{path}: line {lineno}: field {field!r} is not an integer: {text!r}") from None


def _parse_counts_csv(path, rows):
    pubs = []
    for lineno, (raw_id, raw_year, raw_author_count, raw_citation_count) in rows:
        pubs.append(Publication(
            id=raw_id.strip(),
            year=_parse_int(raw_year, path, lineno, "year"),
            author_count=_parse_int(raw_author_count, path, lineno, "author_count",
                                    required=False),
            citation_count=_parse_int(raw_citation_count, path, lineno, "citation_count")))
    return pubs


def _parse_events_csv(path, rows):
    # pub_id -> (raw pub_year, raw author_count, pub_year, author_count,
    # event years, event citers), in order of first appearance.  A later row
    # whose raw fields repeat the first row's needs no parsing; any other row
    # is parsed and compared.
    pubs = {}
    cite_years = {}  # raw cite_year -> its int, so each spelling is parsed once
    for lineno, (raw_id, raw_year, raw_author_count, raw_cite_year, raw_citing) in rows:
        pub_id = raw_id.strip()
        pub = pubs.get(pub_id)
        if pub is None or pub[0] != raw_year or pub[1] != raw_author_count:
            year = _parse_int(raw_year, path, lineno, "pub_year")
            author_count = _parse_int(raw_author_count, path, lineno, "author_count",
                                      required=False)
            if pub is None:
                pub = pubs[pub_id] = (raw_year, raw_author_count, year, author_count, [], [])
            elif pub[2:4] != (year, author_count):
                raise RecordParseError(
                    f"{path}: line {lineno}: publication {pub_id!r} repeats with "
                    "different pub_year/author_count")
        cite_year = cite_years.get(raw_cite_year)
        if cite_year is None:
            cite_year = _parse_int(raw_cite_year, path, lineno, "cite_year", required=False)
            if cite_year is None:
                continue  # zero-citation publication, listed once with empty cite_year
            cite_years[raw_cite_year] = cite_year
        pub[4].append(cite_year)
        pub[5].append(tuple(filter(None, map(str.strip, raw_citing.split(";")))))
    return [Publication(id=pub_id, year=year, author_count=author_count,
                        event_years=tuple(years), event_citers=tuple(citers))
            for pub_id, (_, _, year, author_count, years, citers) in pubs.items()]


def _parse_cohort_csv(path, rows):
    return [(entity, _parse_int(n_p, path, lineno, "n_p"), _parse_int(h, path, lineno, "h"))
            for lineno, (entity, n_p, h) in rows]


_RECORD_CSV_LAYOUTS = {
    ("id", "year", "author_count", "citation_count"): _parse_counts_csv,
    ("pub_id", "pub_year", "author_count", "cite_year", "citing_authors"): _parse_events_csv,
}
_COHORT_CSV_LAYOUTS = {("entity", "n_p", "h"): _parse_cohort_csv}


def _read_csv(path, layouts, bad_header):
    """The CSV file at path, parsed by the parser that layouts maps its
    header to; any other header is a RecordParseError bad_header.format(header).
    The parser reads (path, rows), where rows yields (line number, row) for
    each row after the header.  Blank rows are skipped and not counted, as
    csv.DictReader does, and a row whose column count differs from the
    header's is a RecordParseError."""
    def read(path):
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            parse = layouts.get(tuple(header or ()))
            if parse is None:
                raise RecordParseError(f"{path}: line 1: {bad_header.format(header)}")
            return parse(path, _checked_rows(path, len(header), reader))
    return _read_input(path, read)


def _checked_rows(path, width, reader):
    for lineno, row in enumerate(filter(None, reader), start=2):
        if len(row) != width:
            raise RecordParseError(f"{path}: line {lineno}: wrong number of columns")
        yield lineno, row


def read_cohort(path):
    """The (entity, n_p, h) rows of a cohort CSV file, read by the rules of
    a record CSV file."""
    return _read_csv(path, _COHORT_CSV_LAYOUTS, "cohort header must be entity,n_p,h")


def parse_record(path):
    """Read a record file (JSON or CSV, by its suffix) and return a validated
    CitationRecord."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix not in (".json", ".csv"):
        raise RecordParseError(f"{path}: cannot infer format from suffix {suffix!r}")
    # Cyclic garbage collection is paused while the record is built: parsing
    # makes many small acyclic, immutable objects, which collection passes
    # over the growing heap would only rescan.  For the same reason they then
    # go straight to the oldest generation (freeze and unfreeze move every
    # tracked object there without a scan), unless the caller keeps objects
    # frozen, which unfreezing would release.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if suffix == ".json":
            return _read_input(path, _parse_json)
        pubs = _read_csv(path, _RECORD_CSV_LAYOUTS, "unrecognized CSV header {!r}")
        return validate_record(CitationRecord(entity=path.stem, publications=tuple(pubs)))
    finally:
        if gc_was_enabled:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()


def _parse_json(path):
    """The record of a JSON file, walked through a window of its text by
    _decode_record.  A file the walk declines is read whole by json.loads,
    so its faults get json's messages.  A file that cannot seek, such as a
    named pipe, cannot be read twice: it is read whole first and walked as
    one window."""
    with open(path, encoding="utf-8") as fh:
        if fh.seekable():
            record = _decode_record(fh.read, str(path))
            if record is None:
                fh.seek(0)
                text = fh.read()
        else:
            text = fh.read()
            rest = iter((text,))
            record = _decode_record(lambda size: next(rest, ""), str(path))
    if record is not None:
        return record
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RecordParseError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise RecordParseError(f"{path}: JSON nested too deeply") from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise RecordParseError(f"{path}: integer literal too long") from None
    return record_from_dict(data, source=str(path))


def _read_input(path, read):
    """read(path), with a fault in the file's text raised as a
    RecordParseError naming the path: text that is not UTF-8 and a CSV
    field over the csv module's size limit."""
    try:
        return read(path)
    except UnicodeDecodeError as exc:
        raise RecordParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise RecordParseError(f"{path}: {exc}") from None
