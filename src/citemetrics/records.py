"""Citation-record data model.

Defines the record/publication/event types, file ingestion (JSON and two CSV
layouts), validation, self-citation filtering and the prepared view: a
record filtered, ranked and dated once, whose citation and authored vectors
every index module consumes.  Records are immutable after parsing;
everything here is a pure function of its inputs.

Two data fidelities exist side by side: counts-only records (enough for the
order-statistic indices) and event-level records (required for trend scoring,
per-year windows and self-citation filtering).  Operations that need events
fail loudly with FidelityError instead of silently approximating.
"""

from __future__ import annotations

import copy
import csv
import gc
import json
import math
from dataclasses import dataclass, field
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

_COUNTS_CSV_HEADER = ["id", "year", "author_count", "citation_count"]
_EVENTS_CSV_HEADER = ["pub_id", "pub_year", "author_count", "cite_year", "citing_authors"]


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
    id: str
    year: int
    authors: tuple = ()
    author_count: int | None = None
    citation_count: int | None = None
    citation_events: tuple | None = None

    @property
    def has_events(self):
        return self.citation_events is not None

    def effective_author_count(self):
        if self.author_count is not None:
            return self.author_count
        if self.authors:
            return len(self.authors)
        return None

    def citations(self):
        """Total recorded citations; the event list wins when present."""
        if self.citation_events is not None:
            return len(self.citation_events)
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
        if self.now_year is not None and not INT64_MIN <= self.now_year <= INT64_MAX:
            raise ValueError("now_year must be a signed 64-bit integer")


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
        if pub.citation_count is None and pub.citation_events is None:
            raise RecordValidationError(
                f"publication {pub.id!r}: needs citation_count or citation_events")
        if pub.citation_count is not None and pub.citation_count < 0:
            raise RecordValidationError(
                f"publication {pub.id!r}: citation_count must be non-negative")
        if pub.citation_count is not None and pub.citation_events is not None:
            if pub.citation_count != len(pub.citation_events):
                raise RecordValidationError(
                    f"publication {pub.id!r}: citation_count {pub.citation_count} "
                    f"does not match {len(pub.citation_events)} citation events")
        if pub.citation_events:
            years = [e.year for e in pub.citation_events]
            if max(years) > INT64_MAX or min(years) < pub.year:
                _raise_first_event_error(pub)
        if pub.author_count is not None and pub.author_count < 1:
            raise RecordValidationError(
                f"publication {pub.id!r}: author_count must be at least 1")
        if pub.authors and pub.author_count is not None and pub.author_count < len(pub.authors):
            raise RecordValidationError(
                f"publication {pub.id!r}: author_count smaller than the author list")
    return record


def _raise_first_event_error(pub):
    for event in pub.citation_events:
        if event.year > INT64_MAX:  # the year check below bounds it from below
            raise RecordValidationError(
                f"publication {pub.id!r}: citation event year does not fit "
                "in a signed 64-bit integer")
        if event.year < pub.year:
            raise RecordValidationError(
                f"publication {pub.id!r}: citation event year {event.year} "
                f"precedes publication year {pub.year}")


def resolve_now_year(record, config=None):
    """Observation year actually used: the configured one, or the latest year
    anywhere in the record.  Returns None for a record with no years at all."""
    config = config or IndexConfig()
    pub_years = [p.year for p in record.publications]
    if config.now_year is None:
        return max(pub_years + [e.year for p in record.publications
                                for e in p.citation_events or ()], default=None)
    if pub_years and config.now_year < max(pub_years):
        raise DomainError(
            f"now_year {config.now_year} precedes publication year {max(pub_years)}")
    return config.now_year


def require_events(pub, purpose):
    """The publication's citation events; FidelityError naming purpose when
    the publication has counts only."""
    if pub.citation_events is None:
        raise FidelityError(f"publication {pub.id!r} has no citation events; "
                            f"{purpose} needs event-level data")
    return pub.citation_events


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
    new_pubs = []
    for pub in record.publications:
        events = require_events(pub, "self-citation filtering")
        if mode == "exclude_own":
            blocked = {owner}
        else:
            blocked = {normalize_author(a) for a in pub.authors}
            if owner is not None:
                blocked.add(owner)
        kept = tuple(
            e for e in events
            if not blocked & {normalize_author(a) for a in e.citing_authors})
        count = len(kept) if pub.citation_count is not None else None
        new_pubs.append(Publication(
            id=pub.id, year=pub.year, authors=pub.authors,
            author_count=pub.author_count, citation_count=count,
            citation_events=kept))
    return CitationRecord(entity=record.entity, kind=record.kind,
                          owner_name=record.owner_name,
                          publications=tuple(new_pubs))


def citation_vector(record, config=None):
    """Descending citation counts with a fixed tie order (year asc, id asc)
    so reports are reproducible.  Self-citation filtering is applied first,
    when a config is given."""
    return prepare(record, config).part("vector")


def totals(record):
    """(N_p, N_c): publication count and total citations as recorded."""
    n_p = len(record.publications)
    n_c = sum(p.citations() for p in record.publications)
    return n_p, n_c


# ---------------------------------------------------------------------------
# The prepared view

@dataclass(frozen=True, slots=True)
class PreparedRecord:
    """A record with the parts the indices read, each built once, when an
    index first asks for it.  A part that fails for a documented reason
    keeps its error and raises it again for every index that needs the part,
    so each index reports what it would report on its own."""

    record: CitationRecord
    config: IndexConfig
    parts: dict = field(default_factory=dict)

    def part(self, name):
        if name not in self.parts:
            try:
                self.parts[name] = _BUILDERS[name](self)
            except UNAVAILABLE_ERRORS as exc:
                self.parts[name] = exc.with_traceback(None)
        value = self.parts[name]
        if isinstance(value, UNAVAILABLE_ERRORS):
            # A copy: the kept error, raised itself, would take a traceback
            # that holds this view, and so the record, in a reference cycle.
            raise copy.copy(value)
        return value


def _authored(view):
    entries = []
    for pub in view.part("ranked"):
        n_authors = pub.effective_author_count()
        if n_authors is None or n_authors < 1:
            raise FidelityError(
                f"publication {pub.id!r} has no author count; "
                "co-authorship indices need one")
        entries.append((int(pub.citations()), int(n_authors)))
    return AuthoredVector(tuple(entries))


_BUILDERS = {
    "filtered": lambda view: filter_self_citations(
        view.record, view.config.self_citation_mode),
    # The one tie rule every ranking follows: citations descending, then
    # year and id ascending.
    "ranked": lambda view: sorted(view.part("filtered").publications,
                                  key=lambda p: (-p.citations(), p.year, p.id)),
    "vector": lambda view: CitationVector(
        counts=tuple(p.citations() for p in view.part("ranked")),
        publication_ids=tuple(p.id for p in view.part("ranked"))),
    "authored": _authored,
    # One observation year per record, whatever the self-citation mode.
    "now_year": lambda view: resolve_now_year(view.record, view.config),
}


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


def _raise_event_error(raw_event, where):
    """Name the first check a citation event fails (record_from_dict has
    found that one does)."""
    _require(isinstance(raw_event, dict), f"{where}: must be an object")
    unknown = set(raw_event) - _EVENT_KEYS
    if unknown:
        raise RecordParseError(f"{where}: unknown field {sorted(unknown)[0]!r}")
    _require(type(raw_event.get("year")) is int, f"{where}: field 'year' must be an integer")
    raise RecordParseError(f"{where}: field 'citing_authors' must be a list of strings")


def record_from_dict(data, source="<memory>"):
    """Build and validate a CitationRecord from the JSON-shaped dict."""
    _require(isinstance(data, dict), f"{source}: record must be a JSON object")
    unknown = set(data) - _RECORD_KEYS
    if unknown:
        raise RecordParseError(f"{source}: unknown record field {sorted(unknown)[0]!r}")
    _require(isinstance(data.get("entity"), str), f"{source}: field 'entity' must be a string")
    kind = data.get("kind", "researcher")
    _require(isinstance(kind, str), f"{source}: field 'kind' must be a string")
    owner = data.get("owner_name")
    _require(owner is None or isinstance(owner, str),
             f"{source}: field 'owner_name' must be a string")
    raw_pubs = data.get("publications")
    _require(isinstance(raw_pubs, list), f"{source}: field 'publications' must be a list")

    pubs = []
    for i, raw in enumerate(raw_pubs):
        where = f"{source}: publications[{i}]"
        _require(isinstance(raw, dict), f"{where}: must be an object")
        unknown = set(raw) - _PUB_KEYS
        if unknown:
            raise RecordParseError(f"{where}: unknown field {sorted(unknown)[0]!r}")
        _require(isinstance(raw.get("id"), str), f"{where}: field 'id' must be a string")
        # type() is int, not isinstance(): JSON true/false are bools, an int subclass
        _require(type(raw.get("year")) is int, f"{where}: field 'year' must be an integer")
        authors = raw.get("authors", [])
        _require(isinstance(authors, list) and all(isinstance(a, str) for a in authors),
                 f"{where}: field 'authors' must be a list of strings")
        for field in ("author_count", "citation_count"):
            value = raw.get(field)
            _require(value is None or type(value) is int,
                     f"{where}: field {field!r} must be an integer")
        events = None
        if "citation_events" in raw:
            raw_events = raw["citation_events"]
            _require(isinstance(raw_events, list),
                     f"{where}: field 'citation_events' must be a list")
            events = []
            for raw_event in raw_events:
                if (isinstance(raw_event, dict) and _EVENT_KEYS.issuperset(raw_event)
                        and type(raw_event.get("year")) is int):
                    citing = raw_event.get("citing_authors", [])
                    if isinstance(citing, list) and _all_str(citing):
                        events.append(CitationEvent(raw_event["year"], tuple(citing)))
                        continue
                _raise_event_error(raw_event, f"{where}.citation_events[{len(events)}]")
            events = tuple(events)
        pubs.append(Publication(
            id=raw["id"], year=raw["year"], authors=tuple(authors),
            author_count=raw.get("author_count"),
            citation_count=raw.get("citation_count"),
            citation_events=events))

    record = CitationRecord(entity=data["entity"], kind=kind, owner_name=owner,
                            publications=tuple(pubs))
    return validate_record(record)


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
        if pub.citation_events is not None:
            item["citation_events"] = [
                {"year": e.year, **({"citing_authors": list(e.citing_authors)}
                                    if e.citing_authors else {})}
                for e in pub.citation_events]
        pubs.append(item)
    out["publications"] = pubs
    return out


def write_record(record, path):
    Path(path).write_text(json.dumps(record_to_dict(record), indent=2) + "\n",
                          encoding="utf-8")


def _parse_int(value, where, field, required=True):
    text = (value or "").strip()
    if not text:
        if required:
            raise RecordParseError(f"{where}: missing value for {field!r}")
        return None
    try:
        return int(text)
    except ValueError:
        raise RecordParseError(f"{where}: field {field!r} is not an integer: {text!r}") from None


def _parse_counts_csv(path, rows):
    pubs = []
    for lineno, row in rows:
        where = f"{path}: line {lineno}"
        if len(row) != len(_COUNTS_CSV_HEADER):
            raise RecordParseError(f"{where}: wrong number of columns")
        raw_id, raw_year, raw_author_count, raw_citation_count = row
        pubs.append(Publication(
            id=raw_id.strip(),
            year=_parse_int(raw_year, where, "year"),
            author_count=_parse_int(raw_author_count, where, "author_count",
                                    required=False),
            citation_count=_parse_int(raw_citation_count, where, "citation_count")))
    return pubs


def _parse_events_csv(path, rows):
    # pub_id -> (raw pub_year, raw author_count, pub_year, author_count, events),
    # in order of first appearance.  A later row whose raw fields repeat the
    # first row's needs no parsing; any other row is parsed and compared.
    pubs = {}
    for lineno, row in rows:
        if len(row) != len(_EVENTS_CSV_HEADER):
            raise RecordParseError(f"{path}: line {lineno}: wrong number of columns")
        raw_id, raw_year, raw_author_count, raw_cite_year, raw_citing = row
        pub_id = raw_id.strip()
        pub = pubs.get(pub_id)
        if pub is None or pub[0] != raw_year or pub[1] != raw_author_count:
            where = f"{path}: line {lineno}"
            year = _parse_int(raw_year, where, "pub_year")
            author_count = _parse_int(raw_author_count, where, "author_count",
                                      required=False)
            if pub is None:
                pub = pubs[pub_id] = (raw_year, raw_author_count, year, author_count, [])
            elif pub[2:4] != (year, author_count):
                raise RecordParseError(
                    f"{where}: publication {pub_id!r} repeats with different "
                    "pub_year/author_count")
        try:
            cite_year = int(raw_cite_year)  # int() strips the same whitespace
        except ValueError:
            cite_year = _parse_int(raw_cite_year, f"{path}: line {lineno}", "cite_year",
                                   required=False)
            if cite_year is None:
                continue  # zero-citation publication, listed once with empty cite_year
        citing = tuple(filter(None, map(str.strip, raw_citing.split(";"))))
        pub[4].append(CitationEvent(cite_year, citing))
    return [Publication(id=pub_id, year=year, author_count=author_count,
                        citation_events=tuple(events))
            for pub_id, (_, _, year, author_count, events) in pubs.items()]


def _parse_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header == _COUNTS_CSV_HEADER:
            parser = _parse_counts_csv
        elif header == _EVENTS_CSV_HEADER:
            parser = _parse_events_csv
        else:
            raise RecordParseError(
                f"{path}: line 1: unrecognized CSV header {header!r}")
        # Blank rows are skipped and not counted, as csv.DictReader does.
        pubs = parser(path, enumerate(filter(None, reader), start=2))
    record = CitationRecord(entity=Path(path).stem, publications=tuple(pubs))
    return validate_record(record)


def parse_record(path, format=None):
    """Read a record file (JSON or CSV, inferred from the suffix when format
    is not given) and return a validated CitationRecord."""
    # Cyclic garbage collection is paused while the record is built: parsing
    # makes many small acyclic, immutable objects, which collection passes
    # over the growing heap would only rescan.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _read_record(Path(path), format)
    finally:
        if gc_was_enabled:
            gc.enable()


def _read_record(path, format):
    if format is None:
        suffix = path.suffix.lower()
        format = {"": None, ".json": "json", ".csv": "csv"}.get(suffix)
        if format is None:
            raise RecordParseError(
                f"{path}: cannot infer format from suffix {suffix!r}; pass format=")
    try:
        if format == "csv":
            return _parse_csv(path)
        if format != "json":
            raise RecordParseError(f"{path}: unknown format {format!r}")
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise RecordParseError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise RecordParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except RecursionError:
        raise RecordParseError(f"{path}: JSON nested too deeply") from None
    except ValueError:  # json.loads: an integer past the interpreter's digit limit
        raise RecordParseError(f"{path}: integer literal too long") from None
    except csv.Error as exc:
        raise RecordParseError(f"{path}: {exc}") from None
    return record_from_dict(data, source=str(path))
