"""Indices that depend on publication and citation ages or career time.

Ages use the +1 convention throughout: a publication from the observation
year has age 1, so decay weights never divide by zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import sqrt

from .core import h_index
from .errors import DomainError, UndefinedInputError
from .records import prepare, require_events

# Most windows h_sequence (and so each h_matrix row) computes: a record whose
# publication years span more years than this is a DomainError.  Four
# centuries of a journal's output fit many times over.
MAX_SEQUENCE_WINDOWS = 10_000


@dataclass(frozen=True)
class HSequence:
    """h over the cumulative windows [end, end], [end-1, end], ... back to
    the first publication year; values[k] belongs to the window starting at
    start_years[k]."""

    end_year: int
    start_years: tuple
    values: tuple


@dataclass(frozen=True)
class HMatrix:
    """One h-sequence per record, aligned at window index 0 (the most recent
    window); shorter careers are padded with None."""

    entities: tuple
    rows: tuple


def _age(now_year, year, what):
    age = now_year - year + 1
    if age <= 0:
        raise DomainError(f"{what} year {year} is after now_year {now_year}")
    return age


def require_publications(record):
    """The record's publications; UndefinedInputError when it has none."""
    if not record.publications:
        raise UndefinedInputError(f"record {record.entity!r} has no publications")
    return record.publications


# The report keys this module defines, each a function of a records.prepare
# view.  The stand-alone functions below evaluate through the same view.
# Keys that score the filtered publications read them before now_year, so a
# filter error is the one they report.

def _contemporary(view):
    pubs = view.part("filtered").publications
    config, now = view.config, view.part("now_year")
    return h_index([
        config.gamma * _age(now, pub.year, "publication") ** (-config.delta)
        * pub.citations() for pub in pubs])


def _trend_score(pub, now, config):
    return config.gamma * sum(
        _age(now, e.year, "citation event") ** (-config.delta)
        for e in require_events(pub, "trend scoring"))


def _trend(view):
    pubs = view.part("filtered").publications
    config, now = view.config, view.part("now_year")
    return h_index([_trend_score(pub, now, config) for pub in pubs])


def _normalized(view):
    n_p = len(require_publications(view.record))
    return h_index(view.part("vector")) / n_p


def _age_weighted(view):
    h = h_index(view.part("vector"))
    if h == 0:
        return 0.0
    now = view.part("now_year")
    return sqrt(sum(pub.citations() / _age(now, pub.year, "publication")
                    for pub in view.part("ranked")[:h]))


def _per_career_year(view):
    first = min(p.year for p in require_publications(view.record))
    career_years = view.part("now_year") - first + 1
    return h_index(view.part("vector")) / career_years


VIEW_INDICES = {"h_contemporary": _contemporary, "h_trend": _trend,
                "h_norm_output": _normalized, "ar": _age_weighted,
                "m_quotient": _per_career_year}


def contemporary_h(record, config=None):
    """h-style scan over per-publication scores gamma * age**(-delta) * citations."""
    return _contemporary(prepare(record, config))


def trend_h(record, config=None):
    """h-style scan over scores that sum a decayed weight per citation event."""
    return _trend(prepare(record, config))


def normalized_h_output(record, config=None):
    """h divided by the number of publications."""
    return _normalized(prepare(record, config))


def ar_index(record, config=None):
    """Age-weighted analogue of R: sqrt of the h-core sum of citations/age."""
    return _age_weighted(prepare(record, config))


def m_quotient(record, config=None):
    """h divided by the career length in years (first publication to now)."""
    return _per_career_year(prepare(record, config))


def _windowed_count(pub, cutoff):
    if cutoff is None:
        return pub.citations()
    return sum(1 for e in require_events(pub, "window-limited counting")
               if e.year <= cutoff)


def h_sequence(record, config=None, truncate_events_to_now=False):
    """h over publication-year windows growing back from the last publication
    year, one window per year (at most MAX_SEQUENCE_WINDOWS).  Citation
    counts are the record's totals; with truncate_events_to_now only events
    dated up to now_year are counted (event-level data required).

    One pass over the publications, newest first: each window adds the
    publications of its start year, and h, which never falls as a window
    grows, rises while more than h counts exceed h."""
    require_publications(record)
    view = prepare(record, config)
    pubs = view.part("filtered").publications
    cutoff = view.part("now_year") if truncate_events_to_now else None
    dated = sorted(((p.year, _windowed_count(p, cutoff)) for p in pubs), reverse=True)
    last, first = dated[0][0], dated[-1][0]
    if last - first + 1 > MAX_SEQUENCE_WINDOWS:
        raise DomainError(
            f"record {record.entity!r}: publication years {first}..{last} span more "
            f"than {MAX_SEQUENCE_WINDOWS:,} windows")
    h = 0
    above = []  # min-heap of the window's counts that exceed h
    values = []
    i = 0
    for start in range(last, first - 1, -1):
        while i < len(dated) and dated[i][0] == start:
            if dated[i][1] > h:
                heappush(above, dated[i][1])
            i += 1
        while len(above) > h:
            h += 1
            while above and above[0] <= h:
                heappop(above)
        values.append(h)
    return HSequence(end_year=last, start_years=tuple(range(last, first - 1, -1)),
                     values=tuple(values))


def h_matrix(records, config=None, truncate_events_to_now=False):
    """Stack the h-sequences of a cohort, aligned at the most recent window.
    records is read once, in order, and each record is reduced to its
    h-sequence and dropped before the next one is read."""
    entities, sequences = [], []
    for record in records:
        entities.append(record.entity)
        sequences.append(h_sequence(record, config, truncate_events_to_now))
        del record  # released before the iterable yields the next one
    if not sequences:
        raise UndefinedInputError("cohort is empty")
    width = max(len(s.values) for s in sequences)
    rows = tuple(s.values + (None,) * (width - len(s.values)) for s in sequences)
    return HMatrix(entities=tuple(entities), rows=rows)
