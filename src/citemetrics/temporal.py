"""Indices that depend on publication and citation ages or career time.

Ages use the +1 convention throughout: a publication from the observation
year has age 1, so decay weights never divide by zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from math import sqrt

from .core import h_index
from .errors import DomainError, FidelityError, UndefinedInputError
from .records import IndexConfig, citation_vector, filter_self_citations, resolve_now_year

# Most windows h_sequence (and so each h_matrix row) computes: a record whose
# publication years span more years than this is a DomainError.  Four
# centuries of a journal's output fit many times over.
MAX_SEQUENCE_WINDOWS = 10_000


@dataclass(frozen=True)
class ScoredVector:
    """Per-publication scores sorted descending, ids retained rank by rank."""

    scores: tuple
    publication_ids: tuple


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


def _config(config):
    return config if config is not None else IndexConfig()


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


def _ranked(publications, score):
    scored = sorted(((score(pub), pub) for pub in publications),
                    key=lambda item: (-item[0], item[1].year, item[1].id))
    return ScoredVector(scores=tuple(s for s, _ in scored),
                        publication_ids=tuple(p.id for _, p in scored))


def rank_contemporary(filtered, now, config):
    """Contemporary scores of an already filtered record, ages counted to now."""
    return _ranked(filtered.publications, lambda pub: (
        config.gamma * _age(now, pub.year, "publication") ** (-config.delta)
        * pub.citations()))


def rank_trend(filtered, now, config):
    """Trend scores of an already filtered record, ages counted to now."""
    def score(pub):
        if not pub.has_events:
            raise FidelityError(
                f"publication {pub.id!r} has no citation events; "
                "trend scoring needs event-level data")
        return config.gamma * sum(
            _age(now, e.year, "citation event") ** (-config.delta)
            for e in pub.citation_events)
    return _ranked(filtered.publications, score)


def contemporary_scores(record, config=None):
    config = _config(config)
    filtered = filter_self_citations(record, config.self_citation_mode)
    return rank_contemporary(filtered, resolve_now_year(filtered, config), config)


def contemporary_h(record, config=None):
    """h-style scan over per-publication scores gamma * age**(-delta) * citations."""
    return h_index(contemporary_scores(record, config).scores)


def trend_scores(record, config=None):
    config = _config(config)
    filtered = filter_self_citations(record, config.self_citation_mode)
    return rank_trend(filtered, resolve_now_year(filtered, config), config)


def trend_h(record, config=None):
    """h-style scan over scores that sum a decayed weight per citation event."""
    return h_index(trend_scores(record, config).scores)


def normalized_h_output(record, config=None):
    """h divided by the number of publications."""
    n_p = len(require_publications(record))
    return h_index(citation_vector(record, _config(config))) / n_p


def age_weighted_core(record, vector, resolve_now):
    """sqrt of the h-core sum of citations/age; resolve_now() gives the
    observation year and is called only when h > 0."""
    h = h_index(vector)
    if h == 0:
        return 0.0
    now = resolve_now()
    year_of = {p.id: p.year for p in record.publications}
    total = sum(
        count / _age(now, year_of[pid], "publication")
        for count, pid in zip(vector.counts[:h], vector.publication_ids[:h]))
    return sqrt(total)


def ar_index(record, config=None):
    """Age-weighted analogue of R: sqrt of the h-core sum of citations/age."""
    config = _config(config)
    return age_weighted_core(record, citation_vector(record, config),
                             lambda: resolve_now_year(record, config))


def m_quotient(record, config=None):
    """h divided by the career length in years (first publication to now)."""
    config = _config(config)
    first = min(p.year for p in require_publications(record))
    career_years = resolve_now_year(record, config) - first + 1
    return h_index(citation_vector(record, config)) / career_years


def _windowed_count(pub, cutoff):
    if cutoff is None:
        return pub.citations()
    if not pub.has_events:
        raise FidelityError(
            f"publication {pub.id!r} has no citation events; "
            "window-limited counting needs event-level data")
    return sum(1 for e in pub.citation_events if e.year <= cutoff)


def h_sequence(record, config=None, truncate_events_to_now=False):
    """h over publication-year windows growing back from the last publication
    year, one window per year (at most MAX_SEQUENCE_WINDOWS).  Citation
    counts are the record's totals; with truncate_events_to_now only events
    dated up to now_year are counted (event-level data required).

    One pass over the publications, newest first: each window adds the
    publications of its start year, and h, which never falls as a window
    grows, rises while more than h counts exceed h."""
    config = _config(config)
    require_publications(record)
    filtered = filter_self_citations(record, config.self_citation_mode)
    cutoff = resolve_now_year(filtered, config) if truncate_events_to_now else None
    dated = sorted(((p.year, _windowed_count(p, cutoff)) for p in filtered.publications),
                   reverse=True)
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
