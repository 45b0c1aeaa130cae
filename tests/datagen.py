"""Seeded corpus generators and small statistics helpers for the tests."""

import random

from hypothesis import strategies as st

from citemetrics import CitationEvent, CitationRecord, Publication

# Spellings that normalise to four identities, so owners, co-authors and
# citing authors overlap in every combination.  They differ by surrounding
# space, by case, and by case-folding alone ("ß" folds to "ss", which no
# lower-casing does).
AUTHOR_NAMES = ("Ann Lee", " ann lee", "Bo Chen", "BO CHEN", "Cy Diaz",
                "Jo Straße", "JO STRASSE ")


def random_vectors(count, seed):
    """Deterministic mixed-shape citation vectors: length <= 50, counts <= 200."""
    rnd = random.Random(seed)
    vectors = []
    for _ in range(count):
        n = rnd.randint(0, 50)
        style = rnd.randrange(3)
        if style == 0:
            counts = [rnd.randint(0, 200) for _ in range(n)]
        elif style == 1:
            counts = [rnd.randint(1, 20) for _ in range(n)]
        else:  # heavy tail, mostly small with occasional spikes
            counts = [min(200, int(1.0 / (1.0 - rnd.random()) - 0.5)) for _ in range(n)]
        vectors.append(counts)
    return vectors


def random_event_record(rnd, entity="R", single_year=None):
    """One event-level record; when single_year is given every publication and
    event lands on that year (so every age is 1)."""
    n_pubs = rnd.randint(1, 15)
    pubs = []
    for i in range(n_pubs):
        year = single_year if single_year is not None else rnd.randint(2000, 2010)
        n_events = rnd.randint(0, 12)
        events = tuple(
            CitationEvent(year=(single_year if single_year is not None
                                else rnd.randint(year, 2012)))
            for _ in range(n_events))
        pubs.append(Publication(id=f"p{i:03d}", year=year, citation_events=events))
    return CitationRecord(entity=entity, publications=tuple(pubs))


def random_event_records(count, seed):
    rnd = random.Random(seed)
    return [random_event_record(rnd, entity=f"R{i:03d}") for i in range(count)]


def event_publications():
    """Hypothesis strategy: 1-8 (year, authors, events) publications, each
    event a (year, citing authors) pair, every name from AUTHOR_NAMES."""
    names = st.lists(st.sampled_from(AUTHOR_NAMES), max_size=3).map(tuple)
    return st.lists(st.integers(2000, 2006).flatmap(lambda year: st.tuples(
        st.just(year), names,
        st.lists(st.tuples(st.integers(year, year + 4), names), max_size=12))),
        min_size=1, max_size=8)


def event_record(owner, pubs):
    """The record of event_publications() data, publications p0, p1, ..."""
    return CitationRecord(entity="R", owner_name=owner, publications=tuple(
        Publication(id=f"p{i}", year=year, authors=authors,
                    citation_events=tuple(CitationEvent(*event) for event in events))
        for i, (year, authors, events) in enumerate(pubs)))


def _average_ranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def pearson(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / (sxx * syy) ** 0.5


def spearman(xs, ys):
    return pearson(_average_ranks(xs), _average_ranks(ys))


def ols_slope(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def sample_discrete_pareto(rnd, tail_exponent, cap=10_000):
    """Integer sample with survival P(X >= k) = k**(-tail_exponent), k >= 1."""
    u = rnd.random()
    while u <= 0.0:
        u = rnd.random()
    return min(cap, int(u ** (-1.0 / tail_exponent)))


def lotkaian_group(rnd, members, lotka_alpha):
    """Synthetic group whose per-paper citation counts follow a power law with
    tail exponent lotka_alpha - 1 (members' paper counts vary too)."""
    records = []
    for m in range(members):
        n_pubs = rnd.randint(1, 60)
        pubs = tuple(
            Publication(id=f"p{i:03d}", year=2000,
                        citation_count=sample_discrete_pareto(rnd, lotka_alpha - 1.0))
            for i in range(n_pubs))
        records.append(CitationRecord(entity=f"m{m:03d}", publications=pubs))
    return records
