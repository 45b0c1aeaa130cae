"""Differential gate: every report key equals its stand-alone function.

compute_report evaluates all keys over one prepared record; the library
also exposes each index as a function of a record (or of its citation or
authored vector).  On random records, with owners, co-authors that overlap
the citing authors and counts-only publications among event-level ones,
each key's report value, or its unavailable message, must equal what the
stand-alone function returns or raises.  Every citation- and
authored-vector key must also equal its brute-force oracle in
vector_oracles, which filters, ranks and scans the record on its own.
"""

from dataclasses import replace
from itertools import product

from hypothesis import given, settings, strategies as st

from citemetrics import (CitationRecord, DomainError,
                         FidelityError, IndexConfig, Publication,
                         UndefinedInputError, authored_vector,
                         citation_vector, coauthor, compute_report, core,
                         resolve_now_year, temporal, validate_record)
from citemetrics.records import SELF_CITATION_MODES
from citemetrics.report import REPORT_INDEX_KEYS
from datagen import AUTHOR_NAMES as NAMES
import vector_oracles as vo

_UNAVAILABLE = (FidelityError, UndefinedInputError, DomainError)

_VECTOR = {
    "h": core.h_index, "a": core.a_index, "r": core.r_index,
    "h_w": core.hw_index, "h2": core.h2_index, "w": core.w_index,
    "maxprod": core.maxprod, "f": core.f_index, "t": core.t_index,
    "r_m": core.rm_index, "h_core_cv": core.h_core_cv, "r_m_cv": core.rmcv_index,
}
_TEMPORAL = {
    "h_contemporary": temporal.contemporary_h, "h_trend": temporal.trend_h,
    "h_norm_output": temporal.normalized_h_output, "ar": temporal.ar_index,
    "m_quotient": temporal.m_quotient,
}
_AUTHORED = {
    "h_i_mean": lambda av: coauthor.hi_index(av, "mean"),
    "h_i_median": lambda av: coauthor.hi_index(av, "median"),
    "h_pure": coauthor.pure_h, "h_m_schreiber": coauthor.schreiber_hm,
}

_VECTOR_ORACLES = {
    "h": vo.oracle_h, "a": vo.oracle_a, "r": vo.oracle_r, "h_w": vo.oracle_hw,
    "h2": vo.oracle_h2, "w": vo.oracle_w, "maxprod": vo.oracle_maxprod,
    "f": vo.oracle_f, "t": vo.oracle_t, "r_m": vo.oracle_r_m,
    "h_core_cv": vo.oracle_h_core_cv, "r_m_cv": vo.oracle_r_m_cv,
}
_AUTHORED_ORACLES = {
    "h_i_mean": lambda pairs: vo.oracle_hi(pairs, "mean"),
    "h_i_median": lambda pairs: vo.oracle_hi(pairs, "median"),
    "h_pure": vo.oracle_pure_h, "h_m_schreiber": vo.oracle_schreiber_hm,
}


@st.composite
def publications(draw, index):
    year = draw(st.integers(2000, 2006))
    authors = tuple(draw(st.lists(st.sampled_from(NAMES), max_size=3)))
    author_count = draw(st.one_of(st.none(), st.integers(max(1, len(authors)), 5)))
    if draw(st.integers(0, 3)) == 0:  # counts-only
        return Publication(id=f"p{index}", year=year, authors=authors,
                           author_count=author_count,
                           citation_count=draw(st.integers(0, 12)))
    events = draw(st.lists(st.tuples(
        st.integers(year, year + 4),
        st.lists(st.sampled_from(NAMES), max_size=2).map(tuple)), max_size=12))
    count = len(events) if draw(st.booleans()) else None
    return Publication(id=f"p{index}", year=year, authors=authors,
                       author_count=author_count, citation_count=count,
                       event_years=tuple(y for y, _ in events),
                       event_citers=tuple(c for _, c in events))


@st.composite
def records(draw):
    n_pubs = draw(st.integers(0, 7))
    pubs = tuple(draw(publications(i)) for i in range(n_pubs))
    owner = draw(st.one_of(st.none(), st.sampled_from(NAMES)))
    return validate_record(CitationRecord(entity="R", owner_name=owner,
                                          publications=pubs))


@st.composite
def configs(draw, record):
    years = [p.year for p in record.publications]
    now = draw(st.sampled_from(("unset", "given", "early")))
    if now == "unset":
        now_year = None
    elif now == "given" or not years:
        now_year = max(years, default=2006) + draw(st.integers(0, 3))
    else:  # before the last publication: a DomainError for the keys that date it
        now_year = max(years) - draw(st.integers(1, 3))
    return IndexConfig(now_year=now_year,
                       self_citation_mode=draw(st.sampled_from(SELF_CITATION_MODES)),
                       g_convention=draw(st.sampled_from(("bounded", "unbounded"))),
                       delta=draw(st.sampled_from((0.0, 0.5, 1.0))),
                       alpha_predictive=draw(st.sampled_from((-0.1, -1.0, 0.5))))


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except _UNAVAILABLE as exc:
        return ("unavailable", str(exc))


def _stand_alone(key, record, config):
    if key in _TEMPORAL:
        return _outcome(_TEMPORAL[key], record, config)
    if key in _AUTHORED:
        authored = _outcome(authored_vector, record, config)
        return authored if authored[0] != "value" else _outcome(_AUTHORED[key], authored[1])
    vector = _outcome(citation_vector, record, config)
    if vector[0] != "value":
        return vector
    vector = vector[1]
    if key == "g":
        return _outcome(core.g_index, vector, config.g_convention)
    if key == "h_alpha":
        return _outcome(core.h_alpha_predict, core.h_index(vector), sum(vector.counts),
                        config.alpha_predictive)
    return _outcome(_VECTOR[key], vector)


@settings(max_examples=200)
@given(st.data())
def test_every_report_key_equals_its_stand_alone_function(data):
    record = data.draw(records())
    config = data.draw(configs(record))
    rep = compute_report(record, config)
    expected = {key: _stand_alone(key, record, config) for key in REPORT_INDEX_KEYS}
    got = {key: ("value", rep.values[key]) if key in rep.values
           else ("unavailable", rep.unavailable[key]) for key in REPORT_INDEX_KEYS}
    assert got == expected
    vector = _outcome(citation_vector, record, config)
    assert rep.vector == (vector[1] if vector[0] == "value" else None)
    # strict mode raises the first unavailable key's error, in key order
    first = next((outcome for outcome in expected.values()
                  if outcome[0] == "unavailable"), None)
    assert _outcome(compute_report, record, config, None, True) == (first or ("value", rep))


@st.composite
def late_self_cited(draw):
    """A record from records(), often with an owner citation added to one
    publication after every other year in the record, so that the latest
    year holds only a citation that either exclude mode drops."""
    record = draw(records())
    events = [p for p in record.publications if p.event_years is not None]
    if not events or not draw(st.booleans()):
        return record
    owner = record.owner_name or draw(st.sampled_from(NAMES))
    late = resolve_now_year(record) + draw(st.integers(1, 3))
    pub = draw(st.sampled_from(events))
    count = None if pub.citation_count is None else pub.citation_count + 1
    cited = replace(pub, event_years=pub.event_years + (late,),
                    event_citers=pub.event_citers + ((owner,),), citation_count=count)
    return validate_record(replace(record, owner_name=owner, publications=tuple(
        cited if p is pub else p for p in record.publications)))


@settings(max_examples=200)
@given(st.data())
def test_the_echoed_now_year_reproduces_the_report(data):
    # One observation year per record: in every self-citation mode, with
    # now_year as drawn and unset, running again with the now_year the
    # report echoes changes no value and no unavailable message.
    record = data.draw(late_self_cited())
    drawn = data.draw(configs(record))
    for mode, now_year in product(SELF_CITATION_MODES, (drawn.now_year, None)):
        config = replace(drawn, self_citation_mode=mode, now_year=now_year)
        rep = compute_report(record, config)
        echoed = replace(config, now_year=rep.config["now_year"])
        again = compute_report(record, echoed)
        assert (again.values, again.unavailable) == (rep.values, rep.unavailable)
        assert (_outcome(compute_report, record, echoed, None, True)
                == _outcome(compute_report, record, config, None, True))


def _oracle_publications(record, mode):
    """(id, year, citations, author count) of every publication, counted
    after the oracle's own self-citation filter; None when the mode needs
    an owner or citation events the record lacks."""
    if mode == "exclude_own" and record.owner_name is None:
        return None
    pubs = []
    for pub in record.publications:
        events = pub.citation_events
        if events is None:
            if mode != "include":
                return None
            count = pub.citation_count
        elif mode == "include":
            count = len(events)
        else:
            count = len(vo.oracle_kept_events(
                pub.authors, [(e.year, e.citing_authors) for e in events],
                record.owner_name, mode))
        authors = pub.author_count if pub.author_count is not None else len(pub.authors)
        pubs.append((pub.id, pub.year, count, authors or None))
    return pubs


def _oracle_values(record, config):
    pubs = _oracle_publications(record, config.self_citation_mode)
    if pubs is None:
        return {}
    counts = [c for _, _, c, _ in pubs]
    expected = {key: oracle(counts) for key, oracle in _VECTOR_ORACLES.items()}
    expected["g"] = vo.oracle_g(counts, config.g_convention)
    h_alpha = vo.oracle_h_alpha(counts, config.alpha_predictive)
    if h_alpha is not None:
        expected["h_alpha"] = h_alpha
    if all(authors is not None for *_, authors in pubs):
        pairs = vo.oracle_authored_pairs(pubs)
        expected.update({key: oracle(pairs) for key, oracle in _AUTHORED_ORACLES.items()})
    return expected


@settings(max_examples=200)
@given(st.data())
def test_every_vector_key_equals_its_oracle(data):
    # the citation- and authored-vector keys that are available are exactly
    # those the oracles define, each with the oracle's value
    record = data.draw(records())
    config = data.draw(configs(record))
    expected = _oracle_values(record, config)
    rep = compute_report(record, config, [*_VECTOR, "g", "h_alpha", *_AUTHORED])
    assert rep.values == expected
