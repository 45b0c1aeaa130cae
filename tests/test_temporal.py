import math
import time

import pytest
from hypothesis import given, strategies as st

from citemetrics import (CitationRecord, DomainError,
                         FidelityError, IndexConfig, Publication,
                         UndefinedInputError, ar_index, citation_vector,
                         contemporary_h, h_index, h_matrix, h_sequence,
                         m_quotient, normalized_h_output, r_index, trend_h)
from citemetrics.cli import main
from citemetrics.records import SELF_CITATION_MODES
from citemetrics.temporal import MAX_SEQUENCE_WINDOWS
from datagen import AUTHOR_NAMES, event_publications, event_record
from vector_oracles import (contemporary_score_vector, oracle_ar,
                            oracle_contemporary_h, oracle_h_norm_output,
                            oracle_kept_events, oracle_m_quotient,
                            oracle_sequence, oracle_trend_h, trend_score_vector)


def _rec(*pubs, entity="X"):
    return CitationRecord(entity=entity, publications=tuple(pubs))


def _counts_pub(pid, year, count):
    return Publication(id=pid, year=year, citation_count=count)


def _events_pub(pid, year, event_years):
    return Publication(id=pid, year=year, event_years=tuple(event_years),
                       event_citers=((),) * len(event_years))


def test_contemporary_all_current_year():
    record = _rec(_counts_pub("a", 2020, 3), _counts_pub("b", 2020, 2),
                  _counts_pub("c", 2020, 1))
    config = IndexConfig(now_year=2020, gamma=4.0, delta=1.0)
    # weights are all 4, so scores are 12, 8, 4 and every rank qualifies
    assert contemporary_h(record, config) == 3


def test_contemporary_no_citations():
    record = _rec(_counts_pub("a", 2020, 0), _counts_pub("b", 2018, 0))
    assert contemporary_h(record) == 0


def test_contemporary_degenerates_to_h():
    record = _rec(_counts_pub("a", 2001, 9), _counts_pub("b", 2011, 5),
                  _counts_pub("c", 2015, 1))
    config = IndexConfig(gamma=1.0, delta=0.0)
    assert contemporary_h(record, config) == h_index(citation_vector(record))


def test_trend_equals_contemporary_when_everything_is_current():
    events = _rec(_events_pub("a", 2020, [2020] * 3), _events_pub("b", 2020, [2020] * 2),
                  _events_pub("c", 2020, [2020]))
    counts = _rec(_counts_pub("a", 2020, 3), _counts_pub("b", 2020, 2),
                  _counts_pub("c", 2020, 1))
    config = IndexConfig(now_year=2020)
    assert trend_h(events, config) == contemporary_h(counts, config)


def test_trend_degenerates_to_h_without_decay():
    record = _rec(_events_pub("a", 2000, [2001, 2004, 2009]),
                  _events_pub("b", 2003, [2003, 2010]),
                  _events_pub("c", 2005, []))
    config = IndexConfig(gamma=1.0, delta=0.0)
    assert trend_h(record, config) == h_index(citation_vector(record))


def test_trend_hand_evaluated_score():
    # five events one year old weigh 1/2 each; gamma 4 gives score 10
    record = _rec(_events_pub("a", 2019, [2019] * 5))
    config = IndexConfig(now_year=2020, gamma=4.0, delta=1.0)
    assert trend_h(record, config) == 1


def test_trend_requires_events():
    record = _rec(_counts_pub("a", 2020, 3))
    with pytest.raises(FidelityError, match="citation events"):
        trend_h(record)


def test_normalized_h_output_cases(classified_records, equal_h_records):
    assert normalized_h_output(equal_h_records["A"]) == 1.0
    assert normalized_h_output(classified_records["ACE"]) == pytest.approx(0.35)
    assert normalized_h_output(_rec(_counts_pub("a", 2020, 1))) == 1.0
    with pytest.raises(UndefinedInputError):
        normalized_h_output(_rec())


def test_ar_equals_r_when_ages_are_one():
    record = _rec(_counts_pub("a", 2020, 9), _counts_pub("b", 2020, 4),
                  _counts_pub("c", 2020, 1))
    config = IndexConfig(now_year=2020)
    assert ar_index(record, config) == pytest.approx(r_index(citation_vector(record)))


def test_ar_scientist_d_all_ages_four(equal_h_records):
    record = equal_h_records["D"]  # every publication dated 2001
    config = IndexConfig(now_year=2004)
    assert ar_index(record, config) == pytest.approx(math.sqrt(340 / 4))


def test_ar_zero_when_h_zero():
    assert ar_index(_rec(_counts_pub("a", 2020, 0))) == 0.0


def test_ar_non_increasing_in_now_year():
    record = _rec(_counts_pub("a", 2000, 30), _counts_pub("b", 2005, 8),
                  _counts_pub("c", 2008, 2))
    values = [ar_index(record, IndexConfig(now_year=y)) for y in range(2008, 2030)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_m_quotient_bands():
    pubs = [_counts_pub(f"p{i}", 2011, 15) for i in range(10)]
    record = _rec(*pubs)
    config = IndexConfig(now_year=2020)  # career length 10
    assert m_quotient(record, config) == pytest.approx(1.0)
    assert m_quotient(_rec(_counts_pub("a", 2020, 0))) == 0.0
    with pytest.raises(UndefinedInputError):
        m_quotient(_rec())


def test_m_quotient_times_years_recovers_h():
    record = _rec(*[_counts_pub(f"p{i}", 2000 + i, 20) for i in range(7)])
    config = IndexConfig(now_year=2013)
    y = 2013 - 2000 + 1
    assert m_quotient(record, config) * y == pytest.approx(
        h_index(citation_vector(record)), abs=1e-12)


def test_h_sequence_examples():
    single = _rec(_counts_pub("a", 2005, 3), _counts_pub("b", 2005, 2))
    seq = h_sequence(single)
    assert seq.values == (2,)
    assert seq.start_years == (2005,)

    two_years = _rec(_counts_pub("a", 2005, 5), _counts_pub("b", 2004, 7))
    seq = h_sequence(two_years)
    assert seq.values == (1, 2)
    assert seq.end_year == 2005
    assert seq.start_years == (2005, 2004)


def test_h_sequence_full_window_equals_h():
    record = _rec(_counts_pub("a", 2001, 9), _counts_pub("b", 2004, 5),
                  _counts_pub("c", 2008, 2))
    seq = h_sequence(record)
    assert seq.values[-1] == h_index(citation_vector(record))
    assert len(seq.values) == 2008 - 2001 + 1  # every year in the span


def test_h_sequence_monotone():
    record = _rec(*[_counts_pub(f"p{i}", 2000 + i % 4, c)
                    for i, c in enumerate([9, 7, 5, 3, 2, 2, 1])])
    seq = h_sequence(record)
    assert all(a <= b for a, b in zip(seq.values, seq.values[1:]))


def test_h_sequence_truncation_needs_events():
    record = _rec(_counts_pub("a", 2005, 3))
    with pytest.raises(FidelityError):
        h_sequence(record, truncate_events_to_now=True)


def test_h_sequence_truncates_late_events():
    record = _rec(_events_pub("a", 2005, [2005, 2006, 2009, 2009]))
    full = h_sequence(record)
    cut = h_sequence(record, IndexConfig(now_year=2006), truncate_events_to_now=True)
    assert full.values == (1,)
    assert cut.values == (1,)  # two events survive, h still 1
    zero_cut = h_sequence(_rec(_events_pub("a", 2005, [2009])),
                          IndexConfig(now_year=2005), truncate_events_to_now=True)
    assert zero_cut.values == (0,)


@given(st.lists(st.tuples(st.integers(min_value=-5, max_value=30),
                          st.integers(min_value=0, max_value=40)),
                min_size=1, max_size=40))
def test_h_sequence_matches_oracle(pubs):
    record = _rec(*[_counts_pub(f"p{i}", year, c) for i, (year, c) in enumerate(pubs)])
    seq = h_sequence(record)
    years = [year for year, _ in pubs]
    assert list(seq.values) == oracle_sequence(years, [c for _, c in pubs])
    assert seq.start_years == tuple(range(max(years), min(years) - 1, -1))


@given(st.lists(st.tuples(st.integers(min_value=2000, max_value=2012),
                          st.lists(st.integers(min_value=0, max_value=15), max_size=12)),
                min_size=1, max_size=12),
       st.integers(min_value=2012, max_value=2030))
def test_truncated_h_sequence_matches_oracle(pubs, now):
    record = _rec(*[_events_pub(f"p{i}", year, [year + o for o in offsets])
                    for i, (year, offsets) in enumerate(pubs)])
    seq = h_sequence(record, IndexConfig(now_year=now), truncate_events_to_now=True)
    counts = [sum(1 for o in offsets if year + o <= now) for year, offsets in pubs]
    assert list(seq.values) == oracle_sequence([year for year, _ in pubs], counts)


def test_h_sequence_caps_its_windows():
    at_cap = _rec(_counts_pub("a", 0, 1), _counts_pub("b", MAX_SEQUENCE_WINDOWS - 1, 1))
    assert len(h_sequence(at_cap).values) == MAX_SEQUENCE_WINDOWS
    past_cap = _rec(_counts_pub("a", 0, 1), _counts_pub("b", MAX_SEQUENCE_WINDOWS, 1))
    with pytest.raises(DomainError, match="span more than"):
        h_sequence(past_cap)
    with pytest.raises(DomainError, match="span more than"):
        h_matrix([at_cap, past_cap])


@pytest.mark.parametrize("command", ["sequence", "matrix"])
def test_huge_year_span_exits_4_quickly(capsys, tmp_path, command):
    path = tmp_path / "span.json"
    path.write_text('{"entity": "S", "publications": ['
                    '{"id": "a", "year": 0, "citation_count": 1}, '
                    '{"id": "b", "year": 1000000000, "citation_count": 1}]}')
    flag = "--input" if command == "sequence" else "--inputs"
    started = time.perf_counter()
    code = main([command, flag, str(path)])
    assert time.perf_counter() - started < 1.0
    out, err = capsys.readouterr()
    assert (code, out) == (4, "")
    assert err == ("error: record 'S': publication years 0..1000000000 span "
                   f"more than {MAX_SEQUENCE_WINDOWS:,} windows\n")


def test_h_matrix_shapes():
    one = _rec(_counts_pub("a", 2005, 1), entity="solo")
    m = h_matrix([one])
    assert m.entities == ("solo",)
    assert m.rows == ((1,),)

    twin = _rec(_counts_pub("a", 2005, 1), entity="twin")
    m = h_matrix([one, twin])
    assert m.rows[0] == m.rows[1]

    short = _rec(_counts_pub("a", 2004, 3), _counts_pub("b", 2006, 1), entity="s")
    long = _rec(_counts_pub("a", 2001, 4), _counts_pub("b", 2005, 2), entity="l")
    m = h_matrix([short, long])
    assert len(m.rows[0]) == len(m.rows[1]) == 5
    assert m.rows[0][3] is None and m.rows[0][4] is None
    assert all(v is not None for v in m.rows[1])


def test_h_matrix_of_an_empty_cohort_is_undefined():
    with pytest.raises(UndefinedInputError, match="cohort is empty"):
        h_matrix([])


def test_now_year_must_cover_publications():
    record = _rec(_counts_pub("a", 2020, 5))
    with pytest.raises(DomainError):
        contemporary_h(record, IndexConfig(now_year=2019))


@given(st.lists(st.tuples(st.integers(min_value=2000, max_value=2010),
                          st.integers(min_value=0, max_value=30)),
                min_size=1, max_size=15))
def test_contemporary_never_exceeds_h_when_weights_at_most_one(pubs):
    record = _rec(*[_counts_pub(f"p{i}", year, c)
                    for i, (year, c) in enumerate(pubs)])
    config = IndexConfig(gamma=1.0, delta=1.0)  # age >= 1 keeps weights <= 1
    assert contemporary_h(record, config) <= h_index(citation_vector(record))


def test_contemporary_oracle_on_hand_computed_scores():
    # now 2010, gamma 4, delta 1: ages 1, 2, 5, 11
    pubs = [(2010, 3), (2009, 4), (2006, 10), (2000, 5)]
    scores = contemporary_score_vector(pubs, 2010, 4.0, 1.0)
    assert scores == pytest.approx([12.0, 8.0, 8.0, 20 / 11])
    assert oracle_contemporary_h(pubs, 2010, 4.0, 1.0) == 3
    record = _rec(*[_counts_pub(f"p{i}", y, c) for i, (y, c) in enumerate(pubs)])
    assert contemporary_h(record, IndexConfig(now_year=2010)) == 3


def test_trend_oracle_on_hand_computed_scores():
    # now 2010, gamma 4, delta 1: event ages (3, 1, 1), (2, 2), (1,), (10,)
    pubs = [(2008, [2008, 2010, 2010]), (2009, [2009, 2009]), (2010, [2010]),
            (2000, [2001])]
    scores = trend_score_vector(pubs, 2010, 4.0, 1.0)
    assert scores == pytest.approx([28 / 3, 4.0, 4.0, 0.4])
    assert oracle_trend_h(pubs, 2010, 4.0, 1.0) == 3
    record = _rec(*[_events_pub(f"p{i}", y, e) for i, (y, e) in enumerate(pubs)])
    assert trend_h(record, IndexConfig(now_year=2010)) == 3


_gammas = st.sampled_from([0.25, 1.0, 2.0, 4.0, 10.0]) | st.floats(
    min_value=0.01, max_value=50.0)
_deltas = st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(min_value=0.0, max_value=3.0)
_now_offsets = st.none() | st.integers(min_value=0, max_value=10)


@given(st.lists(st.tuples(st.integers(min_value=1990, max_value=2010),
                          st.integers(min_value=0, max_value=60)),
                min_size=1, max_size=20),
       _gammas, _deltas, _now_offsets)
def test_contemporary_h_matches_oracle(pubs, gamma, delta, offset):
    record = _rec(*[_counts_pub(f"p{i}", y, c) for i, (y, c) in enumerate(pubs)])
    latest = max(y for y, _ in pubs)
    now = None if offset is None else latest + offset
    config = IndexConfig(now_year=now, gamma=gamma, delta=delta)
    want = oracle_contemporary_h(pubs, latest if now is None else now, gamma, delta)
    assert contemporary_h(record, config) == want


@given(st.lists(st.tuples(st.integers(min_value=1990, max_value=2010),
                          st.lists(st.integers(min_value=0, max_value=12), max_size=15)),
                min_size=1, max_size=15),
       _gammas, _deltas, _now_offsets)
def test_trend_h_matches_oracle(pubs, gamma, delta, offset):
    pubs = [(y, [y + o for o in offsets]) for y, offsets in pubs]
    record = _rec(*[_events_pub(f"p{i}", y, e) for i, (y, e) in enumerate(pubs)])
    latest = max([y for y, _ in pubs] + [e for _, events in pubs for e in events])
    now = None if offset is None else latest + offset
    config = IndexConfig(now_year=now, gamma=gamma, delta=delta)
    want = oracle_trend_h(pubs, latest if now is None else now, gamma, delta)
    assert trend_h(record, config) == want


@given(st.sampled_from(AUTHOR_NAMES), event_publications(),
       st.sampled_from(SELF_CITATION_MODES), _now_offsets)
def test_ar_m_quotient_and_h_norm_output_match_oracles(owner, pubs, mode, offset):
    record = event_record(owner, pubs)
    # the citations that survive filtering, dated by the raw record
    triples = [(f"p{i}", year, len(events if mode == "include"
                                   else oracle_kept_events(authors, events, owner, mode)))
               for i, (year, authors, events) in enumerate(pubs)]
    latest = max(y for year, _, events in pubs for y in [year, *(e for e, _ in events)])
    now = latest if offset is None else latest + offset
    config = IndexConfig(now_year=None if offset is None else now, self_citation_mode=mode)
    assert ar_index(record, config) == oracle_ar(triples, now)
    assert m_quotient(record, config) == oracle_m_quotient(triples, now)
    assert normalized_h_output(record, config) == oracle_h_norm_output(
        [c for _, _, c in triples])
