"""Library contract gate: whatever numbers a caller hands the numeric
functions of core, coauthor and venue, the power-law formulas lotkaian_h
and dynamic_h, Glänzel's H over a sample or discrete Pareto tail and the
knobs of a career simulation (SimConfig, then burrell_simulate) and the
float knobs of an IndexConfig (then a report of a small record), a call
returns a finite value or raises ValueError or a CitemetricsError
subclass.  It never raises ZeroDivisionError, OverflowError or an
internal TypeError, and never returns NaN or inf.  This is the library's
counterpart of tests/test_cli_fuzz.py.

Records built in code are held to the same rule: validate_record rejects a
record, or every report, window sequence and rendering of it ends in a
value or a documented error, and it survives a round trip through
record_to_dict and record_from_dict."""

import dataclasses
import inspect
import math
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from citemetrics import (CitationRecord, CitemetricsError, FieldProfile, IndexConfig,
                         Publication, RecordValidationError, TailFunction, coauthor,
                         compute_report, core, record_from_dict, record_to_dict,
                         report_to_jsonable, validate_record, venue)
from citemetrics.aggregate import (SimConfig, burrell_simulate, dynamic_h, glanzel_H,
                                   lotkaian_h)
from citemetrics.records import G_CONVENTIONS, SELF_CITATION_MODES
from citemetrics.report import render_json
from citemetrics.temporal import h_sequence
from conftest import run_bounded
from datagen import AUTHOR_NAMES

# Ordinary small counts, next to every kind of value a plain count must not be.
_NUMBER = st.one_of(
    st.integers(min_value=0, max_value=60),
    st.sampled_from([-3, -1, True, False, 0.5, 2.5, math.nan, math.inf, -math.inf,
                     2 ** 63 - 1, 2 ** 63, 10 ** 400]))
# Up to 2,000 counts near 2**63, equal when the stride is 0 and distinct
# otherwise, then a few numbers of any kind.
_LONG = st.builds(lambda n, stride, tail: [2 ** 63 - 1 - stride * i for i in range(n)] + tail,
                  st.integers(0, 2_000), st.integers(0, 2 ** 40), st.lists(_NUMBER, max_size=4))
_COUNTS = st.lists(_NUMBER, max_size=8) | _LONG
# The long counts, each with an author count: all equal, or distinct near 10**9.
_PAIRS = st.lists(st.tuples(_NUMBER, _NUMBER), max_size=8) | st.builds(
    lambda counts, first, stride: [(c, first + stride * i) for i, c in enumerate(counts)],
    _LONG, st.sampled_from([1, 3, 10 ** 9]), st.integers(0, 1))
_SHARES = st.none() | st.lists(_NUMBER | st.floats(min_value=0.01, max_value=1.0),
                               max_size=8)


# Pareto exponents no float or tail can take, or whose exact powers would
# take memory without bound; each is also tried with every sample size in
# test_glanzel_on_every_named_pareto_exponent.
_NAMED_EXPONENTS = [-1, 0, True, math.nan, math.inf, 10 ** 400, 1e300, 2 ** 1000]
# A tail to build: from a sample of counts, or discrete Pareto with an
# ordinary or a named exponent.
_TAILS = st.one_of(
    st.tuples(st.just(TailFunction.from_sample), _COUNTS),
    st.tuples(st.just(TailFunction.discrete_pareto),
              st.integers(1, 6) | st.floats(0.1, 6.0) | st.sampled_from(_NAMED_EXPONENTS)))


def _simulated(config):
    """Every number of the career summaries of config, when its ensemble is
    small enough to draw in a test; none otherwise."""
    if config.expected_size() > 2_000:
        return []
    return [value for _, summary in burrell_simulate(config)
            for value in dataclasses.astuple(summary)]


# A small event-level record to report under each drawn config.
_EVENT_RECORD = CitationRecord(entity="E", owner_name="Ann Lee", publications=tuple(
    Publication(id=f"p{i}", year=2000 + i, authors=("Ann Lee",),
                event_years=(2001 + i,) * (4 - i), event_citers=(("Ann Lee",),) + ((),) * (3 - i))
    for i in range(4)))


def _reported(gamma, delta, alpha_predictive, beta_molinari):
    config = IndexConfig(gamma=gamma, delta=delta, alpha_predictive=alpha_predictive,
                         beta_molinari=beta_molinari)
    return list(compute_report(_EVENT_RECORD, config).values.values())


def _fields(reference, field):
    return FieldProfile("reference", reference), FieldProfile("field", field)


_VECTOR_INDICES = ("h_index", "a_index", "r_index", "hw_index", "h2_index",
                   "w_index", "maxprod", "f_index", "t_index", "rm_index",
                   "h_core_cv", "rmcv_index", "h_core_sum")

# Each gated function: the strategy for its arguments and how to call it.
_CASES = {
    **{f"core.{name}": (st.tuples(_COUNTS), getattr(core, name))
       for name in _VECTOR_INDICES},
    "core.g_index": (st.tuples(_COUNTS, st.sampled_from(G_CONVENTIONS)), core.g_index),
    "core.h_alpha_predict": (st.tuples(_NUMBER, _NUMBER, _NUMBER), core.h_alpha_predict),
    "coauthor.hi_index": (st.tuples(_PAIRS, st.sampled_from(["mean", "median"])),
                          coauthor.hi_index),
    "coauthor.pure_h": (st.tuples(_PAIRS, _SHARES), coauthor.pure_h),
    "coauthor.schreiber_hm": (st.tuples(_PAIRS), coauthor.schreiber_hm),
    "venue.impact_factor": (st.tuples(_NUMBER, _NUMBER), venue.impact_factor),
    "venue.relative_h": (st.tuples(_NUMBER, _NUMBER), venue.relative_h),
    "venue.sri": (st.tuples(_NUMBER, _NUMBER), venue.sri),
    "venue.impact_index_hm": (st.tuples(_NUMBER, _NUMBER, _NUMBER), venue.impact_index_hm),
    "venue.field_factor": (st.tuples(_NUMBER, _NUMBER),
                           lambda reference, field: venue.field_factor(
                               *_fields(reference, field))),
    "venue.field_normalized_h": (st.tuples(_NUMBER, _NUMBER, _NUMBER),
                                 lambda h, reference, field: venue.field_normalized_h(
                                     h, *reversed(_fields(reference, field)))),
    "venue.theoretical_h_estimate": (st.tuples(_NUMBER, _NUMBER, st.booleans()),
                                     venue.theoretical_h_estimate),
    "venue.research_status": (st.tuples(st.lists(st.tuples(st.just("e"), _NUMBER, _NUMBER),
                                                 max_size=5)),
                              lambda cohort: [r for _, r in venue.research_status(cohort)]),
    "venue.vanraan_diagnostic": (st.tuples(_NUMBER), venue.vanraan_diagnostic),
    "aggregate.lotkaian_h": (st.tuples(_NUMBER, _NUMBER), lotkaian_h),
    "aggregate.dynamic_h": (st.tuples(_NUMBER, _NUMBER, _NUMBER, _NUMBER), dynamic_h),
    "aggregate.glanzel_H": (st.tuples(_TAILS, _NUMBER),
                            lambda tail, n: glanzel_H(tail[0](tail[1]), n)),
    # Small knobs mixed in, so that some ensembles are small enough to draw.
    "aggregate.SimConfig": (st.tuples(*[st.integers(1, 3) | _NUMBER]
                                      * len(dataclasses.fields(SimConfig))),
                            lambda *knobs: _simulated(SimConfig(*knobs))),
    "records.IndexConfig": (st.tuples(_NUMBER, _NUMBER, _NUMBER, _NUMBER), _reported),
}


def test_every_numeric_public_function_is_gated():
    public = {f"{module.__name__.split('.')[-1]}.{name}"
              for module in (core, coauthor, venue)
              for name, obj in vars(module).items()
              if inspect.isfunction(obj) and obj.__module__ == module.__name__
              and not name.startswith("_")}
    # authored_vector reads a record, not numbers
    assert public - {"coauthor.authored_vector"} == {
        name for name in _CASES if not name.startswith(("aggregate.", "records."))}


def _finite_result(value):
    return (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and math.isfinite(value))


@pytest.mark.parametrize("name", sorted(_CASES))
@given(data=st.data())
def test_a_call_ends_in_a_finite_value_or_a_documented_error(name, data):
    arguments, call = _CASES[name]
    args = data.draw(arguments)
    try:
        result = call(*args)
    except (ValueError, CitemetricsError):
        return
    results = result if isinstance(result, list) else [result]
    assert all(map(_finite_result, results)), (name, args, result)


def test_glanzel_on_every_named_pareto_exponent():
    # The calls run in a child whose memory is capped, since an exponent
    # whose exact powers were built would take memory without bound.
    child = run_bounded(textwrap.dedent(f"""
        from math import inf, nan
        from citemetrics import CitemetricsError, TailFunction, glanzel_H
        for exponent in {_NAMED_EXPONENTS!r}:
            for n in (1, 10, 2 ** 63 - 1):
                try:
                    value = glanzel_H(TailFunction.discrete_pareto(exponent), n)
                except (ValueError, CitemetricsError):
                    continue
                assert type(value) is int, (exponent, n, value)
        """))
    assert (child.returncode, child.stderr) == (0, "")


@pytest.mark.parametrize("index", [core.h_index, core.g_index])
def test_a_float_is_not_a_plain_count(index):
    with pytest.raises(ValueError, match=r"citation count 2\.5 is not an integer"):
        index([2.5])


@pytest.mark.parametrize("value, problem", [
    (-1, "is below 0"), (True, "is a bool"), (2.5, "is not an integer"),
    (2 ** 63, "does not fit in a signed 64-bit integer")])
@pytest.mark.parametrize("read", [
    core.h_index, core.f_index, lambda v: coauthor.hi_index([(c, 1) for c in v]),
    TailFunction.from_sample])
def test_every_plain_input_reads_through_one_rule(read, value, problem):
    with pytest.raises(ValueError, match=f"citation count .* {problem}"):
        read([3, value])


def test_a_plain_count_may_be_any_index_type():
    assert core.h_index([np.int64(3)] * 3) == 3
    assert coauthor.schreiber_hm([(np.int32(2), np.int64(1))] * 2) == 2.0


class _Name(str):
    """A caller's own string type."""


# Field values a record built in code may hold: the types the parsers build,
# and next to them the mistakes a caller can make in each field.
_NAMES = st.sampled_from(AUTHOR_NAMES) | st.sampled_from(AUTHOR_NAMES).map(_Name)
_ODD_NAMES = st.sampled_from([3, True, None, 2.5, np.int64(3), b"Ann Lee", ("Ann Lee",)])
_ODD_INTS = st.sampled_from([True, False, np.int64(2001), 2001.0, math.nan, None, "2001",
                             2 ** 63, -2 ** 63 - 1])
_YEARS = st.integers(1990, 2010) | st.sampled_from([-2 ** 63, 0, 1, 2 ** 63 - 1])
# What a caller may put in a record's publications in place of a Publication.
_ODD_PUBLICATIONS = st.sampled_from([{"id": "p"}, None, "p", ("p", 2000, 3),
                                     CitationRecord(entity="E")])


def _odd_container(items):
    """A list, a nested tuple, None or a bare item where a tuple of items belongs."""
    return st.one_of(st.lists(items, max_size=3), st.tuples(st.tuples(items)), st.none(), items)


@st.composite
def _records_built_in_code(draw):
    """A record whose fields are each, now and then, of another type or
    value than the parsers build."""
    odd = draw(st.booleans())

    def field(valid, mistakes):
        return draw(mistakes) if odd and draw(st.integers(0, 7)) == 0 else draw(valid)

    def names():
        return field(st.lists(_NAMES | _ODD_NAMES if odd else _NAMES, max_size=3).map(tuple),
                     _odd_container(_NAMES))

    pubs = []
    for i in range(draw(st.integers(0, 4))):
        year = field(_YEARS, _ODD_INTS)
        count = field(st.integers(0, 6), _ODD_INTS | st.just(-1))
        years = citers = None
        if draw(st.booleans()):
            n = draw(st.integers(0, 4))
            base = year if type(year) is int and year < 2 ** 63 - 3 else 2000
            event_year = st.integers(base, base + 3)
            years = field(st.lists(event_year | _ODD_INTS if odd else event_year,
                                   min_size=n, max_size=n).map(tuple),
                          _odd_container(_YEARS | _ODD_INTS))
            citers = field(st.just(tuple(names() for _ in range(n))),
                           _odd_container(_NAMES) | st.just(None))
            count = field(st.just(None) | st.just(n), st.just(count))
        elif odd and draw(st.integers(0, 3)) == 0:
            citers = ((),)
        pub = Publication(
            id=field(st.just(f"p{i}") | st.just(_Name(f"p{i}")), _ODD_NAMES),
            year=year, authors=names(),
            author_count=field(st.none() | st.integers(3, 6), _ODD_INTS | st.just(0)),
            citation_count=count, event_years=years, event_citers=citers)
        pubs.append(field(st.just(pub), _ODD_PUBLICATIONS))
    return CitationRecord(
        entity=field(st.just("E") | st.just(_Name("E")), _ODD_NAMES),
        owner_name=field(st.none() | _NAMES, _ODD_NAMES),
        publications=field(st.just(tuple(pubs)), st.just(pubs)))


def _ends_in_a_value_or_a_documented_error(call):
    try:
        return call()
    except (ValueError, CitemetricsError):
        return None


@given(_records_built_in_code())
@example(CitationRecord(entity="E", publications=(Publication(
    id="p", year=0, event_years=(True, 1), event_citers=((), ())),)))
@example(CitationRecord(entity="E", publications=(Publication(
    id="p", year=2000, authors=("A", 3), event_years=(2001,), event_citers=(("B",),)),)))
@example(CitationRecord(entity="E", publications=(Publication(
    id="p", year=2000, event_years=2001),)))
@example(CitationRecord(entity="E", publications=({"id": "p"},)))
def test_a_record_built_in_code_is_rejected_or_reports_and_round_trips(record):
    try:
        validate_record(record)
    except RecordValidationError:
        return
    for mode in SELF_CITATION_MODES:
        report = _ends_in_a_value_or_a_documented_error(
            lambda: compute_report(record, IndexConfig(self_citation_mode=mode)))
        if report is not None:
            _ends_in_a_value_or_a_documented_error(
                lambda: render_json(report_to_jsonable(report)))
    _ends_in_a_value_or_a_documented_error(lambda: h_sequence(record))
    assert record_from_dict(record_to_dict(record)) == record
