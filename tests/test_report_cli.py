import csv
import dataclasses
import gc
import importlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import weakref

import pytest

from citemetrics import (CitationRecord, FidelityError,
                         IndexConfig, Publication, authored_vector,
                         citation_vector, compute_report, filter_self_citations,
                         parse_record, record_to_dict, write_record)
from citemetrics import aggregate, cli, coauthor, core, records, report, temporal
from citemetrics.aggregate import SimConfig
from citemetrics.cli import main
from citemetrics.records import SELF_CITATION_MODES
from citemetrics.report import REPORT_INDEX_KEYS, format_value, render_json
from conftest import FIXTURES, GOLDEN

CLASSIFIED_ORDER = ["ACE", "ACF", "ADE", "ADF", "BCE", "BCF", "BDE", "BDF"]


def _classified_args(classified_paths):
    return [str(classified_paths[name]) for name in CLASSIFIED_ORDER]


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# Report object semantics

def test_report_keys_appear_exactly_once(equal_h_records):
    report = compute_report(equal_h_records["A"])
    assert report.keys == REPORT_INDEX_KEYS
    assert set(report.values) | set(report.unavailable) == set(REPORT_INDEX_KEYS)
    assert not set(report.values) & set(report.unavailable)


def test_report_marks_trend_unavailable_on_counts_only(equal_h_records):
    report = compute_report(equal_h_records["A"], indices="h,h_trend")
    assert report.values["h"] == 10
    assert "citation events" in report.unavailable["h_trend"]


def test_report_strict_raises(equal_h_records):
    with pytest.raises(FidelityError):
        compute_report(equal_h_records["A"], indices="h_trend", strict=True)


@pytest.fixture
def filter_calls(monkeypatch):
    """The modes of every filter_self_citations call made during the test."""
    calls = []
    real = records.filter_self_citations

    def counting(record, mode="include"):
        calls.append(mode)
        return real(record, mode)

    # PreparedRecord.filtered is the one caller; every index filters through it
    monkeypatch.setattr(records, "filter_self_citations", counting)
    return calls


_OWNED = CitationRecord(entity="X", owner_name="O. Wner", publications=tuple(
    Publication(id=f"p{i}", year=2000 + i, authors=("O. Wner", "C. Oauthor"),
                event_years=(2005, 2006) * (i + 1),
                event_citers=(("C. Oauthor",), ("R. Eader",)) * (i + 1))
    for i in range(4)))


def test_report_filters_self_citations_once(filter_calls):
    rep = compute_report(_OWNED, IndexConfig(self_citation_mode="exclude_coauthor"))
    assert filter_calls == ["exclude_coauthor"]
    assert not rep.unavailable and rep.values["h"] == 2


@pytest.fixture
def sort_calls(monkeypatch):
    """One entry per sorted() call that records, core or coauthor makes
    during the test."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return sorted(*args, **kwargs)

    for module in (records, core, coauthor):
        monkeypatch.setattr(module, "sorted", counting, raising=False)
    return calls


def test_report_ranks_each_record_once(sort_calls):
    # The one ranking, the contemporary and the trend score lists, and the
    # h-core author counts whose median h_i_median takes (now_year 2006,
    # gamma 4, delta 1).
    rep = compute_report(_OWNED)
    assert not rep.unavailable
    ranking, contemporary, trend, core_authors = sort_calls
    assert ranking is _OWNED.publications
    assert contemporary == pytest.approx(
        [4 * p.citations() / (2006 - p.year + 1) for p in _OWNED.publications])
    assert trend == pytest.approx(
        [4 * sum(1 / (2006 - y + 1) for y in p.event_years) for p in _OWNED.publications])
    assert core_authors == [2, 2, 2] and rep.values["h_i_median"] == 3 / 2


@pytest.fixture
def event_calls(monkeypatch):
    """One entry per CitationEvent that records builds during the test."""
    calls = []
    real = records.CitationEvent

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(records, "CitationEvent", counting)
    return calls


def test_reading_filtering_and_reporting_build_no_citation_event(tmp_path, event_calls):
    write_record(_OWNED, tmp_path / "owned.json")
    (tmp_path / "counts.csv").write_text(
        "id,year,author_count,citation_count\np1,2000,2,5\np2,2001,,3\n")
    (tmp_path / "events.csv").write_text(
        "pub_id,pub_year,author_count,cite_year,citing_authors\n"
        "p1,2000,2,2001,A;B\np1,2000,2,2003,\np2,2001,1,,\n")
    event_calls.clear()
    owned = parse_record(tmp_path / "owned.json")
    for name in ("counts.csv", "events.csv"):
        parse_record(tmp_path / name)
    for mode in ("exclude_own", "exclude_coauthor"):
        filter_self_citations(owned, mode)
    for mode in SELF_CITATION_MODES:
        rep = compute_report(owned, IndexConfig(self_citation_mode=mode))
        assert not rep.unavailable
    assert event_calls == []


def test_index_functions_read_prepared_vectors_as_they_are(sort_calls):
    vector, authored = citation_vector(_OWNED), authored_vector(_OWNED)
    sort_calls.clear()
    for index in (core.h_index, core.a_index, core.r_index, core.hw_index,
                  core.h2_index, core.w_index, core.maxprod, core.f_index,
                  core.t_index, core.rm_index, core.h_core_cv, core.rmcv_index,
                  core.h_core_sum, lambda v: core.g_index(v, "unbounded")):
        index(vector)
    for index in (coauthor.hi_index, lambda av: coauthor.hi_index(av, "median"),
                  coauthor.pure_h, coauthor.schreiber_hm):
        index(authored)
    # the one sort left is of the h-core author counts, for the median
    assert sort_calls == [[2, 2, 2]]


_NO_OWNER = CitationRecord(entity="anon", publications=(
    Publication(id="p1", year=2000, authors=("A. Author",), event_years=(2001, 2003),
                event_citers=(("A. Author",), ("B. Reader",))),))
_COUNTS_ONLY = CitationRecord(entity="counts", owner_name="A. Author", publications=(
    Publication(id="p1", year=2000, author_count=2, citation_count=5),
    Publication(id="p2", year=2004, author_count=1, citation_count=3)))
_OWNER_NEEDED = "exclude_own needs owner_name to be set"


@pytest.mark.parametrize("record, config, message, exceptions", [
    # the filter is checked before now_year
    (_NO_OWNER, IndexConfig(self_citation_mode="exclude_own", now_year=1999),
     f"record 'anon': {_OWNER_NEEDED}", {}),
    (_COUNTS_ONLY, IndexConfig(self_citation_mode="exclude_coauthor"),
     "publication 'p1' has no citation events; "
     "self-citation filtering needs event-level data", {}),
    # the publication count is checked before filtering
    (CitationRecord(entity="empty"), IndexConfig(self_citation_mode="exclude_own"),
     f"record 'empty': {_OWNER_NEEDED}",
     {"h_norm_output": "record 'empty' has no publications",
      "m_quotient": "record 'empty' has no publications"}),
])
def test_unavailable_messages_per_key(record, config, message, exceptions):
    rep = compute_report(record, config)
    assert rep.values == {}
    assert rep.unavailable == {key: exceptions.get(key, message)
                               for key in REPORT_INDEX_KEYS}


def test_trend_reports_a_citation_event_after_now_year(capsys, tmp_path):
    path = tmp_path / "late.json"
    path.write_text(json.dumps({"entity": "E", "publications": [
        {"id": "p", "year": 2003, "author_count": 1,
         "citation_events": [{"year": 2004}, {"year": 2007}]}]}))
    message = "citation event year 2007 is after now_year 2005"
    argv = ["compute", "--input", str(path), "--now-year", "2005", "--format", "json"]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    values = json.loads(out)["values"]
    assert values["h_trend"] == {"unavailable": message}
    assert [key for key, value in values.items()
            if isinstance(value, dict)] == ["h_trend"]
    assert _run(capsys, argv + ["--strict"]) == (4, "", f"error: {message}\n")


def test_event_level_messages_name_what_needs_the_events():
    needs = "publication 'p1' has no citation events; {} needs event-level data"
    rep = compute_report(_COUNTS_ONLY, indices="h_trend")
    assert rep.unavailable == {"h_trend": needs.format("trend scoring")}
    with pytest.raises(FidelityError) as info:
        temporal.h_sequence(_COUNTS_ONLY, truncate_events_to_now=True)
    assert str(info.value) == needs.format("window-limited counting")


_OWN = IndexConfig(self_citation_mode="exclude_own")


@pytest.mark.parametrize("call", [
    lambda record: citation_vector(record, _OWN),
    lambda record: authored_vector(record),
    lambda record: temporal.trend_h(record, _OWN),
    lambda record: temporal.ar_index(record, _OWN),
    lambda record: temporal.m_quotient(record, _OWN),
    lambda record: temporal.h_sequence(record, _OWN),
    lambda record: compute_report(record, _OWN, strict=True),
])
def test_a_raising_index_frees_its_record_without_collection(call):
    # An index whose view part fails raises the builder's own error, whose
    # traceback holds the view; it must not hold the record in a reference
    # cycle.
    record = CitationRecord(entity="counts", publications=(
        Publication(id="p", year=2000, citation_count=3),))
    freed = []
    weakref.finalize(record, freed.append, True)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with pytest.raises(FidelityError):
            call(record)
        del record
        assert freed
    finally:
        if gc_was_enabled:
            gc.enable()


def test_a_failing_view_part_is_not_kept():
    # exclude_own cannot filter a counts-only record; each index that needs
    # the filtered part builds it again and gets the same error.
    view = records.PreparedRecord(_COUNTS_ONLY, _OWN)
    messages = set()
    for name in ("filtered", "vector", "authored", "vector"):
        with pytest.raises(FidelityError) as exc:
            getattr(view, name)
        messages.add(str(exc.value))
    assert messages == {"publication 'p1' has no citation events; "
                        "self-citation filtering needs event-level data"}
    assert view.now_year == 2004
    assert vars(view) == {"record": _COUNTS_ONLY, "config": _OWN, "now_year": 2004}


def test_a_view_without_a_config_reads_the_default_config():
    assert records.PreparedRecord(_COUNTS_ONLY).config == IndexConfig()


def test_format_value_rules():
    assert format_value("a", 29.0) == "29"
    assert format_value("r", 17.029386) == "17.0"
    assert format_value("r_m", 5.55648) == "5.56"
    assert format_value("h", 10) == "10"
    assert format_value("m_quotient", 1 / 3) == "0.3333"


# ---------------------------------------------------------------------------
# Golden table outputs

def test_compute_core_golden(capsys, equal_h_paths):
    argv = ["compute", "--input", str(equal_h_paths["A"]),
            "--indices", "h,g,a,r", "--g-convention", "unbounded"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out == (GOLDEN / "compute_A_core.txt").read_text()
    code2, out2, _ = _run(capsys, argv)
    assert out2 == out  # byte-stable across runs


def test_compute_default_golden(capsys, equal_h_paths):
    code, out, _ = _run(capsys, ["compute", "--input", str(equal_h_paths["A"])])
    assert code == 0
    assert out == (GOLDEN / "compute_A_default.txt").read_text()


def test_compare_golden(capsys, classified_paths):
    argv = (["compare", "--inputs"] + _classified_args(classified_paths)
            + ["--indices", "h,g,a,r"])
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out == (GOLDEN / "compare_classified.txt").read_text()


def test_compare_sorted_golden(capsys, classified_paths):
    argv = (["compare", "--inputs"] + _classified_args(classified_paths)
            + ["--indices", "h,g,a,r", "--sort-by", "r"])
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out == (GOLDEN / "compare_classified_sorted.txt").read_text()
    assert out.splitlines()[1].startswith("BCF")


_CLASSIFIED = [str(FIXTURES / "classified_authors" / f"{name}.json")
               for name in CLASSIFIED_ORDER]
_PLOTTED = {"compute_A", "compare_classified"}
_COMMAND_CASES = {
    "compute_A": ["compute", "--input", str(FIXTURES / "equal_h_cohort" / "A.json")],
    "compare_classified": ["compare", "--inputs", *_CLASSIFIED, "--indices", "h,g,a,r"],
    "sequence_ACE": ["sequence", "--input", _CLASSIFIED[0]],
    "matrix_classified": ["matrix", "--inputs", *_CLASSIFIED],
    "successive_classified": ["successive", "--inputs", *_CLASSIFIED],
    "group_classified": ["group", "--inputs", *_CLASSIFIED],
    "simulate": ["simulate", "--careers", "5", "--years", "6"],
    "journal": ["journal", "--articles", "50", "--citations", "100"],
    "journal_h": ["journal", "--articles", "100", "--citations", "150", "--h", "10"],
    "field": ["field", "--h", "10", "--field-chi", "32", "--reference-chi", "4",
              "--np", "100", "--chi", "10", "--nc", "10000"],
    "status": ["status", "--input", str(FIXTURES / "cohort.csv")],
}


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("case", sorted(_COMMAND_CASES))
def test_command_golden(capsys, tmp_path, case, fmt):
    argv = _COMMAND_CASES[case] + ["--format", fmt]
    plot = tmp_path / "plot.csv"
    if case in _PLOTTED:
        argv += ["--emit-plot", str(plot)]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "commands" / f"{case}.{fmt}.txt").read_text()
    if case in _PLOTTED:
        assert plot.read_text() == (GOLDEN / "commands" / f"{case}.plot.csv").read_text()


def test_compute_root_sum_root_values(capsys, classified_paths):
    code, out, _ = _run(capsys, ["compute", "--input", str(classified_paths["ACE"]),
                                 "--indices", "r_m,r_m_cv", "--format", "json"])
    assert code == 0
    values = json.loads(out)["values"]
    assert values["r_m"] == pytest.approx(5.56, abs=0.005)
    assert values["r_m_cv"] == pytest.approx(4.25, abs=0.01)


def test_compare_duplicate_input_gives_identical_rows(capsys, classified_paths):
    path = str(classified_paths["ACE"])
    code, out, _ = _run(capsys, ["compare", "--inputs", path, path,
                                 "--indices", "h,g,a,r"])
    assert code == 0
    rows = out.splitlines()[1:]
    assert rows[0] == rows[1]


# ---------------------------------------------------------------------------
# JSON / CSV round trips

def test_json_round_trip(capsys, equal_h_paths):
    code, out, _ = _run(capsys, ["compute", "--input", str(equal_h_paths["A"]),
                                 "--format", "json"])
    assert code == 0
    assert render_json(json.loads(out)) == out


def test_compare_json_round_trip(capsys, classified_paths):
    argv = (["compare", "--inputs"] + _classified_args(classified_paths)
            + ["--indices", "h,g,a,r", "--format", "json"])
    code, out, _ = _run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert render_json(payload) == out
    assert [r["entity"] for r in payload["reports"]] == CLASSIFIED_ORDER


def test_csv_output_full_precision(capsys, equal_h_paths):
    code, out, _ = _run(capsys, ["compute", "--input", str(equal_h_paths["A"]),
                                 "--indices", "h,r,h_trend", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["index", "value", "note"]
    assert rows[1] == ["h", "10", ""]
    assert float(rows[2][1]) == pytest.approx(17.029386365926403, abs=0)
    assert rows[3][0] == "h_trend" and rows[3][1] == "" and rows[3][2]


def test_compare_csv_format(capsys, classified_paths):
    argv = (["compare", "--inputs"] + _classified_args(classified_paths)
            + ["--indices", "h,g", "--format", "csv"])
    code, out, _ = _run(capsys, argv)
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["entity", "kind", "h", "g"]
    assert rows[1][:3] == ["ACE", "researcher", "7"]


def test_self_citations_flag(capsys, tmp_path):
    record = CitationRecord(entity="own", owner_name="Olive Owner", publications=(
        Publication(id="p", year=2000, event_years=(2001,) * 7,
                    event_citers=(("Olive Owner",),) * 2 + (("Someone Else",),) * 5),))
    path = tmp_path / "own.json"
    write_record(record, path)
    code, out, _ = _run(capsys, ["compute", "--input", str(path),
                                 "--indices", "h,a",
                                 "--self-citations", "exclude-own",
                                 "--format", "json"])
    assert code == 0
    values = json.loads(out)["values"]
    assert values["a"] == 5.0


def test_default_now_year_ignores_self_citation_filtering(capsys, tmp_path):
    # The only 2010 event is the owner's own citation.  The echoed now_year
    # is 2010, and the age-weighted keys date the filtered record to it too.
    record = CitationRecord(entity="late_self", owner_name="Olive Owner", publications=(
        Publication(id="p1", year=2006, event_years=(2006, 2010),
                    event_citers=(("Someone Else",), ("Olive Owner",))),
        Publication(id="p2", year=2006, event_years=(2007,) * 2,
                    event_citers=(("Someone Else",),) * 2)))
    path = tmp_path / "late_self.json"
    write_record(record, path)
    argv = ["compute", "--input", str(path), "--self-citations", "exclude-own",
            "--indices", "h_contemporary,h_trend,ar", "--format", "json"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["now_year"] == 2010
    assert (payload["values"]["h_contemporary"], payload["values"]["h_trend"]) == (1, 1)
    assert _run(capsys, argv + ["--now-year", "2010"]) == (0, out, "")


def test_counts_only_trend_is_partial_success(capsys, equal_h_paths):
    code, out, _ = _run(capsys, ["compute", "--input", str(equal_h_paths["A"]),
                                 "--indices", "h_trend"])
    assert code == 0
    assert "unavailable" in out


def test_strict_turns_fidelity_into_input_error(capsys, equal_h_paths):
    code, _, err = _run(capsys, ["compute", "--input", str(equal_h_paths["A"]),
                                 "--indices", "h_trend", "--strict"])
    assert code == 3
    assert "citation events" in err


# ---------------------------------------------------------------------------
# Other commands

def test_sequence_command(capsys, tmp_path):
    record = CitationRecord(entity="seq", publications=(
        Publication(id="a", year=2005, citation_count=5),
        Publication(id="b", year=2004, citation_count=7)))
    path = tmp_path / "seq.json"
    write_record(record, path)
    code, out, _ = _run(capsys, ["sequence", "--input", str(path),
                                 "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["start_year", "end_year", "h"]
    assert rows[1] == ["2005", "2005", "1"]
    assert rows[2] == ["2004", "2005", "2"]


def test_matrix_command(capsys, tmp_path):
    short = CitationRecord(entity="short", publications=(
        Publication(id="a", year=2004, citation_count=3),
        Publication(id="b", year=2006, citation_count=1)))
    long = CitationRecord(entity="long", publications=(
        Publication(id="a", year=2001, citation_count=4),
        Publication(id="b", year=2005, citation_count=2)))
    paths = []
    for rec in (short, long):
        p = tmp_path / f"{rec.entity}.json"
        write_record(rec, p)
        paths.append(str(p))
    code, out, _ = _run(capsys, ["matrix", "--inputs"] + paths)
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["entity", "0", "1", "2", "3", "4"]
    assert rows[1][0] == "short" and rows[1][4] == "" and rows[1][5] == ""
    assert rows[2][0] == "long" and all(rows[2][1:])


def test_successive_command(capsys, tmp_path):
    paths = []
    for i, h in enumerate([5, 4, 3, 3, 2]):
        rec = CitationRecord(entity=f"m{i}", publications=tuple(
            Publication(id=f"p{j}", year=2000, citation_count=h)
            for j in range(h)))
        p = tmp_path / f"m{i}.json"
        write_record(rec, p)
        paths.append(str(p))
    code, out, _ = _run(capsys, ["successive", "--inputs"] + paths)
    assert code == 0
    assert "successive_h  3" in out


def test_group_command(capsys, tmp_path):
    paths = []
    for i, n in enumerate([30, 20, 10]):
        rec = CitationRecord(entity=f"m{i}", publications=tuple(
            Publication(id=f"p{j}", year=2000, citation_count=1)
            for j in range(n)))
        p = tmp_path / f"m{i}.json"
        write_record(rec, p)
        paths.append(str(p))
    code, out, _ = _run(capsys, ["group", "--inputs"] + paths, )
    assert code == 0
    assert "group_hp      3" in out


def test_simulate_byte_identical(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = ["simulate", "--seed", "42", "--careers", "25", "--years", "10"]
    assert main(argv + ["--output", str(out_a)]) == 0
    assert main(argv + ["--output", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    header = out_a.read_text().splitlines()[0]
    assert header == "career_id,years,n_p,n_c,h,a,core_size"


def test_journal_command(capsys):
    code, out, _ = _run(capsys, ["journal", "--articles", "50",
                                 "--citations", "100"])
    assert code == 0
    assert "impact_factor  2.0" in out
    code, out, _ = _run(capsys, ["journal", "--articles", "100",
                                 "--citations", "150", "--h", "10"])
    assert code == 0
    assert "sri" in out and "relative_h" in out and "impact_index" in out


def test_field_command(capsys):
    code, out, _ = _run(capsys, ["field", "--h", "10", "--field-chi", "32",
                                 "--reference-chi", "4"])
    assert code == 0
    assert "h_normalized" in out and "2.5" in out
    code, out, _ = _run(capsys, ["field", "--np", "100", "--chi", "10",
                                 "--nc", "10000"])
    assert code == 0
    assert "h_theoretical" in out and "h_vanraan" in out


@pytest.mark.parametrize("argv, message", [
    (["--h", "-3", "--field-chi", "2", "--reference-chi", "3"], "normalized h needs h >= 0"),
    (["--np", "-3", "--chi", "2"], "theoretical h estimate needs at least one paper"),
    (["--nc", "-5"], "citation total must be non-negative"),
], ids=["h", "np", "nc"])
def test_negative_field_counts_are_domain_errors(capsys, argv, message):
    code, out, err = _run(capsys, ["field", *argv])
    assert (code, out, err) == (4, "", f"error: {message}\n")


def test_status_command(capsys, tmp_path):
    path = tmp_path / "cohort.csv"
    path.write_text("entity,n_p,h\na,10,5\nb,20,10\nc,30,12\n")
    code, out, _ = _run(capsys, ["status", "--input", str(path),
                                 "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert rows[0] == ["entity", "n_p", "h", "residual"]
    assert float(rows[2][3]) == pytest.approx(1.0)


def test_status_pairs_residuals_by_position(capsys, tmp_path):
    path = tmp_path / "cohort.csv"
    path.write_text("entity,n_p,h\nA,10,3\nA,20,9\nB,30,8\n")
    code, out, _ = _run(capsys, ["status", "--input", str(path), "--format", "csv"])
    assert code == 0
    residuals = [float(row[3]) for row in list(csv.reader(out.splitlines()))[1:]]
    assert residuals == pytest.approx([-7 / 6, 7 / 3, -7 / 6])


def test_status_rejects_a_row_with_extra_columns(capsys, tmp_path):
    path = tmp_path / "cohort.csv"
    path.write_text("entity,n_p,h\na,10,3\n\nb,20,9,99\nc,30,8\n")
    code, out, err = _run(capsys, ["status", "--input", str(path)])
    assert (code, out) == (3, "")
    assert err == f"error: {path}: line 3: wrong number of columns\n"


@pytest.mark.parametrize("text, line, message", [
    ("entity,n_p,h\na,10\n", 2, "wrong number of columns"),
    ("entity,n_p,h\na,10,3\n\n\nb,2x,9\n", 3, "field 'n_p' is not an integer: '2x'"),
    ("", 1, "cohort header must be entity,n_p,h"),
    ("\ufeffentity,n_p,h\na,10,3\n", 1, "cohort header must be entity,n_p,h"),
    ("id,year,author_count,citation_count\np,2000,1,3\n", 1,
     "cohort header must be entity,n_p,h"),
], ids=["short-row", "blank-lines-before-bad-row", "empty-file", "bom-header", "record-header"])
def test_status_csv_messages_are_pinned(capsys, tmp_path, text, line, message):
    # A cohort file is read by the rules of a record CSV file; a long row is
    # pinned by test_status_rejects_a_row_with_extra_columns.
    path = tmp_path / "cohort.csv"
    path.write_text(text, encoding="utf-8")
    code, out, err = _run(capsys, ["status", "--input", str(path)])
    assert (code, out, err) == (3, "", f"error: {path}: line {line}: {message}\n")


def test_emit_plot(capsys, tmp_path, equal_h_paths):
    plot = tmp_path / "plot.csv"
    code, _, _ = _run(capsys, ["compute", "--input", str(equal_h_paths["A"]),
                               "--indices", "h,g", "--emit-plot", str(plot)])
    assert code == 0
    rows = list(csv.reader(plot.read_text().splitlines()))
    assert rows[0] == ["series", "entity", "x", "y"]
    assert rows[1] == ["citations", "A", "1", "35"]
    assert ["index", "A", "h", "10"] in rows


def test_emit_plot_filters_once(capsys, tmp_path, filter_calls):
    path = tmp_path / "owned.json"
    write_record(_OWNED, path)
    code, _, _ = _run(capsys, ["compute", "--input", str(path), "--self-citations",
                               "exclude-own", "--emit-plot", str(tmp_path / "plot.csv")])
    assert code == 0
    assert filter_calls == ["exclude_own"]


def test_compare_keeps_citation_vectors_only_for_emit_plot(
        capsys, tmp_path, monkeypatch, classified_paths):
    rendered = []
    real = report.render_compare
    monkeypatch.setattr(report, "render_compare",
                        lambda reports, *args: rendered.append(reports) or real(reports, *args))
    argv = ["compare", "--inputs", *_classified_args(classified_paths), "--indices", "h,g"]
    assert _run(capsys, argv)[0] == 0
    assert [rep.vector for rep in rendered[-1]] == [None] * len(CLASSIFIED_ORDER)
    assert _run(capsys, argv + ["--emit-plot", str(tmp_path / "plot.csv")])[0] == 0
    assert None not in [rep.vector for rep in rendered[-1]]


def test_emit_plot_omits_unavailable_citation_series(capsys, tmp_path, classified_paths):
    plot = tmp_path / "plot.csv"
    code, out, err = _run(capsys, ["compute", "--input", str(classified_paths["ACE"]),
                                   "--self-citations", "exclude-coauthor",
                                   "--emit-plot", str(plot)])
    assert (code, err) == (0, "")
    assert "unavailable (publication 'p01' has no citation events" in out
    assert plot.read_text() == "series,entity,x,y\n"


def test_sorted_compare_plot_keeps_each_series_with_its_entity(
        capsys, tmp_path, equal_h_paths, equal_h_records):
    plot = tmp_path / "plot.csv"
    code, out, _ = _run(capsys, ["compare", "--inputs", *map(str, equal_h_paths.values()),
                                 "--indices", "h,g,a,r", "--sort-by", "r",
                                 "--emit-plot", str(plot)])
    assert code == 0
    series = {}
    for kind, entity, _, y in list(csv.reader(plot.read_text().splitlines()))[1:]:
        if kind == "citations":
            series.setdefault(entity, []).append(int(y))
    assert series == {name: list(records.citation_vector(record).counts)
                      for name, record in equal_h_records.items()}
    sorted_entities = [line.split()[0] for line in out.splitlines()[1:]]
    assert list(series) == sorted_entities


# ---------------------------------------------------------------------------
# Exit codes

_A_FILE = FIXTURES / "cohort.csv"
_TOO_LONG = "x" * 300


@pytest.mark.parametrize("argv", [
    ["compute", "--input", "nope.json"],
    ["compute", "--input", str(_A_FILE / "x.json")],
    ["compute", "--input", str(FIXTURES / "equal_h_cohort" / "A.json"),
     "--output", str(_A_FILE / "out.txt")],
    ["compute", "--input", _TOO_LONG + ".json"],
    ["matrix", "--inputs", _TOO_LONG + ".csv"],
    ["status", "--input", _TOO_LONG + ".csv"],
], ids=["missing", "not-a-directory", "output-not-a-directory", "compute-name-too-long",
        "matrix-name-too-long", "status-name-too-long"])
def test_missing_file_is_input_error(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("output", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize("command", ["compute", "compare"])
def test_an_unwritable_plot_path_writes_no_result(capsys, tmp_path, command, output):
    inputs = [str(FIXTURES / "equal_h_cohort" / name) for name in ("A.json", "B.json")]
    argv = (["compute", "--input", inputs[0]] if command == "compute"
            else ["compare", "--inputs", *inputs])
    argv += ["--emit-plot", str(_A_FILE / "plot.csv")]
    out_path = tmp_path / "out.txt"
    if output:
        argv += ["--output", str(out_path)]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out_path.exists()


def test_a_plot_written_before_an_unwritable_output_stays(capsys, tmp_path):
    plot = tmp_path / "plot.csv"
    code, out, _ = _run(capsys, ["compute", "--input",
                                 str(FIXTURES / "equal_h_cohort" / "A.json"),
                                 "--emit-plot", str(plot), "--output", str(_A_FILE / "out.txt")])
    assert (code, out) == (3, "")
    assert plot.read_text().startswith("series,entity,x,y\n")


_NUL = "a\x00.json"


@pytest.mark.parametrize("argv, workers", [
    (["compute", "--input", _NUL], False),
    (["sequence", "--input", _NUL], False),
    (["status", "--input", "a\x00.csv"], False),
    *[([command, "--inputs", str(FIXTURES / "equal_h_cohort" / "A.json"), _NUL], workers)
      for command in ("compare", "matrix", "successive", "group")
      for workers in (False, True)],
], ids=lambda value: value[0] if isinstance(value, list) else ("in-process", "workers")[value])
def test_a_nul_in_a_path_is_input_error(capsys, monkeypatch, argv, workers):
    if workers:  # two forked workers, whatever the inputs' size and the CPUs
        monkeypatch.setattr(cli, "_POOL_MIN_BYTES", 0)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
    code, out, err = _run(capsys, argv)
    assert (code, out) == (3, "")
    assert err == f"error: {argv[-1]!r}: embedded null byte in the path\n"
    assert multiprocessing.active_children() == []


def test_validation_error_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"entity": "E", "publications": [
        {"id": "p", "year": 2000, "citation_count": 4,
         "citation_events": [{"year": 2001}] * 5}]}))
    code, _, err = _run(capsys, ["compute", "--input", str(path)])
    assert code == 3


def test_domain_error_exit_code(capsys):
    code, _, err = _run(capsys, ["journal", "--articles", "0", "--citations", "5"])
    assert code == 4

    code, _, err = _run(capsys, ["field", "--np", "0", "--chi", "2"])
    assert code == 4


def test_degenerate_cohort_exit_code(capsys, tmp_path):
    path = tmp_path / "cohort.csv"
    path.write_text("entity,n_p,h\na,10,5\nb,10,6\nc,10,7\n")
    code, _, _ = _run(capsys, ["status", "--input", str(path)])
    assert code == 4


def test_usage_errors_exit_2(capsys, equal_h_paths):
    with pytest.raises(SystemExit) as exc:
        main(["compute"])  # missing --input
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--input", str(equal_h_paths["A"]),
              "--indices", "not_an_index"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--inputs", str(equal_h_paths["A"])])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [["--gamma", "0"], ["--delta", "-1"],
                                   ["--gamma", "nan"], ["--gamma", "inf"],
                                   ["--delta", "nan"], ["--delta", "inf"],
                                   ["--alpha", "nan"], ["--alpha", "inf"],
                                   ["--beta", "nan"], ["--beta=-inf"],
                                   ["--now-year", str(10 ** 400)]])
def test_bad_config_values_are_usage_errors(capsys, equal_h_paths, flags):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--input", str(equal_h_paths["A"])] + flags)
    assert exc.value.code == 2
    assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("name, data", [
    ("latin1.json", '{"entity": "M\xfcller", "publications": []}'.encode("latin-1")),
    ("latin1.csv", "id,year,author_count,citation_count\np\xe91,2000,1,3\n".encode("latin-1")),
], ids=["json", "csv"])
def test_non_utf8_input_is_input_error(capsys, tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    code, out, err = _run(capsys, ["compute", "--input", str(path)])
    assert code == 3 and out == ""
    assert err.startswith(f"error: {path}: not UTF-8 text (") and err.count("\n") == 1


def _through_a_pipe(pipe, text, read):
    """read(pipe) of a new named pipe that a thread writes text into, so the
    file cannot seek and can be read only once."""
    os.mkfifo(pipe)

    def write():
        with open(pipe, "w", encoding="utf-8") as fh:
            fh.write(text)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        return read(pipe)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_json_named_pipe_reads_as_its_file_does(capsys, tmp_path, equal_h_paths):
    text = equal_h_paths["A"].read_text(encoding="utf-8")
    assert _through_a_pipe(tmp_path / "valid.json", text, parse_record) == parse_record(
        equal_h_paths["A"])
    malformed = text.replace("},", "},,", 1)
    path = tmp_path / "malformed.json"
    path.write_text(malformed, encoding="utf-8")
    code, out, err = _through_a_pipe(tmp_path / "piped.json", malformed, lambda pipe: _run(
        capsys, ["compute", "--input", str(pipe)]))
    assert (code, out) == (3, "")
    assert err == _run(capsys, ["compute", "--input", str(path)])[2].replace(
        "malformed.json", "piped.json")
    assert err.endswith("line 9: Expecting value\n") and err.count("\n") == 1


def _json_with(pub):
    return json.dumps({"entity": "E", "publications": [pub]})


_BIG = 10 ** 400
_FIT = "does not fit in a signed 64-bit integer"


@pytest.mark.parametrize("command, name, text, message", [
    ("status", "cohort.csv", "entity,n_p,h\nM\xfcller,10,5\n".encode("latin-1"),
     "cohort.csv: not UTF-8 text"),
    ("compute", "nested.json", "[" * 100_000 + "]" * 100_000, "JSON nested too deeply"),
    ("compute", "digits.json", '{"entity": "E", "publications": [{"id": "p", "year": 2000, '
                               '"citation_count": ' + "9" * 5000 + "}]}",
     "integer literal too long"),
    ("compute", "count.json", _json_with({"id": "p", "year": 2000, "citation_count": _BIG}),
     f"citation_count {_FIT}"),
    ("compute", "authors.json", _json_with({"id": "p", "year": 2000, "author_count": _BIG,
                                            "citation_count": 1}),
     f"author_count {_FIT}"),
    ("compute", "year.json", _json_with({"id": "p", "year": -_BIG, "citation_count": 1}),
     f"year {_FIT}"),
    ("compute", "event.json", _json_with({"id": "p", "year": 2000,
                                          "citation_events": [{"year": _BIG}]}),
     f"citation event year {_FIT}"),
    ("compute", "count.csv", f"id,year,author_count,citation_count\np,2000,1,{_BIG}\n",
     f"citation_count {_FIT}"),
    ("compute", "event.csv", "pub_id,pub_year,author_count,cite_year,citing_authors\n"
                             f"p,2000,1,{_BIG},\n", f"citation event year {_FIT}"),
    ("compute", "wide.csv", "id,year,author_count,citation_count\n" + "p" * 200_000
                            + ",2000,1,3\n", "wide.csv: field larger than field limit"),
    ("status", "wide.csv", "entity,n_p,h\n" + "e" * 200_000 + ",10,5\n",
     "wide.csv: field larger than field limit"),
    ("status", "big.csv", f"entity,n_p,h\na,{_BIG},1\nb,2,1\nc,3,2\n", f"n_p {_FIT}"),
], ids=["status-latin1", "nested-json", "5000-digits", "json-citation-count",
        "json-author-count", "json-year", "json-event-year", "counts-csv", "events-csv",
        "csv-field-limit", "status-field-limit", "status-n_p"])
def test_parse_boundary_inputs_are_input_errors(capsys, tmp_path, command, name, text,
                                                message):
    path = tmp_path / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, out, err = _run(capsys, [command, "--input", str(path)])
    assert code == 3 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


_PUB = {"id": "p", "year": 2000, "citation_count": 1}


@pytest.mark.parametrize("name, text, message", [
    ("kind.json", json.dumps({"entity": "E", "kind": "planet", "publications": []}),
     "record 'E': unknown kind 'planet'"),
    ("negative.json", _json_with({**_PUB, "citation_count": -1}),
     "publication 'p': citation_count must be non-negative"),
    ("no-authors.json", _json_with({**_PUB, "author_count": 0}),
     "publication 'p': author_count must be at least 1"),
    ("few-authors.json", _json_with({**_PUB, "authors": ["A", "B"], "author_count": 1}),
     "publication 'p': author_count smaller than the author list"),
    ("field.json", _json_with({**_PUB, "venue": "J"}),
     "{path}: publications[0]: unknown field 'venue'"),
    ("id.json", _json_with({**_PUB, "id": 7}),
     "{path}: publications[0]: field 'id' must be a string"),
    ("record.txt", "{}", "{path}: cannot infer format from suffix '.txt'"),
], ids=["kind", "negative-count", "no-authors", "few-authors", "unknown-field", "id-not-string",
        "suffix"])
def test_record_errors_name_their_check(capsys, tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    assert _run(capsys, ["compute", "--input", str(path)]) == (
        3, "", f"error: {message.format(path=path)}\n")


@pytest.mark.parametrize("argv, message", [
    (["--field-chi", "2"], "--field-chi needs --h and --reference-chi"),
    (["--np", "100"], "theoretical estimate needs both --np and --chi"),
    # checked before the field factor, which here would be a domain error
    (["--h", "1", "--field-chi", "0", "--reference-chi", "4", "--np", "5"],
     "theoretical estimate needs both --np and --chi"),
    ([], "nothing to compute; pass --field-chi, --np/--chi or --nc"),
    (["--nc", "100", "--np", "100", "--literal-radical"],
     "--literal-radical needs --np and --chi"),
    # field names appear in no output, so the command takes none
    (["--h", "1", "--field-chi", "2", "--reference-chi", "4", "--field-name", "x"],
     "unrecognized arguments: --field-name x"),
], ids=["field-chi", "np-without-chi", "np-without-chi-after-field", "nothing",
        "literal-radical", "field-name"])
def test_field_usage_errors_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(["field", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["--articles-in-year", "20"], "--articles-in-year needs --h"),
    (["--beta", "0.4"], "--beta needs --h"),
], ids=["articles-in-year", "beta"])
def test_journal_usage_errors_exit_2(capsys, argv, message):
    # checked before the impact factor, which here would be a domain error
    with pytest.raises(SystemExit) as exc:
        main(["journal", "--articles", "0", "--citations", "5", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    *([command, flag, "1"] for command in ("sequence", "matrix")
      for flag in ("--gamma", "--delta", "--alpha", "--beta")),
    ["sequence", "--g-convention", "bounded"], ["matrix", "--g-convention", "bounded"],
    ["journal", "--target-year", "2000"], ["journal", "--source-years", "1999"],
])
def test_removed_options_are_usage_errors(capsys, argv):
    inputs = ["--articles", "1", "--citations", "1"] if argv[0] == "journal" else [
        "--input" if argv[0] == "sequence" else "--inputs",
        str(FIXTURES / "equal_h_cohort" / "A.json")]
    with pytest.raises(SystemExit) as exc:
        main([argv[0], *inputs, *argv[1:]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["compute", "--input", "r.json"], ["compare", "--inputs", "a.json", "b.json"],
    ["sequence", "--input", "r.json"], ["matrix", "--inputs", "a.json"],
], ids=["compute", "compare", "sequence", "matrix"])
def test_required_arguments_alone_give_the_default_index_config(argv):
    parser = cli.build_parser()
    assert cli._config_from(parser, parser.parse_args(argv)) == IndexConfig()


def test_simulate_alone_gives_the_default_sim_config(capsys, monkeypatch):
    configs = []
    monkeypatch.setattr(aggregate, "burrell_simulate",
                        lambda config: configs.append(config) or ([], []))
    assert main(["simulate"]) == 0
    assert configs == [SimConfig()]


@pytest.mark.parametrize("alpha, shown", [("nan", "nan"), ("1e308", "inf")])
def test_non_finite_values_render_in_tables(equal_h_records, alpha, shown):
    # The CLI rejects these alphas now (see the tests around this one); the
    # table renderer still prints a non-finite value a library caller reports.
    value = float(alpha) * 10  # NaN stays NaN, 1e308 overflows to inf
    rep = dataclasses.replace(compute_report(equal_h_records["A"], indices="h_alpha"),
                              values={"h_alpha": value}, unavailable={})
    assert report.render_report(rep, "table").splitlines()[-1] == f"h_alpha  {shown}"


def _strict_json(text):
    def reject(token):
        raise ValueError(f"not JSON: {token}")
    return json.loads(text, parse_constant=reject)


def test_overflowing_predictive_radicand_is_unavailable(capsys, equal_h_paths):
    argv = ["compute", "--input", str(equal_h_paths["A"]), "--indices", "h,h_alpha",
            "--alpha", "1e308", "--format", "json"]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert _strict_json(out)["values"]["h_alpha"] == {
        "unavailable": "predictive radicand h^2 + alpha*N_c is not finite (inf)"}
    code, out, err = _run(capsys, argv + ["--strict"])
    assert (code, out) == (4, "")
    assert err == "error: predictive radicand h^2 + alpha*N_c is not finite (inf)\n"


def test_render_json_refuses_non_finite_values():
    assert _strict_json(render_json({"x": 1.5})) == {"x": 1.5}
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            render_json({"x": value})


@pytest.mark.parametrize("argv, message", [
    (["journal", "--articles", "10", "--citations", "5", "--h", "3", "--beta", "nan"],
     "impact index needs a finite beta"),
    (["journal", "--articles", "10", "--citations", "5", "--h", "10",
      "--beta=-308.5"], "impact index is not finite (inf)"),
    (["journal", "--articles", "3", "--citations", "10", "--h", "50"],
     "strike rate index: h (50) exceeds N (3)"),
    (["field", "--h", "3", "--field-chi", "inf", "--reference-chi", "2"],
     "field 'field': chi must be positive and finite"),
    (["field", "--h", "3", "--field-chi", "nan", "--reference-chi", "2"],
     "field 'field': chi must be positive and finite"),
    (["field", "--h", "3", "--field-chi", "2", "--reference-chi", "-1"],
     "field 'reference': chi must be positive and finite"),
    (["field", "--h", "3", "--field-chi", "1e-300", "--reference-chi", "1e300"],
     "field factor is not finite (inf)"),
    (["field", "--h", "1" + "0" * 200, "--field-chi", "1e-200", "--reference-chi", "1"],
     "normalized h is not finite (inf)"),
    (["field", "--np", "3", "--chi", "1e200"], "theoretical h estimate is not finite (inf)"),
    (["field", "--np", "3", "--chi", "nan"], "theoretical h estimate needs chi > 0"),
], ids=["beta-nan", "impact-overflow", "h-above-articles", "chi-inf", "chi-nan",
        "reference-chi-negative", "factor-overflow", "normalized-overflow", "estimate-overflow",
        "estimate-nan"])
def test_non_finite_journal_and_field_values_are_domain_errors(capsys, argv, message):
    code, out, err = _run(capsys, argv + ["--format", "json"])
    assert (code, out) == (4, "")
    assert err == f"error: {message}\n"


_HUGE = "1" + "0" * 400


@pytest.mark.parametrize("argv, message", [
    (["journal", "--articles", "10", "--citations", "5", "--h", "3", "--beta=-1000"],
     "impact index is out of floating-point range"),
    (["journal", "--articles", "10", "--citations", "5", "--h", "3", "--beta=1000"],
     "impact index is out of floating-point range"),
    (["journal", "--articles", "10", "--citations", _HUGE],
     "impact factor is out of floating-point range"),
    (["journal", "--articles", "10", "--citations", "5", "--h", _HUGE],
     "relative h is out of floating-point range"),
    (["field", "--nc", _HUGE], "van Raan estimate is out of floating-point range"),
    (["field", "--np", _HUGE, "--chi", "2"],
     "theoretical h estimate is out of floating-point range"),
    (["field", "--np", _HUGE, "--chi", "2", "--literal-radical"],
     "theoretical h estimate is out of floating-point range"),
    (["field", "--h", _HUGE, "--field-chi", "2", "--reference-chi", "3"],
     "normalized h is out of floating-point range"),
], ids=["beta-underflow", "beta-overflow", "citations-huge", "h-huge", "nc-huge",
        "np-huge", "np-huge-literal", "h-normalized-huge"])
def test_out_of_float_range_journal_and_field_values_are_domain_errors(
        capsys, argv, message):
    code, out, err = _run(capsys, argv)
    assert (code, out) == (4, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("name, text, message", [
    ("count.json", _json_with({"id": "p", "year": 2000, "citation_count": True}),
     "field 'citation_count' must be an integer"),
    ("authors.json", _json_with({"id": "p", "year": 2000, "author_count": True,
                                 "citation_count": 1}),
     "field 'author_count' must be an integer"),
    ("year.json", _json_with({"id": "p", "year": False, "citation_count": 1}),
     "field 'year' must be an integer"),
    ("event.json", _json_with({"id": "p", "year": 2000,
                               "citation_events": [{"year": True}]}),
     "field 'year' must be an integer"),
    ("empty_id.json", _json_with({"id": "", "year": 2000, "citation_count": 1}),
     "publication id '' is blank"),
    ("blank_id.json", _json_with({"id": "  ", "year": 2000, "citation_count": 1}),
     "publication id '  ' is blank"),
    ("blank_id.csv", "id,year,author_count,citation_count\n  ,2000,1,3\n",
     "publication id '' is blank"),
    ("blank_pub_id.csv", "pub_id,pub_year,author_count,cite_year,citing_authors\n"
                         " ,2000,1,2001,A. Reader\n",
     "publication id '' is blank"),
])
def test_bool_numbers_and_blank_ids_are_input_errors(capsys, tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = _run(capsys, ["compute", "--input", str(path)])
    assert code == 3 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


_EVENTS_CSV = "pub_id,pub_year,author_count,cite_year,citing_authors\n"
_COUNTS_CSV = "id,year,author_count,citation_count\n"


@pytest.mark.parametrize("command, name, text, message", [
    ("compute", "events.csv", _EVENTS_CSV + "p,20_01,1,2005,\n",
     "line 2: field 'pub_year' is not an integer: '20_01'"),
    ("compute", "events.csv", _EVENTS_CSV + "p,2001,1,2_005,\n",
     "line 2: field 'cite_year' is not an integer: '2_005'"),
    ("compute", "events.csv", _EVENTS_CSV + "p,\uff12\uff10\uff10\uff11,1,2005,\n",
     "line 2: field 'pub_year' is not an integer: '\uff12\uff10\uff10\uff11'"),
    ("compute", "events.csv", _EVENTS_CSV + "p,2001,1,2005,\np,2001,1,\uff12\uff10\uff10\uff15,\n",
     "line 3: field 'cite_year' is not an integer: '\uff12\uff10\uff10\uff15'"),
    ("compute", "events.csv", _EVENTS_CSV + "p,2001,1,+-2005,\n",
     "line 2: field 'cite_year' is not an integer: '+-2005'"),
    ("compute", "counts.csv", _COUNTS_CSV + "p,2000,1_0,3\n",
     "line 2: field 'author_count' is not an integer: '1_0'"),
    ("compute", "counts.csv", _COUNTS_CSV + "p,2000,1,\u0663\n",
     "line 2: field 'citation_count' is not an integer: '\u0663'"),
    ("status", "cohort.csv", "entity,n_p,h\na,1_0,5\nb,20,10\nc,30,12\n",
     "line 2: field 'n_p' is not an integer: '1_0'"),
    ("status", "cohort.csv", "entity,n_p,h\na,10,5\nb,20,\uff11\uff10\nc,30,12\n",
     "line 3: field 'h' is not an integer: '\uff11\uff10'"),
], ids=["underscore-pub-year", "underscore-cite-year", "fullwidth-pub-year",
        "fullwidth-cite-year", "two-signs", "underscore-count", "arabic-indic-count",
        "status-underscore", "status-fullwidth"])
def test_csv_integers_are_ascii_digits(capsys, tmp_path, command, name, text, message):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, out, err = _run(capsys, [command, "--input", str(path)])
    assert (code, out, err) == (3, "", f"error: {path}: {message}\n")


def test_csv_integers_keep_their_sign_and_surrounding_whitespace(tmp_path):
    events = tmp_path / "events.csv"
    events.write_text(_EVENTS_CSV + "p, +2001 ,\t1 , 2005\t,\nq,-5,,,\n")
    assert parse_record(events).publications == (
        Publication(id="p", year=2001, author_count=1, event_years=(2005,), event_citers=((),)),
        Publication(id="q", year=-5, event_years=(), event_citers=()))
    counts = tmp_path / "counts.csv"
    counts.write_text(_COUNTS_CSV + "p, -0 , 2,+3\n")
    assert parse_record(counts).publications == (
        Publication(id="p", year=0, author_count=2, citation_count=3),)


@pytest.mark.parametrize("argv, flag, value", [
    (["compute", "--input", "r.json", "--now-year", "2_010"], "--now-year", "2_010"),
    (["journal", "--articles", "10", "--citations", "\uff15"], "--citations", "\uff15"),
    (["field", "--np", "+-5", "--chi", "2"], "--np", "+-5"),
    (["simulate", "--seed", "\u0663"], "--seed", "\u0663"),
], ids=["underscore-now-year", "fullwidth-citations", "two-signs-np", "arabic-indic-seed"])
def test_integer_flags_are_ascii_digits(capsys, argv, flag, value):
    # The CLI's integer flags follow the rule of CSV integer fields.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: invalid int value: {value!r}" in capsys.readouterr().err


def test_integer_flags_keep_their_sign_and_surrounding_whitespace(capsys):
    assert _run(capsys, ["journal", "--articles", " +10 ", "--citations", "5"]) == (
        0, "impact_factor  0.5\n", "")


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "citemetrics", "journal",
         "--articles", "50", "--citations", "100"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "impact_factor" in result.stdout


def test_cli_import_leaves_numpy_out():
    # numpy is imported by simulate alone; every other command starts without it.
    result = subprocess.run(
        [sys.executable, "-c", "import sys, citemetrics.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


def test_compute_leaves_aggregate_and_venue_unimported(tmp_path):
    # Each command imports only the modules it runs, and a report's exact
    # arithmetic and median need no fractions, decimal or statistics.  Only
    # the multi-record commands' worker pool imports multiprocessing and
    # concurrent.futures.  The record has events, an owner and author
    # counts, so all 23 keys run.
    write_record(_OWNED, tmp_path / "owned.json")
    unwanted = ("citemetrics.aggregate", "citemetrics.venue", "fractions", "decimal",
                "statistics", "multiprocessing", "concurrent.futures")
    script = ("import sys; from citemetrics.cli import main; code = main(sys.argv[1:]); "
              f"print(code, [m for m in {unwanted!r} if m in sys.modules], file=sys.stderr)")
    result = subprocess.run(
        [sys.executable, "-c", script, "compute", "--input", str(tmp_path / "owned.json"),
         "--self-citations", "exclude-coauthor", "--format", "json"],
        capture_output=True, text=True, check=True)
    assert result.stderr == "0 []\n"
    assert sorted(json.loads(result.stdout)["values"]) == sorted(REPORT_INDEX_KEYS)


# Every name the package exported when its __init__ imported each module eagerly.
_PACKAGE_EXPORTS = {
    "aggregate": "CareerSummary SimConfig TailFunction burrell_simulate dynamic_h glanzel_H "
                 "group_hc group_hp group_indices lotkaian_h successive_h",
    "coauthor": "AuthoredVector authored_vector hi_index pure_h schreiber_hm",
    "core": "a_index f_index g_index h2_index h_alpha_predict h_core_cv h_core_sum h_index "
            "hw_index maxprod r_index rm_index rmcv_index t_index w_index",
    "errors": "CitemetricsError DegenerateCohortError DomainError FidelityError "
              "RecordParseError RecordValidationError UndefinedInputError",
    "records": "CitationEvent CitationRecord CitationVector IndexConfig Publication "
               "citation_vector filter_self_citations parse_record record_from_dict "
               "record_to_dict totals validate_record write_record",
    "report": "IndexReport REPORT_INDEX_KEYS compute_report format_value render_json "
              "report_to_jsonable",
    "temporal": "HMatrix HSequence ar_index contemporary_h h_matrix h_sequence m_quotient "
                "normalized_h_output trend_h",
    "venue": "CohortPoint FieldProfile field_factor field_normalized_h impact_factor "
             "impact_index_hm relative_h research_status sri theoretical_h_estimate "
             "vanraan_diagnostic",
}


def test_package_exports_resolve_to_their_modules_objects():
    import citemetrics
    expected = {name: module for module, names in _PACKAGE_EXPORTS.items()
                for name in names.split()}
    assert set(citemetrics.__all__) == {*expected, "__version__"}
    for name, module in expected.items():
        assert getattr(citemetrics, name) is getattr(
            importlib.import_module(f"citemetrics.{module}"), name), name
    assert set(expected) <= set(dir(citemetrics))
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        citemetrics.nonexistent


def test_output_flag_writes_file(tmp_path, equal_h_paths):
    out = tmp_path / "report.txt"
    assert main(["compute", "--input", str(equal_h_paths["A"]),
                 "--indices", "h", "--output", str(out)]) == 0
    assert out.read_text().startswith("entity")
