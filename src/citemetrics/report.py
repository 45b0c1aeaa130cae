"""Index reports: computing a record's indicator set plus table/JSON/CSV
rendering with the fixed display-rounding rules."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass

from . import coauthor, core, temporal
from .errors import DomainError
from .records import UNAVAILABLE_ERRORS, CitationVector, PreparedRecord

_ONE_DECIMAL = {"a", "r", "h_w"}
_TWO_DECIMALS = {"r_m", "h_core_cv", "r_m_cv"}

_COMPUTERS = {
    "h": lambda view: core.h_index(view.vector),
    "g": lambda view: core.g_index(view.vector, view.config.g_convention),
    "a": lambda view: core.a_index(view.vector),
    "r": lambda view: core.r_index(view.vector),
    "h_w": lambda view: core.hw_index(view.vector),
    "h2": lambda view: core.h2_index(view.vector),
    "w": lambda view: core.w_index(view.vector),
    "maxprod": lambda view: core.maxprod(view.vector),
    "f": lambda view: core.f_index(view.vector),
    "t": lambda view: core.t_index(view.vector),
    "r_m": lambda view: core.rm_index(view.vector),
    "h_core_cv": lambda view: core.h_core_cv(view.vector),
    "r_m_cv": lambda view: core.rmcv_index(view.vector),
    "h_alpha": lambda view: core.h_alpha_predict(
        core.h_index(view.vector), sum(view.vector.counts),
        view.config.alpha_predictive),
    **temporal.VIEW_INDICES,
    "h_i_mean": lambda view: coauthor.hi_index(view.authored, "mean"),
    "h_i_median": lambda view: coauthor.hi_index(view.authored, "median"),
    "h_pure": lambda view: coauthor.pure_h(view.authored),
    "h_m_schreiber": lambda view: coauthor.schreiber_hm(view.authored),
}
REPORT_INDEX_KEYS = tuple(_COMPUTERS)


@dataclass(frozen=True)
class IndexReport:
    entity: str
    kind: str
    config: dict
    keys: tuple
    values: dict
    unavailable: dict
    vector: CitationVector | None = None  # None when it could not be built


def select_indices(selection):
    """Validate a comma list / iterable of index keys, preserving order."""
    if selection is None:
        return REPORT_INDEX_KEYS
    keys = ([k.strip() for k in selection.split(",")]
            if isinstance(selection, str) else list(selection))
    for key in keys:
        if key not in REPORT_INDEX_KEYS:
            raise KeyError(key)
    return tuple(dict.fromkeys(keys))


def _config_echo(view):
    try:
        now = view.now_year
    except DomainError:
        now = view.config.now_year
    return {**asdict(view.config), "now_year": now}


def compute_report(record, config=None, indices=None, strict=False):
    """Compute the requested indices; data-fidelity and domain problems mark
    the affected index unavailable (with the reason) unless strict.  The
    record is filtered, ranked and dated once for all the keys."""
    keys = select_indices(indices)
    view = PreparedRecord(record, config)
    values = {}
    unavailable = {}
    for key in keys:
        try:
            values[key] = _COMPUTERS[key](view)
        except UNAVAILABLE_ERRORS as exc:
            if strict:
                raise
            unavailable[key] = str(exc)
    try:
        vector = view.vector
    except UNAVAILABLE_ERRORS:
        vector = None
    return IndexReport(entity=record.entity, kind=record.kind,
                       config=_config_echo(view), keys=keys,
                       values=values, unavailable=unavailable, vector=vector)


# ---------------------------------------------------------------------------
# Rendering

def format_value(key, value):
    """Display rounding: exact integers render bare; otherwise a, r and h_w
    get one decimal, the root-sum-root family two, everything else four."""
    if isinstance(value, int):
        return str(value)
    if math.isfinite(value) and value == int(value):
        return str(int(value))
    if key in _ONE_DECIMAL:
        places = 1
    elif key in _TWO_DECIMALS:
        places = 2
    else:
        places = 4
    return f"{value:.{places}f}"


def _pad_table(rows):
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [cell.ljust(width) for cell, width in zip(row, widths)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


def render(fmt, payload, rows, table, title=None):
    """The one place that picks an output format.  json renders payload;
    csv writes rows, header first, raw values (floats at full precision,
    None as an empty cell); table pads the string cells of table, below the
    fixed line title when given.  A command without a table (table=None)
    prints its CSV in table mode."""
    if fmt == "json":
        return render_json(payload)
    if fmt == "csv" or table is None:
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        return out.getvalue()
    return (f"{title}\n" if title else "") + _pad_table(table)


def report_to_jsonable(report):
    values = {}
    for key in report.keys:
        if key in report.values:
            values[key] = report.values[key]
        else:
            values[key] = {"unavailable": report.unavailable[key]}
    return {"entity": report.entity, "kind": report.kind,
            "config": report.config, "values": values}


def render_json(payload):
    # allow_nan=False: NaN and Infinity are not JSON; every value is finite.
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def render_report(report, fmt):
    rows = [[key, report.values.get(key), report.unavailable.get(key, "")]
            for key in report.keys]
    table = [["entity", report.entity], ["kind", report.kind]] + [
        [key, format_value(key, value) if key in report.values
         else f"unavailable ({note})"] for key, value, note in rows]
    return render(fmt, report_to_jsonable(report),
                  [["index", "value", "note"], *rows], table)


def _compare_rows(reports, keys):
    return [["entity", "kind", *keys]] + [
        [report.entity, report.kind, *(report.values.get(k) for k in keys)]
        for report in reports]


def render_compare(reports, keys, fmt):
    table = [["entity", *keys]] + [
        [report.entity, *(format_value(k, report.values[k]) if k in report.values
                          else "-" for k in keys)]
        for report in reports]
    return render(fmt, {"reports": [report_to_jsonable(r) for r in reports]},
                  _compare_rows(reports, keys), table)


def render_compare_csv(reports, keys):
    return render("csv", None, _compare_rows(reports, keys), None)


def plot_series_csv(reports):
    """Plot-data emission: one (rank, citations) series per report whose
    citation vector is available, plus an (index, value) series."""
    rows = [["series", "entity", "x", "y"]]
    for report in reports:
        if report.vector is not None:
            rows += [["citations", report.entity, rank, count]
                     for rank, count in enumerate(report.vector.counts, start=1)]
        rows += [["index", report.entity, key, report.values[key]]
                 for key in report.keys if key in report.values]
    return render("csv", None, rows, None)
