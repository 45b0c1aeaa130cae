"""The two benchmark workloads: the CLI commands each one runs, the
independent output checks, and the in-process traced replay.

A traced replay calls the library's public functions from here, in the
order the CLI command makes them, each inside a span named
``<module>.<function>``.  Besides the call the CLI itself makes (for
example ``report.compute_report``) it times the layers underneath it on the
prepared data (filtered record, ``CitationVector``, ``AuthoredVector``), and
checks that those layer results agree with the report.
"""

from __future__ import annotations

import csv
import io
import json
import math

from spans import self_times

WORKLOADS = ("large_report", "cohort_batch")

# Report keys computed from the citation vector alone, with the core call
# that computes each one.
_VECTOR_KEYS = (
    ("h", "h_index"), ("g", "g_index"), ("a", "a_index"), ("r", "r_index"),
    ("h_w", "hw_index"), ("h2", "h2_index"), ("w", "w_index"), ("maxprod", "maxprod"),
    ("f", "f_index"), ("t", "t_index"), ("r_m", "rm_index"),
    ("h_core_cv", "h_core_cv"), ("r_m_cv", "rmcv_index"),
)
_TEMPORAL_KEYS = (
    ("h_contemporary", "contemporary_h"), ("h_trend", "trend_h"),
    ("h_norm_output", "normalized_h_output"), ("ar", "ar_index"),
    ("m_quotient", "m_quotient"),
)
COMPARE_INDICES = ("h", "g", "a", "r")


def commands(truths, work_dir):
    """(label, argv after ``python -m citemetrics``) for one batch."""
    records = truths["records"]
    workload = truths["workload"]
    if workload == "large_report":
        return [(f"compute {r['mode']}",
                 ["compute", "--input", str(work_dir / r["file"]), "--format", "json",
                  "--self-citations", r["mode"].replace("_", "-")])
                for r in records]
    paths = [str(work_dir / r["file"]) for r in records]
    return [("compare", ["compare", "--inputs", *paths, "--indices",
                         ",".join(COMPARE_INDICES), "--sort-by", "r",
                         "--format", "csv"]),
            ("matrix", ["matrix", "--inputs", *paths]),
            ("group", ["group", "--inputs", *paths])]


# ---------------------------------------------------------------------------
# Oracles computed from the generator's own counts, by the definitions

def oracle_h(counts):
    ranked = sorted(counts, reverse=True)
    return sum(1 for rank, count in enumerate(ranked, start=1) if count >= rank)


def oracle_g(counts):
    """Bounded g: the largest g <= N_p whose top-g papers hold >= g**2."""
    best = running = 0
    for g, count in enumerate(sorted(counts, reverse=True), start=1):
        running += count
        if running >= g * g:
            best = g
    return best


def oracle_core(counts):
    """(a, r) from the h-core of ``counts``."""
    h = oracle_h(counts)
    core = sum(sorted(counts, reverse=True)[:h])
    return (core / h if h else 0.0), math.sqrt(core)


def oracle_sequence(years, counts):
    last, first = max(years), min(years)
    return [oracle_h([c for y, c in zip(years, counts) if start <= y <= last])
            for start in range(last, first - 1, -1)]


def _close(x, y):
    return math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12)


def check_output(label, text, truths):
    """Compare one command's stdout with the oracles; return an error
    string, or None when the output is right."""
    try:
        return _CHECKS[truths["workload"]](label, text, truths)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"{label}: unreadable output ({type(exc).__name__}: {exc})"


def _check_large(label, text, truths):
    mode = label.split()[-1]
    record = next(r for r in truths["records"] if r["mode"] == mode)
    payload = json.loads(text)
    values = payload["values"]
    counts = record["counts"][mode]
    if payload["config"]["self_citation_mode"] != mode:
        return f"{label}: self_citation_mode {payload['config']['self_citation_mode']}"
    if len(values) != 23:
        return f"{label}: expected the 23 report keys, got {len(values)}"
    for key, want in (("h", oracle_h(counts)), ("g", oracle_g(counts))):
        if values[key] != want:
            return f"{label}: {key} = {values[key]!r}, oracle {want}"
    return None


def _check_compare(text, truths):
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["entity", "kind", *COMPARE_INDICES]:
        return f"compare: header {rows[0]}"
    by_entity = {r["entity"]: r["counts"]["include"] for r in truths["records"]}
    if sorted(row[0] for row in rows[1:]) != sorted(by_entity):
        return "compare: entities differ from the inputs"
    order = []
    for entity, _, h, g, a, r in rows[1:]:
        counts = by_entity[entity]
        want_a, want_r = oracle_core(counts)
        if int(h) != oracle_h(counts) or int(g) != oracle_g(counts):
            return f"compare: {entity} h,g = {h},{g}, oracle {oracle_h(counts)},{oracle_g(counts)}"
        if not (_close(float(a), want_a) and _close(float(r), want_r)):
            return f"compare: {entity} a,r = {a},{r}, oracle {want_a},{want_r}"
        order.append((-float(r), entity))
    if order != sorted(order):
        return "compare: rows not sorted by r descending, then entity"
    return None


def _check_matrix(text, truths):
    rows = list(csv.reader(io.StringIO(text)))
    sequences = [oracle_sequence(r["years"], r["counts"]["include"])
                 for r in truths["records"]]
    width = max(len(s) for s in sequences)
    if rows[0] != ["entity"] + [str(i) for i in range(width)]:
        return f"matrix: header has {len(rows[0]) - 1} windows, oracle {width}"
    want = [[r["entity"]] + [str(v) for v in s] + [""] * (width - len(s))
            for r, s in zip(truths["records"], sequences)]
    if rows[1:] != want:
        return "matrix: h-sequences differ from the oracle"
    return None


def _check_group(text, truths):
    got = dict(line.split() for line in text.splitlines())
    counts = [r["counts"]["include"] for r in truths["records"]]
    want = {"members": len(counts),
            "successive_h": oracle_h([oracle_h(c) for c in counts]),
            "group_hp": oracle_h([len(c) for c in counts]),
            "group_hc": oracle_h([sum(c) for c in counts])}
    if {k: int(v) for k, v in got.items()} != want:
        return f"group: {got}, oracle {want}"
    return None


def _check_cohort(label, text, truths):
    return {"compare": _check_compare, "matrix": _check_matrix,
            "group": _check_group}[label](text, truths)


_CHECKS = {"large_report": _check_large, "cohort_batch": _check_cohort}


# ---------------------------------------------------------------------------
# Traced in-process replay

def _probe(tracer, name, fn, *args):
    """Call ``fn`` inside a span; a documented unavailability becomes None."""
    from citemetrics.errors import DomainError, FidelityError, UndefinedInputError
    with tracer.span(name):
        try:
            return fn(*args)
        except (DomainError, FidelityError, UndefinedInputError):
            return None


def _agree(label, rep, probed):
    for key, value in probed.items():
        want = rep.values.get(key)
        if value != want and not (value is None and key in rep.unavailable):
            return f"{label}: layer value {key} = {value!r}, report {want!r}"
    return None


def _parse_all(tracer, paths):
    from citemetrics.records import parse_record
    parsed = []
    for path in paths:
        with tracer.span("records.parse_record"):
            parsed.append(parse_record(path))
        tracer.count("records.parse_events", sum(
            len(p.citation_events) for p in parsed[-1].publications if p.has_events))
    return parsed


def _replay_large(tracer, truths, work_dir):
    from citemetrics import coauthor, core, records, report, temporal
    include = records.IndexConfig()
    errors, texts = {}, {}
    for entry in truths["records"]:
        mode = entry["mode"]
        label = f"compute {mode}"
        config = records.IndexConfig(self_citation_mode=mode)
        with tracer.span("cli.command", command=label):
            (record,) = _parse_all(tracer, [work_dir / entry["file"]])
            with tracer.span("report.compute_report"):
                rep = report.compute_report(record, config)
            with tracer.span("records.filter_self_citations"):
                filtered = records.filter_self_citations(record, mode)
            dropped = sum(len(a.citation_events) - len(b.citation_events)
                          for a, b in zip(record.publications, filtered.publications))
            tracer.count("records.events_dropped", dropped)
            if mode != "include":
                # The same report on the pre-filtered record: the difference
                # to the call above is what filtering inside the report costs.
                with tracer.span("report.compute_report_include"):
                    base = report.compute_report(filtered, include)
                if base.values != rep.values:
                    errors.setdefault(label, f"{label}: report on the filtered record differs")
            with tracer.span("records.citation_vector"):
                vector = records.citation_vector(filtered)
            probed = {key: _probe(tracer, f"core.{fn}", getattr(core, fn), vector)
                      for key, fn in _VECTOR_KEYS if key != "g"}
            probed["g"] = _probe(tracer, "core.g_index", core.g_index, vector,
                                 config.g_convention)
            with tracer.span("records.totals"):
                n_c = records.totals(filtered)[1]
            probed["h_alpha"] = _probe(tracer, "core.h_alpha_predict",
                                       core.h_alpha_predict, probed["h"], n_c,
                                       config.alpha_predictive)
            for key, fn in _TEMPORAL_KEYS:
                probed[key] = _probe(tracer, f"temporal.{fn}",
                                     getattr(temporal, fn), filtered, include)
            authored = _probe(tracer, "coauthor.authored_vector",
                              coauthor.authored_vector, filtered, include)
            if authored is not None:
                probed["h_i_mean"] = _probe(tracer, "coauthor.hi_index",
                                            coauthor.hi_index, authored, "mean")
                probed["h_i_median"] = _probe(tracer, "coauthor.hi_index",
                                              coauthor.hi_index, authored, "median")
                probed["h_pure"] = _probe(tracer, "coauthor.pure_h",
                                          coauthor.pure_h, authored)
                probed["h_m_schreiber"] = _probe(tracer, "coauthor.schreiber_hm",
                                                 coauthor.schreiber_hm, authored)
            error = _agree(label, rep, probed)
            if error:
                errors.setdefault(label, error)
            with tracer.span("report.render_json"):
                texts[label] = report.render_json(report.report_to_jsonable(rep))
        want = sum(entry["counts"]["include"]) - sum(entry["counts"][mode])
        if dropped != want:
            errors.setdefault(label, f"{label}: filter dropped {dropped} events, "
                                     f"the generator made {want} self-citations")
    return errors, texts


def _replay_cohort(tracer, truths, work_dir):
    from citemetrics import aggregate, core, records, report, temporal
    include = records.IndexConfig()
    paths = [work_dir / r["file"] for r in truths["records"]]
    errors, texts = {}, {}

    with tracer.span("cli.command", command="compare"):
        members = _parse_all(tracer, paths)
        reports = []
        for record in members:
            with tracer.span("report.compute_report"):
                rep = report.compute_report(record, include, COMPARE_INDICES)
            with tracer.span("records.filter_self_citations"):
                filtered = records.filter_self_citations(record, "include")
            with tracer.span("records.citation_vector"):
                vector = records.citation_vector(filtered)
            probed = {key: _probe(tracer, f"core.{fn}", getattr(core, fn), vector)
                      for key, fn in _VECTOR_KEYS if key in COMPARE_INDICES}
            error = _agree(f"compare {record.entity}", rep, probed)
            if error:
                errors.setdefault("compare", error)
            reports.append(rep)
        reports.sort(key=lambda rep: (-rep.values["r"], rep.entity))
        with tracer.span("report.render_compare_csv"):
            texts["compare"] = report.render_compare_csv(reports, COMPARE_INDICES)

    with tracer.span("cli.command", command="matrix"):
        members = _parse_all(tracer, paths)
        with tracer.span("temporal.h_matrix"):
            matrix = temporal.h_matrix(members, include)
    want = [oracle_sequence(r["years"], r["counts"]["include"]) for r in truths["records"]]
    if [[v for v in row if v is not None] for row in matrix.rows] != want:
        errors["matrix"] = "matrix: h_matrix differs from the oracle"

    with tracer.span("cli.command", command="group"):
        members = _parse_all(tracer, paths)
        got = [len(members)]
        for fn in ("successive_h", "group_hp", "group_hc"):
            with tracer.span(f"aggregate.{fn}"):
                got.append(getattr(aggregate, fn)(members))
    error = _check_group("\n".join(f"{k} {v}" for k, v in zip(
        ("members", "successive_h", "group_hp", "group_hc"), got)), truths)
    if error:
        errors["group"] = error
    return errors, texts


REPLAYS = {"large_report": _replay_large, "cohort_batch": _replay_cohort}


def replay(tracer, truths, work_dir):
    """Run one in-process replay of the workload's batch under ``tracer``;
    returns (first error per failing command label, rendered stdout text
    per command label).  The library is imported on first use, so the
    harness stays small until the traced run needs it."""
    return REPLAYS[truths["workload"]](tracer, truths, work_dir)


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced replay

RENDER_SPANS = ("report.render_json", "report.render_compare_csv")


def layer_metrics(spans, counts):
    """The per-layer metrics of one traced replay, from its spans and
    counters."""
    self_time = self_times(spans)

    def total(*names):
        return sum(self_time.get(n, 0.0) for n in names)

    def prefixed(prefix, exclude=()):
        return sum((v for n, v in self_time.items()
                    if n.startswith(prefix) and n not in exclude), 0.0)

    return {
        "records.parse_s": total("records.parse_record"),
        "records.filter_s": total("records.filter_self_citations"),
        "records.vector_s": total("records.citation_vector"),
        "records.parse_events": counts.get("records.parse_events", 0),
        "records.events_dropped": counts.get("records.events_dropped", 0),
        "core.t_index_s": total("core.t_index"),
        "core.f_index_s": total("core.f_index"),
        "core.g_index_s": total("core.g_index"),
        "core.rest_s": prefixed("core.", ("core.t_index", "core.f_index", "core.g_index")),
        "temporal.contemporary_h_s": total("temporal.contemporary_h"),
        "temporal.trend_h_s": total("temporal.trend_h"),
        "temporal.rest_s": total("temporal.normalized_h_output", "temporal.ar_index",
                                 "temporal.m_quotient"),
        "temporal.h_matrix_s": total("temporal.h_matrix"),
        "coauthor.authored_vector_s": total("coauthor.authored_vector"),
        "coauthor.indices_s": prefixed("coauthor.", ("coauthor.authored_vector",)),
        "aggregate.group_s": total("aggregate.successive_h", "aggregate.group_hp",
                                   "aggregate.group_hc"),
        "report.compute_report_s": total("report.compute_report"),
        "report.filter_passes": filter_passes(spans),
        "report.render_s": total(*RENDER_SPANS),
    }


def filter_passes(spans):
    """Over the commands that filter self-citations: (report in the
    command's mode - the same report on the pre-filtered record) divided by
    the time of one filter pass.  0 when no command filters."""
    per_command = {}
    for span in spans:
        if span["name"] in ("report.compute_report", "report.compute_report_include",
                            "records.filter_self_citations"):
            times = per_command.setdefault(span["command"], {})
            times[span["name"]] = times.get(span["name"], 0.0) + span["end"] - span["start"]
    extra = one_pass = 0.0
    for times in per_command.values():
        if "report.compute_report_include" in times:
            extra += times["report.compute_report"] - times["report.compute_report_include"]
            one_pass += times["records.filter_self_citations"]
    return extra / one_pass if one_pass else 0.0
