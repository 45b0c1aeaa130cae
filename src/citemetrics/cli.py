"""Command-line surface: ingest record files, run index suites, compare and
rank records, window sequences, group indices, simulation and the journal /
field / cohort indicators.

Exit codes: 0 success (including partial reports with unavailable indices),
2 usage error, 3 input error or out of memory, 4 domain error.  Every usage
check is made before the first file is read; then the inputs are handled in
order and the first one that fails decides the exit code.  A command
returns its text, after writing its --emit-plot file; main alone writes that
text to stdout or --output and sets the exit code, so a failing command, or
an unwritable plot or output path (exit 3), writes nothing to stdout.  The
multi-record commands reduce and drop each record before they read the next
file.  When their inputs are large enough to repay it (_POOL_MIN_BYTES),
forked worker processes, one per usable CPU, each parse and reduce one input
at a time; each worker's error reaches the parent through the pool's map at
its input's position, so later inputs may be read before an earlier one
fails, with the same output and exit code; after it, each worker finishes at
most the input it is reading.  A killed worker ends the command with exit 3.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import report as report_mod
from .errors import (DegenerateCohortError, DomainError, FidelityError,
                     RecordParseError, RecordValidationError, UndefinedInputError)
from .records import (G_CONVENTIONS, SELF_CITATION_MODES, IndexConfig, _csv_int,
                      parse_record, read_cohort)
from .temporal import _matrix_row, _stack_rows, h_sequence

_INPUT_ERRORS = (RecordParseError, RecordValidationError, FidelityError, OSError)
_DOMAIN_ERRORS = (DomainError, UndefinedInputError, DegenerateCohortError)

# Total input size, in bytes, from which the multi-record commands reduce
# their inputs in worker processes: where two workers broke even with one
# process for `compare --indices h,g,a,r` over growing prefixes of a
# 200-record cohort on a 2-vCPU host (median 0.165 / 0.186 s in-process /
# pooled at 1.5 MB, 0.200 / 0.189 s at 1.6 MB, 0.214 / 0.201 s at 2.0 MB).
_POOL_MIN_BYTES = 1_600_000


def _input_bytes(paths):
    """The inputs' total size; a path that cannot be read counts 0 here and
    fails in order when it is parsed."""
    total = 0
    for path in paths:
        try:
            total += os.stat(path).st_size
        except (OSError, ValueError):  # ValueError: a NUL in the path
            pass
    return total


def _pool_size(paths):
    """Worker processes to reduce paths with: one per CPU this process may
    use, capped by the inputs.  0 (reduce in-process) for inputs too small
    to repay a pool, with one CPU, where fork is unavailable, or when the
    process runs other threads: fork copies only the calling thread, so a
    lock another thread holds would stay held in every worker."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 0
    workers = min(len(paths), len(os.sched_getaffinity(0)))
    if workers < 2 or _input_bytes(paths) < _POOL_MIN_BYTES:
        return 0
    import threading
    return workers if threading.active_count() == 1 else 0


_reduce = None  # the command's reduce, in a worker process
_stop = None  # released once an input has failed, in a worker process


def _start_worker(reduce, stop):
    global _reduce, _stop
    _reduce, _stop = reduce, stop


def _reduce_path(path):
    if not _stop.get_value():  # once an input has failed, later results are never read
        return _reduce(parse_record(path))


def _reduce_inputs(reduce, paths):
    """[reduce(parse_record(path)) for path in paths], in input order, and the
    error of the first input that fails.  With a pool, forked workers each
    hold one record at a time, send back only its reduction and start no input
    after an error; a killed worker is an OSError, and every worker has exited
    when this returns or raises.  fork, not spawn: a spawned worker would
    import the package again and could not take a reduce that is a closure."""
    workers = _pool_size(paths)
    if not workers:
        return [reduce(parse_record(path)) for path in paths]
    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
    sys.stdout.flush()  # a forked worker must not hold unwritten output
    sys.stderr.flush()
    context = multiprocessing.get_context("fork")
    stop = context.Semaphore(0)  # a flag workers only read, so a killed one holds no lock
    pool = ProcessPoolExecutor(workers, context, _start_worker, (reduce, stop))
    try:
        # A few chunks per worker: fewer round trips than one input each,
        # and a worker that draws the larger files holds the others up less
        # than with one chunk each.
        return list(pool.map(_reduce_path, paths,
                             chunksize=max(1, len(paths) // (4 * workers))))
    except BrokenExecutor as exc:  # a worker was killed
        raise OSError(exc) from exc
    finally:
        stop.release()  # the chunks still queued after an error skip their inputs
        pool.shutdown()


def _int_flag(text):
    """An integer flag's value, read by the rule CSV integer fields follow:
    an optional sign and ASCII digits, so '2_010' and fullwidth digits are
    usage errors."""
    return _csv_int(text)


_int_flag.__name__ = "int"  # argparse names the type in "invalid int value"


def _add_config_flags(parser, scoring):
    """The IndexConfig flags, each stored under its field name."""
    parser.add_argument("--now-year", type=_int_flag, default=IndexConfig.now_year)
    if scoring:
        parser.add_argument("--gamma", type=float, default=IndexConfig.gamma)
        parser.add_argument("--delta", type=float, default=IndexConfig.delta)
        parser.add_argument("--g-convention", choices=G_CONVENTIONS,
                            default=IndexConfig.g_convention)
    parser.add_argument("--self-citations", dest="self_citation_mode",
                        choices=[m.replace("_", "-") for m in SELF_CITATION_MODES],
                        default=IndexConfig.self_citation_mode.replace("_", "-"))
    if scoring:
        parser.add_argument("--alpha", dest="alpha_predictive", metavar="ALPHA",
                            type=float, default=IndexConfig.alpha_predictive,
                            help="predictive-index coefficient")
        parser.add_argument("--beta", dest="beta_molinari", metavar="BETA",
                            type=float, default=IndexConfig.beta_molinari,
                            help="echoed as beta_molinari in the JSON config")


def _add_output_flags(parser, default_format="table"):
    parser.add_argument("--format", choices=("table", "json", "csv"),
                        default=default_format)
    parser.add_argument("--output", default=None, help="write here instead of stdout")


def _settings(config_class, args):
    """The fields of config_class that the command's flags set."""
    return {field.name: getattr(args, field.name)
            for field in dataclasses.fields(config_class) if field.name in args}


def _config_from(parser, args):
    settings = _settings(IndexConfig, args)
    settings["self_citation_mode"] = settings["self_citation_mode"].replace("-", "_")
    try:
        return IndexConfig(**settings)
    except ValueError as exc:
        parser.error(str(exc))


def _metrics(rows, fmt):
    table = [[key, str(value)] for key, value in rows]
    return report_mod.render(fmt, dict(rows), [("metric", "value"), *rows], table)


def _indices_arg(parser, args):
    try:
        return report_mod.select_indices(args.indices)
    except KeyError as exc:
        parser.error(f"unknown index key {exc.args[0]!r}")


def cmd_compute(parser, args):
    config = _config_from(parser, args)
    indices = _indices_arg(parser, args)
    rep = report_mod.compute_report(parse_record(args.input), config, indices,
                                    strict=args.strict)
    if args.emit_plot:
        Path(args.emit_plot).write_text(report_mod.plot_series_csv([rep]),
                                        encoding="utf-8")
    return report_mod.render_report(rep, args.format)


def cmd_compare(parser, args):
    if len(args.inputs) < 2:
        parser.error("compare needs at least two --inputs")
    config = _config_from(parser, args)
    indices = _indices_arg(parser, args)
    if args.sort_by and args.sort_by not in indices:
        parser.error(f"--sort-by key {args.sort_by!r} is not among the "
                     "requested indices")

    def reduce(record):
        rep = report_mod.compute_report(record, config, indices, strict=args.strict)
        # Only --emit-plot reads a report's citation vector.
        return rep if args.emit_plot else dataclasses.replace(rep, vector=None)

    reports = _reduce_inputs(reduce, args.inputs)
    if args.sort_by:
        def sort_key(rep):
            value = rep.values.get(args.sort_by)
            missing = value is None
            return (missing, -(value if not missing else 0), rep.entity)
        reports = sorted(reports, key=sort_key)
    if args.emit_plot:
        Path(args.emit_plot).write_text(report_mod.plot_series_csv(reports),
                                        encoding="utf-8")
    return report_mod.render_compare(reports, indices, args.format)


def cmd_sequence(parser, args):
    config = _config_from(parser, args)
    record = parse_record(args.input)
    seq = h_sequence(record, config, truncate_events_to_now=args.truncate_events)
    windows = list(zip(seq.start_years, seq.values))
    payload = {"entity": record.entity, "end_year": seq.end_year,
               "windows": [{"start_year": s, "h": h} for s, h in windows]}
    rows = [["start_year", "end_year", "h"]]
    rows += [[s, seq.end_year, h] for s, h in windows]
    table = [["window", "h"]] + [[f"{s}-{seq.end_year}", str(h)] for s, h in windows]
    return report_mod.render(args.format, payload, rows, table,
                             title=f"entity  {record.entity}")


def cmd_matrix(parser, args):
    config = _config_from(parser, args)
    matrix = _stack_rows(_reduce_inputs(
        lambda record: _matrix_row(record, config, args.truncate_events), args.inputs))
    payload = {"entities": list(matrix.entities),
               "rows": [list(row) for row in matrix.rows]}
    rows = [["entity", *range(len(matrix.rows[0]))]]
    rows += [[entity, *row] for entity, row in zip(matrix.entities, matrix.rows)]
    return report_mod.render(args.format, payload, rows, None)


def cmd_group(parser, args):
    from .aggregate import _group_scores, _member_reader
    rows = _reduce_inputs(_member_reader(args.keys), args.inputs)
    return _metrics(list(_group_scores(rows, args.keys).items()), args.format)


def cmd_simulate(parser, args):
    from .aggregate import CareerSummary, SimConfig, burrell_simulate
    careers = [dataclasses.asdict(summary) for _, summary
               in burrell_simulate(SimConfig(**_settings(SimConfig, args)))]
    header = [f.name for f in dataclasses.fields(CareerSummary)]
    rows = [header] + [list(c.values()) for c in careers]
    table = [header] + [[report_mod.format_value(k, v) for k, v in c.items()]
                        for c in careers]
    return report_mod.render(args.format, {"careers": careers}, rows, table)


def cmd_journal(parser, args):
    from .venue import impact_factor, impact_index_hm, relative_h, sri
    if args.h is None and args.articles_in_year is not None:
        parser.error("--articles-in-year needs --h")
    if args.h is None and args.beta is not None:
        parser.error("--beta needs --h")
    rows = [("impact_factor", impact_factor(args.citations, args.articles))]
    if args.h is not None:
        if args.h < 1:  # sri's DomainError names the bound; relative_h would raise ValueError
            sri(args.h, args.articles)
        articles_in_year = args.articles_in_year
        if articles_in_year is None:
            articles_in_year = args.articles
        beta = () if args.beta is None else (args.beta,)
        rows.append(("relative_h", relative_h(args.h, articles_in_year)))
        rows.append(("sri", sri(args.h, args.articles)))
        rows.append(("impact_index", impact_index_hm(args.h, args.articles, *beta)))
    return _metrics(rows, args.format)


def cmd_field(parser, args):
    from .venue import (FieldProfile, field_factor, field_normalized_h,
                        theoretical_h_estimate, vanraan_diagnostic)
    if args.literal_radical and (args.np is None or args.chi is None):
        parser.error("--literal-radical needs --np and --chi")
    if args.field_chi is not None and (args.h is None or args.reference_chi is None):
        parser.error("--field-chi needs --h and --reference-chi")
    if (args.np is None) != (args.chi is None):
        parser.error("theoretical estimate needs both --np and --chi")
    if args.field_chi is None and args.np is None and args.nc is None:
        parser.error("nothing to compute; pass --field-chi, --np/--chi or --nc")
    rows = []
    if args.field_chi is not None:
        reference = FieldProfile("reference", args.reference_chi)
        field = FieldProfile("field", args.field_chi)
        rows.append(("field_factor", field_factor(reference, field)))
        rows.append(("h_normalized", field_normalized_h(args.h, field, reference)))
    if args.np is not None:
        rows.append(("h_theoretical",
                     theoretical_h_estimate(args.np, args.chi,
                                            literal_radical=args.literal_radical)))
    if args.nc is not None:
        rows.append(("h_vanraan", vanraan_diagnostic(args.nc)))
    return _metrics(rows, args.format)


def cmd_status(parser, args):
    from .venue import research_status
    points = read_cohort(args.input)
    header = ["entity", "n_p", "h", "residual"]
    # Residuals pair with points by position: entity names may repeat.
    residuals = research_status(points)
    cohort = [[*point, r] for point, (_, r) in zip(points, residuals)]
    table = [header] + [[e, str(n), str(h), f"{r:.4f}"] for e, n, h, r in cohort]
    return report_mod.render(args.format,
                             {"cohort": [dict(zip(header, row)) for row in cohort]},
                             [header, *cohort], table)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="citemetrics",
        description="Citation-impact indicators over flat record files.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="index suite for one record")
    p.add_argument("--input", required=True)
    p.add_argument("--indices", default=None, help="comma list of index keys")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--emit-plot", default=None, metavar="PATH")
    _add_config_flags(p, scoring=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("compare", help="rank several records side by side")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--indices", default=None)
    p.add_argument("--sort-by", default=None, metavar="INDEX")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--emit-plot", default=None, metavar="PATH")
    _add_config_flags(p, scoring=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sequence", help="h over windows growing back in time")
    p.add_argument("--input", required=True)
    p.add_argument("--truncate-events", action="store_true",
                   help="count only events dated up to now_year")
    _add_config_flags(p, scoring=False)
    _add_output_flags(p)
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("matrix", help="stacked h-sequences for a cohort")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--truncate-events", action="store_true")
    _add_config_flags(p, scoring=False)
    _add_output_flags(p, default_format="csv")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("successive", help="h-index of the members' h-indices")
    p.add_argument("--inputs", nargs="+", required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_group, keys=("successive_h",))

    p = sub.add_parser("group", help="group indices over member records")
    p.add_argument("--inputs", nargs="+", required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_group, keys=("successive_h", "group_hp", "group_hc"))

    # Each flag is stored under its SimConfig field name, and only when
    # given: SimConfig holds the defaults.
    p = sub.add_parser("simulate", help="seeded stochastic career ensemble",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--seed", type=_int_flag)
    p.add_argument("--careers", type=_int_flag)
    p.add_argument("--years", dest="career_years", metavar="YEARS", type=_int_flag)
    p.add_argument("--pub-rate", type=float)
    p.add_argument("--gamma-shape", type=float)
    p.add_argument("--gamma-rate", type=float)
    p.add_argument("--rate-scale", dest="citation_rate_scale", metavar="RATE_SCALE",
                   type=float)
    _add_output_flags(p, default_format="csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("journal", help="impact factor and journal h variants")
    p.add_argument("--articles", type=_int_flag, required=True)
    p.add_argument("--citations", type=_int_flag, required=True)
    p.add_argument("--articles-in-year", type=_int_flag, default=None)
    p.add_argument("--h", type=_int_flag, default=None)
    p.add_argument("--beta", type=float, default=None)
    _add_output_flags(p)
    p.set_defaults(func=cmd_journal)

    p = sub.add_parser("field", help="field normalization and model estimates")
    p.add_argument("--h", type=_int_flag, default=None)
    p.add_argument("--field-chi", type=float, default=None)
    p.add_argument("--reference-chi", type=float, default=None)
    p.add_argument("--np", type=_int_flag, default=None)
    p.add_argument("--chi", type=float, default=None)
    p.add_argument("--nc", type=_int_flag, default=None)
    p.add_argument("--literal-radical", action="store_true")
    _add_output_flags(p)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("status", help="cohort residuals of h against output size")
    p.add_argument("--input", required=True, help="CSV with header entity,n_p,h")
    _add_output_flags(p)
    p.set_defaults(func=cmd_status)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.func(parser, args)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        return 0
    except _INPUT_ERRORS + _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, _DOMAIN_ERRORS) else 3
    except MemoryError:  # its message is empty
        print("error: out of memory", file=sys.stderr)
        return 3
