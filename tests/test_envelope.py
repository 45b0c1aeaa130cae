"""Resource-envelope gate: inputs shaped to stretch the parser, the window
scans, the simulator, the worker pool, the journal and field arithmetic and
the address space, each built in code and run as `python -m citemetrics` in
a child whose memory is capped (conftest.run_bounded).  Every run ends with
exit 0, 3 or 4, with stderr empty or one `error:` line and no traceback,
within a wall bound a few times what it takes on a 2-vCPU host.  Where the
work should grow linearly with the input (the window span, the number of
simulated careers), a child also times the library call at n and 2n with
time.process_time(), best of 3, so that process start cannot hide the
growth, and time(2n) must stay under 2.5 times time(n).

Left out: f, t and h_m on many distinct counts near 2**63 followed by a
count past h (ROADMAP item 4).  Their exact h-core product or reciprocal
sum grows faster than linearly with the counts, so they would fail the
growth check today."""

import json
import sys
import time

import pytest

from citemetrics.cli import _POOL_MIN_BYTES
from citemetrics.temporal import MAX_SEQUENCE_WINDOWS
from conftest import run_bounded

_MiB = 2 ** 20


def _run_cli(argv, codes, wall, memory=512 * _MiB):
    """Run the CLI on argv in a bounded child, check that it ends cleanly
    with one of codes within wall seconds, and return the finished child."""
    start = time.perf_counter()
    child = run_bounded([sys.executable, "-m", "citemetrics", *argv], memory,
                        timeout=max(60, 4 * wall))
    elapsed = time.perf_counter() - start
    assert child.returncode in codes, (argv, child.returncode, child.stderr[-500:])
    assert child.stderr == "" or (child.stderr.startswith("error: ")
                                  and child.stderr.count("\n") == 1), child.stderr[-500:]
    assert "Traceback" not in child.stderr
    assert elapsed < wall, (argv, elapsed)
    return child


def _write_record(path, publications):
    path.write_text(json.dumps({"entity": path.stem, "publications": publications}))
    return str(path)


def _span_record(path, last_year):
    return _write_record(path, [{"id": "a", "year": 1, "citation_count": 3},
                                {"id": "b", "year": last_year, "citation_count": 2}])


def _nested_brackets(tmp_path):
    (tmp_path / "nested.json").write_text("[" * 1_000_000)
    return ["compute", "--input", str(tmp_path / "nested.json")]


def _whitespace(tmp_path):
    (tmp_path / "blank.json").write_text(" " * 2_000_000)
    return ["compute", "--input", str(tmp_path / "blank.json")]


def _long_csv_field(tmp_path):
    (tmp_path / "field.csv").write_text(
        f'id,year,author_count,citation_count\n"{"x" * 2_000_000}",2000,1,3\n')
    return ["compute", "--input", str(tmp_path / "field.csv")]


def _sequence_span(tmp_path):
    return ["sequence", "--input", _span_record(tmp_path / "span.json", MAX_SEQUENCE_WINDOWS)]


def _matrix_span(tmp_path):
    path = _span_record(tmp_path / "span.json", MAX_SEQUENCE_WINDOWS)
    return ["matrix", "--inputs", path, path]


def _pooled_compare(tmp_path):
    """compare over small records whose total size reaches _POOL_MIN_BYTES,
    so that on a host with two or more CPUs the records are reduced in
    worker processes."""
    publications = [{"id": f"p{i:03d}", "year": 2000, "citation_count": i % 40}
                    for i in range(100)]
    paths, total = [], 0
    while total < _POOL_MIN_BYTES:
        path = tmp_path / f"r{len(paths):04d}.json"
        paths.append(_write_record(path, publications))
        total += path.stat().st_size
    return ["compare", "--inputs", *paths, "--indices", "h,g,a,r"]


# The extremes tests/test_cli_fuzz.py draws for journal and field.
_HUGE = str(10 ** 400)
_JOURNAL = ["journal", f"--articles={_HUGE}", f"--citations={_HUGE}", f"--h={_HUGE}"]
_FIELD = ["field", f"--h={_HUGE}", f"--np={_HUGE}", f"--nc={_HUGE}"]

# (builder of the argv from a directory, exit codes, wall bound in seconds,
# and optionally a memory cap in place of _run_cli's).  On a 2-vCPU host each
# shape takes 0.1-0.2 s, but the pooled compare 0.4 s and simulate 3 s.
# simulate holds one career at a time, so its largest ensemble runs under
# half the usual cap, most of which numpy's own import takes: it fails under
# 128 MiB.
_SHAPES = {
    "nested_brackets": (_nested_brackets, {3}, 2),
    "whitespace": (_whitespace, {3}, 2),
    "long_csv_field": (_long_csv_field, {3}, 2),
    "sequence_span": (_sequence_span, {0}, 2),
    "matrix_span": (_matrix_span, {0}, 2),
    "simulate_7000": (lambda _: ["simulate", "--careers", "7000"], {0}, 12, 256 * _MiB),
    "pooled_compare": (_pooled_compare, {0}, 5),
    "journal_huge": (lambda _: _JOURNAL, {0, 3, 4}, 2),
    "journal_beta_nan": (lambda _: [*_JOURNAL, "--beta=nan", "--format=json"],
                         {0, 3, 4}, 2),
    "journal_negative": (lambda _: ["journal", f"--articles=-{_HUGE}", "--citations=0",
                                    "--h=-1", "--beta=1e308"], {0, 3, 4}, 2),
    "field_huge": (lambda _: [*_FIELD, "--field-chi=inf", "--reference-chi=5e-324",
                              "--chi=1.7976931348623157e+308", "--literal-radical"],
                   {0, 3, 4}, 2),
    "field_nan": (lambda _: [*_FIELD, "--field-chi=nan", "--reference-chi=-0.0",
                             "--chi=-inf", "--format=json"], {0, 3, 4}, 2),
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_a_shape_ends_cleanly_within_its_bound(shape, tmp_path):
    build, codes, wall, *memory = _SHAPES[shape]
    _run_cli(build(tmp_path), codes, wall, *memory)


def test_running_out_of_memory_is_exit_3_with_one_line(tmp_path):
    # A one-publication record runs under the cap; a 30 MB record, several
    # times what the cap holds, fails while it is parsed.
    cap = 40 * _MiB
    events = [{"year": 2001, "citing_authors": ["R. Eader"]}] * 20
    one = _write_record(tmp_path / "one.json", [{"id": "p", "year": 2000,
                                                 "citation_events": events}])
    _run_cli(["compute", "--indices", "h", "--input", one], {0}, 2, cap)
    big = _write_record(tmp_path / "big.json", [
        {"id": f"p{i}", "year": 2000, "citation_events": events} for i in range(30_000)])
    child = _run_cli(["compute", "--indices", "h", "--input", big], {3}, 5, cap)
    assert (child.stdout, child.stderr) == ("", "error: out of memory\n")


_GROWTH = """
import collections
import time
from citemetrics import (CitationRecord, Publication, SimConfig, burrell_simulate,
                         h_sequence)


def span(last_year):
    return CitationRecord(entity="W", publications=(
        Publication(id="a", year=1, citation_count=3),
        Publication(id="b", year=last_year, citation_count=2)))


# burrell_simulate draws a career only as it is read, so each is read here.
def simulate(config):
    collections.deque(burrell_simulate(config), maxlen=0)


# For each argument, the least process time function(argument) takes in 3
# rounds; each round calls it on every argument in turn, so a host that
# slows down part way slows every argument alike.
def best_of_3(function, *arguments):
    rounds = []
    for _ in range(3):
        times = []
        for argument in arguments:
            start = time.process_time()
            function(argument)
            times.append(time.process_time() - start)
        rounds.append(times)
    return [min(column) for column in zip(*rounds)]
"""


@pytest.mark.parametrize("function, argument, n", [
    ("h_sequence", "span(n)", MAX_SEQUENCE_WINDOWS // 2),
    ("simulate", "SimConfig(careers=n)", 600),
], ids=["window_span", "simulate_careers"])
def test_time_grows_linearly(function, argument, n):
    child = run_bounded(f"{_GROWTH}\nprint(*best_of_3({function}, "
                        f"*[{argument} for n in ({n}, {2 * n})]))")
    assert (child.returncode, child.stderr) == (0, "")
    small, large = map(float, child.stdout.split())
    assert large < 2.5 * small, (small, large)
