"""The multi-record commands stream their inputs: each record is parsed,
reduced and released before the next file is read, in-process or in each
worker of a pool.  Also pins the error order (usage checks first, then the
first failing input) and the output of every streaming command on a seeded
cohort, byte for byte, with and without workers."""

import multiprocessing
import os
import random
import signal
import time
import weakref

import pytest

from citemetrics import CitationRecord, Publication, cli, write_record
from conftest import FIXTURES, GOLDEN

STREAMING = ["compare", "matrix", "successive", "group"]
_NAMES = ["Ann Lee", "Bo Chen", "Cy Diaz", "Di Egan", "Ed Fox"]


def seeded_cohort(directory, seed=20, size=12):
    """Write a seeded cohort of JSON records; every fourth is counts-only,
    the rest are event-level with authors, owners and self-citations."""
    rnd = random.Random(seed)
    paths = []
    for i in range(size):
        owner = rnd.choice(_NAMES)
        pubs = []
        for j in range(rnd.randint(1, 12)):
            year = rnd.randint(1995, 2010)
            authors = (owner, *rnd.sample([n for n in _NAMES if n != owner],
                                          rnd.randint(0, 2)))
            events = [(rnd.randint(year, 2012), tuple(rnd.sample(_NAMES, rnd.randint(0, 2))))
                      for _ in range(rnd.randint(0, 15))]
            if i % 4 == 3:
                pubs.append(Publication(id=f"p{j:02d}", year=year, authors=authors,
                                        citation_count=len(events)))
            else:
                pubs.append(Publication(id=f"p{j:02d}", year=year, authors=authors,
                                        event_years=tuple(y for y, _ in events),
                                        event_citers=tuple(c for _, c in events)))
        record = CitationRecord(entity=f"M{i:02d}", owner_name=owner,
                                publications=tuple(pubs))
        path = directory / f"M{i:02d}.json"
        write_record(record, path)
        paths.append(str(path))
    return paths


_PARITY_CASES = {
    "compare": ["compare"],
    "compare_exclude_own_sorted": ["compare", "--self-citations", "exclude-own",
                                   "--sort-by", "h_trend"],
    "matrix": ["matrix"],
    "successive": ["successive"],
    "group": ["group"],
}


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _with_workers(capsys, argv):
    """_run with two worker processes, whatever the inputs' size and the
    CPUs this process may use; no worker outlives the command."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_POOL_MIN_BYTES", 0)
        patch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
        try:
            return _run(capsys, argv)
        finally:
            assert multiprocessing.active_children() == []


def _assert_pinned(run, capsys, tmp_path, case, fmt):
    command, *flags = _PARITY_CASES[case]
    argv = [command, "--inputs", *seeded_cohort(tmp_path), *flags, "--format", fmt]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "streaming" / f"{case}.{fmt}.txt").read_text()


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("case", sorted(_PARITY_CASES))
def test_seeded_cohort_output_is_pinned(capsys, tmp_path, case, fmt):
    _assert_pinned(_run, capsys, tmp_path, case, fmt)


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("case", sorted(_PARITY_CASES))
def test_workers_print_the_pinned_output(capsys, tmp_path, case, fmt):
    _assert_pinned(_with_workers, capsys, tmp_path, case, fmt)


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_workers_print_the_compare_golden_and_its_plot(capsys, tmp_path, fmt):
    # test_report_cli.py's compare_classified case of test_command_golden.
    plot = tmp_path / "plot.csv"
    classified = sorted((FIXTURES / "classified_authors").glob("*.json"))
    argv = ["compare", "--inputs", *map(str, classified), "--indices", "h,g,a,r",
            "--format", fmt, "--emit-plot", str(plot)]
    code, out, err = _with_workers(capsys, argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "commands" / f"compare_classified.{fmt}.txt").read_text()
    assert plot.read_text() == (GOLDEN / "commands" / "compare_classified.plot.csv").read_text()


def test_a_killed_worker_ends_the_command(capsys, tmp_path, monkeypatch):
    # A worker killed mid-task (as by the OOM killer) is an input error.  A
    # pool that waits for the killed worker's task forever fails the alarm.
    paths = seeded_cohort(tmp_path)
    parent, parse = os.getpid(), cli.parse_record

    def parse_or_die(path):
        if path == paths[5] and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return parse(path)

    monkeypatch.setattr(cli, "parse_record", parse_or_die)
    previous = signal.signal(signal.SIGALRM, lambda *_: pytest.fail("the command hung"))
    signal.alarm(20)
    try:
        code, out, err = _with_workers(capsys, ["group", "--inputs", *paths])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


class ParseTracker:
    """Counts parse_record calls and the most parsed records alive at once."""

    def __init__(self, parse):
        self._parse = parse
        self._alive = set()
        self.calls = 0
        self.peak = 0

    def __call__(self, path):
        record = self._parse(path)
        self.calls += 1
        self._alive.add(self.calls)
        weakref.finalize(record, self._alive.discard, self.calls)
        self.peak = max(self.peak, len(self._alive))
        return record

    @property
    def alive(self):
        return len(self._alive)


@pytest.fixture
def tracker(monkeypatch):
    tracker = ParseTracker(cli.parse_record)
    monkeypatch.setattr(cli, "parse_record", tracker)
    return tracker


def test_without_sched_getaffinity_a_command_reduces_in_process(
        capsys, tmp_path, monkeypatch, tracker):
    monkeypatch.setattr(cli, "_POOL_MIN_BYTES", 0)
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    _assert_pinned(_run, capsys, tmp_path, "group", "json")
    # A worker's parses would not reach this process's tracker.
    assert tracker.calls == len(list(tmp_path.glob("*.json")))


def _fixture_paths():
    return [str(p) for p in sorted(FIXTURES.glob("*/*.json"))]


@pytest.mark.parametrize("argv", [
    ["compare"], ["compare", "--self-citations", "exclude-coauthor"],
    ["matrix"], ["successive"], ["group"],
], ids=["compare", "compare-exclude-coauthor", "matrix", "successive", "group"])
@pytest.mark.parametrize("cohort", ["fixtures", "seeded"])
def test_one_parsed_record_alive_at_a_time(capsys, tmp_path, tracker, cohort, argv):
    paths = _fixture_paths() if cohort == "fixtures" else seeded_cohort(tmp_path)
    code, _, _ = _run(capsys, [argv[0], "--inputs", *paths, *argv[1:]])
    assert code == 0
    assert (tracker.calls, tracker.peak, tracker.alive) == (len(paths), 1, 0)


@pytest.mark.parametrize("command", STREAMING)
def test_the_parent_parses_no_record_when_workers_run(capsys, tmp_path, tracker, command):
    paths = seeded_cohort(tmp_path)
    in_process = _run(capsys, [command, "--inputs", *paths])
    assert tracker.calls == len(paths)
    assert _with_workers(capsys, [command, "--inputs", *paths]) == in_process
    assert tracker.calls == len(paths)  # each worker counts on its own copy


def test_compare_releases_records_when_parts_fail(capsys, tracker):
    # Counts-only records under exclude-own: every report part that needs the
    # filtered record keeps a FidelityError, which must not pin the record.
    paths = [str(p) for p in sorted((FIXTURES / "equal_h_cohort").glob("*.json"))]
    code, _, _ = _run(capsys, ["compare", "--inputs", *paths,
                               "--self-citations", "exclude-own"])
    assert code == 0
    assert (tracker.calls, tracker.peak, tracker.alive) == (len(paths), 1, 0)


def test_invalid_sort_by_is_a_usage_error_before_any_parse(capsys, tracker):
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", "--inputs", *_fixture_paths()[:3],
                  "--indices", "h,g", "--sort-by", "r"])
    assert exc.value.code == 2
    assert "--sort-by key 'r'" in capsys.readouterr().err
    assert tracker.calls == 0


@pytest.mark.parametrize("command", ["compute", "sequence", *STREAMING])
def test_bad_flag_beats_unreadable_file(capsys, tracker, command):
    missing = "no/such/record.json"
    argv = ([command, "--input", missing] if command in ("compute", "sequence")
            else [command, "--inputs", missing, missing])
    if command in ("successive", "group"):
        argv += ["--format", "yaml"]  # their only flags are argparse's own
    else:
        argv += ["--now-year", str(2 ** 63)]  # out of IndexConfig's range
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert tracker.calls == 0


def _counts_record(path, entity, years):
    write_record(CitationRecord(entity=entity, publications=tuple(
        Publication(id=f"p{i}", year=year, citation_count=3)
        for i, year in enumerate(years))), path)
    return str(path)


def test_first_failing_input_decides_the_exit_code(capsys, tmp_path, tracker):
    # Under --strict, input 1 has an unavailable index (now_year before its
    # publications: a domain error, exit 4); input 3 is unreadable (exit 3).
    first = _counts_record(tmp_path / "first.json", "first", [2005])
    second = _counts_record(tmp_path / "second.json", "second", [1990])
    argv = ["compare", "--inputs", first, second, str(tmp_path / "missing.json"),
            "--indices", "h,m_quotient", "--now-year", "2000", "--strict"]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (4, "")
    assert err == "error: now_year 2000 precedes publication year 2005\n"
    assert tracker.calls == 1

    # Without --strict the unavailable index is reported and the unreadable
    # third input decides.
    code, _, err = _run(capsys, argv[:-1])
    assert code == 3 and "missing.json" in err
    assert tracker.calls == 3


def test_matrix_stops_at_its_first_failing_input(capsys, tmp_path, tracker):
    wide = _counts_record(tmp_path / "wide.json", "wide", [0, 1_000_000])
    fine = _counts_record(tmp_path / "fine.json", "fine", [2000, 2001])
    code, _, err = _run(capsys, ["matrix", "--inputs", fine, wide,
                                 str(tmp_path / "missing.json")])
    assert code == 4 and "span more than" in err
    assert tracker.calls == 2


def test_workers_report_the_first_failing_input(capsys, tmp_path):
    # The twin of test_first_failing_input_decides_the_exit_code.
    first = _counts_record(tmp_path / "first.json", "first", [2005])
    second = _counts_record(tmp_path / "second.json", "second", [1990])
    argv = ["compare", "--inputs", first, second, str(tmp_path / "missing.json"),
            "--indices", "h,m_quotient", "--now-year", "2000", "--strict"]
    code, out, err = _with_workers(capsys, argv)
    assert (code, out) == (4, "")
    assert err == "error: now_year 2000 precedes publication year 2005\n"

    in_process = _run(capsys, argv[:-1])
    assert in_process[0] == 3 and "missing.json" in in_process[2]
    assert _with_workers(capsys, argv[:-1]) == in_process


def test_workers_stop_matrix_at_its_first_failing_input(capsys, tmp_path):
    # The twin of test_matrix_stops_at_its_first_failing_input.
    wide = _counts_record(tmp_path / "wide.json", "wide", [0, 1_000_000])
    fine = _counts_record(tmp_path / "fine.json", "fine", [2000, 2001])
    argv = ["matrix", "--inputs", fine, wide, str(tmp_path / "missing.json")]
    code, _, err = _with_workers(capsys, argv)
    assert code == 4 and "span more than" in err
    assert _run(capsys, argv) == (code, "", err)


def test_workers_stop_at_the_first_failing_input(capsys, tmp_path, monkeypatch):
    # Input 1 of 200 is missing.  With two workers a chunk holds 200 // 8 = 25
    # inputs, and more chunks than one are queued behind the failing one.
    paths = [_counts_record(tmp_path / f"r{i:03d}.json", f"r{i}", [2000])
             for i in range(200)]
    chunk = len(paths) // (4 * 2)
    paths[1] = str(tmp_path / "missing.json")
    argv = ["group", "--inputs", *paths]
    in_process = _run(capsys, argv)
    assert in_process[0] == 3 and "missing.json" in in_process[2]

    read, write = os.pipe()
    parse = cli.parse_record

    def parse_slowly(path):
        os.write(write, f"{path}\n".encode())
        record = parse(path)
        time.sleep(0.05)
        return record

    monkeypatch.setattr(cli, "parse_record", parse_slowly)
    try:
        assert _with_workers(capsys, argv) == in_process
        parsed = os.read(read, 1 << 16).decode().split()  # every worker has exited
    finally:
        os.close(read)
        os.close(write)
    assert len([path for path in parsed if paths.index(path) > 1]) < chunk


def _exit_argv(tmp_path, command, code):
    """argv for command that ends in exit code."""
    fine = [_counts_record(tmp_path / f"{name}.json", name, [2000, 2001])
            for name in ("a", "b")]
    if code == 4 and command == "matrix":
        fine.append(_counts_record(tmp_path / "wide.json", "wide", [0, 1_000_000]))
    flags = {0: [], 2: ["--format", "yaml"], 3: [str(tmp_path / "missing.json")],
             4: ["--now-year", "1999", "--strict"] if command == "compare" else []}[code]
    return [command, "--inputs", *fine, *flags]


# successive and group have no domain error a command line can reach.
@pytest.mark.parametrize("command, code", [
    *[(command, code) for command in STREAMING for code in (0, 2, 3)],
    ("compare", 4), ("matrix", 4)])
def test_no_worker_outlives_a_command(capsys, tmp_path, command, code):
    argv = _exit_argv(tmp_path, command, code)
    try:
        result = _with_workers(capsys, argv)[0]
    except SystemExit as exc:
        result = exc.code
    assert result == code
    assert cli._reduce is None and cli._stop is None
