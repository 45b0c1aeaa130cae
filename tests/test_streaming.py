"""The multi-record commands stream their inputs: each record is parsed,
reduced and released before the next file is read.  Also pins the error
order (usage checks first, then the first failing input) and the output of
every streaming command on a seeded cohort, byte for byte."""

import random
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


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("case", sorted(_PARITY_CASES))
def test_seeded_cohort_output_is_pinned(capsys, tmp_path, case, fmt):
    command, *flags = _PARITY_CASES[case]
    argv = [command, "--inputs", *seeded_cohort(tmp_path), *flags, "--format", fmt]
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "streaming" / f"{case}.{fmt}.txt").read_text()


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
